"""Closed-form relations between clean and noisy binary posteriors.

Labels are corrupted by feature-independent random flipping: a true
class-1 label is observed as 0 with probability gamma1, a true class-0
label is observed as 1 with probability gamma0.  Under that model the
posterior of the observed label is an affine image of the clean
posterior,

    p_noisy = (1 - gamma1 - gamma0) * p + gamma0,

invertible whenever gamma1 + gamma0 < 1.  Everything in this module is
a scalar, closed-form consequence of that one line: corrupting and
recovering posteriors, the decision threshold that makes a model
trained on flipped labels reproduce clean-label decisions at any class
priors (``corrected_threshold``: the clean prior-ratio cut pushed through
the flip map), the observed class prior, and the matching
maximum-likelihood recovery for a Bernoulli rate estimated from flipped
coin tosses.

Decisions everywhere in this package compare a probability (or score)
against a threshold with ``>=`` and assign class 1 on ties.

All functions are pure; nothing here owns random state.  ``checked`` is
the package's one value rule: every number field (``cast_fields``), flag and
argument with a range is cast and checked by it, and the ranges are the six
ruled kinds, ``Count`` to ``Interior``.  Arrays have one check per kind:
``as_labels`` for 0/1 labels and ``as_points`` for finite feature points.
"""

import math
import numbers
from dataclasses import dataclass, fields
from typing import Annotated, get_args, get_origin

import numpy as np


# the ruled kinds: Annotated[type, rule text, test]; checked raises "<name> must <text>, got <value>"
Count = Annotated[int, "be >= 1", lambda v: v >= 1]
Positive = Annotated[float, "be > 0", lambda v: v > 0.0]
NonNegative = Annotated[float, "be >= 0", lambda v: v >= 0.0]
Rate = Annotated[float, "lie in [0, 1)", lambda v: 0.0 <= v < 1.0]
Probability = Annotated[float, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0]
Interior = Annotated[float, "lie strictly inside (0, 1)", lambda v: 0.0 < v < 1.0]


def _checked_number(name: str, kind: type, value):
    """value cast to kind (int or float); booleans and non-integral or non-finite values raise."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):  # numpy numbers too
        try:
            cast = kind(value)  # int(inf) and float(10**400) overflow, int(nan) fails
        except (OverflowError, ValueError):
            pass
        else:
            if (cast == value) if kind is int else math.isfinite(cast):
                return cast
    expected = "an integer" if kind is int else "a finite number"
    raise ValueError(f"bad value for {name!r}: expected {expected}, got {value!r}")


def checked(name: str, kind, value):
    """value of the field, flag or argument called name, cast to kind (int, float or a ruled kind) and checked.

    ``tuple[kind, ...]`` takes a list or tuple of them and ``kind | None`` None too; a label or a flag passes as it is.
    A bool, NaN, ±inf or non-integral int raises ``bad value for '<name>'``, a number out of range ``<name> must …``.
    """
    many, optional = get_origin(kind) is tuple, type(None) in get_args(kind)
    if many or optional:
        kind = get_args(kind)[0]
    kind, *rule = get_args(kind) if get_origin(kind) is Annotated else (kind,)
    if kind not in (int, float) or (optional and value is None):
        return value
    if many:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"bad value for {name!r}: expected a list of numbers, got {value!r}")
        value = tuple(_checked_number(name, kind, v) for v in value)
    else:
        value = _checked_number(name, kind, value)
    if rule and not all(map(rule[1], value if many else (value,))):
        raise ValueError(f"{name} must {rule[0]}, got {value}")
    return value


def cast_fields(obj) -> None:
    """Replace each field of a frozen dataclass by ``checked`` of it under its declared type."""
    for field in fields(obj):
        object.__setattr__(obj, field.name, checked(field.name, field.type, getattr(obj, field.name)))


@dataclass(frozen=True)
class NoiseParams:
    """Label-flip probabilities gamma1 = P(1 observed as 0), gamma0 = P(0 observed as 1).

    Requires gamma1 + gamma0 < 1: at total noise 1 the observed labels
    carry no information about the clean ones and nothing is recoverable.
    """

    gamma1: Rate
    gamma0: Rate

    def __post_init__(self):
        cast_fields(self)
        if not self.gamma1 + self.gamma0 < 1.0:
            raise ValueError(
                "total noise gamma1 + gamma0 must be < 1 for the label "
                f"flipping to be invertible, got {self.gamma1 + self.gamma0}"
            )

    @property
    def total(self) -> float:
        """Total noise gamma1 + gamma0."""
        return self.gamma1 + self.gamma0

    @property
    def slope(self) -> float:
        """1 - gamma1 - gamma0: slope of the clean-to-noisy posterior map."""
        return 1.0 - self.gamma1 - self.gamma0


@dataclass(frozen=True)
class ClassPriors:
    """Binary class priors; p0 is always the derived complement 1 - p1."""

    p1: Probability

    def __post_init__(self):
        cast_fields(self)

    @property
    def p0(self) -> float:
        return 1.0 - self.p1


def clamp01(x: float) -> float:
    """Clamp to [0, 1].  Recovery functions never clamp on their own."""
    return min(1.0, max(0.0, float(x)))


def corrupt_posterior(p: float, noise: NoiseParams) -> float:
    """Posterior of the observed label given the clean posterior p.

    Returns (1 - gamma1 - gamma0) * p + gamma0; the image of [0, 1] is
    the band [gamma0, 1 - gamma1].
    """
    return noise.slope * checked("clean posterior", Probability, p) + noise.gamma0


def recover_posterior(p_noisy: float, noise: NoiseParams) -> float:
    """Invert corrupt_posterior: (p_noisy - gamma0) / (1 - gamma1 - gamma0).

    Deliberately unclamped: an estimated noisy posterior can land outside
    the attainable band [gamma0, 1 - gamma1], and the overshoot is real
    information about estimation error.  Apply clamp01 afterwards when a
    hard probability is required.
    """
    return (float(p_noisy) - noise.gamma0) / noise.slope


def noisy_decision_threshold(noise: NoiseParams) -> float:
    """Threshold on the noisy posterior that reproduces the clean rule p >= 1/2.

    Equals (1 - gamma1 + gamma0) / 2, i.e. corrupt_posterior(1/2):
    comparing the noisy posterior against it decides exactly like
    comparing the clean posterior against 1/2.  Symmetric noise
    (gamma1 == gamma0) leaves the threshold at 1/2.
    """
    return (1.0 - noise.gamma1 + noise.gamma0) / 2.0


def error_amplification(noise: NoiseParams) -> float:
    """Factor by which recovery inflates estimation error in the noisy posterior.

    recover_posterior has slope 1 / (1 - gamma1 - gamma0) >= 1, so an error
    of eps on the noisy side becomes eps / (1 - total noise) on the clean
    side.  Equals 1 exactly at zero noise and diverges as total noise
    approaches 1.
    """
    return 1.0 / noise.slope


def propagate_priors(clean: ClassPriors, noise: NoiseParams) -> ClassPriors:
    """Class priors of the observed labels after flipping.

    p1 becomes (1 - gamma1) * p1 + gamma0 * p0: the class-1 mass that
    survives flipping plus the class-0 mass flipped into it.
    """
    return ClassPriors((1.0 - noise.gamma1) * clean.p1 + noise.gamma0 * clean.p0)


def logit_shift(train_prior: ClassPriors, eval_prior: ClassPriors) -> float:
    """Log-odds gap between training-label priors and evaluation priors.

    delta = logit(p1_train) - logit(p1_eval).  A sigmoid-output model fit
    under train_prior scores systematically delta higher than the data to
    be classified warrants, so delta doubles as a score-space decision
    threshold (threshold_from_shift) and as a final-bias correction
    (mlp.shift_bias).  Boundary priors have no finite logit and are
    rejected.
    """
    for name, prior in (("train_prior", train_prior), ("eval_prior", eval_prior)):
        checked(f"{name}.p1", Interior, prior.p1)
    return math.log(train_prior.p1 / train_prior.p0) - math.log(eval_prior.p1 / eval_prior.p0)


def logistic(s):
    """1 / (1 + exp(-s)), scalar -> float, array -> array; unclipped.

    Both signs go through t = exp(-|s|), so huge |s| neither overflows
    nor loses precision; far enough out the result is exactly 0.0 or 1.0.
    """
    s = np.asarray(s, dtype=np.float64)
    t = np.exp(-np.abs(s))
    p = np.where(s >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))
    return float(p) if p.ndim == 0 else p


def threshold_from_shift(delta: float) -> float:
    """Probability-space threshold equivalent to deciding at score >= delta.

    That is logistic(delta); the shift must be finite.
    """
    return logistic(checked("delta", float, delta))


def threshold_from_priors(eval_prior: ClassPriors, train_prior: ClassPriors) -> float:
    """Decision threshold correcting a train/eval prior mismatch, log-free.

    p0_eval * p1_train / (p1_eval * p0_train + p0_eval * p1_train).
    For interior priors this agrees with
    threshold_from_shift(logit_shift(train_prior, eval_prior)) to
    floating-point accuracy while avoiding logarithms entirely.
    """
    num = eval_prior.p0 * train_prior.p1
    return num / (eval_prior.p1 * train_prior.p0 + num)


def corrected_threshold(noise: NoiseParams, train_prior: ClassPriors, eval_prior: ClassPriors) -> float:
    """Threshold on the noisy posterior that reproduces the clean Bayes decision at eval_prior.

    A model fit to labels flipped under the clean train_prior estimates
    corrupt_posterior(p), p the clean posterior under train_prior, and the
    clean rule is p >= t = threshold_from_priors(eval_prior, train_prior).
    The cut is t's image (1 - gamma1) * t + gamma0 * (1 - t), spelled so that
    equal priors give exactly noisy_decision_threshold(noise).  Flipping is
    not a prior shift: propagate_priors gives the right cut only at an eval
    prior of 1/2.  Both priors and the cut must be interior.
    """
    for name, prior in (("eval_prior", eval_prior), ("train_prior", train_prior)):
        checked(f"{name}.p1", Interior, prior.p1)
    t = threshold_from_priors(eval_prior, train_prior)
    return checked("threshold", Interior, (1.0 - noise.gamma1) * t + noise.gamma0 * (1.0 - t))


def as_labels(values, name: str) -> np.ndarray:
    """values as an array in its own dtype, checked to hold only 0 and 1 (a bool array needs no check).

    The package's one 0/1 label check; run it before a bool cast, which makes a 0.5, a 2 or a -1 True.
    """
    values = np.asarray(values)
    if values.dtype != bool and not ((values == 0) | (values == 1)).all():
        raise ValueError(f"{name} must contain only 0/1 values")
    return values


def as_points(values, width: int, name: str) -> np.ndarray:
    """values as float64, checked to have a last axis of ``width`` and to hold only finite numbers.

    The package's one feature-point check; each caller adds its own rule on the leading axes.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1:] != (width,):
        raise ValueError(f"{name} must have trailing dimension {width}, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


def _as_binary_array(observations) -> np.ndarray:
    obs = as_labels(observations, "observations")
    if obs.size == 0:
        raise ValueError("need at least one observation")
    return obs.astype(np.float64).ravel()


def mle_flipped_bernoulli(observations, noise: NoiseParams) -> tuple[float, float]:
    """Maximum-likelihood (noisy_rate, clean_rate) from flipped 0/1 tosses.

    The ML estimate of the observed rate is the sample mean; since the
    observed rate is an invertible affine function of the clean rate, the
    ML estimate of the clean rate is its recovery
    (mean - gamma0) / (1 - gamma1 - gamma0).  Returned unclamped, like
    recover_posterior.
    """
    obs = _as_binary_array(observations)
    noisy_rate = float(obs.mean())
    return noisy_rate, recover_posterior(noisy_rate, noise)


def bernoulli_grid_mle(observations, noise: NoiseParams, step: float = 1e-4) -> float:
    """Brute-force ML estimate of the clean rate by likelihood grid search.

    Scans clean-rate candidates spaced ``step`` apart across [0, 1] and
    maximizes the exact flipped-Bernoulli log-likelihood

        k * log(q) + (m - k) * log(1 - q),   q = corrupt_posterior(p).

    Slow and entirely independent of the closed form in
    mle_flipped_bernoulli; kept as a cross-check oracle.  Ties resolve to
    the smallest candidate.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError(f"step must lie in (0, 0.5], got {step}")
    obs = _as_binary_array(observations)
    k = obs.sum()
    m = obs.size
    grid = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    q = noise.slope * grid + noise.gamma0
    with np.errstate(divide="ignore", invalid="ignore"):
        loglik = np.where(k > 0, k * np.log(q), 0.0)
        loglik = loglik + np.where(m - k > 0, (m - k) * np.log1p(-q), 0.0)
    return float(grid[int(np.argmax(loglik))])
