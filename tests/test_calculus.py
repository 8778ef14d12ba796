import contextlib
import io
import math
import os
import re
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from labelnoise.calculus import (
    ClassPriors,
    NoiseParams,
    as_points,
    bernoulli_grid_mle,
    clamp01,
    corrected_threshold,
    corrupt_posterior,
    error_amplification,
    logistic,
    logit_shift,
    mle_flipped_bernoulli,
    noisy_decision_threshold,
    propagate_priors,
    recover_posterior,
    threshold_from_priors,
    threshold_from_shift,
)
from labelnoise.cli import main
from labelnoise.experiments import EfficiencyGridConfig, FlipRatioGridConfig, run_grid
from labelnoise.mlp import (Architecture, TrainConfig, classify, grad, init_params, loss, score, score_cut, train,
                           train_stack)
from labelnoise.seeding import make_rng
from labelnoise.svgchart import Series
from labelnoise.synthdata import Dataset, clean_posterior, gmm_log_density, make_random_problem, sample_dataset


def random_noise(rng, max_total=0.98):
    """Valid flip rates with bounded total noise.

    The affine recovery amplifies float rounding by 1/(1 - total), so
    totals arbitrarily close to 1 would defeat any fixed absolute
    tolerance; 0.98 still covers the severest case of interest
    (0.49 + 0.49) with ~50x headroom under 1e-12.
    """
    while True:
        g1, g0 = rng.uniform(0.0, 1.0, size=2)
        if g1 + g0 <= max_total:
            return NoiseParams(g1, g0)


# ------------------------------------------------------------- construction

@pytest.mark.parametrize("g1,g0", [(1.0, 0.0), (0.0, 1.0), (-0.1, 0.0), (0.0, -0.1),
                                   (0.5, 0.5), (0.6, 0.41), (float("nan"), 0.1)])
def test_noise_params_rejects_invalid(g1, g0):
    with pytest.raises(ValueError):
        NoiseParams(g1, g0)


def test_noise_params_accepts_boundaries():
    NoiseParams(0.0, 0.0)
    NoiseParams(0.99, 0.0)
    n = NoiseParams(0.3, 0.1)
    assert n.total == pytest.approx(0.4)
    assert n.slope == pytest.approx(0.6)


@pytest.mark.parametrize("p1", [-0.01, 1.01, float("nan")])
def test_class_priors_rejects_invalid(p1):
    with pytest.raises(ValueError):
        ClassPriors(p1)


# field -> a maker of the value type that holds v in that field: flip rates, prior, chart points
NUMBER_FIELDS = {
    "gamma1": lambda v: NoiseParams(v, 0.1),
    "gamma0": lambda v: NoiseParams(0.1, v),
    "p1": ClassPriors,
    "xs": lambda v: Series("s", (v,), (0.5,)),
    "ys": lambda v: Series("s", (0.5,), (v,)),
}


@pytest.mark.parametrize("value", [True, "0.1", Decimal("0.5"), math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_flip_rates_priors_and_chart_points_take_only_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"^bad value for '{field}': expected a finite number, got "):
        NUMBER_FIELDS[field](value)


@pytest.mark.parametrize("value", [np.float32(0.25), np.int64(0), Fraction(1, 4)])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_numpy_scalars_and_fractions_are_numbers(field, value):
    got = getattr(NUMBER_FIELDS[field](value), field)
    got = got[0] if field in ("xs", "ys") else got
    assert type(got) is float and got == float(value)


# each ruled kind's rule text, and values just outside its range
RULES = {
    "count": ("be >= 1", [0]),
    "positive": ("be > 0", [0.0]),
    "non-negative": ("be >= 0", [-5e-324]),
    "rate": ("lie in [0, 1)", [-5e-324, 1.0]),
    "probability": ("lie in [0, 1]", [-5e-324, 1.0000000000000002]),
    "interior": ("lie strictly inside (0, 1)", [0.0, 1.0]),
}
GRID_FIELDS = dict(noise_levels="rate", runs="count", test_size="count", separation_scale="positive")
# every value type's ruled fields and their kinds, both grid presets included
RULED_FIELDS = {
    NoiseParams: dict(gamma1="rate", gamma0="rate"),
    ClassPriors: dict(p1="probability"),
    Architecture: dict(input_dim="count", hidden_sizes="count"),
    TrainConfig: dict(epochs="count", batch_size="count", learning_rate="positive", momentum="rate",
                      weight_decay="non-negative", early_stop_tol="non-negative"),
    EfficiencyGridConfig: dict(GRID_FIELDS, training_sizes="count"),
    FlipRatioGridConfig: dict(GRID_FIELDS, flip_ratios="positive", train_size="count"),
}
LIST_FIELDS = {"hidden_sizes", "noise_levels", "training_sizes", "flip_ratios"}
REQUIRED = {NoiseParams: dict(gamma1=0.1, gamma0=0.1), ClassPriors: dict(p1=0.5)}


def cli_error(*argv):
    """Run the command line; the message of an exit 2 raised as a ValueError, else the exit code.

    Give a flag's value as ``--flag=value``: argparse takes -5e-324 for a flag, not a value.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if code == 2:
        raise ValueError(err.getvalue().removeprefix("error: ").rstrip("\n"))
    return code


def tiny_grid():
    return FlipRatioGridConfig(noise_levels=(0.2,), flip_ratios=(1.0,), runs=1, train_size=20,
                               test_size=20, epochs=1)


# every argument and flag that calculus.checked guards: (name, kind, a call with the value there);
# a flag never reads as True, and an int flag never as NaN: argparse rejects both before the check
ARGUMENTS = [
    ("clean posterior", "probability", lambda v: corrupt_posterior(v, NoiseParams(0.1, 0.1))),
    ("train_prior.p1", "interior", lambda v: logit_shift(SimpleNamespace(p1=v), ClassPriors(0.5))),
    ("eval_prior.p1", "interior", lambda v: logit_shift(ClassPriors(0.5), SimpleNamespace(p1=v))),
    ("train_prior.p1", "interior",
     lambda v: corrected_threshold(NoiseParams(0.2, 0.0), SimpleNamespace(p1=v), ClassPriors(0.5))),
    ("eval_prior.p1", "interior",
     lambda v: corrected_threshold(NoiseParams(0.2, 0.0), ClassPriors(0.5), SimpleNamespace(p1=v))),
    ("delta", "number", threshold_from_shift),
    ("threshold", "interior", score_cut),
    ("separation_scale", "positive", lambda v: make_random_problem(0, v)),
    ("n", "count", lambda v: sample_dataset(make_random_problem(0, 2.5), v, 0)),
    ("jobs", "count", lambda v: run_grid(tiny_grid(), jobs=v)),
    ("--n", "count", lambda v: cli_error("gen", "--out", os.devnull, f"--n={v}")),
    ("--threshold", "interior", lambda v: cli_error("eval", "--model", "none.txt", "--data", "none.csv",
                                                    f"--threshold={v}")),
    ("--jobs", "count", lambda v: cli_error("fig3", "--outdir", os.devnull, f"--jobs={v}")),
    ("--p", "probability", lambda v: cli_error("bernoulli", f"--p={v}", "--gamma1", 0.1, "--gamma0", 0.1,
                                               "--count", 10)),
    ("--count", "count", lambda v: cli_error("bernoulli", "--p", 0.5, "--gamma1", 0.1, "--gamma0", 0.1,
                                             f"--count={v}")),
]
# (a value type or a call, name, kind) for every ruled field, argument and flag
RULED = ([(cls, field, kind) for cls, ruled in RULED_FIELDS.items() for field, kind in ruled.items()]
         + [(call, name, kind) for name, kind, call in ARGUMENTS])


def build_with(site, name, value):
    """site called with value: a value type built from valid values but value in field name, one-item
    tuple for a list field, or an argument's or a flag's call."""
    if not isinstance(site, type):
        return site(value)
    return site(**{**REQUIRED.get(site, {}), name: (value,) if name in LIST_FIELDS else value})


def site_id(v):
    return str(v) if isinstance(v, (str, float, int)) else getattr(v, "__name__", "").strip("<>")


@pytest.mark.parametrize("site, field, kind, value", [
    (site, field, kind, value) for site, field, kind in RULED if kind in RULES for value in RULES[kind][1]
], ids=site_id)
def test_a_value_just_outside_a_ruled_range_is_reported_with_the_rule(site, field, kind, value):
    shown = (value,) if field in LIST_FIELDS else value  # a list field shows the whole tuple
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must {RULES[kind][0]}, got {shown}')}$"):
        build_with(site, field, value)


@pytest.mark.parametrize("site, field, value", [
    (site, field, value) for site, field, kind in RULED for value in (math.nan, True)
    if not field.startswith("--") or (value is math.nan and kind != "count")
], ids=site_id)
def test_nan_and_true_in_a_ruled_field_are_not_numbers(site, field, value):
    with pytest.raises(ValueError, match=f"^bad value for '{field}': expected "):
        build_with(site, field, value)


NET, PROBLEM = init_params(Architecture(), 0), make_random_problem(0, 2.5)
# every boundary that takes feature points: a call with an (m, 2) batch x there
POINT_SITES = {
    "score": lambda x: score(NET, x),
    "classify": lambda x: classify(NET, x),
    "loss": lambda x: loss(NET, x, np.zeros(len(x))),
    "grad": lambda x: grad(NET, x, np.zeros(len(x))),
    "train": lambda x: train(x, np.zeros(len(x)), cfg=TrainConfig(epochs=1)),
    "train_stack": lambda x: train_stack(x[None], np.zeros((1, len(x))), Architecture(), TrainConfig(epochs=1), [0]),
    "Dataset": lambda x: Dataset(x, np.zeros(len(x)), np.zeros(len(x))),
    "gmm_log_density": lambda x: gmm_log_density(PROBLEM.model1, x),
    "clean_posterior": lambda x: clean_posterior(PROBLEM, x),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "width-3"])
@pytest.mark.parametrize("site", POINT_SITES)
def test_every_boundary_checks_feature_points_by_the_one_rule(site, bad):
    x = np.zeros((4, 3 if bad == "width-3" else 2))
    if bad == "width-3":
        rule = r"must have trailing dimension 2, got shape \((1, )?4, 3\)"
    else:
        x[1, 0], rule = float(bad), "must be finite"
    with pytest.raises(ValueError, match=rf"^\w+ {rule}$"):
        POINT_SITES[site](x)


def test_as_points_returns_float64_of_any_leading_shape():
    for shape in ((2,), (0, 2), (3, 4, 2)):
        points = as_points(np.ones(shape, dtype=np.int64), 2, "points")
        assert points.dtype == np.float64 and points.shape == shape
    with pytest.raises(ValueError, match=r"^points must have trailing dimension 2, got shape \(\)$"):
        as_points(1.0, 2, "points")


def test_class_priors_p0_is_derived_complement():
    for p1 in (0.0, 0.25, 0.5, 1.0):
        assert ClassPriors(p1).p0 == 1.0 - p1


# ------------------------------------------------------ corrupt and recover

def test_corrupt_posterior_examples():
    n = NoiseParams(0.2, 0.1)
    assert corrupt_posterior(1.0, n) == pytest.approx(0.8, abs=1e-15)
    assert corrupt_posterior(0.0, n) == pytest.approx(0.1, abs=1e-15)
    assert corrupt_posterior(0.5, NoiseParams(0.0, 0.0)) == 0.5


def test_corrupt_posterior_rejects_out_of_range():
    n = NoiseParams(0.2, 0.1)
    for p in (-0.001, 1.001, float("nan")):
        with pytest.raises(ValueError):
            corrupt_posterior(p, n)


def test_corrupt_image_stays_in_band():
    rng = make_rng(101, "band")
    for _ in range(500):
        noise = random_noise(rng)
        p = float(rng.random())
        q = corrupt_posterior(p, noise)
        assert noise.gamma0 - 1e-15 <= q <= 1.0 - noise.gamma1 + 1e-15


def test_corrupt_is_monotone():
    rng = make_rng(102, "monotone")
    for _ in range(200):
        noise = random_noise(rng)
        ps = np.sort(rng.random(50))
        qs = [corrupt_posterior(p, noise) for p in ps]
        for (p_a, q_a), (p_b, q_b) in zip(zip(ps, qs), zip(ps[1:], qs[1:])):
            assert q_b >= q_a
            if p_b - p_a > 1e-9:  # float rounding can tie truly adjacent inputs
                assert q_b > q_a


def test_round_trip_recovery():
    n = NoiseParams(0.2, 0.1)
    assert recover_posterior(corrupt_posterior(0.37, n), n) == pytest.approx(0.37, abs=1e-12)
    rng = make_rng(103, "roundtrip")
    for _ in range(2000):
        noise = random_noise(rng)
        p = float(rng.random())
        assert abs(recover_posterior(corrupt_posterior(p, noise), noise) - p) < 1e-12


def test_recover_is_deliberately_unclamped():
    n = NoiseParams(0.2, 0.1)
    assert recover_posterior(0.05, n) < 0.0          # below the attainable band
    assert recover_posterior(0.9, n) > 1.0           # above it
    assert clamp01(recover_posterior(0.05, n)) == 0.0
    assert clamp01(recover_posterior(0.9, n)) == 1.0


def test_clamp01():
    assert clamp01(-3.0) == 0.0
    assert clamp01(3.0) == 1.0
    assert clamp01(0.31) == 0.31


# ----------------------------------------------------------------- thresholds

def test_noisy_decision_threshold_examples():
    assert noisy_decision_threshold(NoiseParams(0.1, 0.3)) == pytest.approx(0.6, abs=1e-15)
    assert noisy_decision_threshold(NoiseParams(0.3, 0.1)) == pytest.approx(0.4, abs=1e-15)
    assert noisy_decision_threshold(NoiseParams(0.0, 0.0)) == 0.5
    assert noisy_decision_threshold(NoiseParams(0.2, 0.2)) == 0.5


def test_threshold_is_corrupt_of_one_half_for_dyadic_rates():
    # with exactly representable rates both expressions are float-exact
    n = NoiseParams(0.25, 0.125)
    assert corrupt_posterior(0.5, n) == noisy_decision_threshold(n)


def test_decision_equivalence_random():
    rng = make_rng(104, "decisions")
    for _ in range(2000):
        noise = random_noise(rng)
        p = float(rng.random())
        assert (p >= 0.5) == (corrupt_posterior(p, noise) >= noisy_decision_threshold(noise))


def test_error_amplification_examples():
    assert error_amplification(NoiseParams(0.25, 0.25)) == pytest.approx(2.0, abs=1e-15)
    assert error_amplification(NoiseParams(0.4, 0.4)) == pytest.approx(5.0, rel=1e-14)
    assert error_amplification(NoiseParams(0.0, 0.0)) == 1.0


def test_error_amplification_scales_recovery_error():
    # slope 0.5 is a power of two: the affine algebra is float-exact
    noise = NoiseParams(0.375, 0.125)
    amp = error_amplification(noise)
    for p_noisy in (0.25, 0.375, 0.5):
        for eps in (2.0**-4, 2.0**-10, 2.0**-24):
            got = recover_posterior(p_noisy + eps, noise) - recover_posterior(p_noisy, noise)
            assert got == eps * amp
    # and approximately for arbitrary rates
    rng = make_rng(105, "amp")
    for _ in range(500):
        noise = random_noise(rng)
        p_noisy = float(rng.uniform(0.1, 0.8))
        eps = 1e-6
        got = recover_posterior(p_noisy + eps, noise) - recover_posterior(p_noisy, noise)
        assert got == pytest.approx(eps * error_amplification(noise), rel=1e-9)


# ----------------------------------------------------------- prior propagation

def test_propagate_priors_examples():
    got = propagate_priors(ClassPriors(0.5), NoiseParams(0.3, 0.1))
    assert got.p1 == pytest.approx(0.4, abs=1e-15)
    assert got.p0 == pytest.approx(0.6, abs=1e-15)
    assert propagate_priors(ClassPriors(1.0), NoiseParams(0.2, 0.1)).p1 == pytest.approx(0.8, abs=1e-15)
    assert propagate_priors(ClassPriors(0.3), NoiseParams(0.0, 0.0)).p1 == 0.3


def test_propagate_priors_symmetric_noise_keeps_equal_priors_exactly():
    rng = make_rng(106, "sym")
    for _ in range(500):
        g = float(rng.uniform(0.0, 0.4999))
        assert propagate_priors(ClassPriors(0.5), NoiseParams(g, g)).p1 == 0.5


def test_propagated_prior_matches_corrupt_of_prior():
    # the observed-label rate of the population is the corruption of P(y=1)
    rng = make_rng(107, "prop")
    for _ in range(500):
        noise = random_noise(rng)
        p1 = float(rng.random())
        a = propagate_priors(ClassPriors(p1), noise).p1
        b = corrupt_posterior(p1, noise)
        assert a == pytest.approx(b, abs=1e-15)


# ------------------------------------------------------------ logit thresholds

def test_logit_shift_examples():
    assert logit_shift(ClassPriors(0.4), ClassPriors(0.5)) == pytest.approx(math.log(2.0 / 3.0), rel=1e-13)
    assert logit_shift(ClassPriors(0.5), ClassPriors(0.7)) == pytest.approx(-math.log(7.0 / 3.0), rel=1e-13)
    assert logit_shift(ClassPriors(0.3), ClassPriors(0.3)) == 0.0


def test_logit_shift_rejects_boundary_priors():
    for a, b in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(ValueError):
            logit_shift(ClassPriors(a), ClassPriors(b))


def test_threshold_from_shift_examples():
    assert threshold_from_shift(0.0) == 0.5
    assert threshold_from_shift(math.log(2.0 / 3.0)) == pytest.approx(0.4, abs=1e-15)
    assert threshold_from_shift(-math.log(7.0 / 3.0)) == pytest.approx(0.3, abs=1e-15)


def test_threshold_from_shift_is_stable_at_extremes():
    # no overflow at huge shifts; the result is the correctly rounded sigmoid,
    # which saturates to hard 0/1 once the true value leaves float range
    assert threshold_from_shift(800.0) == 1.0
    assert threshold_from_shift(-800.0) == 0.0
    assert threshold_from_shift(36.0) < 1.0
    assert threshold_from_shift(-700.0) > 0.0
    with pytest.raises(ValueError):
        threshold_from_shift(float("inf"))
    with pytest.raises(ValueError):
        threshold_from_shift(float("nan"))


def test_logistic_is_unclipped_scalar_and_array():
    assert logistic(0.0) == 0.5
    assert isinstance(logistic(1.0), float)
    assert logistic(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)
    s = np.array([-800.0, -36.0, -0.5, 0.0, 0.5, 36.0, 800.0])
    p = logistic(s)
    assert isinstance(p, np.ndarray) and p.shape == s.shape
    assert p[0] == 0.0 and p[-1] == 1.0  # saturates: nothing clips it
    assert 0.0 < p[1] and p[-2] < 1.0
    assert list(p) == [logistic(v) for v in s]
    assert threshold_from_shift(-0.5) == logistic(-0.5)


def test_threshold_from_priors_examples():
    assert threshold_from_priors(ClassPriors(0.7), ClassPriors(0.5)) == pytest.approx(0.3, abs=1e-15)
    assert threshold_from_priors(ClassPriors(0.5), ClassPriors(0.5)) == 0.5
    # matched priors always cancel back to 1/2
    rng = make_rng(108, "matched")
    for _ in range(200):
        p = float(rng.uniform(0.01, 0.99))
        assert threshold_from_priors(ClassPriors(p), ClassPriors(p)) == pytest.approx(0.5, abs=1e-15)


def test_threshold_routes_agree():
    rng = make_rng(109, "routes")
    for _ in range(2000):
        train = ClassPriors(float(rng.uniform(0.001, 0.999)))
        hold = ClassPriors(float(rng.uniform(0.001, 0.999)))
        a = threshold_from_priors(hold, train)
        b = threshold_from_shift(logit_shift(train, hold))
        assert abs(a - b) < 1e-12


def test_equal_priors_reduce_the_corrected_threshold_to_the_basic_one_bit_for_bit():
    # at equal train and eval priors the clean cut is exactly 1/2, and its image
    # (1 - gamma1) / 2 + gamma0 / 2 rounds as (1 - gamma1 + gamma0) / 2 does
    rng = make_rng(110, "collapse")
    for _ in range(2000):
        noise = random_noise(rng)
        prior = ClassPriors(float(rng.uniform(0.01, 0.99)))
        assert corrected_threshold(noise, prior, prior) == noisy_decision_threshold(noise)


def test_corrected_threshold_reproduces_the_clean_decision_at_any_priors():
    # a net fit to labels flipped under train_prior estimates corrupt_posterior(p), p the clean
    # posterior under train_prior; the clean Bayes rule at eval_prior is p >= the prior-ratio cut.
    # A seeded loop: at an exact tie p == cut the two sides may round apart, and a search would find one
    rng = make_rng(111, "corrected")
    disagreements = 0
    for _ in range(10_000):
        noise = random_noise(rng)
        train_prior, eval_prior = (ClassPriors(float(v)) for v in rng.uniform(0.01, 0.99, size=2))
        p = float(rng.random())
        clean_says_one = p >= threshold_from_priors(eval_prior, train_prior)
        noisy_says_one = corrupt_posterior(p, noise) >= corrected_threshold(noise, train_prior, eval_prior)
        disagreements += clean_says_one != noisy_says_one
    assert disagreements == 0


def test_corrected_threshold_examples():
    noise = NoiseParams(0.3, 0.1)
    assert corrected_threshold(noise, ClassPriors(0.2), ClassPriors(0.2)) == 0.39999999999999997
    # the clean cut 0.3 at eval prior 0.7, through the flip map
    assert corrected_threshold(noise, ClassPriors(0.5), ClassPriors(0.7)) == pytest.approx(0.28, abs=1e-15)
    # at eval prior 1/2 the cut is the observed class-1 prior, the one place where treating
    # the flips as a prior shift gives the right cut
    observed = propagate_priors(ClassPriors(0.2), noise).p1
    assert corrected_threshold(noise, ClassPriors(0.2), ClassPriors(0.5)) == pytest.approx(observed, abs=1e-15)


@pytest.mark.parametrize("train_p1, eval_p1, cut", [(1 - 2**-53, 5e-324, 1.0), (5e-324, 1 - 2**-53, 0.0)])
def test_a_corrected_threshold_that_rounds_onto_zero_or_one_is_refused(train_p1, eval_p1, cut):
    with pytest.raises(ValueError, match=re.escape(f"threshold must lie strictly inside (0, 1), got {cut}")):
        corrected_threshold(NoiseParams(0.0, 0.0), ClassPriors(train_p1), ClassPriors(eval_p1))


# ------------------------------------------------------------------ bernoulli

def test_mle_flipped_bernoulli_example():
    obs = [1, 1, 0, 0, 0, 1, 1, 0, 0, 0]  # mean 0.4
    noisy_rate, clean_rate = mle_flipped_bernoulli(obs, NoiseParams(0.2, 0.1))
    assert noisy_rate == 0.4
    assert clean_rate == pytest.approx((0.4 - 0.1) / 0.7, rel=1e-15)


def test_mle_flipped_bernoulli_zero_noise_is_sample_mean():
    obs = np.array([1, 0, 1, 1, 0, 0, 0, 1])
    noisy_rate, clean_rate = mle_flipped_bernoulli(obs, NoiseParams(0.0, 0.0))
    assert noisy_rate == clean_rate == 0.5


def test_mle_flipped_bernoulli_validates_input():
    with pytest.raises(ValueError):
        mle_flipped_bernoulli([], NoiseParams(0.1, 0.1))
    for bad in (2, 0.5, math.nan):
        with pytest.raises(ValueError):
            mle_flipped_bernoulli([0, 1, bad], NoiseParams(0.1, 0.1))


def test_mle_can_overshoot_unclamped():
    noise = NoiseParams(0.0, 0.3)
    _, clean_rate = mle_flipped_bernoulli([0, 0, 0, 0, 1], noise)  # mean 0.2 < gamma0
    assert clean_rate < 0.0


def test_grid_mle_matches_closed_form():
    rng = make_rng(111, "grid")
    for _ in range(100):
        p = float(rng.uniform(0.1, 0.9))
        noise = random_noise(rng, max_total=0.8)
        y = rng.random(2000) < p
        u = rng.random(2000)
        z = np.where(y, u >= noise.gamma1, u < noise.gamma0).astype(np.int64)
        _, closed = mle_flipped_bernoulli(z, noise)
        grid = bernoulli_grid_mle(z, noise)
        assert abs(closed - grid) <= 1e-4


def test_grid_mle_edge_cases():
    assert bernoulli_grid_mle([1, 1, 1, 1], NoiseParams(0.0, 0.0)) == 1.0
    assert bernoulli_grid_mle([0, 0, 0, 0], NoiseParams(0.0, 0.0)) == 0.0
    with pytest.raises(ValueError):
        bernoulli_grid_mle([1, 0], NoiseParams(0.0, 0.0), step=0.0)
