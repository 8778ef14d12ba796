import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from labelnoise.calculus import (
    ClassPriors,
    NoiseParams,
    bernoulli_grid_mle,
    clamp01,
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
from labelnoise.seeding import make_rng
from labelnoise.svgchart import Series


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


def test_equal_priors_reduce_mlp_threshold_to_basic_one():
    # with equal clean and eval priors the prior-ratio threshold collapses
    # to the basic noisy-posterior threshold (1 - gamma1 + gamma0) / 2
    rng = make_rng(110, "collapse")
    for _ in range(500):
        noise = random_noise(rng)
        noisy = propagate_priors(ClassPriors(0.5), noise)
        a = threshold_from_priors(ClassPriors(0.5), noisy)
        b = noisy_decision_threshold(noise)
        assert a == pytest.approx(b, abs=1e-14)


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
