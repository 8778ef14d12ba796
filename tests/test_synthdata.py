import csv
import hashlib
import math
import os
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from labelnoise import synthdata
from labelnoise.calculus import ClassPriors, NoiseParams, corrupt_posterior, propagate_priors
from labelnoise.seeding import make_rng
from labelnoise.synthdata import (
    CSV_FIELDS,
    Dataset,
    DatasetFormatError,
    GmmClassModel,
    ProblemInstance,
    bayes_accuracy,
    clean_posterior,
    flip_labels,
    gmm_log_density,
    load_dataset_csv,
    make_random_problem,
    observe,
    sample_dataset,
    save_dataset_csv,
)

BLOCK = synthdata._BLOCK_ROWS  # rows a block draw or a CSV write chunk holds


def unit_gaussian(mean):
    return GmmClassModel(np.array([1.0]), np.array([mean], dtype=float), np.eye(2)[None, :, :])


# ------------------------------------------------------------------- density

def test_single_component_density_at_mean():
    model = unit_gaussian([0.5, -1.0])
    density = np.exp(gmm_log_density(model, np.array([0.5, -1.0])))
    assert density == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_density_nonnegative_and_scalar_vs_batch():
    model = make_random_problem(3, 2.0).model1
    rng = make_rng(31, "dens")
    pts = rng.uniform(-8, 8, size=(64, 2))
    batch = np.exp(gmm_log_density(model, pts))
    assert (batch >= 0).all()
    for i in (0, 17, 63):
        assert np.exp(gmm_log_density(model, pts[i])) == pytest.approx(batch[i], rel=1e-14)


def test_density_integrates_to_one():
    for seed in (7, 8):
        model = make_random_problem(seed, 2.5).model0
        xs = np.linspace(-16.0, 16.0, 1601)
        grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)
        dens = np.exp(gmm_log_density(model, pts)).reshape(xs.size, xs.size)
        integral = np.trapezoid(np.trapezoid(dens, xs, axis=1), xs)
        assert integral == pytest.approx(1.0, abs=1e-3)


def reference_log_density(model, x):
    """gmm_log_density as one log-sum-exp over a stacked (..., k) array: the reference."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights)
    a = np.stack([log_w[i] + synthdata._component_log_pdf(x, model.means[i], model.covariances[i])
                  for i in range(model.n_components)], axis=-1)
    m = np.max(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m).sum(axis=-1)) + np.squeeze(m, axis=-1)
    return float(out) if out.ndim == 0 else out


def random_mixture(k, seed):
    """k components, the second (if any) with weight 0, so a log-weight of -inf."""
    rng = make_rng(seed, "mixture")
    w = rng.dirichlet(np.ones(k))
    if k > 1:
        w[1] = 0.0
        w /= w.sum()
    covs = []
    for _ in range(k):
        a = rng.normal(size=(2, 2))
        c = a @ a.T + 0.3 * np.eye(2)
        covs.append((c + c.T) / 2.0)
    return GmmClassModel(w, rng.uniform(-3.0, 3.0, size=(k, 2)), np.array(covs))


def mixture_points(seed):
    """Points near the mixtures and far in the tails, where the quadratic form overflows."""
    rng = make_rng(seed, "points")
    return np.concatenate([rng.normal(scale=3.0, size=(20000, 2)),
                           rng.normal(scale=1e155, size=(40, 2)),
                           [[1e200, -1e200], [1e300, 0.0], [0.0, 0.0]]])


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_log_density_keeps_the_bits_of_a_stacked_log_sum_exp(k):
    model = random_mixture(k, k)
    x = mixture_points(k)
    got, want = gmm_log_density(model, x), reference_log_density(model, x)
    assert np.isneginf(want).any()
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    for i in (0, 20000, 20040):
        assert math.copysign(1.0, gmm_log_density(model, x[i])) == math.copysign(1.0, want[i])
        assert gmm_log_density(model, x[i]) == want[i]


@pytest.mark.parametrize("k", [8, 9])
def test_log_density_of_many_components_agrees_within_float64_rounding(k):
    """From 8 components a numpy sum adds in 8-way pairwise order, not left to right.

    The two orders each round a sum of k terms in [0, 1], one of them 1, so
    they differ by at most 2k float64 epsilons relative to that sum, which
    is that much absolutely after the log; adding the maximum back rounds
    each result once more, by at most an epsilon of the result's size.
    """
    eps = np.finfo(np.float64).eps
    model = random_mixture(k, k)
    x = mixture_points(k)
    np.testing.assert_allclose(gmm_log_density(model, x), reference_log_density(model, x),
                               rtol=2 * eps, atol=2 * k * eps)


@pytest.mark.parametrize("seed", [0, 1, 2, 20250])
def test_bayes_accuracy_keeps_the_value_of_the_stacked_log_sum_exp(seed, monkeypatch):
    problem = make_random_problem(seed, 2.5)
    test = sample_dataset(problem, 20000, seed + 1)
    got = bayes_accuracy(problem, test)
    monkeypatch.setattr(synthdata, "gmm_log_density", reference_log_density)
    assert bayes_accuracy(problem, test) == got


def test_model_validation():
    eye = np.eye(2)[None, :, :]
    with pytest.raises(ValueError):
        GmmClassModel(np.array([0.5, 0.6]), np.zeros((2, 2)), np.repeat(eye, 2, axis=0))
    with pytest.raises(ValueError):
        GmmClassModel(np.array([-0.5, 1.5]), np.zeros((2, 2)), np.repeat(eye, 2, axis=0))
    with pytest.raises(ValueError):  # not positive definite
        GmmClassModel(np.array([1.0]), np.zeros((1, 2)), np.array([[[1.0, 2.0], [2.0, 1.0]]]))
    with pytest.raises(ValueError):  # asymmetric
        GmmClassModel(np.array([1.0]), np.zeros((1, 2)), np.array([[[1.0, 0.2], [0.0, 1.0]]]))
    with pytest.raises(ValueError, match="weights must be a non-empty vector"):
        GmmClassModel(np.array([[1.0]]), np.zeros((1, 2)), eye)
    with pytest.raises(ValueError, match="means must have shape"):
        GmmClassModel(np.array([1.0]), np.zeros((1, 3)), eye)
    with pytest.raises(ValueError, match="covariances must have shape"):
        GmmClassModel(np.array([1.0]), np.zeros((1, 2)), np.eye(2))
    with pytest.raises(ValueError, match="must be finite"):
        GmmClassModel(np.array([1.0]), np.array([[0.0, np.nan]]), eye)


def test_log_density_checks_its_points():
    model = unit_gaussian([0.0, 0.0])
    with pytest.raises(ValueError, match="trailing dimension 2"):
        gmm_log_density(model, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="points must be finite"):
        gmm_log_density(model, np.array([[0.0, 1.0], [np.inf, 0.0]]))


# ----------------------------------------------------------------- posterior

def test_posterior_matches_direct_bayes_quotient():
    problem = make_random_problem(7, 2.5)
    rng = make_rng(33, "bayes")
    for _ in range(200):
        x = rng.uniform(-6, 6, size=2)
        f1 = np.exp(gmm_log_density(problem.model1, x))
        f0 = np.exp(gmm_log_density(problem.model0, x))
        p1 = problem.clean_priors.p1
        direct = p1 * f1 / (p1 * f1 + (1 - p1) * f0)
        assert clean_posterior(problem, x) == pytest.approx(direct, abs=1e-12)


def test_posterior_with_unbalanced_priors():
    base = make_random_problem(7, 2.5)
    problem = ProblemInstance(base.model1, base.model0, ClassPriors(0.2), base.seed)
    x = np.array([0.3, -0.4])
    f1 = np.exp(gmm_log_density(problem.model1, x))
    f0 = np.exp(gmm_log_density(problem.model0, x))
    direct = 0.2 * f1 / (0.2 * f1 + 0.8 * f0)
    assert clean_posterior(problem, x) == pytest.approx(direct, abs=1e-12)


def test_identical_class_models_return_prior():
    model = unit_gaussian([0.0, 0.0])
    for p1 in (0.5, 0.3):
        problem = ProblemInstance(model, model, ClassPriors(p1), 0)
        for x in ([0.0, 0.0], [2.0, -1.0], [40.0, 40.0]):
            assert clean_posterior(problem, np.array(x)) == pytest.approx(p1, abs=1e-12)


def test_mirror_symmetric_models_give_exact_half_on_the_axis():
    # class 0 is class 1 reflected through the x2 axis; on the axis the
    # log-densities are bit-equal and the posterior is exactly 1/2
    w = np.array([0.55, 0.45])
    means1 = np.array([[1.2, 0.4], [2.5, -1.0]])
    covs = np.array([[[1.0, 0.3], [0.3, 0.8]], [[0.6, -0.1], [-0.1, 1.1]]])
    means0 = means1 * np.array([-1.0, 1.0])
    covs0 = covs * np.array([[1.0, -1.0], [-1.0, 1.0]])
    problem = ProblemInstance(
        GmmClassModel(w, means1, covs), GmmClassModel(w, means0, covs0), ClassPriors(0.5), 0)
    for x2 in (-3.0, 0.0, 1.7):
        assert clean_posterior(problem, np.array([0.0, x2])) == 0.5


def test_posterior_far_tail_falls_back_to_prior():
    problem = make_random_problem(7, 2.5)
    # far enough out that even log densities overflow to -inf for both classes
    assert clean_posterior(problem, np.array([1e200, 1e200])) == problem.clean_priors.p1


def test_noisy_posterior_consistency():
    problem = make_random_problem(12, 2.0)
    noise = NoiseParams(0.3, 0.1)
    rng = make_rng(34, "noisy-post")
    p1 = problem.clean_priors.p1
    for _ in range(200):
        x = rng.uniform(-6, 6, size=2)
        via_calc = corrupt_posterior(clean_posterior(problem, x), noise)
        f1 = np.exp(gmm_log_density(problem.model1, x))
        f0 = np.exp(gmm_log_density(problem.model0, x))
        direct = ((1 - noise.gamma1) * p1 * f1 + noise.gamma0 * (1 - p1) * f0) / (p1 * f1 + (1 - p1) * f0)
        assert via_calc == pytest.approx(direct, abs=1e-12)


# ------------------------------------------------------------------ problems

def test_make_random_problem_is_deterministic():
    a = make_random_problem(42, 2.5)
    b = make_random_problem(42, 2.5)
    assert np.array_equal(a.model0.means, b.model0.means)
    assert np.array_equal(a.model1.covariances, b.model1.covariances)
    assert np.array_equal(a.model0.weights, b.model0.weights)
    c = make_random_problem(43, 2.5)
    assert not np.array_equal(a.model0.means, c.model0.means)


def test_random_problem_class1_is_translate_of_class0():
    problem = make_random_problem(5, 3.0)
    shift = problem.model1.means - problem.model0.means
    assert np.allclose(shift[0], shift[1])
    assert np.linalg.norm(shift[0]) == pytest.approx(3.0, rel=1e-12)
    assert np.array_equal(problem.model0.covariances, problem.model1.covariances)
    assert np.array_equal(problem.model0.weights, problem.model1.weights)


def test_random_problem_covariances_are_positive_definite():
    for seed in range(50):
        problem = make_random_problem(seed, 2.0)
        for cov in problem.model0.covariances:
            np.linalg.cholesky(cov)  # raises if not SPD
            eigs = np.linalg.eigvalsh(cov)
            assert (eigs >= 0.3 - 1e-9).all() and (eigs <= 1.5 + 1e-9).all()


def test_random_problem_rejects_bad_separation():
    with pytest.raises(ValueError):
        make_random_problem(1, 0.0)
    with pytest.raises(ValueError):
        make_random_problem(1, -2.0)


def test_tiny_separation_means_no_signal():
    problem = make_random_problem(5, 0.01)
    test = sample_dataset(problem, 100_000, 78)
    ceiling = bayes_accuracy(problem, test)
    assert ceiling == pytest.approx(max(problem.clean_priors.p1, problem.clean_priors.p0), abs=0.01)


def test_huge_separation_means_near_perfect_ceiling():
    problem = make_random_problem(6, 10.0)
    test = sample_dataset(problem, 20_000, 79)
    assert bayes_accuracy(problem, test) > 0.99


# ------------------------------------------------------------------ sampling

def test_sample_dataset_deterministic_and_fresh():
    problem = make_random_problem(1, 2.5)
    a = sample_dataset(problem, 500, 11)
    b = sample_dataset(problem, 500, 11)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y_clean, b.y_clean)
    c = sample_dataset(problem, 500, 12)
    assert not np.array_equal(a.x, c.x)


def test_sample_dataset_labels_start_clean():
    data = sample_dataset(make_random_problem(2, 2.5), 300, 13)
    assert np.array_equal(data.y_clean, data.z_observed)
    assert len(data) == 300


def test_sample_dataset_class_fraction_concentrates():
    problem = make_random_problem(3, 2.5, p1=0.3)
    data = sample_dataset(problem, 100_000, 14)
    assert (data.y_clean == 1).mean() == pytest.approx(0.3, abs=0.01)


def test_sample_dataset_rejects_empty():
    with pytest.raises(ValueError):
        sample_dataset(make_random_problem(1, 2.5), 0, 1)


def test_sample_dataset_takes_an_integral_float_as_its_row_count():
    assert len(sample_dataset(make_random_problem(1, 2.5), 5.0, 1)) == 5


def test_feature_distribution_tracks_class_means():
    # with huge separation the per-class sample means sit near the mixture means
    problem = make_random_problem(8, 30.0)
    data = sample_dataset(problem, 50_000, 15)
    x1 = data.x[data.y_clean == 1]
    expect1 = problem.model1.weights @ problem.model1.means
    assert np.allclose(x1.mean(axis=0), expect1, atol=0.1)


# ------------------------------------------------------------------ flipping

def test_flip_labels_zero_noise_is_identity():
    data = sample_dataset(make_random_problem(4, 2.5), 1000, 16)
    flipped = flip_labels(data, NoiseParams(0.0, 0.0), 17)
    assert np.array_equal(flipped.z_observed, data.y_clean)


def test_flip_labels_touches_only_observed_column():
    data = sample_dataset(make_random_problem(4, 2.5), 1000, 16)
    flipped = flip_labels(data, NoiseParams(0.4, 0.2), 17)
    assert np.array_equal(flipped.x, data.x)
    assert np.array_equal(flipped.y_clean, data.y_clean)
    assert not np.array_equal(flipped.z_observed, data.y_clean)


def test_flip_labels_deterministic():
    data = sample_dataset(make_random_problem(4, 2.5), 1000, 16)
    a = flip_labels(data, NoiseParams(0.3, 0.1), 18)
    b = flip_labels(data, NoiseParams(0.3, 0.1), 18)
    assert np.array_equal(a.z_observed, b.z_observed)


def test_observe_flips_each_class_below_its_rate():
    y = np.array([1, 1, 1, 0, 0, 0])
    u = np.array([0.0, 0.29, 0.3, 0.0, 0.09, 0.1])
    assert observe(y, u, NoiseParams(0.3, 0.1)).tolist() == [0, 0, 1, 1, 1, 0]
    assert observe(y.astype(bool), u, NoiseParams(0.3, 0.1)).tolist() == [0, 0, 1, 1, 1, 0]
    assert observe(y, u, NoiseParams(0.3, 0.1)).dtype == bool


def test_flip_labels_empirical_rates():
    problem = make_random_problem(4, 2.5)
    noise = NoiseParams(0.3, 0.1)
    data = sample_dataset(problem, 100_000, 19)
    flipped = flip_labels(data, noise, 20)
    ones = data.y_clean == 1
    rate_1to0 = (flipped.z_observed[ones] == 0).mean()
    rate_0to1 = (flipped.z_observed[~ones] == 1).mean()
    assert rate_1to0 == pytest.approx(noise.gamma1, abs=0.01)
    assert rate_0to1 == pytest.approx(noise.gamma0, abs=0.01)
    # realized observed-label fraction matches the propagated prior
    expect = propagate_priors(problem.clean_priors, noise).p1
    assert (flipped.z_observed == 1).mean() == pytest.approx(expect, abs=0.01)


# ------------------------------------------------- block draws keep the bits

def reference_sample_dataset(problem, n, seed):
    """The whole-array sampler that sample_dataset must match bit for bit."""
    rng = make_rng(seed, "sample")
    y = rng.random(n) < problem.clean_priors.p1
    x = np.empty((n, 2))
    for label, model in ((1, problem.model1), (0, problem.model0)):
        idx = np.flatnonzero(y == label)
        if idx.size:
            comp = rng.choice(model.n_components, size=idx.size, p=model.weights)
            z = rng.standard_normal((idx.size, 2))
            chol = np.linalg.cholesky(model.covariances)
            x[idx] = model.means[comp] + np.einsum("nij,nj->ni", chol[comp], z)
    return Dataset(x, y, y.copy())


def reference_flip_labels(data, noise, seed):
    """The whole-array flipper that flip_labels must match bit for bit."""
    u = make_rng(seed, "flip").random(len(data))
    return Dataset(data.x, data.y_clean, observe(data.y_clean, u, noise))


@pytest.mark.parametrize("p1", [0.0, 0.02, 0.5, 1.0])  # 0 and 1 leave a class empty
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 200_000])
def test_block_draws_give_the_bits_of_whole_array_draws(n, p1):
    problem = make_random_problem(n % 97, 2.5, p1)
    data = sample_dataset(problem, n, 31)
    expected = reference_sample_dataset(problem, n, 31)
    flipped = flip_labels(data, NoiseParams(0.3, 0.1), 32)
    expected_flipped = reference_flip_labels(expected, NoiseParams(0.3, 0.1), 32)
    pairs = [(data.x, expected.x), (data.y_clean, expected.y_clean),
             (data.z_observed, expected.z_observed), (flipped.z_observed, expected_flipped.z_observed)]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_sample_dataset_holds_the_dataset_once(traced_peak):
    # whole-array draws held the normals, the component rows and a copy of y: 3.0x
    problem = make_random_problem(33, 2.5)
    data, peak = traced_peak(lambda: sample_dataset(problem, 200_000, 34))
    assert peak <= 2.0 * (data.x.nbytes + data.y_clean.nbytes)


def test_flip_labels_holds_one_new_label_column(traced_peak):
    # the whole-array flip held a uniform per row next to an int64 column: 1.19 x.nbytes;
    # blocks of uniforms and an int64 column, 0.69; a bool column, 0.25
    data = sample_dataset(make_random_problem(35, 2.5), 200_000, 36)
    flipped, peak = traced_peak(lambda: flip_labels(data, NoiseParams(0.3, 0.1), 37))
    assert peak <= 0.35 * data.x.nbytes


# ------------------------------------------------------------ bayes accuracy

def test_bayes_accuracy_identical_models_is_prior_mass():
    model = unit_gaussian([0.0, 0.0])
    problem = ProblemInstance(model, model, ClassPriors(0.5), 0)
    test = sample_dataset(problem, 50_000, 21)
    # posterior is exactly 1/2 everywhere; ties go to class 1
    assert bayes_accuracy(problem, test) == pytest.approx(0.5, abs=0.01)


def test_bayes_accuracy_rejects_empty():
    problem = make_random_problem(1, 2.5)
    data = sample_dataset(problem, 3, 1)
    empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError):
        bayes_accuracy(problem, empty)
    assert 0.0 <= bayes_accuracy(problem, data) <= 1.0


# ----------------------------------------------------------------- CSV round trip

def test_csv_round_trip_is_bit_exact(tmp_path):
    problem = make_random_problem(10, 2.5)
    data = flip_labels(sample_dataset(problem, 400, 22), NoiseParams(0.2, 0.1), 23)
    path = tmp_path / "data.csv"
    save_dataset_csv(data, path)
    loaded = load_dataset_csv(path)
    assert np.array_equal(loaded.x, data.x)
    assert np.array_equal(loaded.y_clean, data.y_clean)
    assert np.array_equal(loaded.z_observed, data.z_observed)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,y_clean,z_observed"


def reference_save_dataset_csv(data, path):
    """The per-row writer that save_dataset_csv must match byte for byte."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for i in range(len(data)):
            fh.write(
                f"{data.x[i, 0]:.17g},{data.x[i, 1]:.17g},"
                f"{data.y_clean[i]:d},{data.z_observed[i]:d}\n"
            )


AWKWARD_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 1.0, 0.1,
                  -5e-324, -1.7976931348623157e308, 2.0 ** 53 + 2.0]


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_save_dataset_csv_matches_the_per_row_writer(tmp_path, n):
    rng = make_rng(41, "csv-writer", n)
    x = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
    x.ravel()[:len(AWKWARD_FLOATS)] = AWKWARD_FLOATS[:x.size]
    data = Dataset(x, rng.integers(0, 2, n), rng.integers(0, 2, n))
    save_dataset_csv(data, tmp_path / "chunked.csv")
    reference_save_dataset_csv(data, tmp_path / "per_row.csv")
    written = (tmp_path / "chunked.csv").read_bytes()
    assert written == (tmp_path / "per_row.csv").read_bytes()
    lines = written.split(b"\n")
    assert len(lines) == n + 2 and lines[-1] == b""
    features = [line.split(b",")[:2] for line in lines[1:n + 1][:4]]
    assert sum(features, [])[:len(AWKWARD_FLOATS)] == [
        b"-0", b"4.9406564584124654e-324", b"1.7976931348623157e+308", b"1",
        b"0.10000000000000001", b"-4.9406564584124654e-324", b"-1.7976931348623157e+308",
        b"9007199254740994"][:x.size]


MALFORMED_CSVS = [
    ("", 1),
    ("wrong,header,a,b\n1,2,0,0\n", 1),
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0\n", 2),
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\nfoo,2.0,1,1\n", 3),
    ("x1,x2,y_clean,z_observed\n1.0,2.0,2,0\n", 2),
    ("x1,x2,y_clean,z_observed\n1.0,nan,0,0\n", 2),
    ("x1,x2,y_clean,z_observed\n", 2),
    ('x1,x2,y_clean,z_observed\n"0.5\n",1.0,0,0\nbad,1.0,0,0\n', 4),  # a quoted newline is a line
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n1.0,2.0,1.0,1\n", 3),  # labels are integers
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n1.0,2.0,0,0.7\n", 3),  # not truncated to 0
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n1.0,2.0,1.9,1\n", 3),  # nor to 1
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n#1.0,2.0,0,1\n", 3),  # '#' starts no comment
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n\x1c1.0,2.0,0,1\n", 3),  # float() does not strip \x1c
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n1.0,2.0,0,-1\n", 3),
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n1e400,2.0,0,1\n", 3),
    # the csv module's field limit (131072 characters) stays; the field is a line's error
    pytest.param("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n" + "1" * 200_000 + ",2.0,0,1\n", 3,
                 id="field-past-the-csv-limit"),
]


@pytest.mark.parametrize("content,line", MALFORMED_CSVS)
def test_csv_load_reports_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DatasetFormatError, match=f"line {line}"):
        load_dataset_csv(path)


@pytest.mark.parametrize("good_rows", [1, 5000])
def test_csv_load_reports_non_utf8_bytes_with_line_number(tmp_path, good_rows):
    # 5000 rows put the bad byte well past the first buffered read
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x1,x2,y_clean,z_observed\n" + b"1.0,2.0,0,1\n" * good_rows
                     + b"1.0,2.0,0,1 \xe9t\xe9\n")
    with pytest.raises(DatasetFormatError, match=f"line {good_rows + 2}: not UTF-8"):
        load_dataset_csv(path)


@pytest.mark.parametrize("body", ["", "\n", "\n\n", "\r\n\r\n", "\r"])
def test_csv_load_rejects_an_empty_body_without_a_warning(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_bytes(("x1,x2,y_clean,z_observed\n" + body).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetFormatError, match="^line 2: no data rows$"):
            load_dataset_csv(path)


def test_csv_load_parses_crlf_blank_lines_and_padding(tmp_path):
    path = tmp_path / "padded.csv"
    path.write_bytes("x1,x2,y_clean,z_observed\r\n 0.5 ,\t-1e-3,1 ,\xa00\r\n\r\n2,3,+1,01\r\n"
                     .encode())
    data = load_dataset_csv(path)
    assert data.x.tolist() == [[0.5, -1e-3], [2.0, 3.0]]
    assert data.y_clean.tolist() == [1, 1] and data.z_observed.tolist() == [0, 1]
    assert all(a.flags.c_contiguous for a in (data.x, data.y_clean, data.z_observed))


def test_csv_load_without_a_sidecar_hashes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n")

    def no_hashing():
        raise AssertionError("a CSV with no sidecar was hashed")

    monkeypatch.setattr(synthdata.hashlib, "sha256", no_hashing)
    assert load_dataset_csv(path).x.tolist() == [[1.0, 2.0]]


def test_csv_parse_holds_the_dataset_once(tmp_path, traced_peak):
    # a quoted x1, which only a line parser reads; rows held as tuples and ints,
    # and the CSV as one str, peaked at 10.1x the file's bytes
    path = tmp_path / "data.csv"
    data = flip_labels(sample_dataset(make_random_problem(45, 2.5), 50_000, 46), NoiseParams(0.2, 0.1), 47)
    save_dataset_csv(data, path)
    os.remove(f"{path}.bin")
    header, first, rest = path.read_text().split("\n", 2)
    x1, others = first.split(",", 1)
    path.write_text(f'{header}\n"{x1}",{others}\n{rest}')
    loaded, peak = traced_peak(lambda: load_dataset_csv(path))
    assert_same_dataset(loaded, data)
    assert peak <= 3.0 * path.stat().st_size


def test_csv_parse_decodes_the_file_once(tmp_path, traced_peak):
    # the raw bytes and the typed columns: a UTF-8 check that decoded the whole
    # file into a str it then dropped peaked at 2.00x the file's bytes
    path = tmp_path / "data.csv"
    data = flip_labels(sample_dataset(make_random_problem(48, 2.5), 50_000, 49), NoiseParams(0.2, 0.1), 50)
    save_dataset_csv(data, path)
    os.remove(f"{path}.bin")
    loaded, peak = traced_peak(lambda: load_dataset_csv(path))
    assert_same_dataset(loaded, data)
    assert peak <= 1.6 * path.stat().st_size


@pytest.mark.parametrize("content,expected", [
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\n", None),
    ("x1,x2,y_clean,z_observed\n1.0,2.0,0,1\nbad,2.0,0,1\n", "line 3: could not convert"),
    (b"x1,x2,y_clean,z_observed\n1,2,0,1\n1,2,0,\xe9\n", "line 3: not UTF-8 text"),
])
def test_csv_load_reads_a_fifo_once(tmp_path, content, expected):
    # a pipe cannot be read twice: the loader reads it once, straight into the line parser
    fifo = tmp_path / "data.csv"
    os.mkfifo(fifo)
    outcome = {}

    def load():
        try:
            outcome["data"] = load_dataset_csv(fifo)
        except DatasetFormatError as exc:
            outcome["error"] = str(exc)

    loader = threading.Thread(target=load, daemon=True)
    loader.start()
    with open(fifo, "wb") as fh:
        fh.write(content if isinstance(content, bytes) else content.encode())
    loader.join(timeout=30)
    assert not loader.is_alive()
    if expected is None:
        assert outcome["data"].x.tolist() == [[1.0, 2.0]]
    else:
        assert outcome["error"].startswith(expected)


# ------------------------------------------------------------------- CSV sidecar

def awkward_dataset(n):
    """The data of test_save_dataset_csv_matches_the_per_row_writer: AWKWARD_FLOATS first."""
    rng = make_rng(41, "csv-writer", n)
    x = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
    x.ravel()[:len(AWKWARD_FLOATS)] = AWKWARD_FLOATS[:x.size]
    return Dataset(x, rng.integers(0, 2, n), rng.integers(0, 2, n))


def save_with_sidecar(data, path):
    sidecar = save_dataset_csv(data, path)
    assert sidecar == f"{os.path.realpath(path)}.bin" and os.path.isfile(sidecar)
    return sidecar


@pytest.mark.parametrize("n", [1, BLOCK + 1])
def test_csv_sidecar_loads_the_bytes_and_dtypes_of_the_csv_parse(tmp_path, monkeypatch, n):
    path = tmp_path / "data.csv"
    data = awkward_dataset(n)
    save_with_sidecar(data, path)
    with monkeypatch.context() as m:  # the parser may not run
        m.setattr(synthdata, "_parse_dataset_csv", None)
        from_sidecar = load_dataset_csv(path)
    assert_same_dataset(from_sidecar, parse_line_by_line(path))
    assert_same_dataset(from_sidecar, data)
    assert all(a.flags.c_contiguous for a in (from_sidecar.x, from_sidecar.y_clean,
                                                from_sidecar.z_observed))


def sidecar_bytes(csv_bytes, x, y, z, label_dtype="u1"):
    """The sidecar layout: sha256 of the CSV's and the columns' bytes, then the columns.

    Labels take one byte each; "<i8" gives the 32 + 32n layout of earlier versions.
    """
    columns = b"".join(np.asarray(col, dtype).tobytes()
                       for col, dtype in ((x, "<f8"), (y, label_dtype), (z, label_dtype)))
    return hashlib.sha256(csv_bytes + columns).digest() + columns


@pytest.mark.parametrize("n", [1, BLOCK + 1])
def test_the_sidecar_is_the_digest_then_the_little_endian_columns(tmp_path, n):
    path = tmp_path / "data.csv"
    data = awkward_dataset(n)
    sidecar = save_with_sidecar(data, path)
    raw = Path(sidecar).read_bytes()
    assert len(raw) == 32 + 18 * len(data)
    assert raw == sidecar_bytes(path.read_bytes(), data.x, data.y_clean, data.z_observed)
    assert set(raw[32 + 16 * len(data):]) <= {0, 1}


def test_a_sidecar_in_the_old_zip_layout_is_never_read(tmp_path):
    # the np.savez archive earlier versions wrote as `<csv>.npz`, here under the sidecar's name
    path = tmp_path / "data.csv"
    data = awkward_dataset(BLOCK + 1)
    sidecar = save_with_sidecar(data, path)
    digest = np.frombuffer(hashlib.sha256(path.read_bytes()).digest(), np.uint8)
    with open(sidecar, "wb") as fh:
        np.savez(fh, sha256=digest, x=data.x + 1.0, y_clean=1 - data.y_clean, z_observed=data.z_observed)
    assert_same_dataset(load_dataset_csv(path), data)  # parsed, not the archive's other values


def test_a_sidecar_in_the_int64_label_layout_is_never_read(tmp_path):
    # 32 + 32n bytes: int64 labels, as earlier versions wrote them, under their true digest
    path = tmp_path / "data.csv"
    data = awkward_dataset(BLOCK + 1)
    sidecar = save_with_sidecar(data, path)
    Path(sidecar).write_bytes(sidecar_bytes(path.read_bytes(), data.x + 1.0, ~data.y_clean,
                                            data.z_observed, "<i8"))
    assert_same_dataset(load_dataset_csv(path), data)  # parsed, not the sidecar's other values


def test_a_sidecar_load_holds_the_columns_once(tmp_path, traced_peak):
    data = flip_labels(sample_dataset(make_random_problem(42, 2.5), 200_000, 43), NoiseParams(0.2, 0.1), 44)
    save_with_sidecar(data, tmp_path / "data.csv")
    loaded, peak = traced_peak(lambda: load_dataset_csv(tmp_path / "data.csv"))
    assert_same_dataset(loaded, data)
    column_bytes = data.x.nbytes + data.y_clean.nbytes + data.z_observed.nbytes
    assert peak <= 1.25 * column_bytes


def test_save_dataset_csv_holds_no_copy_of_the_features(tmp_path, traced_peak):
    # np.savez copied each array whole with tobytes: 1.01 x.nbytes at 200 000 rows;
    # the sidecar written from the columns' own buffers, 0.09
    data = flip_labels(sample_dataset(make_random_problem(42, 2.5), 200_000, 43), NoiseParams(0.2, 0.1), 44)
    sidecar, peak = traced_peak(lambda: save_dataset_csv(data, tmp_path / "data.csv"))
    assert sidecar is not None
    assert peak <= 0.25 * data.x.nbytes


def test_a_csv_saved_through_a_symlink_keeps_its_sidecar_next_to_the_real_file(tmp_path, monkeypatch):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    link.symlink_to(real.name)
    data = awkward_dataset(BLOCK + 1)
    save_with_sidecar(data, link)
    assert link.is_symlink()
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv", "real.csv.bin"]
    monkeypatch.setattr(synthdata, "_parse_dataset_csv", None)  # the sidecar serves both names
    for name in (link, real):
        assert_same_dataset(load_dataset_csv(name), data)


def test_a_csv_edited_after_saving_loads_the_edited_values(tmp_path):
    # the sidecar is keyed by content: same size and same mtime do not make it current
    path = tmp_path / "data.csv"
    data = flip_labels(sample_dataset(make_random_problem(4, 2.5), 300, 5), NoiseParams(0.2, 0.1), 6)
    save_with_sidecar(data, path)
    before = path.stat()
    text = path.read_text()
    first_row = text.splitlines()[1]
    edited_row = first_row[:-3] + ("1,1" if first_row.endswith("0,0") else "0,0")
    path.write_text(text.replace(first_row, edited_row, 1))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    loaded = load_dataset_csv(path)
    assert_same_dataset(loaded, parse_line_by_line(path))
    assert (loaded.y_clean[0], loaded.z_observed[0]) != (data.y_clean[0], data.z_observed[0])


def forged_sidecar(path, sidecar, kind, data):
    """Replace the sidecar with one of other values that holds a valid digest, and the given defect."""
    x, y, z = data.x + 1.0, ~data.y_clean, data.z_observed  # what a served sidecar returns
    n = len(data)
    if kind == "wrong-length":
        x, y, z = x[1:], y[1:], z[1:]
    elif kind == "labels-not-0-1":
        z = z.astype(np.uint8)
        z[n // 2] = 2
    elif kind == "non-finite-x":
        x = x.copy()
        x[n // 2, 1] = np.inf
    forged = bytearray(sidecar_bytes(path.read_bytes(), x, y, z))
    if kind == "truncated":
        forged = forged[:len(forged) // 2]
    elif kind == "one-byte-long":
        forged += b"\0"
    elif kind == "corrupt":  # a flipped byte in each column; the digest no longer matches
        for at in (32 + 8 * n, 32 + 16 * n + n // 2, 32 + 17 * n + n // 2):
            forged[at] ^= 0xFF
    elif kind == "other-digest":
        forged[:32] = hashlib.sha256(b"other").digest()
    Path(sidecar).write_bytes(forged)


SIDECAR_DEFECTS = ["truncated", "one-byte-long", "corrupt", "wrong-length", "labels-not-0-1",
                   "non-finite-x", "other-digest"]


@pytest.mark.parametrize("kind", ["sound"] + SIDECAR_DEFECTS)
def test_a_damaged_sidecar_falls_back_to_the_csv_parse(tmp_path, kind):
    path = tmp_path / "data.csv"
    data = flip_labels(sample_dataset(make_random_problem(7, 2.5), 2000, 8), NoiseParams(0.2, 0.1), 9)
    sidecar = save_with_sidecar(data, path)
    forged_sidecar(path, sidecar, kind, data)
    loaded = load_dataset_csv(path)
    if kind == "sound":  # a sidecar that holds the CSV's digest is trusted
        assert_same_dataset(loaded, Dataset(data.x + 1.0, ~data.y_clean, data.z_observed))
    else:
        assert_same_dataset(loaded, data)


@pytest.mark.parametrize("content,line", MALFORMED_CSVS)
def test_a_malformed_csv_next_to_a_sidecar_reports_its_line(tmp_path, content, line):
    path = tmp_path / "bad.csv"
    save_with_sidecar(awkward_dataset(BLOCK + 1), path)
    path.write_text(content)
    with pytest.raises(DatasetFormatError, match=f"line {line}"):
        load_dataset_csv(path)


def parse_line_by_line(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return synthdata._parse_dataset_csv(csv.reader(fh))


def assert_same_dataset(got, expected):
    for name in ("x", "y_clean", "z_observed"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# float() and int() strip these around a field
PADDING = st.one_of(st.just(""), st.sampled_from([" ", "\t", "\x0b", "\x0c", "\xa0", "\u3000"]))
FEATURE = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda v: st.sampled_from([repr(v), f"{v:.17g}", f"{v:e}", f"{v:.3f}"]))
LABEL = st.sampled_from(["0", "1", "+1", "-0", "01"])
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _mutate(kind, fields, i, j):
    row = fields[i]
    if kind == "underscore":
        row[j] = "1_0"
    elif kind == "full-width":
        row[j] = row[j].translate(FULL_WIDTH)
    elif kind == "float-label":
        row[2 + j % 2] = ("1.0", "0.7", "1.9", "1e0")[j]
    elif kind == "control-space":  # float() and int() do not strip it
        row[j] = "\x1c" + row[j]
    elif kind == "quoted":
        row[j] = f'"{row[j]}"'
    elif kind == "hash":
        row[0] = "#" + row[0]
    elif kind == "extra-field":
        row.append("0")
    elif kind in ("nan", "inf", "1e400"):
        row[j % 2] = kind
    elif kind == "header-only":
        fields.clear()


@st.composite
def dataset_csv_texts(draw):
    rows = draw(st.lists(st.tuples(FEATURE, FEATURE, LABEL, LABEL), min_size=1, max_size=6))
    fields = [[draw(PADDING) + f + draw(PADDING) for f in row] for row in rows]
    kind = draw(st.one_of(st.none(), st.sampled_from([
        "underscore", "full-width", "float-label", "control-space", "quoted", "hash", "bom",
        "extra-field", "nan", "inf", "1e400", "header-only"])))
    _mutate(kind, fields, draw(st.integers(0, len(fields) - 1)), draw(st.integers(0, 3)))
    lines = [",".join(row) for row in fields]
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([",".join(CSV_FIELDS), *lines]) + draw(st.sampled_from(["", end]))
    return "\ufeff" + text if kind == "bom" else text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=dataset_csv_texts())
def test_csv_load_past_a_stale_sidecar_agrees_with_the_line_parser(tmp_path, text):
    path = tmp_path / "generated.csv"
    save_with_sidecar(awkward_dataset(2), path)
    path.write_bytes(text.encode("utf-8"))  # the sidecar now holds another file's digest
    try:
        expected = parse_line_by_line(path)
    except DatasetFormatError as exc:
        assert re.match(r"line \d+: ", str(exc))
        with pytest.raises(DatasetFormatError) as raised:
            load_dataset_csv(path)
        assert str(raised.value) == str(exc)
        return
    assert_same_dataset(load_dataset_csv(path), expected)


@pytest.mark.parametrize("dtype", [np.int64, np.float64, bool])
def test_dataset_holds_0_1_columns_as_bool(dtype):
    y, z = np.array([0, 1, 1, 0], dtype), np.array([1, 1, 0, 0], dtype)
    data = Dataset(np.zeros((4, 2)), y, z)
    assert data.y_clean.dtype == bool and data.z_observed.dtype == bool
    assert data.y_clean.tolist() == [False, True, True, False]
    assert data.z_observed.tolist() == [True, True, False, False]
    for bad in (2, 0.5, -1):  # a bool cast would make each of them True
        with pytest.raises(ValueError, match="only 0/1 values"):
            Dataset(np.zeros((4, 2)), np.array([0, 1, bad, 0]), z)


def test_a_bool_dataset_holds_only_its_finiteness_mask(traced_peak):
    # the 0/1 check of a bool column made three more column-sized temporaries: 0.60 MB at 200 000 rows
    x, labels = np.zeros((200_000, 2)), np.zeros(200_000, bool)
    data, peak = traced_peak(lambda: Dataset(x, labels, labels))
    assert data.y_clean is labels and data.z_observed is labels
    assert peak <= 1.05 * x.size  # np.isfinite(x): one byte a feature


def test_dataset_validation():
    for bad in (2, 0.5, np.nan):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, bad]), np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), np.array([0, 1, bad]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 3)), np.array([0, 1, 0]), np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        Dataset(np.full((2, 2), np.nan), np.array([0, 1]), np.array([0, 1]))
    for y, z in ((np.array([0, 1]), np.array([0, 1, 0])), (np.array([0, 1, 0]), np.array([[0, 1, 0]]))):
        with pytest.raises(ValueError, match="label columns must match"):
            Dataset(np.zeros((3, 2)), y, z)
