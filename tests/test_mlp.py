import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from labelnoise.calculus import NoiseParams, corrupt_posterior, logistic, threshold_from_shift
from labelnoise.mlp import (
    Architecture,
    MlpParams,
    ModelFormatError,
    TrainConfig,
    TrainingDivergedError,
    _forward_stack,
    _layers,
    block_rows,
    classify,
    grad,
    init_params,
    load_model,
    loss,
    save_model,
    score,
    shift_bias,
    sigmoid,
    train,
    train_stack,
)
from labelnoise.seeding import make_rng
from labelnoise.synthdata import (
    bayes_accuracy,
    clean_posterior,
    flip_labels,
    make_random_problem,
    sample_dataset,
)


def zero_params(arch=Architecture()):
    sizes = arch.layer_sizes()
    return MlpParams(
        arch,
        tuple(np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])),
        tuple(np.zeros(b) for b in sizes[1:]),
    )


def flatten(weights, biases):
    return np.concatenate([w.ravel() for w in weights] + [b.ravel() for b in biases])


def unflatten(arch, vec):
    sizes = arch.layer_sizes()
    weights, biases = [], []
    at = 0
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(vec[at:at + a * b].reshape(a, b))
        at += a * b
    for b in sizes[1:]:
        biases.append(vec[at:at + b])
        at += b
    return MlpParams(arch, tuple(weights), tuple(biases))


def random_params(arch, seed, spread=0.4):
    base = init_params(arch, seed)
    rng = make_rng(seed, "mlp-test-perturb")
    vec = flatten(base.weights, base.biases)
    return unflatten(arch, vec + rng.normal(scale=spread, size=vec.size))


_CACHE = {}


def trained_moderate_net():
    """One model fitted on a mid-difficulty problem, shared by read-only tests."""
    if "moderate" not in _CACHE:
        problem = make_random_problem(40, 2.5)
        data = sample_dataset(problem, 2000, 41)
        res = train(data.x, data.y_clean,
                    cfg=TrainConfig(epochs=15, batch_size=64, learning_rate=0.05,
                                    momentum=0.9, init_seed=42))
        _CACHE["moderate"] = (problem, res.params)
    return _CACHE["moderate"]


# ------------------------------------------------------------------- forward

def test_sigmoid_choice_pairs_sum_to_one():
    rng = make_rng(300, "sig")
    s = rng.uniform(-30.0, 30.0, size=200)
    assert np.allclose(sigmoid(s) + sigmoid(-s), 1.0, rtol=0.0, atol=1e-15)


def test_sigmoid_matches_reference_formula():
    for s in (-20.0, -3.2, -1e-3, 0.0, 0.4, 7.9, 25.0):
        assert sigmoid(s) == pytest.approx(1.0 / (1.0 + math.exp(-s)), rel=1e-15)


def test_sigmoid_is_strictly_inside_unit_interval_at_huge_scores():
    assert 0.0 < sigmoid(-4000.0) < sigmoid(4000.0) < 1.0


def test_sigmoid_is_the_clipped_calculus_logistic():
    s = np.array([-4000.0, -20.0, -0.3, 0.0, 0.3, 20.0, 4000.0])
    assert np.array_equal(sigmoid(s)[1:-1], logistic(s)[1:-1])
    assert sigmoid(0.3) == logistic(0.3)

    def reference(s):  # both quotients evaluated in full, one picked by the sign of s
        s = np.asarray(s, dtype=np.float64)
        t = np.exp(-np.abs(s))
        return np.where(s >= 0, 1 / (1 + t), t / (1 + t))

    def bits(a):
        return np.asarray(a, dtype=np.float64).view(np.uint64)

    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 36.7, -36.7, 745.0, -745.0, 800.0, -800.0, 5e-324]
    s = np.concatenate([edges, make_rng(35, "logistic-bits").normal(size=100_000) * 30])
    want = reference(s)
    lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    clipped = np.clip(want, lo, hi)
    assert np.array_equal(bits(logistic(s)), bits(want))
    assert np.array_equal(bits(sigmoid(s)), bits(clipped))
    for one in (np.array(-36.7), 0.3):  # a 0-d array and a Python float give a float
        assert isinstance(logistic(one), float) and bits(logistic(one)) == bits(reference(one))
        assert isinstance(sigmoid(one), float) and bits(sigmoid(one)) == bits(np.clip(reference(one), lo, hi))
    # out= is filled and returned
    out = np.empty_like(s)
    assert logistic(s, out=out) is out and np.array_equal(bits(out), bits(want))
    out = np.empty_like(s)
    assert sigmoid(s, out=out) is out and np.array_equal(bits(out), bits(clipped))
    out = np.empty(())
    assert logistic(np.array(-36.7), out=out) is out and bits(out) == bits(reference(-36.7))


def test_score_zero_network_gives_even_odds():
    s = score(zero_params(), np.array([0.37, -2.2]))
    assert s == 0.0
    assert sigmoid(s) == 0.5


def test_score_matches_a_per_layer_loop():
    for seed in range(6):
        params = random_params(Architecture(), seed)
        rng = make_rng(seed, "fwd-x")
        x = rng.normal(size=2) * 1.5
        # independent re-evaluation: explicit per-layer loop
        a = x
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            a = np.tanh(a @ w + b)
        expect_s = float((a @ params.weights[-1] + params.biases[-1])[0])
        s = score(params, x)
        assert s == pytest.approx(expect_s, abs=1e-12)
        assert sigmoid(s) == pytest.approx(1.0 / (1.0 + math.exp(-expect_s)), abs=1e-12)


def test_score_rejects_bad_inputs():
    params = zero_params()
    with pytest.raises(ValueError):
        score(params, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        score(params, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        score(params, np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("hidden, rows, sizes", [
    ((15, 15), 1024, [20000]),  # the grids' network and test-set size
    ((300,), 32, []),
])
def test_score_in_blocks_equals_one_whole_batch_pass_bit_for_bit(hidden, rows, sizes):
    arch = Architecture(2, hidden)
    assert block_rows(arch) == rows
    # the widest layer output of a block stays under malloc's 128 KiB mmap threshold
    assert rows * 8 * max(hidden) < 128 * 1024 <= 2 * rows * 8 * max(hidden)
    params = random_params(arch, 11)
    rng = make_rng(11, "blocks-x")
    for m in [0, 1, rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1, *sizes]:
        x = rng.normal(size=(m, 2)) * 2.0
        whole = _forward_stack(params.weights, params.biases, x)
        assert score(params, x).tobytes() == whole.tobytes()


def test_score_batch_agrees_with_single_points():
    params = random_params(Architecture(), 9)
    rng = make_rng(9, "batch-x")
    x = rng.normal(size=(32, 2))
    batch = score(params, x)
    assert batch.shape == (32,)
    for i in (0, 7, 31):
        assert score(params, x[i]) == pytest.approx(batch[i], abs=1e-12)


# ---------------------------------------------------------------------- loss

def test_loss_is_exactly_zero_at_a_perfect_fit():
    base = zero_params()
    x = make_rng(301, "loss-x").normal(size=(16, 2))
    assert loss(shift_bias(base, -800.0), x, np.ones(16)) == 0.0
    assert loss(shift_bias(base, 800.0), x, np.zeros(16)) == 0.0


def test_loss_zero_network_is_log_two():
    x = make_rng(302, "loss-x").normal(size=(10, 2))
    t = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0])
    assert loss(zero_params(), x, t) == pytest.approx(math.log(2.0), abs=1e-15)


def test_loss_matches_naive_per_sample_oracle():
    for seed in range(5):
        params = random_params(Architecture(), seed + 40)
        rng = make_rng(seed, "loss-batch")
        x = rng.normal(size=(24, 2)) * 1.5
        t = rng.integers(0, 2, size=24)
        total = 0.0
        for i in range(24):
            p = 1.0 / (1.0 + math.exp(-score(params, x[i])))
            total += -(t[i] * math.log(p) + (1 - t[i]) * math.log(1.0 - p))
        assert loss(params, x, t) == pytest.approx(total / 24, abs=1e-12)


def test_loss_and_grad_reject_empty_or_bad_batches():
    params = zero_params()
    empty = np.zeros((0, 2))
    with pytest.raises(ValueError):
        loss(params, empty, np.zeros(0))
    with pytest.raises(ValueError):
        grad(params, empty, np.zeros(0))
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        loss(params, x, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        grad(params, x, np.array([0, 1]))


# ---------------------------------------------------------------- gradients

def test_grad_vanishes_at_saturated_fit():
    params = shift_bias(random_params(Architecture(), 11), -800.0)
    x = make_rng(303, "sat-x").normal(size=(64, 2))
    g = grad(params, x, np.ones(64))
    worst = max(float(np.max(np.abs(a))) for a in g.weights + g.biases)
    assert worst <= 1e-9


def test_grad_matches_central_finite_differences():
    archs = (
        Architecture(hidden_sizes=(3,)),
        Architecture(hidden_sizes=(4, 3)),
        Architecture(hidden_sizes=(6,)),
        Architecture(),
    )
    step = 1e-5
    worst = 0.0
    for seed in range(20):
        arch = archs[seed % len(archs)]
        params = random_params(arch, seed + 100)
        rng = make_rng(seed, "fd-batch")
        m = int(rng.integers(1, 9))
        x = rng.normal(size=(m, 2)) * 1.5
        t = rng.integers(0, 2, size=m)
        g = grad(params, x, t)
        gvec = flatten(g.weights, g.biases)
        vec = flatten(params.weights, params.biases)
        for j in range(vec.size):
            bump = np.zeros_like(vec)
            bump[j] = step
            fd = (loss(unflatten(arch, vec + bump), x, t)
                  - loss(unflatten(arch, vec - bump), x, t)) / (2 * step)
            rel = abs(gvec[j] - fd) / max(abs(gvec[j]), abs(fd), 1e-5)
            worst = max(worst, rel)
    assert worst < 1e-4


def test_grad_unchanged_when_batch_is_duplicated():
    params = random_params(Architecture(), 12)
    rng = make_rng(304, "dup")
    x = rng.normal(size=(9, 2))
    t = rng.integers(0, 2, size=9)
    g1 = grad(params, x, t)
    g2 = grad(params, np.vstack([x, x]), np.concatenate([t, t]))
    for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


# ------------------------------------------------------------------ training

def test_train_twice_is_bit_identical():
    problem = make_random_problem(45, 2.5)
    data = sample_dataset(problem, 500, 46)
    cfg = TrainConfig(epochs=6, batch_size=32, learning_rate=0.05, momentum=0.9, init_seed=47)
    a = train(data.x, data.y_clean, cfg=cfg)
    b = train(data.x, data.y_clean, cfg=cfg)
    assert a.epoch_losses == b.epoch_losses
    for wa, wb in zip(a.params.weights + a.params.biases, b.params.weights + b.params.biases):
        assert np.array_equal(wa, wb)


def test_train_far_apart_classes_reaches_high_training_accuracy():
    problem = make_random_problem(48, 10.0)
    data = sample_dataset(problem, 2000, 49)
    res = train(data.x, data.y_clean,
                cfg=TrainConfig(epochs=15, batch_size=32, learning_rate=0.05,
                                momentum=0.9, init_seed=50))
    acc = float(np.mean(classify(res.params, data.x, threshold=0.5) == data.y_clean))
    assert acc > 0.99


def test_train_reports_one_loss_per_epoch():
    problem = make_random_problem(45, 2.5)
    data = sample_dataset(problem, 500, 46)
    res = train(data.x, data.y_clean,
                cfg=TrainConfig(epochs=7, batch_size=64, learning_rate=0.05,
                                momentum=0.9, init_seed=51))
    assert len(res.epoch_losses) == 7
    assert all(math.isfinite(v) for v in res.epoch_losses)


def test_train_loss_nonincreasing_over_first_epochs():
    problem = make_random_problem(40, 2.5)
    data = sample_dataset(problem, 2000, 41)
    for seed in (42, 43, 44):
        res = train(data.x, data.y_clean,
                    cfg=TrainConfig(epochs=6, batch_size=256, learning_rate=0.05,
                                    momentum=0.9, init_seed=seed))
        steps = np.diff(res.epoch_losses[:6])
        assert float(steps.max()) <= 1e-3


def test_train_early_stop_cuts_the_run_short():
    problem = make_random_problem(45, 2.5)
    data = sample_dataset(problem, 500, 46)
    res = train(data.x, data.y_clean,
                cfg=TrainConfig(epochs=30, batch_size=64, learning_rate=0.05,
                                momentum=0.9, init_seed=52, early_stop_tol=10.0))
    assert len(res.epoch_losses) == 2


def test_train_tail_average_of_one_equals_plain_final_params():
    problem = make_random_problem(45, 2.5)
    data = sample_dataset(problem, 500, 46)
    kw = dict(epochs=5, batch_size=32, learning_rate=0.05, momentum=0.9, init_seed=53)
    plain = train(data.x, data.y_clean, cfg=TrainConfig(**kw))
    tailed = train(data.x, data.y_clean, cfg=TrainConfig(average_tail=1, **kw))
    for a, b in zip(plain.params.weights + plain.params.biases,
                    tailed.params.weights + tailed.params.biases):
        assert np.array_equal(a, b)


def reference_backprop(weights, biases, x, t):
    """Per-layer forward and backward pass: (mean loss, weight grads, bias grads)."""
    stack = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        stack.append(np.tanh(stack[-1] @ w + b))
    s = (stack[-1] @ weights[-1] + biases[-1])[:, 0]
    batch_loss = float(np.mean(np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s))) - t * s))
    gw = [None] * len(weights)
    gb = [None] * len(weights)
    delta = ((sigmoid(s) - t) / x.shape[0])[:, None]
    gw[-1] = stack[-1].T @ delta
    gb[-1] = delta.sum(axis=0)
    back = delta @ weights[-1].T
    for layer in range(len(weights) - 2, -1, -1):
        a = stack[layer + 1]
        dh = back * (1.0 - a * a)
        gw[layer] = stack[layer].T @ dh
        gb[layer] = dh.sum(axis=0)
        if layer:
            back = dh @ weights[layer].T
    return batch_loss, gw, gb


def reference_train(x, t, arch, cfg):
    """Mini-batch SGD with momentum, one layer at a time: (weights, biases, epoch losses)."""
    params = init_params(arch, cfg.init_seed)
    # views of one flat vector in train's layout, so that every matrix starts at
    # train's offset: OpenBLAS's Prescott dot product (a 1-row batch's score)
    # sums in another order for an operand that is not 16-byte aligned
    weights, biases = map(list, _layers(arch, np.concatenate([a.ravel() for a in params.weights + params.biases])))
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    shuffle_rng = make_rng(cfg.init_seed, "mlp-shuffle")
    n = x.shape[0]
    epoch_losses = []
    avg_w = avg_b = None
    averaged = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        running = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_loss, gw, gb = reference_backprop(weights, biases, x[idx], t[idx])
            running += batch_loss * idx.size
            for i in range(len(weights)):
                step_w = gw[i] if cfg.weight_decay == 0.0 else gw[i] + cfg.weight_decay * weights[i]
                vel_w[i] = cfg.momentum * vel_w[i] - cfg.learning_rate * step_w
                vel_b[i] = cfg.momentum * vel_b[i] - cfg.learning_rate * gb[i]
                weights[i] += vel_w[i]
                biases[i] += vel_b[i]
        epoch_losses.append(running / n)
        if cfg.average_tail and epoch >= cfg.epochs - cfg.average_tail:
            if avg_w is None:
                avg_w = [w.copy() for w in weights]
                avg_b = [b.copy() for b in biases]
            else:
                for i in range(len(weights)):
                    avg_w[i] += weights[i]
                    avg_b[i] += biases[i]
            averaged += 1
        if cfg.early_stop_tol is not None and epoch > 0 and epoch_losses[-2] - epoch_losses[-1] < cfg.early_stop_tol:
            break
    if averaged:
        weights = [w / averaged for w in avg_w]
        biases = [b / averaged for b in avg_b]
    return weights, biases, tuple(epoch_losses)


def same_bits(arrays, expected):
    return len(arrays) == len(expected) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(arrays, expected))


@pytest.mark.parametrize("hidden, kwargs", [
    pytest.param((15, 15), dict(), id="plain"),
    pytest.param((4,), dict(weight_decay=1e-2), id="weight-decay"),
    pytest.param((5, 4, 3), dict(average_tail=3), id="tail-average"),
    pytest.param((15, 15), dict(epochs=30, early_stop_tol=2e-3), id="early-stop"),
    pytest.param((3,), dict(batch_size=1, epochs=2), id="batch-1"),
    pytest.param((4, 3), dict(batch_size=120), id="full-batch"),
    pytest.param((6, 5, 4), dict(epochs=12, batch_size=7, momentum=0.0, weight_decay=1e-3,
                                 average_tail=4, early_stop_tol=1e-4), id="everything"),
])
@pytest.mark.parametrize("dtype", [np.int64, bool, np.float64])  # targets are gathered in their own dtype
def test_train_matches_the_per_layer_reference_bit_for_bit(hidden, kwargs, dtype):
    problem = make_random_problem(80, 2.5)
    data = flip_labels(sample_dataset(problem, 120, 81), NoiseParams(0.3, 0.1), 82)
    arch = Architecture(hidden_sizes=hidden)
    cfg = TrainConfig(**{**dict(epochs=6, batch_size=16, learning_rate=0.1, momentum=0.9,
                                init_seed=83), **kwargs})
    res = train(data.x, data.z_observed.astype(dtype), arch, cfg)
    weights, biases, epoch_losses = reference_train(data.x, data.z_observed.astype(float), arch, cfg)
    assert res.epoch_losses == epoch_losses
    assert same_bits(res.params.weights, weights)
    assert same_bits(res.params.biases, biases)
    if cfg.early_stop_tol is not None:
        assert len(epoch_losses) < cfg.epochs  # the case does stop early


@pytest.mark.parametrize("networks, hidden, kwargs, rows", [
    pytest.param(1, (3,), dict(), 70, id="one"),
    pytest.param(3, (5, 4), dict(weight_decay=1e-2, average_tail=2), 70, id="three"),
    pytest.param(8, (15, 15), dict(), 70, id="eight"),
    pytest.param(8, (6, 5, 4), dict(epochs=12, momentum=0.5, average_tail=3), 70, id="eight-tail-average"),
    # a loss window's gathered inputs stay under 128 KiB: 255 batches of 32 for
    # one network, 31 for eight; these epochs fill it and go on into another window
    pytest.param(1, (15, 15), dict(epochs=2), 20001, id="one-two-windows"),
    pytest.param(8, (6, 5, 4), dict(epochs=8, momentum=0.5), 2100, id="eight-two-windows"),
    # the grids' cap of 1024 rows a step: two windows of 7 batches, a third
    # window of two, then the partial batch of 8 rows
    pytest.param(32, (15, 15), dict(), 520, id="thirty-two-at-the-cap"),
    pytest.param(3, (4, 3), dict(batch_size=100), 70, id="batch-over-data"),
])
@pytest.mark.parametrize("dtype", [np.int64, bool, np.float64])
def test_train_stack_matches_separate_reference_runs_bit_for_bit(networks, hidden, kwargs, rows, dtype):
    # at batch 32 every epoch ends on a partial batch: of 6 rows for 70 rows,
    # 1 for 20001 and 20 for 2100
    arch = Architecture(hidden_sizes=hidden)
    cfg = TrainConfig(**{**dict(epochs=5, batch_size=32, learning_rate=0.1, momentum=0.9), **kwargs})
    data = [flip_labels(sample_dataset(make_random_problem(84 + r, 2.5), rows, 85 + r),
                        NoiseParams(0.3, 0.1), 86 + r) for r in range(networks)]
    seeds = [200 + 7 * r for r in range(networks)]
    results = train_stack(np.array([d.x for d in data]), np.array([d.z_observed for d in data], dtype=dtype),
                          arch, cfg, seeds)
    assert len(results) == networks
    for d, seed, res in zip(data, seeds, results):
        weights, biases, epoch_losses = reference_train(
            d.x, d.z_observed.astype(float), arch, replace(cfg, init_seed=seed))
        assert res.epoch_losses == epoch_losses
        assert same_bits(res.params.weights, weights)
        assert same_bits(res.params.biases, biases)


def test_train_gathers_a_window_of_rows_not_a_shuffled_copy_of_the_dataset(traced_peak):
    # the whole-epoch gathers held a shuffled copy of x and of the targets: 3.22 x.nbytes
    problem = make_random_problem(90, 2.5)
    data = flip_labels(sample_dataset(problem, 50_000, 91), NoiseParams(0.2, 0.1), 92)
    _, peak = traced_peak(lambda: train(data.x, data.z_observed, cfg=TrainConfig(epochs=1)))
    assert peak <= 2.7 * data.x.nbytes


def test_train_holds_no_float_copy_of_the_targets(traced_peak):
    # a float64 copy of int64 targets and a fresh row order every epoch held
    # 1.67 x.nbytes at 200 000 rows; int64 targets gathered in their own dtype
    # next to an intp row order, 0.84; bool targets and an int32 row order, 0.56
    problem = make_random_problem(93, 2.5)
    data = flip_labels(sample_dataset(problem, 200_000, 94), NoiseParams(0.2, 0.1), 95)
    assert data.z_observed.dtype == bool
    _, peak = traced_peak(lambda: train(data.x, data.z_observed, cfg=TrainConfig(epochs=1)))
    assert peak <= 0.7 * data.x.nbytes


def test_a_stack_at_the_cap_peaks_under_its_inputs(traced_peak):
    # 32 networks at batch 32 step 1024 rows at once, the grids' cap; the
    # step's workspace, made once per call, peaks at 0.916 x.nbytes (hidden
    # outputs made fresh each step peaked at 0.856)
    rng = make_rng(96, "test-stack")
    x = rng.normal(size=(32, 4000, 2))
    targets = rng.random((32, 4000)) < 0.5
    _, peak = traced_peak(lambda: train_stack(x, targets, Architecture(), TrainConfig(epochs=1), range(32)))
    assert peak <= 1.1 * x.nbytes


@pytest.mark.parametrize("n", [5, 1000, 200_000])
def test_an_int32_row_order_shuffles_like_an_intp_one(n):
    # train_stack orders rows as int32 where they fit, intp otherwise: the same draws
    wide, narrow = np.arange(n, dtype=np.intp), np.arange(n, dtype=np.int32)
    make_rng(n, "mlp-shuffle").shuffle(wide)
    make_rng(n, "mlp-shuffle").shuffle(narrow)
    assert np.array_equal(wide, narrow)


def test_train_stack_checks_its_inputs():
    x = np.zeros((2, 4, 2))
    t = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
    with pytest.raises(ValueError):
        train_stack(x, t, Architecture(), TrainConfig(), [1])  # one seed per network
    with pytest.raises(ValueError):
        train_stack(x[0], t[0], Architecture(), TrainConfig(), [1])
    with pytest.raises(ValueError):
        train_stack(x, t[:, :3], Architecture(), TrainConfig(), [1, 2])
    with pytest.raises(ValueError):
        train_stack(np.zeros((0, 4, 2)), np.zeros((0, 4)), Architecture(), TrainConfig(), [])
    for bad in (np.nan, np.inf):
        x[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            train_stack(x, t, Architecture(), TrainConfig(), [1, 2])


def test_train_stack_rejects_early_stop_for_several_networks():
    x = np.zeros((2, 4, 2))
    t = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
    with pytest.raises(ValueError, match="early stop"):
        train_stack(x, t, Architecture(), TrainConfig(early_stop_tol=1e-3), [1, 2])


def test_train_stack_names_the_diverged_network():
    problem = make_random_problem(45, 2.5)
    data = [sample_dataset(problem, 100, seed) for seed in (46, 47)]
    with pytest.raises(TrainingDivergedError, match=r"epoch 1: .* \(network 0\)"):
        train_stack([d.x for d in data], [d.y_clean for d in data], Architecture(),
                    TrainConfig(epochs=3, learning_rate=1e307), [1, 2])


@pytest.mark.parametrize("learning_rate", [1e307, 1.7e308])
def test_a_diverged_run_raises_its_typed_error_and_no_numpy_warning(learning_rate):
    problem = make_random_problem(45, 2.5)
    data = [sample_dataset(problem, 100, seed) for seed in (46, 47)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here before the typed error
        for stack in (data[:1], data):
            with pytest.raises(TrainingDivergedError, match="training loss is"):
                train_stack([d.x for d in stack], [d.y_clean for d in stack], Architecture(),
                            TrainConfig(epochs=3, learning_rate=learning_rate), range(len(stack)))


def test_grad_matches_the_per_layer_reference_bit_for_bit():
    for seed, hidden in enumerate([(3,), (15, 15), (5, 4, 3)]):
        params = random_params(Architecture(hidden_sizes=hidden), seed + 90)
        rng = make_rng(seed, "ref-grad")
        x = rng.normal(size=(11, 2))
        t = rng.integers(0, 2, size=11)
        # last-layer weights of +0.0 and -0.0 under all-zero targets: every
        # product of the last layer's backward pass is a signed zero
        signed = np.where(np.arange(hidden[-1]) % 2, -0.0, 0.0)[:, None]
        zeroed = MlpParams(params.arch, params.weights[:-1] + (signed,), params.biases)
        for p, targets in ((params, t), (zeroed, np.zeros_like(t))):
            g = grad(p, x, targets)
            _, gw, gb = reference_backprop(p.weights, p.biases, x, targets.astype(float))
            assert same_bits(g.weights, gw)
            assert same_bits(g.biases, gb)


def test_train_raises_on_numeric_blowup():
    problem = make_random_problem(45, 2.5)
    data = sample_dataset(problem, 500, 46)
    with pytest.raises(TrainingDivergedError, match="epoch"):
        train(data.x, data.y_clean,
              cfg=TrainConfig(epochs=3, batch_size=32, learning_rate=1e307,
                              momentum=0.9, init_seed=42))


def test_train_validates_features_and_targets():
    x = np.zeros((4, 2))
    t = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError):
        train(np.zeros((4, 3)), t)
    with pytest.raises(ValueError):
        train(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        train(np.array([[0.0, np.nan]] * 4), t)
    for bad in (2, 0.5, np.nan):
        with pytest.raises(ValueError):
            train(x, np.array([0, 1, bad, 1]))


@pytest.mark.parametrize("kwargs", [
    dict(epochs=0),
    dict(batch_size=0),
    dict(learning_rate=0.0),
    dict(learning_rate=-0.1),
    dict(momentum=1.0),
    dict(momentum=-0.2),
    dict(weight_decay=-1e-4),
    dict(early_stop_tol=-1.0),
    dict(average_tail=-1),
    dict(epochs=10, average_tail=11),
    dict(learning_rate=math.inf),
    dict(weight_decay=math.nan),
    dict(weight_decay=math.inf),
    dict(epochs=2.5),
    dict(batch_size=2.5),
    dict(epochs=True),
    dict(learning_rate=True),
    dict(average_tail=0.5),
    dict(init_seed=2.5),
    dict(momentum=False),
    dict(early_stop_tol=math.nan),
])
def test_train_config_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError, match=list(kwargs)[-1]):  # the message names the field
        TrainConfig(**kwargs)


def test_architecture_rejects_degenerate_layers():
    for kwargs in (dict(input_dim=0), dict(hidden_sizes=(15, 0)), dict(hidden_sizes=(2.7,)),
                   dict(hidden_sizes=("3",)), dict(hidden_sizes=(True,)), dict(hidden_sizes=3),
                   dict(input_dim=2.9), dict(input_dim=True)):
        with pytest.raises(ValueError, match=list(kwargs)[-1]):
            Architecture(**kwargs)


def test_configs_take_numpy_integers_as_ints():
    cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8), init_seed=np.uint64(5), average_tail=np.int8(1))
    assert (cfg.epochs, cfg.batch_size, cfg.init_seed, cfg.average_tail) == (3, 8, 5, 1)
    assert type(cfg.init_seed) is int  # the seed is hashed as an int, as the CLI passes it
    arch = Architecture(np.int64(2), np.array([4, 3]).tolist() + [np.int16(2)])
    assert arch == Architecture(2, (4, 3, 2))


def test_params_shape_and_finiteness_are_checked():
    arch = Architecture(hidden_sizes=(3,))
    good = init_params(arch, 1)
    with pytest.raises(ValueError):
        MlpParams(arch, good.weights[:1], good.biases)
    with pytest.raises(ValueError):
        MlpParams(arch, (np.zeros((2, 4)), good.weights[1]), good.biases)
    bad_bias = (good.biases[0], np.array([np.inf]))
    with pytest.raises(ValueError):
        MlpParams(arch, good.weights, bad_bias)
    with pytest.raises(ValueError, match="bias shape"):
        MlpParams(arch, good.weights, (np.zeros(4), good.biases[1]))


def test_init_params_is_seeded_and_bounded():
    arch = Architecture()
    a = init_params(arch, 123)
    b = init_params(arch, 123)
    c = init_params(arch, 124)
    sizes = arch.layer_sizes()
    for i, (w, fan_in, fan_out) in enumerate(zip(a.weights, sizes[:-1], sizes[1:])):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert float(np.max(np.abs(w))) <= bound
        assert np.array_equal(w, b.weights[i])
        assert np.array_equal(a.biases[i], np.zeros(fan_out))
    assert any(not np.array_equal(w, v) for w, v in zip(a.weights, c.weights))


# ------------------------------------------------------------------ shifting

def test_shift_bias_zero_is_identity():
    _, params = trained_moderate_net()
    shifted = shift_bias(params, 0.0)
    for a, b in zip(params.weights + params.biases, shifted.weights + shifted.biases):
        assert np.array_equal(a, b)


def test_shift_bias_moves_every_score_by_delta():
    problem, params = trained_moderate_net()
    pts = sample_dataset(problem, 500, 60).x
    base = score(params, pts)
    for delta in (-2.0, -0.31, 0.5, 3.7):
        moved = score(shift_bias(params, delta), pts)
        assert np.allclose(moved, base - delta, rtol=0.0, atol=1e-12)
    # with untouched zero biases the identity is exact bit for bit
    fresh = init_params(Architecture(), 61)
    assert np.array_equal(score(shift_bias(fresh, 0.31), pts), score(fresh, pts) - 0.31)


def test_shift_bias_touches_only_the_last_bias():
    _, params = trained_moderate_net()
    shifted = shift_bias(params, 1.25)
    for a, b in zip(params.weights, shifted.weights):
        assert np.array_equal(a, b)
    for a, b in zip(params.biases[:-1], shifted.biases[:-1]):
        assert np.array_equal(a, b)
    assert shifted.biases[-1][0] == params.biases[-1][0] - 1.25


# ---------------------------------------------------------------- classifying

def test_classify_at_half_is_the_sign_of_the_score():
    problem, params = trained_moderate_net()
    pts = sample_dataset(problem, 500, 62).x
    assert np.array_equal(classify(params, pts, threshold=0.5), (score(params, pts) >= 0.0).astype(int))


def test_classify_tie_goes_to_class_one():
    assert classify(zero_params(), np.array([0.3, -0.7]), threshold=0.5) is True


def test_classify_is_monotone_in_the_threshold():
    problem, params = trained_moderate_net()
    pts = sample_dataset(problem, 400, 63).x
    previous = None
    for threshold in (0.05, 0.2, 0.5, 0.8, 0.95):
        decision = classify(params, pts, threshold=threshold)
        if previous is not None:
            assert (previous >= decision).all()  # raising can only turn 1 into 0
        previous = decision


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.1, 1.1, float("nan")])
def test_classify_rejects_out_of_range_thresholds(threshold):
    with pytest.raises(ValueError):
        classify(zero_params(), np.array([0.0, 0.0]), threshold=threshold)


def test_threshold_moves_and_bias_shifts_decide_identically():
    problem, params = trained_moderate_net()
    pts = sample_dataset(problem, 10_000, 64).x
    for delta in (-3.0, -0.7, 0.0, 0.31, 1.0, 2.5):
        by_shift = classify(shift_bias(params, delta), pts, threshold=0.5)
        by_sigmoid = classify(params, pts, threshold=sigmoid(delta))
        by_calculus = classify(params, pts, threshold=threshold_from_shift(delta))
        assert int((by_sigmoid != by_shift).sum()) == 0
        assert int((by_calculus != by_shift).sum()) == 0


def test_classify_holds_one_bool_decision_column(traced_peak):
    # int64 decisions made from a whole float64 score vector held 1.06 x.nbytes
    # at 200 000 rows; a bool column filled a block of scores at a time, 0.23
    x = sample_dataset(make_random_problem(65, 2.5), 200_000, 66).x
    decision, peak = traced_peak(lambda: classify(init_params(Architecture(), 67), x, threshold=0.4))
    assert decision.dtype == bool and decision.shape == (len(x),)
    assert peak <= 0.35 * x.nbytes


# ----------------------------------------------------------------- model files

def test_save_load_round_trip_is_bit_exact(tmp_path):
    _, params = trained_moderate_net()
    path = tmp_path / "net.txt"
    save_model(params, path)
    back = load_model(path)
    assert back.arch == params.arch
    for a, b in zip(params.weights + params.biases, back.weights + back.biases):
        assert np.array_equal(a, b)


def test_saved_model_is_plain_text_with_header(tmp_path):
    params = init_params(Architecture(hidden_sizes=(3,)), 70)
    path = tmp_path / "net.txt"
    save_model(params, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "labelnoise-mlp 1"
    assert lines[1] == "activation tanh"
    assert lines[2] == "sizes 2 3 1"


@pytest.mark.parametrize("mangle, where", [
    (lambda lines: ["mlp-model 7"] + lines[1:], "line 1"),
    (lambda lines: [lines[0], "act tanh"] + lines[2:], "line 2"),
    (lambda lines: lines[:2] + ["sizes 2 x 1"] + lines[3:], "line 3"),
    (lambda lines: lines[:2] + ["sizes 2 3 2"] + lines[3:], "line 3"),
    (lambda lines: lines[:3] + ["W0 9 9"] + lines[4:], "line 4"),
    (lambda lines: lines[:4] + [lines[4] + " 0.5"] + lines[5:], "line 5"),
    (lambda lines: lines[:4] + ["0.1 spam 0.3"] + lines[5:], "line 5"),
    (lambda lines: lines[:6], "line 7"),
    (lambda lines: lines + ["leftover"], "line 15"),
    pytest.param(lambda lines: [lines[0], "activation relu"] + lines[2:], "line 2",
                 id="unknown-activation"),
    pytest.param(lambda lines: lines[:2] + ["sizes 2 0 1"] + lines[3:], "line 3",
                 id="zero-width-layer"),
    pytest.param(lambda lines: lines[:9] + ["-inf"] + lines[10:], "line 10",
                 id="infinite-weight"),
    pytest.param(lambda lines: lines[:7] + ["0.0 nan 0.0"] + lines[8:], "line 8",
                 id="nan-bias"),
    pytest.param(lambda lines: lines[:4] + [lines[4].replace(" ", "\x0c"), "0.1 0.2"] + lines[6:],
                 "line 6", id="form-feed-separated-row"),
    pytest.param(lambda lines: lines[:5], "line 6: unexpected end of file", id="cut-in-a-weight-block"),
    pytest.param(lambda lines: lines[:7], "line 8: unexpected end of file", id="cut-in-a-bias-block"),
])
def test_load_model_reports_malformed_files_with_line_numbers(tmp_path, mangle, where):
    params = init_params(Architecture(hidden_sizes=(3,)), 71)
    path = tmp_path / "net.txt"
    save_model(params, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mangle(lines)) + "\n")
    with pytest.raises(ModelFormatError, match=where):
        load_model(path)


@pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
def test_load_model_splits_lines_at_newlines_only(tmp_path, separator):
    # str.split() takes these for blanks inside a row; str.splitlines() would end the line
    params = init_params(Architecture(hidden_sizes=(3,)), 74)
    path = tmp_path / "net.txt"
    save_model(params, path)
    lines = path.read_text().splitlines()
    lines[4] = lines[4].replace(" ", separator)
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n")  # CRLF line ends still load
    back = load_model(path)
    assert same_bits(back.weights, params.weights)
    assert same_bits(back.biases, params.biases)


@pytest.mark.parametrize("line", [1, 6, 14])
def test_load_model_reports_non_utf8_bytes_with_line_number(tmp_path, line):
    params = init_params(Architecture(hidden_sizes=(3,)), 73)
    path = tmp_path / "net.txt"
    save_model(params, path)
    lines = path.read_bytes().splitlines()
    lines[line - 1] += b" \xff\xfe"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ModelFormatError, match=f"line {line}: not UTF-8"):
        load_model(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hidden=st.sampled_from([(), (1,), (3,), (2, 3)]), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["drop-line", "duplicate-line", "bad-token", "same-value-token", "non-utf8"]),
       data=st.data())
def test_load_model_loads_the_saved_bits_or_names_a_line(tmp_path, hidden, seed, kind, data):
    params = random_params(Architecture(2, hidden), seed, spread=2.0)
    path = tmp_path / "net.txt"
    save_model(params, path)
    lines = path.read_bytes().split(b"\n")[:-1]
    i = data.draw(st.integers(0, len(lines) - 1), label="line index")
    if kind == "drop-line":
        del lines[i]
    elif kind == "duplicate-line":
        lines.insert(i, lines[i])
    elif kind == "non-utf8":
        at = data.draw(st.integers(0, len(lines[i])), label="byte offset")
        bad = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9t\xe9", b"\xed\xa0\x80"]))
        lines[i] = lines[i][:at] + bad + lines[i][at:]
    else:
        tokens = lines[i].split(b" ")
        j = data.draw(st.integers(0, len(tokens) - 1), label="token index")
        if kind == "bad-token":
            tokens[j] = data.draw(st.sampled_from(
                [b"", b"x", b"1e400", b"-1e400", b"nan", b"inf", b"W9", b"b9", b"0x1p0"]))
        else:
            try:
                value = float(tokens[j])
            except ValueError:
                pass  # not a number: the line stays as it is
            else:
                tokens[j] = data.draw(st.sampled_from(
                    [f"{value:.17e}", f"{value:+.17g}", repr(value).upper()])).encode()
        lines[i] = b" ".join(tokens)
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        back = load_model(path)
    except ModelFormatError as exc:
        found = re.match(r"line (\d+): ", str(exc))
        assert found, str(exc)
        # a file that ends too soon names the line after its last one
        assert 1 <= int(found[1]) <= len(lines) + 1
        if kind == "non-utf8":
            assert int(found[1]) == i + 1
        return
    assert kind == "same-value-token"  # every other mutation breaks the file
    assert back.arch == params.arch
    assert same_bits(back.weights, params.weights)
    assert same_bits(back.biases, params.biases)


def test_load_model_rejects_nonfinite_parameters(tmp_path):
    params = init_params(Architecture(hidden_sizes=(3,)), 72)
    path = tmp_path / "net.txt"
    save_model(params, path)
    text = path.read_text().splitlines()
    text[4] = "inf 0.0 0.0"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


# ------------------------------------------------- behaviour on noisy problems

def test_training_through_severe_symmetric_noise():
    # forty-nine percent of each class flipped: barely better than a coin,
    # yet a large sample still recovers a near-oracle decision rule
    problem = make_random_problem(50, 10.0)
    noise = NoiseParams(0.49, 0.49)
    data = flip_labels(sample_dataset(problem, 100_000, 53), noise, 54)
    holdout = sample_dataset(problem, 20_000, 56)
    res = train(data.x, data.z_observed,
                cfg=TrainConfig(epochs=40, batch_size=256, learning_rate=0.05,
                                momentum=0.9, init_seed=55, average_tail=20,
                                weight_decay=1e-3))
    acc = float(np.mean(classify(res.params, holdout.x, threshold=0.5) == holdout.y_clean))
    assert acc >= bayes_accuracy(problem, holdout) - 0.05


def test_probability_estimates_approach_the_corrupted_posterior():
    # the fitted net should estimate the *observed-label* probability, and the
    # estimate should sharpen as the training set grows 10^3 -> 10^4 -> 10^5
    problem = make_random_problem(70, 2.5)
    noise = NoiseParams(0.3, 0.1)
    probe = sample_dataset(problem, 3000, 71)
    target = np.array([corrupt_posterior(p, noise) for p in clean_posterior(problem, probe.x)])
    plans = ((1_000, 120, 32, 30), (10_000, 40, 64, 10), (100_000, 25, 256, 8))
    for init_seed in (74, 75):
        mads = []
        for size, epochs, batch, tail in plans:
            data = flip_labels(sample_dataset(problem, size, 72), noise, 73)
            res = train(data.x, data.z_observed,
                        cfg=TrainConfig(epochs=epochs, batch_size=batch, learning_rate=0.05,
                                        momentum=0.9, init_seed=init_seed,
                                        average_tail=tail, weight_decay=1e-4))
            estimate = sigmoid(score(res.params, probe.x))
            mads.append(float(np.mean(np.abs(estimate - target))))
        assert mads[0] > mads[1] > mads[2]


def test_trained_accuracy_stays_under_the_oracle_ceiling():
    for seed in (40, 44):
        problem = make_random_problem(seed, 2.5)
        data = sample_dataset(problem, 4000, seed + 100)
        holdout = sample_dataset(problem, 20_000, seed + 200)
        res = train(data.x, data.y_clean,
                    cfg=TrainConfig(epochs=30, batch_size=32, learning_rate=0.05,
                                    momentum=0.9, init_seed=seed + 300))
        acc = float(np.mean(classify(res.params, holdout.x, threshold=0.5) == holdout.y_clean))
        assert acc <= bayes_accuracy(problem, holdout) + 0.01
