import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from labelnoise import mlp, synthdata
from labelnoise.experiments import (
    RESULTS_FIELDS,
    SUMMARY_FIELDS,
    EfficiencyGridConfig,
    FlipRatioGridConfig,
    ResultRow,
    _plan_stacks,
    run_efficiency_grid,
    run_flip_ratio_grid,
    run_grid,
    summarize,
    write_results_csv,
    write_summary_csv,
)


def tiny_efficiency(**overrides):
    kw = dict(noise_levels=(0.0, 0.4), training_sizes=(60, 120), runs=2,
              test_size=400, base_seed=900, epochs=2, batch_size=16)
    kw.update(overrides)
    return EfficiencyGridConfig(**kw)


def tiny_flip_ratio(**overrides):
    kw = dict(noise_levels=(0.4,), flip_ratios=(1.0, 4.0), runs=2,
              train_size=60, test_size=400, base_seed=901, epochs=2, batch_size=16)
    kw.update(overrides)
    return FlipRatioGridConfig(**kw)


def row(acc_corrected, acc_naive=None, ceiling=0.9, run=0, **overrides):
    kw = dict(experiment="efficiency", n=0.4, gamma1=0.2, gamma0=0.2, ratio=1.0,
              train_size=60, run=run, threshold=0.5, acc_corrected=acc_corrected,
              acc_naive=acc_corrected if acc_naive is None else acc_naive,
              bayes_ceiling=ceiling, seed=7)
    kw.update(overrides)
    return ResultRow(**kw)


# ------------------------------------------------------------------ grid runs

def test_efficiency_grid_covers_every_cell_in_sorted_order():
    cfg = tiny_efficiency()
    rows = run_efficiency_grid(cfg)
    assert len(rows) == 2 * 2 * 2
    keys = [(r.n, r.ratio, r.train_size, r.run) for r in rows]
    assert keys == sorted(keys)
    assert {(r.n, r.train_size) for r in rows} == {(n, s) for n in (0.0, 0.4) for s in (60, 120)}
    assert all(r.experiment == "efficiency" and r.ratio == 1.0 for r in rows)


def test_symmetric_noise_cells_use_the_half_threshold():
    rows = run_efficiency_grid(tiny_efficiency(noise_levels=(0.4,), training_sizes=(60,), runs=1))
    assert rows[0].gamma1 == rows[0].gamma0 == 0.2
    assert rows[0].threshold == 0.5
    assert rows[0].acc_corrected == rows[0].acc_naive


def test_flip_ratio_four_decomposes_noise_and_raises_threshold():
    rows = run_flip_ratio_grid(tiny_flip_ratio(flip_ratios=(4.0,), runs=1))
    assert rows[0].gamma1 == pytest.approx(0.08, abs=1e-12)
    assert rows[0].gamma0 == pytest.approx(0.32, abs=1e-12)
    assert rows[0].threshold == pytest.approx(0.62, abs=1e-9)


def test_flip_ratio_one_keeps_both_conditions_identical():
    rows = run_flip_ratio_grid(tiny_flip_ratio(flip_ratios=(1.0,)))
    for r in rows:
        assert r.threshold == 0.5
        assert r.acc_corrected == r.acc_naive


def test_accuracies_and_ceilings_are_probabilities():
    for r in run_efficiency_grid(tiny_efficiency()):
        for value in (r.acc_corrected, r.acc_naive, r.bayes_ceiling):
            assert 0.0 <= value <= 1.0


def test_problem_and_test_set_are_paired_across_cells():
    # same run, different cell -> same ceiling, because the problem and the
    # clean test sample depend only on (base_seed, run)
    rows = run_efficiency_grid(tiny_efficiency())
    by_run = {}
    for r in rows:
        by_run.setdefault(r.run, set()).add(r.bayes_ceiling)
    assert set(by_run) == {0, 1}
    for ceilings in by_run.values():
        assert len(ceilings) == 1


def test_each_run_draws_its_world_once(monkeypatch):
    calls = {"make_random_problem": 0, "bayes_accuracy": 0}
    for name in calls:
        original = getattr(synthdata, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(synthdata, name, counted)
    cfg = tiny_efficiency(runs=3)
    assert len(run_grid(cfg, jobs=1)) == 2 * 2 * 3
    assert calls == {"make_random_problem": 3, "bayes_accuracy": 3}
    cfg = tiny_efficiency(runs=1)  # a one-run grid run twice draws its world twice
    run_grid(cfg, jobs=1)
    run_grid(cfg, jobs=1)
    assert calls == {"make_random_problem": 5, "bayes_accuracy": 5}


def test_each_cell_is_scored_in_one_pass(monkeypatch):
    passes = []
    original = mlp.score

    def counted(params, x):
        passes.append(len(x))
        return original(params, x)

    monkeypatch.setattr(mlp, "score", counted)
    cfg = FlipRatioGridConfig(runs=1, epochs=1, train_size=200)
    rows = run_grid(cfg, jobs=1)
    # six of the eight cells are asymmetric and decide at two thresholds
    assert sum(row.threshold != 0.5 for row in rows) == 6
    assert passes == [cfg.test_size] * 8


def test_grid_results_do_not_depend_on_worker_count():
    cfg = tiny_flip_ratio()
    assert run_flip_ratio_grid(cfg, jobs=1) == run_flip_ratio_grid(cfg, jobs=2)
    cfg = tiny_efficiency()
    assert run_efficiency_grid(cfg, jobs=1) == run_efficiency_grid(cfg, jobs=3)
    cfg = tiny_flip_ratio(runs=3)  # each worker scores cells of several runs
    assert run_flip_ratio_grid(cfg, jobs=1) == run_flip_ratio_grid(cfg, jobs=2)
    cfg = tiny_efficiency(training_sizes=(50, 70, 130))  # three stacks, partial last batches
    assert run_efficiency_grid(cfg, jobs=1) == run_efficiency_grid(cfg, jobs=2)
    cfg = tiny_flip_ratio(train_size=400, batch_size=400)  # 1600 rows a step: split stacks
    assert run_flip_ratio_grid(cfg, jobs=1) == run_flip_ratio_grid(cfg, jobs=2)
    cfg = tiny_flip_ratio(runs=1)  # more workers than the one run has cells to share
    assert run_flip_ratio_grid(cfg, jobs=1) == run_flip_ratio_grid(cfg, jobs=4)
    cfg = tiny_flip_ratio(train_size=400, batch_size=400)  # two stacks at --jobs 1, three at 3
    assert len(stack_plan(cfg, jobs=3)) == 3
    assert run_flip_ratio_grid(cfg, jobs=1) == run_flip_ratio_grid(cfg, jobs=3)
    cfg = tiny_efficiency(training_sizes=(20, 300, 90), runs=3)  # the longest stack goes out first
    assert sizes_of(cfg, stack_plan(cfg, jobs=2)) == [{300}, {90}, {20}]
    assert run_efficiency_grid(cfg, jobs=1) == run_efficiency_grid(cfg, jobs=2)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fig2=st.booleans(), runs=st.integers(1, 3),
       sizes=st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True),
       batch_size=st.integers(1, 64), test_size=st.integers(50, 500))
def test_grid_rows_and_csv_bytes_do_not_depend_on_jobs(tmp_path, fig2, runs, sizes, batch_size, test_size):
    shared = dict(runs=runs, batch_size=batch_size, epochs=1, test_size=test_size)
    if fig2:
        cfg = EfficiencyGridConfig(training_sizes=tuple(sizes), **shared)
    else:  # one train size
        cfg = FlipRatioGridConfig(train_size=sizes[0], **shared)

    def written(rows):
        write_results_csv(rows, tmp_path / "results.csv")
        write_summary_csv(summarize(rows), tmp_path / "summary.csv")
        return (tmp_path / "results.csv").read_bytes(), (tmp_path / "summary.csv").read_bytes()

    rows = run_grid(cfg, jobs=1)
    expected = written(rows)
    for jobs in (2, 3):
        other = run_grid(cfg, jobs=jobs)
        assert other == rows
        assert written(other) == expected


# ------------------------------------------------------------------ stack plan

def stack_plan(cfg, jobs):
    return _plan_stacks(cfg, grid_tasks(cfg), jobs)


def grid_tasks(cfg):
    return [(run, cell) for run in range(cfg.runs) for cell in cfg.cells(run)]


def sizes_of(cfg, plan):
    tasks = grid_tasks(cfg)
    return [{tasks[i][1][3] for i in stack} for stack in plan]


def test_small_fig2_at_two_jobs_plans_one_whole_stack_per_size_longest_first():
    cfg = EfficiencyGridConfig(training_sizes=(100, 200, 400), runs=3)
    plan = stack_plan(cfg, jobs=2)
    assert [len(stack) for stack in plan] == [12, 12, 12]
    assert sizes_of(cfg, plan) == [{400}, {200}, {100}]


def test_default_fig3_at_two_jobs_plans_six_stacks():
    # 160 cells x 32 rows need five stacks of 1024 rows; six share evenly between two workers
    plan = stack_plan(FlipRatioGridConfig(), jobs=2)
    assert [len(stack) for stack in plan] == [26, 27, 27, 26, 27, 27]
    assert sorted(i for stack in plan for i in stack) == list(range(160))


def test_one_job_plans_block_sized_stacks_in_task_order():
    plan = stack_plan(FlipRatioGridConfig(), jobs=1)
    assert plan == [list(range(k, k + 32)) for k in range(0, 160, 32)]
    cfg = EfficiencyGridConfig()  # 40 cells per size, 40 x 32 rows: two stacks per size
    tasks = grid_tasks(cfg)
    want = []
    for size in (20000, 2000, 200):
        members = [i for i, (_, cell) in enumerate(tasks) if cell[3] == size]
        want += [members[:20], members[20:]]
    assert stack_plan(cfg, jobs=1) == want


@settings(max_examples=1000, deadline=None)
@given(fig2=st.booleans(), runs=st.integers(1, 20), levels=st.integers(1, 4),
       sizes=st.lists(st.integers(1, 2500), min_size=1, max_size=4), batch_size=st.integers(1, 1200),
       jobs=st.integers(1, 6))
# 51 cells of 100 rows a step were once cut into stacks of up to 11 cells, 1100 rows
@example(fig2=False, runs=17, levels=3, sizes=[200], batch_size=100, jobs=1)
def test_stack_plans_keep_their_promises(fig2, runs, levels, sizes, batch_size, jobs):
    noise = (0.0, 0.1, 0.2, 0.4)[:levels]
    if fig2:
        cfg = EfficiencyGridConfig(noise_levels=noise, training_sizes=tuple(sizes), runs=runs,
                                   batch_size=batch_size)
    else:  # one flip ratio per drawn size
        cfg = FlipRatioGridConfig(noise_levels=noise, flip_ratios=(1.0, 2.0, 4.0, 8.0)[:len(sizes)],
                                  train_size=sizes[0], runs=runs, batch_size=batch_size)
    tasks = grid_tasks(cfg)
    plan = _plan_stacks(cfg, tasks, jobs)
    assert sorted(i for stack in plan for i in stack) == list(range(len(tasks)))
    stack_sizes = sizes_of(cfg, plan)
    assert all(len(one) == 1 for one in stack_sizes)
    cap = mlp.block_rows(mlp.Architecture())
    for stack, (size,) in zip(plan, stack_sizes):
        assert len(stack) == 1 or len(stack) * min(size, batch_size) <= cap
    cells = Counter(cell[3] for _, cell in tasks)
    for size, count in Counter(size for (size,) in stack_sizes).items():
        assert count in (1, cells[size]) or count % jobs == 0
    steps = [-(-size // batch_size) for (size,) in stack_sizes]
    assert steps == sorted(steps, reverse=True)


def test_stacks_never_outnumber_their_cells():
    # one cell already fills more than a block: one network per stack, none empty
    cfg = FlipRatioGridConfig(runs=1, train_size=2000, batch_size=2000, epochs=1, test_size=100)
    assert stack_plan(cfg, jobs=1) == [[i] for i in range(8)]
    assert stack_plan(cfg, jobs=3) == [[i] for i in range(8)]
    assert len(run_grid(cfg, jobs=1)) == 8


def test_rerunning_a_grid_writes_identical_csv_bytes(tmp_path):
    cfg = tiny_efficiency()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_results_csv(run_efficiency_grid(cfg, jobs=1), first)
    write_results_csv(run_efficiency_grid(cfg, jobs=2), second)
    assert first.read_bytes() == second.read_bytes()


def test_both_presets_have_the_one_runner():
    assert run_efficiency_grid is run_flip_ratio_grid is run_grid


def test_grid_rejects_bad_job_counts():
    with pytest.raises(ValueError):
        run_efficiency_grid(tiny_efficiency(), jobs=0)


# ------------------------------------------------------------------ summarize

def test_summary_of_a_single_row_echoes_it_with_zero_error():
    summary = summarize([row(0.875, acc_naive=0.825)])
    assert len(summary) == 1
    cell = summary[0]
    assert cell.mean_corrected == 0.875
    assert cell.mean_naive == 0.825
    assert cell.mean_ceiling == 0.9
    assert cell.se_corrected == 0.0
    assert cell.se_naive == 0.0


def test_summary_of_duplicated_rows_has_zero_error():
    rows = [row(0.875, run=0), row(0.875, run=1), row(0.875, run=2)]
    summary = summarize(rows)
    assert len(summary) == 1
    assert summary[0].mean_corrected == 0.875
    assert summary[0].se_corrected == 0.0


def test_summary_matches_hand_computed_mean_and_error():
    values = (0.84, 0.90, 0.87)
    summary = summarize([row(v, run=i) for i, v in enumerate(values)])[0]
    mean = sum(values) / 3
    spread = math.sqrt(sum((v - mean) ** 2 for v in values) / 2)
    assert summary.mean_corrected == pytest.approx(mean, abs=1e-12)
    assert summary.se_corrected == pytest.approx(spread / math.sqrt(3), abs=1e-12)


def test_summary_groups_by_cell_and_sorts():
    rows = [row(0.8, train_size=120, run=0), row(0.7, train_size=60, run=0),
            row(0.9, train_size=60, run=1)]
    summary = summarize(rows)
    assert [(s.train_size, s.mean_corrected) for s in summary] == [(60, 0.8), (120, 0.8)]


def test_summary_rejects_empty_input():
    with pytest.raises(ValueError):
        summarize([])


# ------------------------------------------------------------------ CSV shape

def test_results_csv_header_and_value_round_trip(tmp_path):
    r = row(0.8125, acc_naive=0.75, ceiling=0.875)
    path = tmp_path / "results.csv"
    write_results_csv([r], path)
    header, line = path.read_text().splitlines()
    assert header == ",".join(RESULTS_FIELDS)
    parts = dict(zip(RESULTS_FIELDS, line.split(",")))
    assert parts["experiment"] == "efficiency"
    assert parts["train_size"] == "60"
    assert parts["run"] == "0"
    assert float(parts["acc_corrected"]) == r.acc_corrected
    assert float(parts["threshold"]) == r.threshold
    assert int(parts["seed"]) == r.seed


def test_summary_csv_header_and_value_round_trip(tmp_path):
    summary = summarize([row(0.84, run=0), row(0.9, run=1)])
    path = tmp_path / "summary.csv"
    write_summary_csv(summary, path)
    header, line = path.read_text().splitlines()
    assert header == ",".join(SUMMARY_FIELDS)
    parts = dict(zip(SUMMARY_FIELDS, line.split(",")))
    assert float(parts["mean_corrected"]) == summary[0].mean_corrected
    assert float(parts["se_corrected"]) == summary[0].se_corrected


# ------------------------------------------------------------- config checks

@pytest.mark.parametrize("kwargs", [
    dict(noise_levels=()),
    dict(noise_levels=(1.0,)),
    dict(noise_levels=(-0.1,)),
    dict(training_sizes=()),
    dict(training_sizes=(0,)),
    dict(runs=0),
    dict(test_size=0),
    dict(separation_scale=0.0),
    dict(epochs=0),
    dict(batch_size=0),
    dict(learning_rate=0.0),
    dict(momentum=1.0),
])
def test_efficiency_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        tiny_efficiency(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(noise_levels=()),
    dict(noise_levels=(1.0,)),
    dict(flip_ratios=()),
    dict(flip_ratios=(0.0,)),
    dict(flip_ratios=(-2.0,)),
    dict(train_size=0),
    dict(runs=0),
    dict(test_size=0),
])
def test_flip_ratio_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        tiny_flip_ratio(**kwargs)


def test_configs_normalize_sequences_to_tuples():
    cfg = tiny_efficiency(noise_levels=[0.0, 0.2], training_sizes=[50])
    assert cfg.noise_levels == (0.0, 0.2)
    assert cfg.training_sizes == (50,)


@pytest.mark.parametrize("build, field", [
    (lambda: tiny_efficiency(runs=2.5), "runs"),
    (lambda: tiny_efficiency(runs=True), "runs"),
    (lambda: tiny_efficiency(training_sizes=(100.7,)), "training_sizes"),
    (lambda: tiny_flip_ratio(flip_ratios="12"), "flip_ratios"),
    (lambda: tiny_efficiency(learning_rate=math.inf), "learning_rate"),
    (lambda: tiny_flip_ratio(noise_levels=()), "noise_levels"),
], ids=["fractional-runs", "bool-runs", "fractional-size", "string-ratios", "infinite-rate",
        "no-noise-levels"])
def test_python_built_configs_get_the_config_file_checks(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_configs_cast_integral_floats_to_int():
    cfg = EfficiencyGridConfig(base_seed=20250.0)
    assert cfg == EfficiencyGridConfig(base_seed=20250)
    assert type(cfg.base_seed) is int
