"""Grid studies of training on flipped labels.

Two grids, each a ``GridConfig`` preset that ``run_grid`` runs:

* efficiency — symmetric noise (gamma1 == gamma0 == n/2) versus training-set
  size: how many extra samples does a given noise level cost?
* flip-ratio — fixed total noise split asymmetrically (gamma0 == ratio *
  gamma1) at a fixed training size: how much does the corrected decision
  threshold buy over the naive 0.5?

Each run draws one random problem, one clean-labeled test set and its
optimal-rule ceiling from (base_seed, run).  Every cell of the run then
corrupts its training labels, trains a fresh network on the observed
labels, and scores it once on that test set, deciding at both the
corrected threshold and the naive 0.5, so all cells of a run are paired and
their differences are common-random-number comparisons; training data,
flips and initialization are per-cell.  A cell is a pure function of (config, run, coordinates).
The corrected threshold is ``calculus.corrected_threshold`` at the run's prior, which the
training data and the test set share, so it is (1 - gamma1 + gamma0) / 2 bit for bit.

``run_grid`` draws each run's problem once and hands the worker processes
lockstep stacks of cells that share a train_size (``mlp.train_stack``, which
gives each network the bits it would get alone), longest first.  It then
scores the cells in one contiguous run-major chunk per worker, which draws
the test set and ceiling once per run it holds; a run cut by a chunk boundary
is drawn by both chunks, which keeps the chunks even and the workers
balanced.  --jobs 1 runs both phases inline.  Rows are sorted before they
are returned, so the output is byte-identical for any --jobs value.
``write_csv`` writes them, or ``summarize``'s per-cell rows, as one table
headed by the field names of the rows' dataclass.
"""

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import groupby, repeat

import numpy as np

from . import mlp, synthdata
from .atomic import atomic_open
from .calculus import Count, NoiseParams, Positive, Rate, cast_fields, checked, corrected_threshold
from .seeding import derive_seed


def _noise_for_ratio(n: float, ratio: float) -> NoiseParams:
    """Split total noise n into gamma0 = ratio * gamma1."""
    return NoiseParams(n / (1.0 + ratio), n * ratio / (1.0 + ratio))


@dataclass(frozen=True)
class GridConfig:
    """The fields and checks both grids share; a grid subclass adds its axes and cells(run).

    Each field is cast to its declared type and range (``calculus.cast_fields``;
    a subclass that redeclares a field repeats its ruled kind), so a config
    built in Python gets the checks a config file gets: a bad value raises a
    ValueError naming the field.  cells(run) lists one run's (experiment,
    noise, ratio, train_size, cell_seed) tuples.  The checks end by building
    run 0's cells, whose NoiseParams reject invalid flip rates; other runs
    differ only in their seeds, so a subclass needs no checks of its own.
    """

    noise_levels: tuple[Rate, ...]
    runs: Count
    base_seed: int
    test_size: Count = 20000
    separation_scale: Positive = 2.5
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9

    def __post_init__(self):
        cast_fields(self)
        for field in fields(self):
            if getattr(self, field.name) == ():
                raise ValueError(f"bad value for {field.name!r}: expected a non-empty list of numbers")
        self.train_config()
        self.cells(0)  # builds every cell's NoiseParams, which rejects invalid flip rates

    def train_config(self) -> mlp.TrainConfig:  # every network of the grid trains with it
        return mlp.TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                               learning_rate=self.learning_rate, momentum=self.momentum)


@dataclass(frozen=True)
class EfficiencyGridConfig(GridConfig):
    noise_levels: tuple[Rate, ...] = (0.0, 0.2, 0.4, 0.8)
    training_sizes: tuple[Count, ...] = (200, 2000, 20000)
    runs: Count = 10
    base_seed: int = 20250

    def cells(self, run: int) -> list[tuple]:
        # symmetric split; the (undefined) 0/0 ratio at n=0 is reported as 1.0 too
        return [("efficiency", _noise_for_ratio(n, 1.0), 1.0, size,
                 derive_seed(self.base_seed, "efficiency", n, size, run))
                for n in self.noise_levels
                for size in self.training_sizes]


@dataclass(frozen=True)
class FlipRatioGridConfig(GridConfig):
    noise_levels: tuple[Rate, ...] = (0.1, 0.4)
    flip_ratios: tuple[Positive, ...] = (1.0, 2.0, 4.0, 8.0)
    runs: Count = 20
    train_size: Count = 4000
    base_seed: int = 20251

    def cells(self, run: int) -> list[tuple]:
        return [("flip-ratio", _noise_for_ratio(n, ratio), ratio, self.train_size,
                 derive_seed(self.base_seed, "flip-ratio", n, ratio, run))
                for n in self.noise_levels
                for ratio in self.flip_ratios]


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    n: float
    gamma1: float
    gamma0: float
    ratio: float
    train_size: int
    run: int
    threshold: float
    acc_corrected: float
    acc_naive: float
    bayes_ceiling: float
    seed: int


@dataclass(frozen=True)
class SummaryRow:
    experiment: str
    n: float
    ratio: float
    train_size: int
    mean_corrected: float
    se_corrected: float
    mean_naive: float
    se_naive: float
    mean_ceiling: float


def _split(items: list, parts: int) -> list[list]:
    """items cut into `parts` contiguous, near-equal slices, in order."""
    return [items[i * len(items) // parts:(i + 1) * len(items) // parts] for i in range(parts)]


def _plan_stacks(cfg: GridConfig, tasks: list[tuple], jobs: int) -> list[list[int]]:
    """Lockstep stacks of task indices, the most SGD steps per epoch first.

    Each train size's cells, in task order, are cut into near-equal stacks of one cell or at most
    ``mlp.block_rows`` rows per step (bigger stacks gain little); a count above one is rounded up to a
    multiple of jobs, but never past one cell per stack.
    """
    stacks = []
    for size in dict.fromkeys(cell[3] for _, cell in tasks):  # train sizes in task order
        members = [i for i, (_, cell) in enumerate(tasks) if cell[3] == size]
        per_stack = max(1, mlp.block_rows(mlp.Architecture()) // min(size, cfg.batch_size))
        parts = -(-len(members) // per_stack)
        stacks += _split(members, min(len(members), -(-parts // jobs) * jobs if parts > 1 else 1))
    return sorted(stacks, key=lambda stack: -(-tasks[stack[0]][1][3] // cfg.batch_size), reverse=True)


def _train_stack(cfg: GridConfig, problems: dict, stack: list[tuple]) -> list[mlp.MlpParams]:
    """Trained parameters of one stack of (run, cell) tasks that share a train size."""
    size = stack[0][1][3]
    # filled cell by cell, so that only one Dataset of the stack is alive at a time
    x, targets, seeds = np.empty((len(stack), size, 2)), np.empty((len(stack), size), bool), []
    for k, (run, (_, noise, _, _, cell_seed)) in enumerate(stack):
        clean = synthdata.sample_dataset(problems[run], size, derive_seed(cell_seed, "train"))
        noisy = synthdata.flip_labels(clean, noise, derive_seed(cell_seed, "flip"))
        x[k], targets[k] = noisy.x, noisy.z_observed
        seeds.append(derive_seed(cell_seed, "init"))
    return [result.params for result in mlp.train_stack(x, targets, mlp.Architecture(), cfg.train_config(), seeds)]


def _score_chunk(cfg: GridConfig, problems: dict, chunk: list[tuple]) -> list[ResultRow]:
    """Rows of a run-major slice of ((run, cell), params) pairs; draws each run's test set once."""
    rows = []
    for run, cells in groupby(chunk, key=lambda pair: pair[0][0]):
        priors = problems[run].clean_priors  # of the training data and the test set alike
        test = synthdata.sample_dataset(problems[run], cfg.test_size,
                                        derive_seed(cfg.base_seed, "test", run))
        ceiling = synthdata.bayes_accuracy(problems[run], test)
        for (_, (experiment, noise, ratio, train_size, cell_seed)), net in cells:
            threshold = corrected_threshold(noise, priors, priors)
            s = mlp.score(net, test.x)  # one pass, decided at both thresholds as classify would
            acc_corrected, acc_naive = (float(((s >= mlp.score_cut(cut)) == test.y_clean).mean())
                                        for cut in (threshold, 0.5))
            rows.append(ResultRow(experiment, noise.total, noise.gamma1, noise.gamma0, ratio,
                                  train_size, run, threshold, acc_corrected, acc_naive,
                                  ceiling, cell_seed))
    return rows


def run_grid(cfg: GridConfig, jobs: int = 1) -> list[ResultRow]:
    """Run every cell of cfg on jobs worker processes (inline at 1); rows come back sorted."""
    jobs = checked("jobs", Count, jobs)
    tasks = [(run, cell) for run in range(cfg.runs) for cell in cfg.cells(run)]
    problems = {run: synthdata.make_random_problem(derive_seed(cfg.base_seed, "problem", run),
                                                   cfg.separation_scale)
                for run in range(cfg.runs)}
    stacks = _plan_stacks(cfg, tasks, jobs)
    if jobs > 1:  # imported here: it pulls in multiprocessing, socket and subprocess
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(min(jobs, len(tasks))) if jobs > 1 else nullcontext() as pool:
        pool_map = map if pool is None else pool.map
        trained = pool_map(_train_stack, repeat(cfg), repeat(problems), [[tasks[i] for i in s] for s in stacks])
        nets = {i: net for stack, params in zip(stacks, trained) for i, net in zip(stack, params)}
        chunks = _split([(task, nets[i]) for i, task in enumerate(tasks)], min(jobs, len(tasks)))
        rows = [row for chunk in pool_map(_score_chunk, repeat(cfg), repeat(problems), chunks) for row in chunk]
    rows.sort(key=lambda r: (r.n, r.ratio, r.train_size, r.run))
    return rows


run_efficiency_grid = run_flip_ratio_grid = run_grid  # the presets' names for the one runner


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    """Per-cell means and standard errors of the mean across runs.

    Cells are keyed by (experiment, n, ratio, train_size); a cell with a
    single run reports a standard error of 0.
    """
    if not rows:
        raise ValueError("summarize needs at least one result row")
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.experiment, row.n, row.ratio, row.train_size), []).append(row)
    return [SummaryRow(*key, *_mean_sem([r.acc_corrected for r in cell]), *_mean_sem([r.acc_naive for r in cell]),
                       _mean_sem([r.bayes_ceiling for r in cell])[0])
            for key, cell in sorted(groups.items())]


def _mean_sem(values: list[float]) -> tuple[float, float]:
    """Mean and standard error of the mean; one value has a standard error of 0."""
    values = np.array(values)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0


def write_csv(rows: list, path) -> None:
    """One table: the field names of the rows' dataclass, then one line per row, through ``atomic_open``."""
    if not rows:
        raise ValueError("write_csv needs at least one row")
    names = [field.name for field in fields(rows[0])]
    with atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows([names, *([getattr(row, n) for n in names] for row in rows)])
