"""In-memory span tracer for the labelnoise benchmark.

The tracer wraps every public function of the package's layers from the
outside: each module attribute that refers to one of those functions is
replaced by a wrapper, wherever it lives (``labelnoise.mlp.train``,
``labelnoise.experiments.threshold_from_priors`` imported into a caller,
``labelnoise.synthdata.make_rng``, ...).  Because modules look their
globals up at call time, calls inside a module go through the wrappers
too.  Nothing under ``src/`` is edited, and ``uninstall`` puts every
original back.

A span is ``(name, start, end, parent, root)``: the qualified function
name, ``time.perf_counter`` at entry and exit, the index of the enclosing
span (-1 at top level) and the CLI command that was running.  Counts of
work (rows, SGD steps, bytes) are taken at the same boundaries.  Only the
parent process is traced: work done in pool workers is invisible, so a
traced grid runs with ``--jobs 1``.
"""

import functools
import importlib
import inspect
import os
from collections import Counter
from time import perf_counter

LAYERS = ("calculus", "seeding", "synthdata", "mlp", "experiments", "svgchart", "cli")

# functions that report under one shared name
GROUPS = {
    "experiments.run_efficiency_grid": "experiments.run_grid",
    "experiments.run_flip_ratio_grid": "experiments.run_grid",
    "experiments.write_results_csv": "experiments.write_csv",
    "experiments.write_summary_csv": "experiments.write_csv",
}
GRID_FUNCTIONS = frozenset(name for name, group in GROUPS.items() if group == "experiments.run_grid")
CLI_COMMANDS = ("fig2", "fig3", "gen", "train", "eval")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# span name -> function(bound arguments, result) -> {count name: increment}
COUNTERS = {
    "mlp.train": lambda a, r: {
        "steps": len(r.epoch_losses) * _ceil_div(len(a["x"]), a["cfg"].batch_size)},
    "mlp.classify": lambda a, r: {"rows": getattr(r, "size", 1)},
    "synthdata.sample_dataset": lambda a, r: {"rows": len(r)},
    "synthdata.flip_labels": lambda a, r: {"rows": len(r)},
    "synthdata.bayes_accuracy": lambda a, r: {"rows": len(a["data"])},
    "synthdata.save_dataset_csv": lambda a, r: {
        "rows": len(a["data"]), "bytes": os.path.getsize(a["path"])},
    "synthdata.load_dataset_csv": lambda a, r: {"rows": len(r)},
}


class Tracer:
    """Spans and counts of one traced process; install, run, uninstall, analyse."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.root = ""  # the CLI command being run; set by the caller
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self, package, only=None) -> None:
        """Wrap the public functions of every layer (or just the names in ``only``)."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}")
                               for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and (only is None or name in only)):
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.root)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def grid_seconds(self) -> float:
        """Total duration of the grid-runner spans."""
        return sum(end - start for name, start, end, _, _ in self.spans if name in GRID_FUNCTIONS)

    def totals(self, calls: int) -> dict:
        """Calls, busy time and self time per function group, per layer and per CLI command.

        Busy time of a key sums the spans of that key that have no ancestor
        of the same key, so recursion and nesting are not counted twice.
        Self time of a span is its duration minus that of its direct
        children.  Every total is divided by ``calls``, the number of
        workload calls traced.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        ncalls, busy, own = Counter(), Counter(), Counter()
        for index, (name, start, end, parent, root) in enumerate(spans):
            layer = name.split(".", 1)[0]
            group = GROUPS.get(name, name)
            duration = end - start
            self_time = duration - child_time[index]
            for key in (group, layer):
                ncalls[key] += 1
                own[key] += self_time
            if layer == "cli" and root:
                own[f"cli.{root}"] += self_time
            outer_group = outer_layer = True
            at = parent
            while at >= 0 and (outer_group or outer_layer):
                above = spans[at][0]
                outer_group = outer_group and GROUPS.get(above, above) != group
                outer_layer = outer_layer and above.split(".", 1)[0] != layer
                at = spans[at][3]
            if outer_group:
                busy[group] += duration
            if outer_layer:
                busy[layer] += duration
        per_call = {}
        for key, counter in (("calls", ncalls), ("busy", busy), ("self", own),
                             ("counts", self.counts)):
            per_call[key] = Counter({k: v / max(calls, 1) for k, v in counter.items()})
        per_call["spans"] = len(spans) / max(calls, 1)
        return per_call


# (metric name, unit, function(totals) -> value); totals are per workload call
def _get(kind: str, key: str):
    return lambda t: t[kind][key]


def _step_us(t):
    steps = t["counts"]["mlp.train.steps"]
    return t["busy"]["mlp.train"] / steps * 1e6 if steps else 0.0


LAYER_METRICS = [
    ("mlp.train.calls", "count", _get("calls", "mlp.train")),
    ("mlp.train.steps", "count", _get("counts", "mlp.train.steps")),
    ("mlp.train.busy_s", "s", _get("busy", "mlp.train")),
    ("mlp.train.step_us", "us", _step_us),
    ("mlp.classify.rows", "count", _get("counts", "mlp.classify.rows")),
    ("mlp.classify.busy_s", "s", _get("busy", "mlp.classify")),
    ("synthdata.bayes_accuracy.rows", "count", _get("counts", "synthdata.bayes_accuracy.rows")),
    ("synthdata.bayes_accuracy.busy_s", "s", _get("busy", "synthdata.bayes_accuracy")),
    ("synthdata.sample_dataset.rows", "count", _get("counts", "synthdata.sample_dataset.rows")),
    ("synthdata.sample_dataset.busy_s", "s", _get("busy", "synthdata.sample_dataset")),
    ("synthdata.make_random_problem.calls", "count",
     _get("calls", "synthdata.make_random_problem")),
    ("synthdata.make_random_problem.busy_s", "s", _get("busy", "synthdata.make_random_problem")),
    ("synthdata.flip_labels.rows", "count", _get("counts", "synthdata.flip_labels.rows")),
    ("synthdata.flip_labels.busy_s", "s", _get("busy", "synthdata.flip_labels")),
    ("seeding.calls", "count", _get("calls", "seeding")),
    ("seeding.busy_s", "s", _get("busy", "seeding")),
    ("calculus.calls", "count", _get("calls", "calculus")),
    ("calculus.busy_s", "s", _get("busy", "calculus")),
    ("synthdata.save_dataset_csv.rows", "count", _get("counts", "synthdata.save_dataset_csv.rows")),
    ("synthdata.save_dataset_csv.bytes", "count",
     _get("counts", "synthdata.save_dataset_csv.bytes")),
    ("synthdata.save_dataset_csv.busy_s", "s", _get("busy", "synthdata.save_dataset_csv")),
    ("synthdata.load_dataset_csv.rows", "count", _get("counts", "synthdata.load_dataset_csv.rows")),
    ("synthdata.load_dataset_csv.busy_s", "s", _get("busy", "synthdata.load_dataset_csv")),
    ("mlp.save_model.busy_s", "s", _get("busy", "mlp.save_model")),
    ("mlp.load_model.busy_s", "s", _get("busy", "mlp.load_model")),
    ("experiments.run_grid.self_s", "s", _get("self", "experiments.run_grid")),
    ("experiments.summarize.busy_s", "s", _get("busy", "experiments.summarize")),
    ("experiments.write_csv.busy_s", "s", _get("busy", "experiments.write_csv")),
    ("svgchart.write_line_chart.busy_s", "s", _get("busy", "svgchart.write_line_chart")),
    *((f"cli.{command}.self_s", "s", _get("self", f"cli.{command}")) for command in CLI_COMMANDS),
    *((f"{layer}.self_s", "s", _get("self", layer)) for layer in LAYERS),
    ("trace.spans", "count", lambda t: t["spans"]),
]
