"""One workload process of the labelnoise benchmark.

``run.py`` starts this file once per measured process; it is not meant
to be run by hand.  The process imports ``labelnoise`` from the
checkout's ``src/``, writes the workload's config files, resolves the
config, and then drives the package only through
``labelnoise.cli.main([...])`` in-process, the way the ``labelnoise``
command runs.  It prints one JSON line with what it measured.

Modes:

* ``setup``  — stop just before the first timed call; report set-up time.
* ``timed``  — repeat the workload call for ``--seconds``, tracing off.
* ``traced`` — rounds of untraced calls and calls with every layer
  wrapped by ``tracer.Tracer``; report per-layer totals per call.

Every process also times a fixed reference kernel after set-up, and the
timed process again after each call, so ``run.py`` can scale the times of
a run to a nominal machine speed.

Every call's outputs are digested and checked: all calls of a process
must agree, the ``fig2`` grid at ``--jobs 2`` must equal its ``--jobs 1``
reference, and at a seed with recorded values (``expected.json``) the
digests must match them.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (the benchmark's own module, next to this file)

EXPECTED_PATH = os.path.join(HERE, "expected.json")
# Speed-adjusted times are scaled to this reference-kernel time.  It is
# about the kernel's time on a quiet host of the VM described in NOTES.md,
# so adjusted times read close to the wall times of a quiet host.
REFERENCE_NOMINAL_S = 0.1


def reference_seconds() -> float:
    """Time a fixed kernel that runs no labelnoise code: the machine's speed now.

    Other tenants of the host stretch this VM's run times by up to 2x for
    seconds to minutes at a time.  The kernel does the two kinds of work
    the workloads do, small-matrix numpy steps in a Python loop (like SGD)
    and float text formatting and parsing (like the CSV layers), so the
    same slow-down stretches it and a workload call alike.  Scaling a
    run's times by nominal / median kernel time removes the host's state
    and keeps the program's.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 2))
    y = (x[:, :1] > 0).astype(float)
    w1, w2, w3 = (rng.standard_normal(shape) * 0.3 for shape in ((2, 15), (15, 15), (15, 1)))
    for _ in range(2000):
        h1 = np.tanh(x @ w1)
        h2 = np.tanh(h1 @ w2)
        d3 = (1.0 / (1.0 + np.exp(-(h2 @ w3))) - y) / 32
        d2 = (d3 @ w3.T) * (1.0 - h2 * h2)
        d1 = (d2 @ w2.T) * (1.0 - h1 * h1)
        w3 -= 0.01 * (h2.T @ d3)
        w2 -= 0.01 * (h1.T @ d2)
        w1 -= 0.01 * (x.T @ d1)
    for _ in range(40):  # in small pieces, so that the kernel adds nothing to peak RSS
        text = "\n".join(f"{v:.17g}" for v in rng.standard_normal(1000))
        sum(float(v) for v in text.split("\n"))
    return time.perf_counter() - start


class Workload:
    """Config files and CLI argument lists of one workload at one seed."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.workdir = workdir
        self.config_path = None
        if name == "fig3-train":
            # every cell has train_size 4000, so every network takes the same SGD steps
            self.command, self.jobs, self.cells = "fig3", 1, 2 * 4 * 1
            self.config = {"runs": 1, "base_seed": 20251 + seed}
        elif name == "fig2-small-jobs2":
            # small training sets: test-set draw, classify, ceiling and the pool dominate
            self.command, self.jobs, self.cells = "fig2", 2, 4 * 3 * 3
            self.config = {"training_sizes": [100, 200, 400], "runs": 3,
                           "base_seed": 20250 + seed}
        elif name == "pipeline-csv":
            # a dataset big enough that CSV and model I/O dominate; short training
            self.command, self.jobs, self.cells = "pipeline", 1, 1
            data = os.path.join(workdir, "data.csv")
            self.model = os.path.join(workdir, "model.txt")
            noise = ["--gamma1", "0.2", "--gamma0", "0.1"]
            self.pipeline = [
                ["gen", "--out", data, "--n", "200000", "--seed", str(seed), *noise],
                ["train", "--data", data, "--out", self.model, "--epochs", "2",
                 "--seed", str(seed)],
                ["eval", "--model", self.model, "--data", data, *noise],
            ]
            self.config = None
        else:
            raise ValueError(f"unknown workload {name!r}")

    def write_configs(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        if self.config is not None:
            self.config_path = os.path.join(self.workdir, f"{self.command}.json")
            with open(self.config_path, "w") as fh:
                json.dump(self.config, fh, sort_keys=True)

    def argv_lists(self, jobs: int) -> list[list[str]]:
        if self.config is None:
            return self.pipeline
        return [[self.command, "--config", self.config_path,
                 "--outdir", os.path.join(self.workdir, "out"), "--jobs", str(jobs)]]

    def config_sha256(self, cli) -> str:
        """Hash of the resolved config: the CLI's own view of it plus the arguments."""
        resolved = ""
        if self.config is not None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([self.command, "--config", self.config_path, "--print-config"])
            if code != 0:
                raise RuntimeError(f"--print-config exited {code}")
            resolved = out.getvalue()
        argv = json.dumps(self.argv_lists(self.jobs)).replace(self.workdir, "<work>")
        return hashlib.sha256((resolved + argv).encode()).hexdigest()

    def digests(self, stdout: str) -> dict:
        if self.config is None:
            accuracy = [line.split()[1] for line in stdout.splitlines()
                        if line.startswith("accuracy ")]
            return {"model_sha256": _sha256(self.model),
                    "eval_accuracy": accuracy[-1] if accuracy else None}
        results = os.path.join(self.workdir, "out", f"{self.command}_results.csv")
        return {"results_sha256": _sha256(results)}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs workload calls and records walls, digests and failures."""

    def __init__(self, labelnoise, workload: Workload, expected: dict | None):
        self.labelnoise = labelnoise
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict | None = None
        self.peak_rss_mb = _peak_rss_mb()
        self.tracer = None  # set while a traced pass runs

    def call(self, jobs: int, reference: dict | None = None) -> float | None:
        """One workload call; returns its wall time, or None if it failed."""
        self.attempted += 1
        out = io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                for argv in self.workload.argv_lists(jobs):
                    if self.tracer is not None:
                        self.tracer.root = argv[0]
                    code = self.labelnoise.cli.main(argv)
                    if code != 0:
                        raise RuntimeError(f"labelnoise {argv[0]} exited {code}")
            wall = time.perf_counter() - start
            if self.attempted == 1:
                # what one `labelnoise` invocation peaks at; later calls in the
                # same process would add heap fragmentation a user never sees
                self.peak_rss_mb = _peak_rss_mb()
            digests = self.workload.digests(out.getvalue())
        except Exception as exc:  # a failed call is counted, and the run goes on
            self.failures.append(f"call {self.attempted}: {type(exc).__name__}: {exc}")
            return None
        want = reference or self.digests or self.expected
        if want is not None and digests != want:
            self.failures.append(f"call {self.attempted} (--jobs {jobs}): digests {digests} "
                                 f"!= {want}")
            return None
        if self.digests is None:
            self.digests = digests
        return wall

    def loop(self, seconds: float, jobs: int, references: list[float]) -> list[float]:
        """Repeat calls until the next one would end past ``seconds``; at least one.

        After every call the reference kernel runs twice, and its times are
        appended to ``references``, so that they sample the machine's speed
        across the whole run.  Returns the wall times of the calls.
        """
        walls = []
        start = time.perf_counter()
        calls = 0
        while True:
            wall = self.call(jobs)
            references.extend(reference_seconds() for _ in range(2))
            calls += 1
            if wall is not None:
                walls.append(wall)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / calls > seconds:
                return walls

    def check_jobs_identity(self) -> None:
        """The --jobs value must not change a single byte of the results."""
        if self.workload.jobs > 1 and self.digests is not None:
            self.call(1, reference=self.digests)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def traced_metrics(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Rounds of untraced and traced calls for ``seconds``.

    Returns the per-layer metrics (values per call) and the wall times of
    every call by kind.

    A round makes one untraced call at the workload's --jobs (grid
    workloads with jobs > 1 only), one untraced call at --jobs 1 and one
    traced call at --jobs 1.  Interleaving them keeps a drift in machine
    speed from showing up as tracing overhead.  Untraced calls time only
    the grid runner, for the parallel efficiency.
    """
    labelnoise, workload = runner.labelnoise, runner.workload
    kinds = [("pool", workload.jobs)] if workload.jobs > 1 else []
    kinds += [("untraced", 1), ("traced", 1)]
    walls = {kind: [] for kind, _ in kinds}
    grid = {kind: [] for kind, _ in kinds}
    traced = tracer.Tracer()
    traced_calls = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for kind, jobs in kinds:
            spans = traced if kind == "traced" else tracer.Tracer()
            spans.install(labelnoise, only=None if kind == "traced" else tracer.GRID_FUNCTIONS)
            runner.tracer = spans
            try:
                wall = runner.call(jobs)
            finally:
                runner.tracer = None
                spans.uninstall()
            if kind == "traced":
                traced_calls += 1
            elif wall is not None:
                grid[kind].append(spans.grid_seconds())
            if wall is not None:
                walls[kind].append(wall)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    totals = traced.totals(traced_calls)
    metrics = {}
    for name, unit, value in tracer.LAYER_METRICS:
        v = value(totals)
        metrics[name] = (int(v) if unit == "count" and v == int(v) else v, unit)
    untraced_grid = _median(grid[kinds[0][0]])
    efficiency = (totals["busy"]["experiments.run_grid"] / (workload.jobs * untraced_grid)
                  if untraced_grid > 0 else 0.0)
    metrics["experiments.parallel_efficiency"] = (efficiency, "ratio")
    metrics["trace.wall_s"] = (_median(walls["traced"]), "s")
    metrics["trace.overhead_s"] = (_median(walls["traced"]) - _median(walls["untraced"]), "s")
    return metrics, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/labelnoise")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.perf_counter() of the parent just before it started us")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import labelnoise
    import labelnoise.cli
    if not os.path.abspath(labelnoise.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported labelnoise from {labelnoise.__file__}, not from {src}")

    workload = Workload(args.workload, args.seed, args.workdir)
    workload.write_configs()
    config_sha256 = workload.config_sha256(labelnoise.cli)
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh).get(args.workload, {}).get(str(args.seed))
    runner = Runner(labelnoise, workload, expected)
    setup_s = time.perf_counter() - args.spawned
    references = [reference_seconds()]

    report = {"setup_s": setup_s, "references": references,
              "reference_nominal_s": REFERENCE_NOMINAL_S}
    if args.mode == "timed":
        report["walls"] = runner.loop(args.seconds, workload.jobs, references)
        runner.check_jobs_identity()
        report["cells"] = workload.cells
    elif args.mode == "traced":
        report["metrics"], report["walls_by_kind"] = traced_metrics(runner, args.seconds)
    report.update({
        "peak_rss_mb": runner.peak_rss_mb,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "digests": runner.digests,
        "checked_against_recorded": expected is not None,
        "config_sha256": config_sha256,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "platform": platform.platform()},
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
