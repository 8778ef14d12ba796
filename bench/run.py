"""Benchmark of the labelnoise package: grids and the CSV pipeline, end to end.

Run from the root of a checkout (stdlib only; the package is imported from
``src/``, nothing needs installing):

    python3 bench/run.py --workload fig3-train --seed 0 --seconds 30 --trace 0

Workloads (see ``bench/NOTES.md`` for why each was chosen):

* ``fig3-train``        — ``labelnoise fig3 --jobs 1``, one run per cell
                          (8 cells of train_size 4000): training-bound.
* ``fig2-small-jobs2``  — ``labelnoise fig2 --jobs 2`` with training sizes
                          100/200/400 (36 cells): evaluation- and pool-bound.
* ``pipeline-csv``      — ``gen`` 200k rows, ``train`` 2 epochs, ``eval``:
                          CSV- and model-I/O-bound.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:
set-up time (median over several fresh processes), median wall time of
one workload call, grid cells (or pipelines) per second, and peak RSS.
The three times are scaled to a nominal machine speed measured by a
reference kernel during the run (see ``bench/NOTES.md``); the raw
figures are printed too.
``--trace 1`` prints the per-layer metrics of a traced run instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its unit, the error rate, the output digests
and the environment.  ``--out FILE`` also writes the whole record as JSON.

The workload seed maps to the grid ``base_seed`` (package default plus
seed) and to the ``gen``/``train`` seeds, so ``--seed 0`` runs the
package's default seeds, whose output digests are recorded in
``bench/expected.json``.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_PY = os.path.join(HERE, "workloads.py")
WORKLOADS = ("fig2-small-jobs2", "fig3-train", "pipeline-csv")
SETUP_PROBES = 5  # extra fresh processes that only set up, for the median set-up time
DEADLINE_S = 170.0  # the whole run must end within this


def _git_commit(root: str) -> str:
    """HEAD of the checkout's own .git, read without running git; 'unknown' if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(root: str, args, mode: str, workdir: str, started: float) -> dict:
    """Run one workload process to its end and return its JSON report."""
    timeout = DEADLINE_S - (time.perf_counter() - started)
    command = [sys.executable, WORKLOADS_PY, "--root", root, "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", workdir, "--mode", mode,
               "--seconds", str(args.seconds)]
    spawned = time.perf_counter()
    # its own process group, so a timeout also ends the pool workers it started
    proc = subprocess.Popen(command + ["--spawned", repr(spawned)], cwd=root,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(probes: list[dict], report: dict) -> dict:
    """Medians of set-up and call times, scaled from this run's machine speed to nominal."""
    references = [r for probe in probes for r in probe["references"]]
    scale = report["reference_nominal_s"] / statistics.median(references)
    walls = report["walls"]
    wall = statistics.median(walls) * scale if walls else float("nan")
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes) * scale, "s"),
        "wall_s": (wall, "s"),
        "cells_per_s": (report["cells"] / wall, "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def measure(root: str, args) -> tuple[dict, dict]:
    """Run the workload processes; return (metrics, record)."""
    started = time.perf_counter()
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            report = _spawn(root, args, "traced", os.path.join(workdir, "traced"), started)
            metrics = report["metrics"]
            probes = [report]
        else:
            probes = [_spawn(root, args, "setup", os.path.join(workdir, f"setup{i}"), started)
                      for i in range(SETUP_PROBES)]
            report = _spawn(root, args, "timed", os.path.join(workdir, "timed"), started)
            probes.append(report)
            metrics = _end_to_end(probes, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it, or it is already gone
    if not all(math.isfinite(value) for value, _ in metrics.values()):
        raise RuntimeError(f"a metric has no successful call behind it: {report['failures']}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _git_commit(root), "env": report["env"],
        "config_sha256": report["config_sha256"], "digests": report["digests"],
        "checked_against_recorded": report["checked_against_recorded"],
        "setup_samples_s": [p["setup_s"] for p in probes],
        "wall_samples_s": report.get("walls"),
        "reference_samples_s": [r for p in probes for r in p["references"]],
        "reference_nominal_s": report["reference_nominal_s"],
        "traced_wall_samples_s": report.get("walls_by_kind"),
        "attempted": report["attempted"], "failures": report["failures"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the workload calls are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", default=None, help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "labelnoise", "__init__.py")):
        print("error: run from the root of a labelnoise checkout (no src/labelnoise here)",
              file=sys.stderr)
        return 2
    try:
        metrics, record = measure(root, args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = record["attempted"]
    failed = len(record["failures"])
    env = record["env"]
    print(f"env python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"platform={env['platform']} commit={record['commit']}")
    print(f"config {args.workload} seed={args.seed} sha256={record['config_sha256']}")
    for key, value in record["digests"].items():
        print(f"digest {key} {value}")
    print("digests checked against bench/expected.json: "
          + ("yes" if record["checked_against_recorded"] else "no (no values recorded for this seed)"))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    walls = record["wall_samples_s"]
    if walls is not None:
        references = record["reference_samples_s"]
        print(f"calls {len(walls)} timed; raw wall median {statistics.median(walls)!r} s, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s")
        print(f"set-up samples {len(record['setup_samples_s'])}; raw set-up median "
              f"{statistics.median(record['setup_samples_s'])!r} s")
        print(f"reference kernel {len(references)} samples, median "
              f"{statistics.median(references)!r} s, nominal {record['reference_nominal_s']} s; "
              "setup_s, wall_s and cells_per_s are adjusted to the nominal speed")
    print(f"metric error_rate {failed / attempted!r} ratio ({failed} of {attempted} calls failed)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
