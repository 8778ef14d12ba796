"""Command-line front end.

Subcommands:

* threshold — noise/prior-corrected decision thresholds (pure calculus)
* gen       — sample a labeled dataset, flip labels, write CSV
* train     — fit the MLP on the observed labels of a dataset CSV
* eval      — score a saved model on a dataset CSV at a chosen threshold
* fig2      — training-efficiency grid (accuracy vs training size per noise level)
* fig3      — flip-ratio grid (corrected vs naive threshold)
* bernoulli — flipped-coin demo: closed-form rate recovery vs grid-search MLE

Batch-only by design: every run reads flags/config, writes its outputs plus a
JSON manifest (none next to an output written in place, ``atomic.in_place``),
and exits.  Each ``cmd_*`` returns its result lines, and ``main`` prints them
once the command has returned, so every output, sidecar and manifest is
written before any line: to stderr when ``--out`` is the file stdout writes
to, else to stdout.  Usage errors, config-file errors among them, exit 2;
runtime failures (missing/malformed files, diverged training) exit 1 and
print no result lines; a stdout its reader closed early exits 1 silently.
"""

import argparse
import dataclasses
import json
import os
import select
import sys
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path

from . import __version__, experiments, mlp, svgchart, synthdata
from .atomic import atomic_open, decode_utf8, in_place, is_stdout
from .calculus import (
    ClassPriors,
    Count,
    Interior,
    NoiseParams,
    Probability,
    bernoulli_grid_mle,
    checked,
    corrected_threshold,
    mle_flipped_bernoulli,
    noisy_decision_threshold,
    propagate_priors,
)
from .seeding import derive_seed, make_rng


class UsageError(Exception):
    """Bad flag values or combinations, or a bad experiment config file; exits 2."""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(path: Path, command: str, config: dict, outputs: list[str],
                    started: str) -> None:
    doc = {
        "tool": "labelnoise",
        "version": __version__,
        "command": command,
        "config": config,
        "outputs": outputs,
        "started_utc": started,
        "finished_utc": _utc_now(),
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _output_manifest(out: Path, command: str, args, outputs: list[str], started: str) -> list[str]:
    """Write the manifest, with the parsed flags, next to a command's output file; return its `manifest` line.

    No manifest, and no line, for a target written in place: `/dev/fd/3.manifest.json` names no file.
    """
    if in_place(out):
        return []
    manifest = out.with_name(out.name + ".manifest.json")
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    _write_manifest(manifest, command, flags, outputs, started)
    return [f"manifest {manifest}"]


def _flags(build, prefix: str = ""):
    """Run a constructor over flag or config values; a ValueError becomes UsageError(prefix + message)."""
    try:
        return build()
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from None


# ---------------------------------------------------------------- threshold

def _noise_prior_and_cut(args) -> tuple[NoiseParams, ClassPriors, float]:
    """Flip rates, training prior and corrected cut of --gamma1/--gamma0/--p1 (unset: 0.5)/--eval-p1 (unset: --p1)."""
    p1 = 0.5 if args.p1 is None else args.p1
    noise, train_prior, eval_prior = _flags(lambda: (NoiseParams(args.gamma1, args.gamma0), ClassPriors(p1),
                                                     ClassPriors(p1 if args.eval_p1 is None else args.eval_p1)))
    return noise, train_prior, _flags(lambda: corrected_threshold(noise, train_prior, eval_prior))


def cmd_threshold(args) -> list[str]:
    noise, train_prior, cut = _noise_prior_and_cut(args)
    noisy = propagate_priors(train_prior, noise)
    # every number below is the untouched return value of a library call
    return [f"basic_threshold {noisy_decision_threshold(noise)!r}",
            f"noisy_prior_p1  {noisy.p1!r}",
            f"noisy_prior_p0  {noisy.p0!r}",
            f"logit_shift     {mlp.score_cut(cut)!r}",
            f"mlp_threshold   {cut!r}"]


# ---------------------------------------------------------------------- gen

def cmd_gen(args) -> list[str]:
    started = _utc_now()
    noise, n = _flags(lambda: (NoiseParams(args.gamma1, args.gamma0), checked("--n", Count, args.n)))
    problem = _flags(lambda: synthdata.make_random_problem(args.seed, args.separation, args.p1))
    clean = synthdata.sample_dataset(problem, n, derive_seed(args.seed, "gen-sample"))
    data = synthdata.flip_labels(clean, noise, derive_seed(args.seed, "gen-flip"))
    out = Path(args.out)
    sidecar = synthdata.save_dataset_csv(data, out)
    return [f"wrote {len(data)} samples to {out}",
            f"clean class-1 fraction    {float(data.y_clean.mean())!r}",
            f"observed class-1 fraction {float(data.z_observed.mean())!r}",
            *_output_manifest(out, "gen", args, [str(out)] if sidecar is None else [str(out), sidecar], started)]


# -------------------------------------------------------------------- train

def cmd_train(args) -> list[str]:
    started = _utc_now()
    arch = _flags(lambda: mlp.Architecture(2, tuple(args.hidden)))
    cfg = _flags(lambda: mlp.TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.learning_rate,
        momentum=args.momentum, weight_decay=args.weight_decay, init_seed=args.seed,
        early_stop_tol=args.early_stop_tol))
    out = Path(args.out)
    data = synthdata.load_dataset_csv(args.data)
    result = mlp.train(data.x, data.z_observed, arch, cfg)
    mlp.save_model(result.params, out)
    return [*(f"epoch {i}/{cfg.epochs}  loss {ep_loss:.6f}" for i, ep_loss in enumerate(result.epoch_losses, start=1)),
            f"saved model to {out}", *_output_manifest(out, "train", args, [str(out)], started)]


# --------------------------------------------------------------------- eval

def _resolve_threshold(args) -> float:
    if args.threshold is not None:
        if any(v is not None for v in (args.gamma1, args.gamma0, args.p1, args.eval_p1)):
            raise UsageError("give either --threshold or --gamma1/--gamma0 (with --p1/--eval-p1), "
                             "not both")
        return _flags(lambda: checked("--threshold", Interior, args.threshold))
    if args.gamma1 is None or args.gamma0 is None:
        raise UsageError("need a threshold source: --threshold, or both --gamma1 and --gamma0")
    return _noise_prior_and_cut(args)[2]


def cmd_eval(args) -> list[str]:
    threshold = _resolve_threshold(args)
    params = mlp.load_model(args.model)
    data = synthdata.load_dataset_csv(args.data)
    positive = data.y_clean if args.labels == "clean" else data.z_observed
    pred = mlp.classify(params, data.x, threshold)
    tp = int((pred & positive).sum())
    fp = int(pred.sum()) - tp
    fn = int(positive.sum()) - tp
    tn = len(data) - tp - fp - fn
    return [f"threshold   {threshold!r}",
            f"labels      {args.labels}",
            f"samples     {len(data)}",
            f"accuracy    {float((pred == positive).mean())!r}",
            f"tp fp fn tn {tp} {fp} {fn} {tn}"]


# -------------------------------------------------------------- experiments

def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ValueError."""
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def _load_grid_config(cls, path):
    raw, prefix = {}, f"config {path}: "
    if path is not None:
        with open(path, "rb") as fh:
            text = decode_utf8(fh.read(), UsageError, prefix)
        try:
            raw = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{prefix}not valid JSON ({exc})") from None
        except (ValueError, RecursionError) as exc:  # a duplicate key, nesting or digits past a limit
            raise UsageError(f"{prefix}{exc}") from None
        if not isinstance(raw, dict):
            raise UsageError(f"{prefix}top level must be a JSON object")
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - allowed)
        if unknown:  # named by repr: a key may hold a newline
            raise UsageError(
                f"{prefix}unknown key(s): {', '.join(map(repr, unknown))}; "
                f"allowed keys: {', '.join(sorted(allowed))}")
    return _flags(lambda: cls(**raw), prefix)


def _chart_series(summary, x_field: str):
    """A corrected and a naive series per noise level, from one grid's summary in summarize's (n, x) order."""
    series = []
    for n, rows in groupby(summary, key=lambda r: r.n):
        xs, corrected, naive = zip(*((getattr(r, x_field), r.mean_corrected, r.mean_naive) for r in rows))
        series.append(svgchart.Series(f"n={n:g} corrected", xs, corrected))
        series.append(svgchart.Series(f"n={n:g} naive", xs, naive, dashed=True))
    return series


# name -> (help, config class, chart x field, x label, title, log-scaled x)
_FIGURES = {
    "fig2": ("training-efficiency grid: accuracy vs training size per noise level",
             experiments.EfficiencyGridConfig, "train_size", "training-set size",
             "Accuracy vs training size under symmetric label noise", True),
    "fig3": ("flip-ratio grid: corrected vs naive decision threshold",
             experiments.FlipRatioGridConfig, "ratio", "flip ratio gamma0 / gamma1",
             "Corrected vs naive threshold under asymmetric label noise", False),
}


def cmd_figure(args) -> list[str]:
    started = _utc_now()
    name = args.command
    _, cls, x_field, x_label, title, x_log = _FIGURES[name]
    if not args.print_config and args.outdir is None:
        raise UsageError("--outdir is required (unless --print-config)")
    cfg = _load_grid_config(cls, args.config)
    if args.print_config:
        return [json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)]
    jobs = _flags(lambda: checked("--jobs", Count, args.jobs))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = experiments.run_grid(cfg, jobs=jobs)  # looked up at call time, so patches apply
    summary = experiments.summarize(rows)

    results_path = outdir / f"{name}_results.csv"
    summary_path = outdir / f"{name}_summary.csv"
    chart_path = outdir / f"{name}.svg"
    experiments.write_csv(rows, results_path)
    experiments.write_csv(summary, summary_path)
    svgchart.write_line_chart(
        chart_path, _chart_series(summary, x_field),
        title=title, x_label=x_label, y_label="mean accuracy on clean labels", x_log=x_log)
    manifest_path = outdir / f"{name}_manifest.json"
    _write_manifest(manifest_path, name, dataclasses.asdict(cfg),
                    [str(results_path), str(summary_path), str(chart_path)], started)
    return [*(f"n={row.n:g} ratio={row.ratio:g} size={row.train_size} "
              f"corrected={row.mean_corrected:.4f}±{row.se_corrected:.4f} "
              f"naive={row.mean_naive:.4f}±{row.se_naive:.4f} ceiling={row.mean_ceiling:.4f}" for row in summary),
            *(f"wrote {p}" for p in (results_path, summary_path, chart_path, manifest_path))]


# ---------------------------------------------------------------- bernoulli

def cmd_bernoulli(args) -> list[str]:
    noise, p, count = _flags(lambda: (NoiseParams(args.gamma1, args.gamma0), checked("--p", Probability, args.p),
                                      checked("--count", Count, args.count)))
    rng = make_rng(args.seed, "bernoulli")
    y = rng.random(count) < p
    u = rng.random(count)
    z = synthdata.observe(y, u, noise)
    noisy_rate, clean_rate = mle_flipped_bernoulli(z, noise)
    oracle = bernoulli_grid_mle(z, noise)
    return [f"count          {count}",
            f"true_p         {p!r}",
            f"observed_mean  {noisy_rate!r}",
            f"recovered_rate {clean_rate!r}",
            f"grid_mle       {oracle!r}"]


# --------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write, so `--help` on a closed stdout would exit 0
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="labelnoise",
        description="Binary classification with randomly flipped training labels: "
                    "threshold corrections, synthetic-data studies, rate recovery.")
    parser.add_argument("--version", action="version", version=f"labelnoise {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="corrected decision thresholds from flip rates and priors")
    p.add_argument("--gamma1", type=float, required=True, help="P(true 1 observed as 0)")
    p.add_argument("--gamma0", type=float, required=True, help="P(true 0 observed as 1)")
    p.add_argument("--p1", type=float, default=0.5, help="clean class-1 prior of the training data")
    p.add_argument("--eval-p1", type=float, default=None,
                   help="class-1 prior of the data to classify (default: same as --p1)")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("gen", help="sample a synthetic dataset and write it as CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p1", type=float, default=0.5, help="clean class-1 prior")
    p.add_argument("--gamma1", type=float, default=0.0)
    p.add_argument("--gamma0", type=float, default=0.0)
    p.add_argument("--separation", type=float, default=2.5, help="class separation scale")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the MLP on the observed labels of a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV (from gen)")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--hidden", type=int, nargs="+", default=list(mlp.Architecture.hidden_sizes))
    p.add_argument("--epochs", type=int, default=mlp.TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=mlp.TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=mlp.TrainConfig.learning_rate)
    p.add_argument("--momentum", type=float, default=mlp.TrainConfig.momentum)
    p.add_argument("--weight-decay", type=float, default=mlp.TrainConfig.weight_decay)
    p.add_argument("--early-stop-tol", type=float, default=mlp.TrainConfig.early_stop_tol)
    p.add_argument("--seed", type=int, default=mlp.TrainConfig.init_seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=None, help="explicit decision threshold")
    p.add_argument("--gamma1", type=float, default=None, help="derive the threshold from flip rates")
    p.add_argument("--gamma0", type=float, default=None)
    p.add_argument("--p1", type=float, default=None,
                   help="clean class-1 prior of the training data (default: 0.5)")
    p.add_argument("--eval-p1", type=float, default=None,
                   help="class-1 prior of the data to classify (default: same as --p1)")
    p.add_argument("--labels", choices=("clean", "observed"), default="clean",
                   help="which label column to score against")
    p.set_defaults(func=cmd_eval)

    for name, (help_text, *_) in _FIGURES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config (defaults apply to missing keys)")
        p.add_argument("--outdir", default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument("--print-config", action="store_true",
                       help="print the resolved config as JSON and exit")
        p.set_defaults(func=cmd_figure)

    p = sub.add_parser("bernoulli", help="flipped-coin demo: recover the clean rate two ways")
    p.add_argument("--p", type=float, required=True, help="true clean rate")
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--count", type=int, required=True, help="number of tosses")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bernoulli)

    return parser


def _stdout_reader_gone() -> bool:
    """Whether stdout is a pipe whose reader has closed it (poll reports an error on it)."""
    try:
        poller = select.poll()
        poller.register(sys.stdout, select.POLLOUT)
        return any(events & select.POLLERR for _, events in poller.poll(0))
    except (AttributeError, OSError, ValueError):  # no poll here, or stdout is no file
        return False


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = getattr(args, "out", None)
        log = sys.stderr if out is not None and is_stdout(out) else sys.stdout  # stdout then carries only the output
        for line in args.func(args):
            print(line, file=log)
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else int(exc.code)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except (mlp.TrainingDivergedError, OSError, ValueError) as exc:  # the format errors are ValueErrors
        if not (isinstance(exc, BrokenPipeError) and _stdout_reader_gone()):
            print(f"error: {exc}", file=sys.stderr)  # a reader that left early is no error
        code = 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130  # 128 + SIGINT, as a shell reports a command that Ctrl-C ended
    try:
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's exit flush
    except BrokenPipeError:
        code = code or 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush cannot fail
    return code


if __name__ == "__main__":
    sys.exit(main())
