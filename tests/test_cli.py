import dataclasses
import json
import os
import select
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from labelnoise import mlp, synthdata
from labelnoise.calculus import (
    ClassPriors,
    NoiseParams,
    logit_shift,
    noisy_decision_threshold,
    propagate_priors,
    threshold_from_priors,
)
from labelnoise.cli import main
from labelnoise.experiments import EfficiencyGridConfig, FlipRatioGridConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    """Parse 'name   value...' report lines into a dict."""
    parsed = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            parsed[parts[0]] = parts[1:]
    return parsed


# ----------------------------------------------------------------- threshold

def test_threshold_symmetric_noise_prints_half_everywhere(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--gamma1", "0.2", "--gamma0", "0.2")
    assert code == 0
    report = kv(out)
    assert report["basic_threshold"] == ["0.5"]
    assert report["mlp_threshold"] == ["0.5"]
    assert report["logit_shift"] == ["0.0"]


def test_threshold_asymmetric_case_matches_hand_values(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--gamma1", "0.3", "--gamma0", "0.1")
    assert code == 0
    report = kv(out)
    assert float(report["basic_threshold"][0]) == pytest.approx(0.4, abs=1e-12)
    assert float(report["noisy_prior_p1"][0]) == pytest.approx(0.4, abs=1e-12)
    assert float(report["logit_shift"][0]) == pytest.approx(-0.405465, abs=1e-6)
    assert float(report["mlp_threshold"][0]) == pytest.approx(0.4, abs=1e-12)


def test_threshold_with_shifted_eval_prior(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--gamma1", "0.3", "--gamma0", "0.1",
                           "--p1", "0.5", "--eval-p1", "0.7")
    assert code == 0
    want = (0.3 * 0.4) / (0.7 * 0.6 + 0.3 * 0.4)
    assert float(kv(out)["mlp_threshold"][0]) == pytest.approx(want, abs=1e-12)
    assert float(kv(out)["mlp_threshold"][0]) == pytest.approx(0.2222, abs=1e-4)


def test_threshold_report_is_bit_identical_to_library_calls(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--gamma1", "0.23", "--gamma0", "0.07",
                           "--p1", "0.6", "--eval-p1", "0.45")
    assert code == 0
    noise = NoiseParams(0.23, 0.07)
    clean = ClassPriors(0.6)
    eval_prior = ClassPriors(0.45)
    noisy = propagate_priors(clean, noise)
    report = kv(out)
    assert report["basic_threshold"][0] == repr(noisy_decision_threshold(noise))
    assert report["noisy_prior_p1"][0] == repr(noisy.p1)
    assert report["noisy_prior_p0"][0] == repr(noisy.p0)
    assert report["logit_shift"][0] == repr(logit_shift(noisy, eval_prior))
    assert report["mlp_threshold"][0] == repr(threshold_from_priors(eval_prior, noisy))


def test_threshold_rejects_impossible_noise(capsys):
    code, _, err = run_cli(capsys, "threshold", "--gamma1", "0.6", "--gamma0", "0.5")
    assert code == 2
    assert "error:" in err


def test_a_flip_rate_that_is_not_a_finite_number_exits_two_and_writes_nothing(capsys, tmp_path):
    expected = "error: bad value for 'gamma1': expected a finite number"
    code, _, err = run_cli(capsys, "threshold", "--gamma1", "nan", "--gamma0", "0.1")
    assert code == 2 and expected in err
    code, _, err = run_cli(capsys, "gen", "--out", str(tmp_path / "x.csv"), "--n", "5", "--gamma1", "inf")
    assert code == 2 and expected in err
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------- gen / train / eval

def test_gen_train_eval_pipeline_on_an_easy_problem(capsys, tmp_path):
    data = tmp_path / "easy.csv"
    model = tmp_path / "easy.model"
    code, out, _ = run_cli(capsys, "gen", "--out", str(data), "--n", "400",
                           "--seed", "3", "--separation", "10.0")
    assert code == 0
    assert "wrote 400 samples" in out
    code, out, _ = run_cli(capsys, "train", "--data", str(data), "--out", str(model),
                           "--epochs", "8", "--seed", "4")
    assert code == 0
    assert out.count("epoch ") == 8
    code, out, _ = run_cli(capsys, "eval", "--model", str(model), "--data", str(data),
                           "--threshold", "0.5")
    assert code == 0
    report = kv(out)
    assert float(report["accuracy"][0]) > 0.99
    tp, fp, fn, tn = (int(v) for v in report["tp"][3:])
    assert tp + fp + fn + tn == 400


def test_gen_writes_a_loadable_csv_and_manifest(capsys, tmp_path):
    out_path = tmp_path / "d.csv"
    code, out, _ = run_cli(capsys, "gen", "--out", str(out_path), "--n", "50", "--seed", "9",
                           "--gamma1", "0.3", "--gamma0", "0.1")
    assert code == 0
    data = synthdata.load_dataset_csv(out_path)
    assert len(data) == 50
    manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
    assert manifest["tool"] == "labelnoise"
    assert manifest["command"] == "gen"
    assert manifest["config"]["gamma1"] == 0.3
    assert manifest["outputs"] == [str(out_path), f"{os.path.realpath(out_path)}.bin"]


def test_gen_into_a_fifo_writes_no_sidecar(capsys, tmp_path):
    fifo = tmp_path / "data.csv"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, _, _ = run_cli(capsys, "gen", "--out", str(fifo), "--n", "50", "--seed", "9")
    reader.join(30)
    assert code == 0 and not reader.is_alive()
    regular = tmp_path / "regular.csv"
    assert main(["gen", "--out", str(regular), "--n", "50", "--seed", "9"]) == 0
    assert got == [regular.read_bytes()]
    # only a regular file gets a manifest next to it, so the FIFO gets none
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "regular.csv", "regular.csv.bin",
                                            "regular.csv.manifest.json"]


@pytest.mark.skipif(not os.path.exists("/dev/fd/1"), reason="no /dev/fd")
@pytest.mark.parametrize("stdout", ["pipe", "file"])
@pytest.mark.parametrize("command", ["gen", "train"])
def test_an_output_to_stdout_is_all_that_stdout_carries(tmp_path, command, stdout):
    # `--out /dev/fd/1`: the summary goes to stderr, and no manifest is tried next to /dev/fd/1
    data = tmp_path / "d.csv"
    assert main(["gen", "--out", str(data), "--n", "40", "--seed", "3"]) == 0
    argv = (["gen", "--n", "40", "--seed", "3"] if command == "gen"
            else ["train", "--data", str(data), "--epochs", "2"])
    regular = tmp_path / "regular.out"
    assert main([*argv, "--out", str(regular)]) == 0
    before = set(os.listdir(tmp_path))
    out = tmp_path / "stdout.out"
    with open(out, "wb") as fh:
        proc = subprocess.run([sys.executable, "-m", "labelnoise.cli", *argv, "--out", "/dev/fd/1"],
                              stdout=subprocess.PIPE if stdout == "pipe" else fh, stderr=subprocess.PIPE,
                              env=module_env(), timeout=60)
    assert proc.returncode == 0
    assert (proc.stdout if stdout == "pipe" else out.read_bytes()) == regular.read_bytes()
    assert " to /dev/fd/1\n" in proc.stderr.decode() and "manifest" not in proc.stderr.decode()
    # a regular stdout is written in place, so it gets no sidecar either: its CSV loads through the parser
    assert set(os.listdir(tmp_path)) - before == {"stdout.out"}
    if stdout == "file" and command == "gen":
        parsed, cached = synthdata.load_dataset_csv(out), synthdata.load_dataset_csv(regular)
        for name in ("x", "y_clean", "z_observed"):
            assert getattr(parsed, name).tobytes() == getattr(cached, name).tobytes()


@pytest.mark.parametrize("name", [
    pytest.param("/dev/fd/{}", id="dev-fd", marks=pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")),
    pytest.param("/proc/self/fd/{}", id="proc-self-fd",
                 marks=pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")),
])
@pytest.mark.parametrize("command", ["gen", "train"])
def test_an_output_to_another_descriptor_is_written_in_place(tmp_path, command, name):
    # `--out /dev/fd/N N>file`: replacing the file would leave the descriptor on an
    # unlinked copy, a sidecar named `file (deleted).bin` and no manifest path to write
    data = tmp_path / "d.csv"
    assert main(["gen", "--out", str(data), "--n", "40", "--seed", "3"]) == 0
    argv = (["gen", "--n", "40", "--seed", "3"] if command == "gen"
            else ["train", "--data", str(data), "--epochs", "2"])
    regular = tmp_path / "regular.out"
    assert main([*argv, "--out", str(regular)]) == 0
    before = set(os.listdir(tmp_path))
    out = tmp_path / "fd.out"
    with open(out, "wb") as fh:
        target = name.format(fh.fileno())
        proc = subprocess.run([sys.executable, "-m", "labelnoise.cli", *argv, "--out", target],
                              pass_fds=(fh.fileno(),), capture_output=True, env=module_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_bytes() == regular.read_bytes()
    # the summary stays on stdout, which the output does not use, and names no manifest
    assert f" to {target}\n" in proc.stdout.decode() and "manifest" not in proc.stdout.decode()
    assert set(os.listdir(tmp_path)) - before == {"fd.out"}


def test_train_and_eval_give_the_same_bytes_without_the_sidecar(capsys, tmp_path):
    data = tmp_path / "d.csv"
    assert main(["gen", "--out", str(data), "--n", "700", "--seed", "13",
                 "--gamma1", "0.2", "--gamma0", "0.1"]) == 0

    def train_and_eval(model):
        assert main(["train", "--data", str(data), "--out", str(model), "--epochs", "3"]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "eval", "--model", str(model), "--data", str(data),
                               "--gamma1", "0.2", "--gamma0", "0.1")
        assert code == 0
        return model.read_bytes(), out

    from_sidecar = train_and_eval(tmp_path / "with.txt")
    os.remove(f"{os.path.realpath(data)}.bin")
    assert train_and_eval(tmp_path / "without.txt") == from_sidecar


def test_gen_and_train_manifests_record_exactly_the_parsed_flags(capsys, tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.txt"
    assert main(["gen", "--out", str(data), "--n", "30", "--seed", "5", "--gamma1", "0.2"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model), "--epochs", "2",
                 "--hidden", "4", "3", "--early-stop-tol", "0.001"]) == 0
    capsys.readouterr()
    gen = json.loads((tmp_path / "d.csv.manifest.json").read_text())["config"]
    assert gen == {"out": str(data), "n": 30, "seed": 5, "p1": 0.5, "gamma1": 0.2,
                   "gamma0": 0.0, "separation": 2.5}
    train = json.loads((tmp_path / "m.txt.manifest.json").read_text())["config"]
    assert train == {"data": str(data), "out": str(model), "hidden": [4, 3], "epochs": 2,
                     "batch_size": 32, "learning_rate": 0.05, "momentum": 0.9,
                     "weight_decay": 0.0, "early_stop_tol": 0.001, "seed": 0}


def test_eval_accuracy_equals_direct_library_computation(capsys, tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.txt"
    assert main(["gen", "--out", str(data), "--n", "120", "--seed", "11",
                 "--gamma1", "0.2", "--gamma0", "0.2"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model),
                 "--epochs", "5", "--seed", "12"]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "eval", "--model", str(model), "--data", str(data),
                           "--threshold", "0.5", "--labels", "observed")
    assert code == 0
    params = mlp.load_model(model)
    loaded = synthdata.load_dataset_csv(data)
    pred = mlp.classify(params, loaded.x, 0.5)
    want = float((pred == loaded.z_observed).mean())
    assert kv(out)["accuracy"][0] == repr(want)


@pytest.mark.parametrize("labels", ["clean", "observed"])
def test_eval_reports_what_classify_decides_ties_included(capsys, tmp_path, labels):
    threshold = 0.3
    arch = mlp.Architecture(hidden_sizes=(6, 5))
    init = mlp.init_params(arch, 51)
    # zero hidden biases and a last bias at the threshold's logit: a row at the origin scores on the cut
    params = mlp.MlpParams(arch, init.weights, init.biases[:-1] + (np.array([mlp.score_cut(threshold)]),))
    rng = np.random.default_rng(52)
    x = rng.standard_normal((600, 2))
    x[::7] = 0.0
    data = synthdata.Dataset(x, rng.integers(0, 2, 600), rng.integers(0, 2, 600))
    data_path, model_path = tmp_path / "d.csv", tmp_path / "m.txt"
    synthdata.save_dataset_csv(data, data_path)
    mlp.save_model(params, model_path)
    code, out, _ = run_cli(capsys, "eval", "--model", str(model_path), "--data", str(data_path),
                           "--threshold", repr(threshold), "--labels", labels)
    assert code == 0
    params, data = mlp.load_model(model_path), synthdata.load_dataset_csv(data_path)
    ties = mlp.score(params, data.x) == mlp.score_cut(threshold)
    assert ties.sum() == len(x[::7])
    pred = mlp.classify(params, data.x, threshold)
    truth = data.y_clean if labels == "clean" else data.z_observed
    tp = int(((pred == 1) & (truth == 1)).sum())
    fp = int(((pred == 1) & (truth == 0)).sum())
    fn = int(((pred == 0) & (truth == 1)).sum())
    tn = int(((pred == 0) & (truth == 0)).sum())
    assert out == (f"threshold   {threshold!r}\nlabels      {labels}\nsamples     {len(data)}\n"
                   f"accuracy    {float((pred == truth).mean())!r}\ntp fp fn tn {tp} {fp} {fn} {tn}\n")


def test_eval_holds_one_bool_decision_column(capsys, tmp_path, traced_peak):
    # classify's int64 predictions and the int comparisons held 0.83 x.nbytes past the
    # dataset's load at 200 000 rows; a bool decision from a float64 score vector, 0.51;
    # classify's bool column, filled a block of scores at a time, 0.085
    data = synthdata.sample_dataset(synthdata.make_random_problem(53, 2.5), 200_000, 54)
    data_path, model_path = tmp_path / "d.csv", tmp_path / "m.txt"
    synthdata.save_dataset_csv(data, data_path)
    mlp.save_model(mlp.init_params(mlp.Architecture(), 55), model_path)
    _, load_peak = traced_peak(lambda: synthdata.load_dataset_csv(data_path))
    code, peak = traced_peak(lambda: main(["eval", "--model", str(model_path), "--data", str(data_path),
                                           "--threshold", "0.4"]))
    capsys.readouterr()
    assert code == 0
    assert peak - load_peak <= 0.15 * data.x.nbytes


def test_eval_symmetric_gamma_flags_match_explicit_half_threshold(capsys, tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.txt"
    assert main(["gen", "--out", str(data), "--n", "80", "--seed", "21",
                 "--gamma1", "0.2", "--gamma0", "0.2"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model),
                 "--epochs", "4", "--seed", "22"]) == 0
    capsys.readouterr()
    _, by_value, _ = run_cli(capsys, "eval", "--model", str(model), "--data", str(data),
                             "--threshold", "0.5")
    _, by_gamma, _ = run_cli(capsys, "eval", "--model", str(model), "--data", str(data),
                             "--gamma1", "0.2", "--gamma0", "0.2")
    assert by_value == by_gamma


def test_eval_requires_exactly_one_threshold_source(capsys, tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.txt"
    assert main(["gen", "--out", str(data), "--n", "30", "--seed", "31"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model), "--epochs", "2"]) == 0
    capsys.readouterr()
    code, _, err = run_cli(capsys, "eval", "--model", str(model), "--data", str(data))
    assert code == 2
    assert "threshold source" in err
    code, _, err = run_cli(capsys, "eval", "--model", str(model), "--data", str(data),
                           "--threshold", "0.5", "--gamma1", "0.2", "--gamma0", "0.2")
    assert code == 2
    assert "not both" in err
    for prior in (["--eval-p1", "0.2"], ["--p1", "0.3"]):  # a prior correction needs the gammas
        code, out, err = run_cli(capsys, "eval", "--model", str(model), "--data", str(data),
                                 "--threshold", "0.4", *prior)
        assert (code, out) == (2, "")
        assert "not both" in err


def test_runtime_file_problems_exit_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "train", "--data", str(tmp_path / "absent.csv"),
                           "--out", str(tmp_path / "m.txt"))
    assert code == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,y_clean,z_observed\n0.0,0.0,1,1\n0.0,oops,0,0\n")
    code, _, err = run_cli(capsys, "train", "--data", str(bad), "--out", str(tmp_path / "m.txt"))
    assert code == 1
    assert "line 3" in err
    good = tmp_path / "good.csv"
    assert main(["gen", "--out", str(good), "--n", "20", "--seed", "40"]) == 0
    capsys.readouterr()
    broken_model = tmp_path / "broken.model"
    broken_model.write_text("not a model\n")
    code, _, err = run_cli(capsys, "eval", "--model", str(broken_model), "--data", str(good),
                           "--threshold", "0.5")
    assert code == 1
    assert "line 1" in err


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run_cli(capsys, "gen", "--out", str(tmp_path / "x.csv"), "--n", "0")[0] == 2
    assert run_cli(capsys, "bernoulli", "--p", "0.5", "--gamma1", "0.1", "--gamma0", "0.1",
                   "--count", "0")[0] == 2
    assert run_cli(capsys, "fig3", "--outdir", str(tmp_path), "--jobs", "0")[0] == 2
    assert run_cli(capsys, "train", "--data", str(tmp_path / "absent.csv"), "--out",
                   str(tmp_path / "m.txt"), "--weight-decay", "nan")[0] == 2
    assert run_cli(capsys, "eval", "--model", str(tmp_path / "absent.txt"), "--data",
                   str(tmp_path / "absent.csv"), "--threshold", "1.5")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_version_flag_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


def module_env():
    """os.environ with the imported labelnoise first on PYTHONPATH, for `python -m labelnoise.cli`."""
    src = str(Path(mlp.__file__).resolve().parents[1])  # where labelnoise is imported from
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # only `--jobs` > 1 needs the pool, and its import pulls in multiprocessing and subprocess
    code = "import sys, labelnoise.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=module_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_console_script_is_installed():
    # `python -m labelnoise.cli` runs main() from a checkout, the way the `labelnoise` script does
    env = module_env()

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "labelnoise.cli", *argv],
                              capture_output=True, text=True, env=env)

    proc = module_run()
    assert proc.returncode == 2
    assert "usage: labelnoise" in proc.stderr
    proc = module_run("threshold", "--gamma1", "0.3", "--gamma0", "0.1")
    assert proc.returncode == 0
    assert any(line.startswith("basic_threshold ") for line in proc.stdout.splitlines())


BERNOULLI_ARGV = ["bernoulli", "--p", "0.5", "--gamma1", "0.1", "--gamma0", "0.1", "--count", "10"]


@pytest.mark.parametrize("unbuffered, argv", [
    pytest.param("1", BERNOULLI_ARGV, id="unbuffered"),
    pytest.param(None, BERNOULLI_ARGV, id="buffered"),
    pytest.param("1", ["--help"], id="unbuffered-help"),  # argparse's own write drops the error
    pytest.param(None, ["--help"], id="buffered-help"),
])
def test_closed_stdout_exits_one_and_says_nothing(unbuffered, argv):
    # a reader that closes the pipe early (`labelnoise ... | head`) is not a runtime failure
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "labelnoise.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # long before the child has imported numpy and printed
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == b""


def test_broken_pipe_on_another_file_is_reported(tmp_path):
    # only a closed stdout is silent: a FIFO whose reader quits is a runtime failure of `gen --out`
    fifo = tmp_path / "data.csv"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    proc = subprocess.Popen(
        [sys.executable, "-m", "labelnoise.cli", "gen", "--n", "20000", "--out", str(fifo)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env())
    select.select([reader], [], [], 60)  # the child has opened the FIFO and written a first block
    os.close(reader)  # long before the child has written its 20000 rows
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stdout == b""
    assert stderr.decode().startswith("error: [Errno 32] Broken pipe")


# ------------------------------------------------------------------- figures

FIG3_CONFIG = {
    "noise_levels": [0.4],
    "flip_ratios": [1.0, 4.0],
    "runs": 2,
    "train_size": 60,
    "test_size": 300,
    "epochs": 2,
    "batch_size": 16,
    "base_seed": 77,
}


def write_fig3_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(FIG3_CONFIG))
    return path


def test_fig3_writes_results_summary_chart_and_manifest(capsys, tmp_path):
    cfg = write_fig3_config(tmp_path)
    outdir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "fig3", "--config", str(cfg), "--outdir", str(outdir))
    assert code == 0
    results = (outdir / "fig3_results.csv").read_text().splitlines()
    assert len(results) == 1 + 2 * 2
    summary = (outdir / "fig3_summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2
    svg = (outdir / "fig3.svg").read_text()
    assert svg.startswith("<svg")
    assert "stroke-dasharray" in svg
    assert "n=0.4 corrected" in svg and "n=0.4 naive" in svg
    manifest = json.loads((outdir / "fig3_manifest.json").read_text())
    assert manifest["command"] == "fig3"
    assert len(manifest["outputs"]) == 3


def test_fig3_manifest_config_reconstructs_the_run(capsys, tmp_path):
    cfg = write_fig3_config(tmp_path)
    outdir = tmp_path / "out"
    assert main(["fig3", "--config", str(cfg), "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    stored = json.loads((outdir / "fig3_manifest.json").read_text())["config"]
    rebuilt = FlipRatioGridConfig(**{k: tuple(v) if isinstance(v, list) else v
                                     for k, v in stored.items()})
    assert rebuilt == FlipRatioGridConfig(**{k: tuple(v) if isinstance(v, list) else v
                                             for k, v in FIG3_CONFIG.items()})


def test_fig3_rerun_is_byte_identical(capsys, tmp_path):
    cfg = write_fig3_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["fig3", "--config", str(cfg), "--outdir", str(a)]) == 0
    assert main(["fig3", "--config", str(cfg), "--outdir", str(b)]) == 0
    capsys.readouterr()
    assert (a / "fig3_results.csv").read_bytes() == (b / "fig3_results.csv").read_bytes()
    assert (a / "fig3_summary.csv").read_bytes() == (b / "fig3_summary.csv").read_bytes()
    assert (a / "fig3.svg").read_bytes() == (b / "fig3.svg").read_bytes()


def test_fig3_ratio_one_summary_rows_coincide(capsys, tmp_path):
    cfg = write_fig3_config(tmp_path)
    outdir = tmp_path / "out"
    assert main(["fig3", "--config", str(cfg), "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    header, *rows = (outdir / "fig3_summary.csv").read_text().splitlines()
    fields = header.split(",")
    for line in rows:
        record = dict(zip(fields, line.split(",")))
        if float(record["ratio"]) == 1.0:
            assert record["mean_corrected"] == record["mean_naive"]


def test_fig2_runs_a_tiny_grid(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise_levels": [0.0, 0.4], "training_sizes": [50, 100],
                               "runs": 2, "test_size": 300, "epochs": 2,
                               "batch_size": 16, "base_seed": 78}))
    outdir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "fig2", "--config", str(cfg), "--outdir", str(outdir))
    assert code == 0
    lines = (outdir / "fig2_results.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2
    assert (outdir / "fig2.svg").exists()


def test_fig_print_config_shows_resolved_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"runs": 3}))
    code, out, _ = run_cli(capsys, "fig3", "--config", str(cfg), "--print-config")
    assert code == 0
    resolved = json.loads(out)
    assert resolved["runs"] == 3
    assert resolved["train_size"] == FlipRatioGridConfig().train_size
    assert resolved["flip_ratios"] == list(FlipRatioGridConfig().flip_ratios)


@pytest.mark.parametrize("figure, cls", [("fig2", EfficiencyGridConfig),
                                         ("fig3", FlipRatioGridConfig)])
def test_fig_print_config_reads_back_as_the_same_config(capsys, tmp_path, figure, cls):
    code, printed, _ = run_cli(capsys, figure, "--print-config")
    assert code == 0
    assert set(json.loads(printed)) == {f.name for f in dataclasses.fields(cls)}
    cfg = tmp_path / "resolved.json"
    cfg.write_text(printed)
    code, again, _ = run_cli(capsys, figure, "--config", str(cfg), "--print-config")
    assert code == 0
    assert again == printed


def test_fig_requires_outdir_unless_printing(capsys):
    code, _, err = run_cli(capsys, "fig3")
    assert code == 2
    assert "--outdir" in err


@pytest.mark.parametrize("payload, fragment", [
    ("{not json", "not valid JSON"),
    ("[1, 2]", "JSON object"),
    ('{"surprise_key": 1}', "surprise_key"),
    ('{"runs": "many"}', "runs"),
    ('{"noise_levels": 0.4}', "noise_levels"),
    ('{"runs": 0}', "runs"),
    ('{"runs": Infinity}', "runs"),
    ('{"runs": NaN}', "runs"),
    ('{"learning_rate": Infinity}', "learning_rate"),
    (b'{"runs": 1,\n "epochs": \xff}', "line 2: not UTF-8"),
    ('{"runs": 1, "runs": 2}', "duplicate key 'runs'"),
])
def test_fig_config_problems_exit_two_and_name_the_key(capsys, tmp_path, payload, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    code, _, err = run_cli(capsys, "fig3", "--config", str(cfg), "--outdir", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith(f"error: config {cfg}: ")
    assert fragment in err


def _json_pairs(doc: dict) -> list[list[str]]:
    """A config object as [key text, value text] pairs; a list value as its element texts."""
    return [[json.dumps(key), json.dumps(value) if not isinstance(value, list)
             else [json.dumps(v) for v in value]] for key, value in doc.items()]


def _json_text(pairs) -> str:
    return "{" + ", ".join(f"{key}: " + (value if isinstance(value, str) else "[" + ", ".join(value) + "]")
                           for key, value in pairs) + "}\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(figure=st.sampled_from(["fig2", "fig3"]),
       kind=st.sampled_from(["drop-key", "duplicate-key", "value", "list-element", "non-utf8", "truncate"]),
       data=st.data())
def test_fig_config_file_loads_or_exits_two_naming_the_file(capsys, tmp_path, figure, kind, data):
    code, printed, _ = run_cli(capsys, figure, "--print-config")
    pairs = _json_pairs(json.loads(printed))
    i = data.draw(st.integers(0, len(pairs) - 1), label="key index")
    bad = st.sampled_from(["Infinity", "-Infinity", "NaN", "1e400", "-1e400", "1e308", "true", "false",
                           "null", '"4"', '"x"', "[]", "[[1]]", "[0.1, [0.2]]", "{}", '{"a": 1}',
                           "0", "-1", "0.5", "1.0", "3", "12345678901234567890"])
    if kind == "drop-key":
        del pairs[i]
    elif kind == "duplicate-key":
        pairs.insert(data.draw(st.integers(0, len(pairs)), label="at"),
                     [pairs[i][0], data.draw(st.sampled_from([pairs[i][1], "1"]), label="value")])
    elif kind == "value":
        pairs[i][1] = data.draw(bad, label="value")
    elif kind == "list-element":
        i = data.draw(st.sampled_from([k for k, (_, v) in enumerate(pairs) if isinstance(v, list)]))
        pairs[i][1][data.draw(st.integers(0, len(pairs[i][1]) - 1))] = data.draw(bad, label="element")
    raw = _json_text(pairs).encode()
    if kind == "non-utf8":
        at = data.draw(st.integers(0, len(raw)), label="byte offset")
        raw = raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9t\xe9", b"\xed\xa0\x80"])) + raw[at:]
    elif kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    path = tmp_path / "mutated.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, figure, "--config", str(path), "--print-config")
    assert "Traceback" not in err
    if code == 0:
        assert kind not in ("duplicate-key", "non-utf8")
        resolved = json.loads(out)
        cls = EfficiencyGridConfig if figure == "fig2" else FlipRatioGridConfig
        assert json.dumps(dataclasses.asdict(cls(**resolved)), indent=2, sort_keys=True) + "\n" == out
        assert err == ""
    else:
        assert code == 2, err
        assert err.startswith(f"error: config {path}: ") and err.count("\n") == 1, err
        if kind == "duplicate-key":
            assert "duplicate key" in err
        if kind == "non-utf8":
            assert "not UTF-8" in err


# ----------------------------------------------------------------- bernoulli

def test_bernoulli_recovers_the_rate_from_a_large_sample(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--p", "0.5", "--gamma1", "0.2",
                           "--gamma0", "0.2", "--count", "1000000", "--seed", "5")
    assert code == 0
    report = kv(out)
    recovered = float(report["recovered_rate"][0])
    assert abs(recovered - 0.5) < 0.01
    assert abs(recovered - float(report["grid_mle"][0])) < 1e-4


def test_bernoulli_without_noise_recovers_the_observed_mean_exactly(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--p", "0.35", "--gamma1", "0",
                           "--gamma0", "0", "--count", "5000", "--seed", "6")
    assert code == 0
    report = kv(out)
    assert report["recovered_rate"][0] == report["observed_mean"][0]


def test_bernoulli_validates_probability_flags(capsys):
    assert run_cli(capsys, "bernoulli", "--p", "1.5", "--gamma1", "0.1", "--gamma0", "0.1",
                   "--count", "10")[0] == 2
    assert run_cli(capsys, "bernoulli", "--p", "0.5", "--gamma1", "0.7", "--gamma0", "0.4",
                   "--count", "10")[0] == 2
