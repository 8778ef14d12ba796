"""Seeded byte mutations of every file format the program reads.

A mutated dataset CSV or model file either loads or raises its module's
typed error, whose message starts with the line it names; a mutated sidecar
is only a cache, so its CSV loads as the CSV's own parse; a mutated grid
config either prints its resolved config or exits 2 with one ``error:``
line.  The draws come from ``random.Random`` with fixed seeds and counts,
so every run sees the same files and gives the same outcome counts.
"""

import os
import random
import re
from collections import Counter
from pathlib import Path

from labelnoise import mlp
from labelnoise.cli import main
from labelnoise.synthdata import (
    DatasetFormatError,
    load_dataset_csv,
    make_random_problem,
    sample_dataset,
    save_dataset_csv,
)

MUTANTS = 300  # per format
# bytes a parser treats specially, next to digits and letters it reads as values
SPECIAL = b',\n\r" \t.-+eE0123456789{}[]:\\\x00\xff\xc3'
# runs a byte at a time would seldom spell: a BOM, U+2028, and a field past the csv module's limit
TOKENS = [b"nan", b"1e999", b"\xef\xbb\xbf", "\u2028".encode(), b"9" * 200_000]


def mutate(rng: random.Random, raw: bytes) -> bytes:
    """raw with one to three edits: a byte replaced, flipped, inserted or deleted, a run repeated, a token, a cut."""
    raw = bytearray(raw)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(raw) + 1)
        kind = rng.randrange(7)
        byte = rng.choice(SPECIAL) if rng.random() < 0.5 else rng.randrange(256)
        if kind == 0 and at < len(raw):
            raw[at] = byte
        elif kind == 1 and at < len(raw):
            raw[at] ^= 1 << rng.randrange(8)
        elif kind == 2:
            raw.insert(at, byte)
        elif kind == 3:
            del raw[at:at + rng.randint(1, 8)]
        elif kind == 4:
            raw[at:at] = raw[at:at + rng.randint(1, 16)]
        elif kind == 5:
            raw[at:at] = rng.choice(TOKENS)
        else:
            del raw[at:]
    return bytes(raw)


def assert_names_a_line(exc: Exception, raw: bytes) -> None:
    """exc's message starts with a line of raw, or the line just past its end."""
    match = re.match(r"line ([1-9][0-9]*): ", str(exc))
    assert match, str(exc)
    assert int(match.group(1)) <= len(raw.splitlines()) + 1, str(exc)


def test_mutated_inputs_load_or_fail_with_their_typed_error(tmp_path, capsys):
    data = sample_dataset(make_random_problem(7, 2.5), 12, 8)
    source = tmp_path / "source.csv"
    os.remove(save_dataset_csv(data, source))
    csv_bytes = source.read_bytes()
    model = tmp_path / "source.model"
    mlp.save_model(mlp.init_params(mlp.Architecture(2, (3, 2)), 9), model)
    model_bytes = model.read_bytes()
    configs = {}
    for figure in ("fig2", "fig3"):
        assert main([figure, "--print-config"]) == 0
        configs[figure] = capsys.readouterr().out.encode()

    outcomes = Counter()
    path = tmp_path / "mutant"
    rng = random.Random(20261022)
    for _ in range(MUTANTS):  # a dataset CSV with no sidecar
        raw = mutate(rng, csv_bytes)
        path.write_bytes(raw)
        try:
            load_dataset_csv(path)
            outcomes["csv", "load"] += 1
        except DatasetFormatError as exc:
            assert_names_a_line(exc, raw)
            outcomes["csv", "error"] += 1

    csv_path = tmp_path / "cached.csv"
    sidecar = save_dataset_csv(data, csv_path)
    sidecar_bytes = Path(sidecar).read_bytes()
    expected = load_dataset_csv(source)  # the same bytes, with no sidecar: the CSV's own parse
    for _ in range(MUTANTS):  # a sidecar next to its unchanged CSV
        Path(sidecar).write_bytes(mutate(rng, sidecar_bytes))
        got = load_dataset_csv(csv_path)
        for name in ("x", "y_clean", "z_observed"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        outcomes["sidecar", "load"] += 1

    for _ in range(MUTANTS):  # a model file
        raw = mutate(rng, model_bytes)
        path.write_bytes(raw)
        try:
            mlp.load_model(path)
            outcomes["model", "load"] += 1
        except mlp.ModelFormatError as exc:
            assert_names_a_line(exc, raw)
            outcomes["model", "error"] += 1

    for _ in range(MUTANTS):  # a grid config, through the command line
        figure = rng.choice(sorted(configs))
        path.write_bytes(mutate(rng, configs[figure]))
        code = main([figure, "--config", str(path), "--print-config"])
        out, err = capsys.readouterr()
        if code == 0:
            assert err == "" and out.startswith("{")
            outcomes["config", "load"] += 1
        else:
            assert code == 2 and out == "", (code, err)
            assert err.startswith(f"error: config {path}: ") and err.count("\n") == 1, err
            outcomes["config", "error"] += 1

    # every format's mutants reach both outcomes, but a sidecar's, which always load
    assert {kind for kind in outcomes} == {(fmt, outcome) for fmt in ("csv", "model", "config")
                                           for outcome in ("load", "error")} | {("sidecar", "load")}
    assert sum(outcomes.values()) == 4 * MUTANTS
