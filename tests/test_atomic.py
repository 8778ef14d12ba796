import errno
import os
import stat
import threading
from contextlib import ExitStack, contextmanager
from pathlib import Path

import pytest

from labelnoise import atomic, cli, mlp, svgchart, synthdata
from labelnoise.atomic import atomic_open
from labelnoise.calculus import NoiseParams
from labelnoise.experiments import ResultRow, summarize, write_csv

ROW = ResultRow("efficiency", 0.4, 0.2, 0.2, 1.0, 60, 0, 0.5, 0.8, 0.8, 0.9, 7)


class DiskFullAfter:
    """A text file whose write fails with ENOSPC once `writes` writes have gone through."""

    def __init__(self, fh, writes: int):
        self.fh, self.writes = fh, writes

    def write(self, text):
        if self.writes == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes -= 1
        return self.fh.write(text)

    def __getattr__(self, name):  # close, flush: the rest of a file
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def disk_full_after(monkeypatch, writes: int) -> None:
    """Make every file atomic_open opens fail after `writes` writes."""
    monkeypatch.setattr(atomic, "open", lambda *a, **k: DiskFullAfter(open(*a, **k), writes),
                        raising=False)


def dataset(n: int, seed: int) -> synthdata.Dataset:
    problem = synthdata.make_random_problem(seed, 2.5)
    return synthdata.flip_labels(synthdata.sample_dataset(problem, n, seed), NoiseParams(0.2, 0.1), seed)


def test_a_completed_write_lands_whole_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_open(path) as fh:
        fh.write("new\n")
        assert path.read_text() == "old\n"  # nothing is visible before the file is complete
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("old", [None, "old bytes\n"], ids=["absent", "existing"])
def test_a_writer_that_raises_partway_leaves_the_target_as_it_was(tmp_path, old):
    path = tmp_path / "out.txt"
    if old is not None:
        path.write_text(old)
    with pytest.raises(RuntimeError, match="partway"):
        with atomic_open(path) as fh:
            fh.write("half a file\n")
            fh.flush()
            raise RuntimeError("partway")
    assert (path.read_text() if path.exists() else None) == old
    assert os.listdir(tmp_path) == ([] if old is None else ["out.txt"])


def test_a_dataset_csv_cut_after_its_first_chunk_keeps_the_old_dataset(tmp_path, monkeypatch):
    # a cut dataset CSV would load silently as a 1024-row dataset; the old file must stay instead
    path = tmp_path / "data.csv"
    old = dataset(3000, 1)
    synthdata.save_dataset_csv(old, path)
    old_bytes = path.read_bytes()
    disk_full_after(monkeypatch, writes=2)  # the header and the first 1024-row chunk
    with pytest.raises(OSError, match="No space left"):
        synthdata.save_dataset_csv(dataset(3000, 2), path)
    assert path.read_bytes() == old_bytes
    assert len(synthdata.load_dataset_csv(path)) == 3000
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "data.csv.bin"]
    with pytest.raises(OSError, match="No space left"):
        synthdata.save_dataset_csv(old, tmp_path / "new.csv")
    assert not (tmp_path / "new.csv").exists()


def test_a_disk_full_sidecar_write_leaves_the_new_csv_loadable(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    synthdata.save_dataset_csv(dataset(50, 1), path)
    new = dataset(3000, 2)

    def sidecar_disk_full(name, *args, **kwargs):
        fh = open(name, *args, **kwargs)
        return DiskFullAfter(fh, writes=0) if ".bin." in os.fspath(name) else fh

    monkeypatch.setattr(atomic, "open", sidecar_disk_full, raising=False)
    with pytest.raises(OSError, match="No space left"):
        synthdata.save_dataset_csv(new, path)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "data.csv.bin"]  # the old, stale sidecar
    loaded = synthdata.load_dataset_csv(path)
    for name in ("x", "y_clean", "z_observed"):
        assert getattr(loaded, name).tobytes() == getattr(new, name).tobytes()


def test_a_symlinked_target_is_replaced_through_the_link(tmp_path):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old\n")
    link.symlink_to(real.name)
    with atomic_open(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o755], ids=oct)
def test_a_replaced_file_keeps_its_permission_bits(tmp_path, mode):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    path.chmod(mode)
    with atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert stat.S_IMODE(path.stat().st_mode) == mode


def _manifest(path):
    cli._write_manifest(Path(path), "gen", {}, [], "2000-01-01T00:00:00+00:00")


def _chart(path):
    series = [svgchart.Series("a", (1.0, 2.0), (0.5, 0.75))]
    svgchart.write_line_chart(path, series, title="t", x_label="x", y_label="y")


WRITERS = {
    "dataset": lambda path: synthdata.save_dataset_csv(dataset(10, 3), path),
    "model": lambda path: mlp.save_model(mlp.init_params(mlp.Architecture(), 0), path),
    "results": lambda path: write_csv([ROW], path),
    "summary": lambda path: write_csv(summarize([ROW]), path),
    "chart": _chart,
    "manifest": _manifest,
}


@pytest.mark.parametrize("name", WRITERS)
def test_every_output_writer_keeps_the_old_file_when_a_write_fails(tmp_path, monkeypatch, name):
    path = tmp_path / "out"
    WRITERS[name](path)  # the writer works
    assert path.stat().st_size > 0
    path.write_text("old\n")
    disk_full_after(monkeypatch, writes=0)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[name](path)
    assert path.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == (["out", "out.bin"] if name == "dataset" else ["out"])


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    with atomic_open(fifo) as fh:
        fh.write("through the pipe\n")
    reader.join(30)
    assert got == ["through the pipe\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_an_unwritable_target_is_named_in_the_error(tmp_path):
    path = tmp_path / "no-such-dir" / "out.csv"
    with pytest.raises(FileNotFoundError) as info:
        with atomic_open(path):
            pass
    assert info.value.filename == str(path)
    assert str(path) in str(info.value)
    assert not path.parent.exists()



@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_descriptor_names_are_told_from_paths_through_links(tmp_path):
    (tmp_path / "fd").symlink_to("/proc/self/fd")
    (tmp_path / "err").symlink_to("/proc/self/fd/2")
    (tmp_path / "to-err").symlink_to(tmp_path / "err")
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    (tmp_path / "2").write_text("")
    for name in ("/proc/self/fd/2", tmp_path / "fd" / "2", tmp_path / "err", tmp_path / "to-err"):
        assert atomic.names_descriptor(name), name
    for name in (tmp_path / "2", tmp_path / "loop", tmp_path / "missing", "/proc/self/fd"):
        assert not atomic.names_descriptor(name), name


@contextmanager
def as_stdout(path):
    """This process's fd 1 writes to path for the duration."""
    saved = os.dup(1)
    try:
        with open(path, "ab") as fh:
            os.dup2(fh.fileno(), 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _absent(tmp_path, stack):
    return str(tmp_path / "out.csv")


def _regular(tmp_path, stack):
    (tmp_path / "out.csv").write_text("old\n")
    return str(tmp_path / "out.csv")


def _symlink(tmp_path, stack):
    (tmp_path / "real.csv").write_text("old\n")
    (tmp_path / "out.csv").symlink_to("real.csv")
    return str(tmp_path / "out.csv")


def _fifo(tmp_path, stack):
    os.mkfifo(tmp_path / "out.csv")
    return str(tmp_path / "out.csv")


def _descriptor(tmp_path, stack):
    fh = stack.enter_context(open(tmp_path / "out.csv", "wb"))
    return f"/dev/fd/{fh.fileno()}"


def _stdout(tmp_path, stack):
    (tmp_path / "out.csv").write_text("")
    stack.enter_context(as_stdout(tmp_path / "out.csv"))
    return str(tmp_path / "out.csv")


@contextmanager
def drained(path):
    """A reader on the other end of path while it is written, if path is a FIFO."""
    if not Path(path).is_fifo():
        yield
        return
    reader = threading.Thread(target=lambda: Path(path).read_bytes(), daemon=True)
    reader.start()
    yield
    reader.join(30)
    assert not reader.is_alive()


# name -> (make the target in tmp_path and return its name, whether it is written in place)
TARGETS = {
    "absent": (_absent, False),
    "regular": (_regular, False),
    "symlink": (_symlink, False),
    "fifo": (_fifo, True),
    "dev-null": (lambda tmp_path, stack: os.devnull, True),
    "dev-fd": (_descriptor, True),
    "stdout-file": (_stdout, True),
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("name", TARGETS)
def test_one_rule_says_which_targets_are_written_in_place(tmp_path, name):
    # in place means: the inode stays, and gen writes neither a sidecar nor a manifest next to it
    make, expected = TARGETS[name]
    with ExitStack() as stack:
        path = make(tmp_path, stack)
        assert atomic.in_place(path) == expected
        before = os.stat(path).st_ino if os.path.exists(path) else None
        with drained(path), atomic_open(path) as fh:
            fh.write("new\n")
        assert (os.stat(path).st_ino != before) == (not expected)
        with drained(path):
            assert cli.main(["gen", "--out", path, "--n", "5"]) == 0
        sidecar, manifest = os.path.realpath(path) + ".bin", path + ".manifest.json"
        assert (os.path.exists(sidecar), os.path.exists(manifest)) == (not expected, not expected)
