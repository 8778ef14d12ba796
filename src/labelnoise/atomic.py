"""Output files that appear whole or not at all.

``atomic_open(path)`` is the one way the package writes a dataset CSV and
its binary sidecar, a model, a results or summary CSV, an SVG chart or a
manifest.  The bytes go to a temporary file next to the file ``path`` names,
named with the process id, and ``os.replace`` moves it into place only once
it is complete; a write that fails or is interrupted leaves ``path`` absent
or with its old bytes.  A symlinked ``path`` is followed, so the file it
points to is replaced and the link stays, and a replaced file keeps its
permission bits.  A target that exists and is not a regular file (a FIFO,
a device) is written in place, since it cannot be replaced, and so is the
process's own stdout (``/dev/fd/1``) when it is a regular file: replacing that
file would leave the descriptor on an unlinked copy and the name resolved
through it pointing nowhere.
"""

import os
import stat
from contextlib import contextmanager


def is_stdout(path) -> bool:
    """Whether path names the file this process's standard output (fd 1) writes to."""
    try:
        named, out = os.stat(path), os.fstat(1)
    except OSError:
        return False
    return (named.st_dev, named.st_ino) == (out.st_dev, out.st_ino)


@contextmanager
def atomic_open(path, binary: bool = False):
    """File handle whose contents land at path on a clean exit: text (newline="") or binary."""
    path = os.fspath(path)
    mode, newline = ("wb", None) if binary else ("w", "")
    try:
        st_mode = os.stat(path).st_mode
    except FileNotFoundError:
        st_mode = None
    if st_mode is not None and (not stat.S_ISREG(st_mode) or is_stdout(path)):
        with open(path, mode, newline=newline) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, mode, newline=newline)
    except OSError as exc:
        exc.filename = path  # report the file the caller asked for
        raise
    try:
        with fh:
            yield fh
        if st_mode is not None:
            os.chmod(tmp, stat.S_IMODE(st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
