"""Output files that appear whole or not at all.

``atomic_open(path)`` is the one way the package writes a dataset CSV, a
model, a results or summary CSV, an SVG chart or a manifest.  The text goes
to a temporary file next to ``path``, named with the process id, and
``os.replace`` moves it into place only once it is complete; a write that
fails or is interrupted leaves ``path`` absent or with its old bytes.  A
target that exists and is not a regular file (a FIFO, ``/dev/stdout``) is
written in place, since it cannot be replaced.
"""

import os
import stat
from contextlib import contextmanager


@contextmanager
def atomic_open(path):
    """Text file handle (newline="") whose contents land at path on a clean exit."""
    path = os.fspath(path)
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", newline="") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", newline="")
    except OSError as exc:
        exc.filename = path  # report the file the caller asked for
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
