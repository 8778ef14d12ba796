"""The package's file conventions: outputs that appear whole or not at all, and UTF-8 input.

``atomic_open(path)`` is the one way the package writes a dataset CSV and
its binary sidecar, a model, a results or summary CSV, an SVG chart or a
manifest.  The bytes go to a temporary file next to the file ``path`` names,
named with the process id, and ``os.replace`` moves it into place only once
it is complete; a write that fails or is interrupted leaves ``path`` absent
or with its old bytes.  A symlinked ``path`` is followed, so the file it
points to is replaced and the link stays, and a replaced file keeps its
permission bits.  ``in_place(path)`` is the one rule for a target written in
place instead, which gets neither a dataset sidecar nor a manifest: one that
exists and is not a regular file (a FIFO, a device), a name of one of the
process's open descriptors (``/dev/fd/N``, ``/proc/self/fd/N``) and the file
of its stdout, also when it is a regular file.  Replacing that file would
leave the descriptor on an unlinked copy and the name resolved through it
pointing at ``<file> (deleted)``.  ``decode_utf8`` names the line of an
input's first byte that is not UTF-8.
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


def names_descriptor(path) -> bool:
    """Whether path is a descriptor's name, /dev/fd/N or /proc/self/fd/N, or a link to one.

    Links are followed one at a time up to the first name inside a descriptor
    directory, so /dev/stderr, a link to /proc/self/fd/2, is one too.
    """
    fd_dirs = {os.path.realpath("/dev/fd"), os.path.realpath("/proc/self/fd")}
    path = os.path.abspath(path)
    for _ in range(40):  # a longer chain of links is a loop
        head, name = os.path.split(path)
        if name.isascii() and name.isdigit() and os.path.realpath(head) in fd_dirs:
            return True
        if not os.path.islink(path):
            return False
        path = os.path.join(head, os.readlink(path))
    return False


def in_place(path) -> bool:
    """Whether atomic_open writes path in place: an existing non-regular file, a descriptor or stdout."""
    return (os.path.exists(path) and not os.path.isfile(path)) or names_descriptor(path) or is_stdout(path)


@contextmanager
def atomic_open(path, binary: bool = False):
    """File handle whose contents land at path on a clean exit: text (newline="") or binary."""
    path = os.fspath(path)
    mode, newline = ("wb", None) if binary else ("w", "")
    if in_place(path):
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
        if os.path.exists(target):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def decode_utf8(raw: bytes, error_type: type[Exception], prefix: str = "") -> str:
    """raw decoded as UTF-8; other bytes raise error_type("<prefix>line N: not UTF-8 text (...)")."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # no UTF-8 multi-byte sequence contains a newline byte
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise error_type(f"{prefix}line {lineno}: not UTF-8 text ({exc.reason})") from None
