"""File I/O and phase timing, shared by sealing, unsealing, the CLI and the benchmark.

Reading: ``_open_input`` is the one place where a model or an artifact is
opened for reading. It yields the input's size, which is 0 unless the
input is a regular file. A sized input is read with ``_read_exactly``
and ``_check_ended``, which refuse a file that changed size meanwhile.
An input of size 0 (a FIFO, ``/dev/stdin``, or a procfs pseudo-file,
whose size reads 0) is read by ``_read_whole`` into a buffer from
``crypto._growing_buffer``, which it grows until the input ends: on
Linux a mapping that ``mremap`` moves rather than copies, so no resize
leaves plaintext behind in freed memory. An OSError from reading is
raised as IoError naming the path.

Writing: every output (the artifact, its manifest, ``mvc unseal --out``)
goes through ``_atomic_output``: a new or regular path is written to a
temp file and renamed over it, and keeps its mode; a FIFO, device or
symlink is written through. Nothing is fsynced: the rename is atomic,
but after a power loss it may survive while the data does not. ext4
(``auto_da_alloc``) starts the temp file's writeback inside a rename
that replaces a file, and that wait is part of the rename.

The rename of a replacing output does not free the file it replaces
either. Freeing the blocks of a file that has reached the disk is a
wait in the kernel (ext4 mounted ``discard`` makes it a long one), and
it falls on whoever drops the last reference to the inode. So
``_atomic_output`` opens the old file with ``O_PATH`` just before the
rename, which then only unlinks a name, and closes that fd on a
short-lived daemon thread: the freeing overlaps the caller's next work,
and the replaced file's space comes back a few ms after ``seal_file``
returns (a short-lived process pays it at exit). A child forked in that
window holds the fd until it exits or execs. Where ``O_PATH`` does not
exist, the rename frees the file itself.

Timing: ``_Phases`` adds the wall time of named phases, each read from
``_now_ms``.
"""

from __future__ import annotations

import contextlib
import os
import stat
import tempfile
import threading
import time

from .errors import IoError

# A pipe holds 64 KiB by default, so a larger read from one gains nothing.
_PIPE_READ = 64 * 1024


def _now_ms() -> float:
    return time.perf_counter_ns() / 1e6


class _Phases(dict):
    """Milliseconds spent in each named phase of one operation.

    ``_Phases("hash_ms", "encrypt_ms")`` starts both phases at 0, and
    ``with phases("hash_ms"):`` adds the block's wall time to that phase.
    Blocks may nest; each adds its own time.
    """

    def __init__(self, *names: str):
        super().__init__(dict.fromkeys(names, 0.0))

    def __call__(self, name: str) -> "_Timed":
        return _Timed(self, name)


class _Timed:
    """One timed block of a ``_Phases``.

    A plain class rather than a generator context manager, which costs
    about twice as much per block: a streamed seal times several blocks
    per 256 KiB of the model.
    """

    __slots__ = ("phases", "name", "start")

    def __init__(self, phases: _Phases, name: str):
        self.phases = phases
        self.name = name

    def __enter__(self) -> None:
        self.start = _now_ms()

    def __exit__(self, *exc) -> None:
        self.phases[self.name] += _now_ms() - self.start


@contextlib.contextmanager
def _reading(path):
    """Raise an OSError from reading ``path`` as IoError."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}", path=str(path)) from exc


@contextlib.contextmanager
def _open_input(path):
    """Open ``path`` unbuffered for reading; yield ``(file, its stat, size)``.

    ``size`` is the file's size if it is a regular file and 0 otherwise.
    The file is closed after the block.
    """
    with _reading(path):
        source = open(path, "rb", buffering=0)
    with source:
        with _reading(path):
            info = os.fstat(source.fileno())
        yield source, info, info.st_size if stat.S_ISREG(info.st_mode) else 0


def _changed_error(path, action: str) -> IoError:
    return IoError(f"file {path} changed while it was being {action}", path=str(path))


def _read_exactly(source, buf, path, action: str) -> None:
    """Fill ``buf`` from ``source``; IoError if ``path`` ends first, as when it shrank."""
    with memoryview(buf) as view, _reading(path):
        filled = 0
        while filled < len(view):
            n = source.readinto(view[filled:])
            if not n:
                raise _changed_error(path, action)
            filled += n


def _check_ended(source, path, action: str) -> None:
    """IoError unless ``source`` is at its end, as it is not when ``path`` grew."""
    with _reading(path):
        if source.read(1):
            raise _changed_error(path, action)


def _read_whole(source, buf, path, room: int = 0):
    """Read all of ``source``, of unknown size, into ``buf``; return it with ``room`` behind.

    ``buf``, from ``_growing_buffer``, is the caller's: it allocates it and
    wipes it, also when this raises. It is grown whenever it is full, by
    an eighth and at least a pipe's worth, read into straight until the
    input ends, and cut to what was read and ``room`` zeroed bytes more.
    An empty input with no room returns an empty ``bytearray`` instead,
    as a buffer cannot be cut to nothing; nothing was read into ``buf``
    then.
    """
    filled = 0
    with _reading(path):
        while True:
            if filled == len(buf):
                buf.resize(filled + max(_PIPE_READ, filled >> 3))  # no view is held across it
            with memoryview(buf) as view, view[filled:] as free:
                n = source.readinto(free)
            if not n:
                break
            filled += n
        if not filled + room:
            return bytearray()
        buf.resize(filled + room)
    return buf


def _hold(path) -> int | None:
    """An ``O_PATH`` fd on the file at ``path``, keeping its inode alive; None if none.

    It needs no permission on the file itself. Where ``O_PATH`` does not
    exist (an AttributeError), or the open fails, nothing is held.
    """
    try:
        return os.open(path, os.O_PATH | os.O_NOFOLLOW | os.O_CLOEXEC)
    except (AttributeError, OSError):
        return None


def _release(fd: int) -> None:
    """Close ``fd`` on a short-lived daemon thread of its own.

    Closing the last reference to an unlinked file frees its blocks, which
    ext4 with online discard makes the caller wait for; ``os.close``
    releases the GIL, so that wait overlaps whatever the caller does next.
    If no thread can be started, ``fd`` is closed here.
    """
    try:
        threading.Thread(target=os.close, args=(fd,), name="modelvault-release",
                         daemon=True).start()
    except RuntimeError:
        os.close(fd)


@contextlib.contextmanager
def _atomic_output(path, phases: _Phases | None = None):
    """Yield a binary file whose contents end up at ``path``, a ``Path``.

    A new or regular ``path`` is written through a temp file beside it,
    which takes the permission bits of the file it replaces (a new file
    stays 0600) and is renamed over ``path`` after the block; on any
    exception, interrupts included, the temp file is removed and ``path``
    is left as it was. Anything else, such as a FIFO, a device or a
    symlink, is opened and written through as it stands, since renaming
    over it would replace the node itself. An OSError is raised as IoError.

    The file a temp file replaces is held open across the rename
    (``_hold``) and closed on another thread (``_release``), or at once if
    the rename fails. Everything here but the block is timed into
    ``phases["commit_ms"]``, if given.
    """
    phases = _Phases("commit_ms") if phases is None else phases
    tmp_name = None
    try:
        with phases("commit_ms"):
            old = None
            with contextlib.suppress(FileNotFoundError):
                old = os.lstat(path)
            if old is not None and not stat.S_ISREG(old.st_mode):
                handle = open(path, "wb")
            else:
                fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                                                suffix=".tmp")
                handle = os.fdopen(fd, "wb")
        replacing = tmp_name is not None and old is not None
        with handle:
            if replacing:
                with phases("commit_ms"):
                    os.chmod(tmp_name, stat.S_IMODE(old.st_mode))
            yield handle
            with phases("commit_ms"):
                handle.close()
                if tmp_name is not None:
                    held = _hold(path) if replacing else None
                    try:
                        os.replace(tmp_name, path)
                    except BaseException:
                        if held is not None:
                            os.close(held)
                        raise
                    if held is not None:
                        _release(held)
    except BaseException as exc:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc.strerror or exc}", path=str(path)) from exc
        raise
