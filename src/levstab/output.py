"""File products: the one place where CSV and JSON files are written, and
where work runs in a child process.

CSV numbers carry 17 significant digits, enough to round-trip every
float64, so a CSV product reloads to the exact values that were computed.
JSON products are indented and key-sorted, so equal payloads give equal
bytes.  Each file is written beside its path and renamed into place
(``_placed``), so it appears whole or not at all.

A long CSV of float columns can also be streamed with :func:`csv_stream`:
its rows go as raw float64 frames to a writer, a child process, which
formats them with ``write_csv``'s row formatter while the caller computes
the next ones.  A stream too short for the writer to pay, or one with no
second CPU to run it on, is not streamed: ``csv_stream`` yields no sink,
and the caller writes the whole file with ``write_csv``.

:func:`fork` starts every child levstab runs, this writer and the map
sweep's chunks alike, and :func:`reap` ends it: a child leaves by
``os._exit``, and one that fails raises ``RuntimeError`` naming how it
ended and what it raised.  :func:`resolve_workers` alone decides how
many processes a command may run.
"""

from __future__ import annotations

import json
import os
import signal
from collections import namedtuple
from contextlib import contextmanager, suppress

import numpy as np

__all__ = ["write_csv", "write_json", "csv_stream", "fork", "reap", "resolve_workers"]

_CSV_BLOCK = 4096  # rows per formatted block
# csv_stream forks a writer only for a plan of at least this many rows.
# Below it the fork costs more than the formatting it takes off the
# caller: for simulate's 9 columns, in two sets of 14 alternating pairs of
# fresh processes per length on a 2-vCPU VM, the forked writer lost by a
# median 5.4-5.5 ms at 1001 rows (5 periods) and 0.9-2.0 ms at 2001 (10),
# broke even at 2201 (11; faster in 6 and 7 of 14) and won by 1.8-1.9 ms
# at 2401 (12; faster in 14 and 13 of 14) and 4.5-5.9 ms at 3801 (19)
_STREAM_ROWS = 2400

# a child of fork: what its errors call it, its pid, this process's end of
# its pipe as a binary file, and the read end of its error pipe
Child = namedtuple("Child", "name pid pipe errors")


def resolve_workers(workers: int | None = None) -> int:
    """How many processes a command may run, its own included: the map
    sweep's chunks, or ``csv_stream``'s writer beside its caller.

    An explicit count, else LEVSTAB_THREADS; 0 or unset means one per
    usable CPU, no count exceeds that, and it is 1 where ``os.fork`` is
    missing.  A negative count raises ``ValueError`` all the same, which
    names LEVSTAB_THREADS when the count, or a value that is no integer,
    came from there."""
    if workers is None:
        env = os.environ.get("LEVSTAB_THREADS", "0")
        try:
            workers = int(env)
        except ValueError:
            workers = -1
        if workers < 0:
            raise ValueError(f"LEVSTAB_THREADS must be a nonnegative integer, got {env!r}")
    elif workers < 0:
        raise ValueError("worker count must be nonnegative")
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus if workers == 0 else min(workers, cpus)


def fork(name, work, *args, reads=False) -> Child:
    """Run ``work(end, *args)`` in a child made by ``os.fork``, where
    ``end`` is the child's end of a new pipe as a binary file: the child
    writes to it, or reads from it if ``reads``.

    The child leaves by ``os._exit``, so it runs no atexit handler and
    flushes none of the stdio buffers it inherited: with status 0 once
    ``work`` has returned, else with 1 after writing ``Type: message`` of
    what it raised to its error pipe.  A fork that fails raises
    ``RuntimeError`` naming the child as ``name`` and the error.  Every
    child must be passed to ``reap``.
    """
    data, errors = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError as err:
        for fd in (*data, *errors):
            os.close(fd)
        raise RuntimeError(f"cannot start {name}: {err}") from err
    theirs, ours = data if reads else data[::-1]
    if pid == 0:
        status = 1
        try:
            os.close(ours)
            os.close(errors[0])
            with open(theirs, "rb" if reads else "wb") as end:
                work(end, *args)
            status = 0
        except BaseException as err:
            os.write(errors[1], " ".join(f"{type(err).__name__}: {err}".split()).encode())
        finally:
            os._exit(status)
    os.close(theirs)
    os.close(errors[1])
    return Child(name, pid, open(ours, "wb" if reads else "rb"), errors[0])


def reap(child: Child, fault: str | None = None, abort: bool = False) -> None:
    """Close ``child``'s pipes and wait for it to exit; with ``abort``,
    kill it first and raise nothing.

    Otherwise a child killed by a signal or exiting nonzero raises
    ``RuntimeError`` that names it and its pid, its signal or status, and
    the ``Type: message`` it raised, if any.  So does a child that exited
    with status 0 in which the caller found a ``fault``, such as messages
    it never sent, which then stands in the error for the status.
    """
    if abort:
        os.kill(child.pid, signal.SIGKILL)
    with suppress(BrokenPipeError):  # rows still buffered for a killed reader
        child.pipe.close()
    with open(child.errors, "rb") as fh:
        cause = fh.read().decode(errors="replace")
    code = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
    if abort or code == 0 and not fault:
        return
    if code < 0:
        how = f"was killed by signal {-code} ({signal.strsignal(-code)})"
    else:
        how = f"exited with status {code}" if code else fault
    raise RuntimeError(f"{child.name} (pid {child.pid}) {how}" + (f": {cause}" if cause else ""))


def _rows(template, columns) -> str:
    """The CSV lines of the equal-length sequences ``columns``, one row
    each formatted by ``template``."""
    return "".join(template % row for row in zip(*columns))


def write_csv(path, header, columns) -> None:
    """Write equal-length columns as CSV rows below ``header``, the
    comma-separated column names.

    A column whose first cell is a string is written verbatim, any other
    as numbers in ``%.17g``, the text of ``format(v, ".17g")``; every line
    ends in a single newline.  Rows are formatted ``_CSV_BLOCK`` at a time
    from ``tolist()`` slices, so memory use does not grow with the row
    count.
    """
    columns = [np.asarray(c) for c in columns]
    n = min((len(c) for c in columns), default=0)
    with _placed(path, "w") as fh:
        fh.write(header + "\n")
        if n == 0:
            return
        template = ",".join("%s" if isinstance(c[0], str) else "%.17g" for c in columns) + "\n"
        for lo in range(0, n, _CSV_BLOCK):
            fh.write(_rows(template, (c[lo : lo + _CSV_BLOCK].tolist() for c in columns)))


@contextmanager
def _placed(path, mode):
    """Yield a file opened in ``mode`` on ``.{name}.{pid}.tmp`` beside
    ``path``, which becomes ``path`` by ``os.replace`` once the ``with``
    block has ended and is removed if it raises; an ``OSError`` of that
    file names ``path`` in its place.  The one way a product is written."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "\n") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as err:
        if err.filename != tmp:
            raise
        # tmp is removed below, so the error names the product
        raise OSError(err.errno, err.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@contextmanager
def csv_stream(path, header, rows):
    """Write a CSV of float columns to ``path`` through a forked writer,
    one block of rows at a time, if the stream is long; else write nothing.

    ``rows`` is the number of rows the caller plans to send.  A plan of at
    least ``_STREAM_ROWS`` rows, where ``resolve_workers()`` allows two
    processes, forks the writer (``fork``) when the stream opens, before
    the first block, and yields ``send(columns)``, which takes a block of
    rows as equal-length float columns, one per name in ``header``, and
    copies them into a frame before it returns; the writer formats every
    block as ``write_csv`` does.  Any other plan yields None and opens no
    file, and the caller writes its rows with ``write_csv`` once it has
    them all: below ``_STREAM_ROWS`` the fork costs more than it saves,
    and one process leaves a writer nothing to overlap.  The file is
    placed as every product is (``_placed``), once the ``with`` block has
    ended and the writer has exited with status 0.  Otherwise the writer
    is killed and reaped and the error propagates; a writer that cannot
    start, failed or stopped reading raises ``RuntimeError`` naming its
    status and what it raised.
    """
    if rows < _STREAM_ROWS or resolve_workers() < 2:
        yield None
        return
    template = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    writer = None
    try:
        with _placed(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            fh.flush()  # a writer inherits the file, and must not inherit the header too
            writer = fork(f"the CSV writer of {path}", _serve, fh, template, reads=True)

            def send(columns):
                block = np.array(columns, dtype=np.float64)
                # a frame, as _serve reads it
                writer.pipe.write(block.shape[1].to_bytes(8, "little") + block.tobytes())

            fault = None
            try:
                yield send
                writer.pipe.close()
            except BrokenPipeError:  # the writer, the pipe's only reader, has exited
                fault = "exited before it had read every row"
            child, writer = writer, None
            reap(child, fault)
    finally:
        if writer is not None:
            reap(writer, abort=True)


def _serve(src, dst, template) -> None:
    """The writer of ``csv_stream``, run in a child of ``fork``: format
    each frame of the binary stream ``src`` as CSV rows by ``template``
    into the binary file ``dst`` until ``src`` ends.

    A frame is the row count n as 8 little-endian bytes, then the block's
    columns one after the other, n native float64 values each.
    """
    width = template.count("%")
    while head := src.read(8):
        n = int.from_bytes(head, "little")
        data = src.read(8 * width * n)
        if len(head) < 8 or len(data) < 8 * width * n:
            raise EOFError("the stream ended inside a frame")
        values = memoryview(data).cast("d")
        # a list, not a generator: zip(*generator) resizes the tuple it builds,
        # which leaves up to 2000 tuples in CPython's free list
        dst.write(_rows(template, [values[i * n : (i + 1) * n] for i in range(width)]).encode())
    dst.flush()


def write_json(path, payload) -> None:
    """Write a JSON document with 2-space indent, sorted keys and a
    trailing newline."""
    with _placed(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
