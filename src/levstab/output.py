"""File products: the one place where CSV and JSON files are written.

CSV numbers carry 17 significant digits, enough to round-trip every
float64, so a CSV product reloads to the exact values that were computed.
JSON products are indented and key-sorted, so equal payloads give equal
bytes.

A CSV of float columns can also be streamed with :func:`csv_stream`: the
rows of a long stream go as raw float64 frames to a writer process, which
formats them with ``write_csv``'s row formatter while the caller computes
the next ones.  The writer process runs this file as a script on the
standard library alone, which is why numpy, json and contextlib are
imported inside the functions that use them: the writer starts in about
15 ms instead of 30.
"""

from __future__ import annotations

import os
import sys

__all__ = ["write_csv", "write_json", "csv_stream"]

_CSV_BLOCK = 4096  # rows per formatted block
# csv_stream starts a writer process only for a plan of at least this many
# rows.  Below it the writer's start (a fresh interpreter, about 15 ms) costs
# more than the formatting it takes off the caller: for simulate's 9 columns,
# in 16 alternating pairs per length on a 2-vCPU VM, streaming lost by a
# median 11 and 4 ms at 1001 and 2001 rows (5 and 10 periods), broke even at
# 3001 (faster in 9 of 16) and won by 13 and 39 ms at 4001 and 6001 rows
# (20 and 30 periods)
_STREAM_ROWS = 4000
# and only once it holds this many rows: a stream that ends with fewer, such
# as a run that a gap closure ends early, is formatted in-process, 2048 rows
# of 9 columns in about 11 ms, which is about what the writer's start and
# exit cost (14 ms)
_SPAWN_ROWS = 2048
# the writer process of csv_stream: this file as a script, in an
# interpreter that ignores the environment and skips the site module, which
# halves its start-up
_WRITER = (sys.executable, "-I", "-S", os.path.abspath(__file__))


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
    import numpy as np

    columns = [np.asarray(c) for c in columns]
    n = min((len(c) for c in columns), default=0)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        if n == 0:
            return
        template = ",".join("%s" if isinstance(c[0], str) else "%.17g" for c in columns) + "\n"
        for lo in range(0, n, _CSV_BLOCK):
            fh.write(_rows(template, (c[lo : lo + _CSV_BLOCK].tolist() for c in columns)))


def csv_stream(path, header, rows):
    """Write a CSV of float columns to ``path``, one block of rows at a
    time, through a writer process if the stream is long.

    ``rows`` is the number of rows the caller plans to send.  Yields
    ``send(columns)``, which takes a block of rows as equal-length float
    columns, one per name in ``header``, and copies them before it returns.
    The blocks are held until they amount to ``_SPAWN_ROWS`` rows of a plan
    of at least ``_STREAM_ROWS``; then the writer process starts and gets
    them and every later block, which it formats as ``write_csv`` does into
    a temporary file beside ``path``.  A shorter plan, or a stream that
    ends with fewer rows held (a run that a gap closure ends early), is
    formatted in this process by the writer's own code, into the same
    bytes, which spares it the writer's start.  The temporary file becomes
    ``path`` once the ``with`` block has ended and the writer, if it
    started, has exited with status 0.  Otherwise the writer is killed and
    reaped, the temporary file is removed and the error propagates; a
    writer that failed or stopped reading raises ``RuntimeError`` with its
    exit status and the last line of its stderr.
    """
    from contextlib import contextmanager

    return contextmanager(_stream)(path, header, rows)


def _stream(path, header, rows):
    """The generator behind ``csv_stream``."""
    import io
    import subprocess

    import numpy as np

    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    # what the writer reads (see _serve) and has not yet been sent: the
    # header line and the frames of the rows held before it starts
    held = [header.encode() + b"\n"]
    held_rows = 0
    writer = None

    def send(columns):
        nonlocal writer, held_rows
        block = np.array(columns, dtype=np.float64)
        frame = block.shape[1].to_bytes(8, "little") + block.tobytes()
        if writer is not None:
            writer.stdin.write(frame)
            return
        held.append(frame)
        held_rows += block.shape[1]
        if rows < _STREAM_ROWS or held_rows < _SPAWN_ROWS:
            return
        try:
            with open(tmp, "wb") as fh:
                writer = subprocess.Popen(_WRITER, stdin=subprocess.PIPE, stdout=fh, stderr=subprocess.PIPE)
        except OSError as err:
            raise RuntimeError(f"cannot start the CSV writer of {path}: {err}") from err
        writer.stdin.write(b"".join(held))
        held.clear()

    try:
        try:
            yield send
            if writer is None:  # the writer's work, done here
                with open(tmp, "wb") as fh:
                    _serve(io.BytesIO(b"".join(held)), fh)
                os.replace(tmp, path)
                return
            writer.stdin.close()
            complete = True
        except BrokenPipeError:  # the writer, the pipe's only reader, has exited
            if writer is None:
                raise
            complete = False
        status = writer.wait()
        if status != 0 or not complete:
            if status < 0:
                what = f"was killed by signal {-status}"
            elif status > 0:
                what = f"exited with status {status}"
            else:
                what = "exited before it had read every row"
            lines = writer.stderr.read().decode(errors="replace").strip().splitlines()
            raise RuntimeError(f"the CSV writer of {path} {what}" + (f": {lines[-1]}" if lines else ""))
        os.replace(tmp, path)
    finally:
        if writer is not None:
            if writer.returncode is None:
                writer.kill()
                writer.wait()
            try:
                writer.stdin.close()
            except BrokenPipeError:  # rows still buffered for the killed writer
                pass
            writer.stderr.close()
        if os.path.exists(tmp):
            os.unlink(tmp)


def _serve(src, dst) -> None:
    """The writer of ``csv_stream``, run in its process, or in the caller's
    for a stream too short to start it: copy the header line from the
    binary stream ``src`` to ``dst``, then format each frame that follows
    as CSV rows into ``dst`` until ``src`` ends.

    A frame is the row count n as 8 little-endian bytes, then the block's
    columns one after the other, n native float64 values each.
    """
    header = src.readline()
    dst.write(header)
    k = header.count(b",") + 1
    template = ",".join(["%.17g"] * k) + "\n"
    while head := src.read(8):
        n = int.from_bytes(head, "little")
        data = src.read(8 * k * n)
        if len(head) < 8 or len(data) < 8 * k * n:
            raise EOFError("the stream ended inside a frame")
        values = memoryview(data).cast("d")
        dst.write(_rows(template, (values[i * n : (i + 1) * n] for i in range(k))).encode())
    dst.flush()


def write_json(path, payload) -> None:
    """Write a JSON document with 2-space indent, sorted keys and a
    trailing newline."""
    import json

    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _serve(sys.stdin.buffer, sys.stdout.buffer)
