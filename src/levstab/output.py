"""File products: the one place where CSV and JSON files are written.

CSV numbers carry 17 significant digits, enough to round-trip every
float64, so a CSV product reloads to the exact values that were computed.
JSON products are indented and key-sorted, so equal payloads give equal
bytes.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["write_csv", "write_json"]

_CSV_BLOCK = 4096  # rows per formatted block


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
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        if n == 0:
            return
        template = ",".join("%s" if isinstance(c[0], str) else "%.17g" for c in columns) + "\n"
        for lo in range(0, n, _CSV_BLOCK):
            rows = zip(*(c[lo : lo + _CSV_BLOCK].tolist() for c in columns))
            fh.write("".join(template % row for row in rows))


def write_json(path, payload) -> None:
    """Write a JSON document with 2-space indent, sorted keys and a
    trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
