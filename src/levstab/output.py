"""File products: the one place where CSV and JSON files are written.

CSV numbers carry 17 significant digits, enough to round-trip every
float64, so a CSV product reloads to the exact values that were computed.
JSON products are indented and key-sorted, so equal payloads give equal
bytes.
"""

from __future__ import annotations

import json

__all__ = ["write_csv", "write_json"]


def write_csv(path, header, columns) -> None:
    """Write equal-length columns as CSV rows below ``header``, the
    comma-separated column names.

    String cells are written verbatim, numbers as ``format(v, ".17g")``;
    every line ends in a single newline.  Rows are formatted one at a
    time, so memory use does not grow with the row count.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(v if isinstance(v, str) else format(v, ".17g") for v in row) + "\n")


def write_json(path, payload) -> None:
    """Write a JSON document with 2-space indent, sorted keys and a
    trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
