"""Compare the CLI outputs of the working tree with those of a git revision.

    python tools/compare_outputs.py REV

Extracts ``src/`` at REV with ``git archive`` into a temporary directory and
runs the same matrix of ``levstab`` commands against both source trees:
``ellipses``, ``resonance-chart``, ``steady-state``, ``map`` (default window,
and ``--theta 0``), ``simulate --periods 10`` and ``validate``, each with the
built-in baseline config plus gains 10600/3000 and with the same config on
the hybrid plant (beta 0.01).  Every output file, stdout and the exit code
must match; the only fields ignored are the timings ``seconds`` and
``elapsed_s`` in ``validation.json``.  Prints each difference and exits 1 if
there is any, else 0.  A full run takes a few minutes, mostly ``validate``.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BASELINE = {
    "physical": {"m": 7650.0, "C": 0.05, "R": 9.71, "z0": 0.015},
    "excitation": {"A": 0.005, "Omega": 80.0, "theta": math.pi / 2.0},
    "gains": {"Kp": 10600.0, "Kd": 3000.0},
}
CONFIGS = {"standard": BASELINE, "hybrid": {**BASELINE, "hybrid": {"beta": 0.01}}}
COMMANDS = {
    "ellipses": ["ellipses"],
    "resonance-chart": ["resonance-chart"],
    "steady-state": ["steady-state"],
    "map": ["map"],
    "map-theta0": ["map", "--theta", "0"],
    "simulate": ["simulate", "--periods", "10"],
    "validate": ["validate"],
}
TIMINGS = {"seconds", "elapsed_s"}


def extract_src(rev: str, dest: Path) -> Path:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run(src: Path, argv: list[str], config: Path, out: Path) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "levstab.cli", *argv, "--config", str(config), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        cwd=out.parent,
    )
    return proc.returncode, proc.stdout


def _drop_timings(doc):
    if isinstance(doc, dict):
        return {k: _drop_timings(v) for k, v in doc.items() if k not in TIMINGS}
    if isinstance(doc, list):
        return [_drop_timings(v) for v in doc]
    return doc


def same_file(a: Path, b: Path) -> bool:
    if a.name == "validation.json":
        return _drop_timings(json.loads(a.read_text())) == _drop_timings(json.loads(b.read_text()))
    return a.read_bytes() == b.read_bytes()


def differences(rev_run, work_run) -> list[str]:
    """What differs between two (exit code, stdout, output dir) runs."""
    (rc_a, stdout_a, out_a), (rc_b, stdout_b, out_b) = rev_run, work_run
    diffs = [f"exit code {rc_a} -> {rc_b}"] if rc_a != rc_b else []
    if stdout_a != stdout_b:
        diffs.append("stdout")
    files_a = {p.name for p in out_a.iterdir()}
    files_b = {p.name for p in out_b.iterdir()}
    diffs += [f"{name} only at the revision" for name in sorted(files_a - files_b)]
    diffs += [f"{name} only in the working tree" for name in sorted(files_b - files_a)]
    diffs += [n for n in sorted(files_a & files_b) if not same_file(out_a / n, out_b / n)]
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"rev": extract_src(argv[0], tmp / "rev"), "work": ROOT / "src"}
        for cname, doc in CONFIGS.items():
            config = tmp / f"{cname}.json"
            config.write_text(json.dumps(doc))
            for cmd, args in COMMANDS.items():
                runs = []
                for side, src in trees.items():
                    out = tmp / "out" / side / cname / cmd
                    out.mkdir(parents=True)
                    runs.append((*run(src, args, config, out), out))
                diffs = differences(*runs)
                for d in diffs:
                    print(f"differs: {cname} {cmd}: {d}")
                print(f"{cname} {cmd}: exit {runs[1][0]}, {len(diffs)} difference(s)")
                total += len(diffs)
    print(f"{total} difference(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
