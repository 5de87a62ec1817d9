"""Compare the CLI outputs of the working tree with those of a git revision.

    python tools/compare_outputs.py REV

Extracts the tree at REV with ``bench_pairs.extract`` into a temporary
directory and runs the same matrix of ``levstab`` commands against its
``src/`` and the working tree's:
``ellipses``, ``resonance-chart`` (default range and ``--kd=0,1e5``),
``steady-state``, ``map`` (default window, ``--theta 0``, and tongue d's
window of the baseline, ``--kp h1-3k1,h1+3k1
--kd h2-5k2,h2+5k2``, where the engine refines every cell), ``simulate
--periods 10``, ``simulate --periods 19 --perturb 1e-4,5e-5``, ``simulate
--periods 100 --perturb 1e-4,5e-5``, ``simulate --periods 100 --perturb
0,5e-3``, ``simulate --periods 100 --kp 6000 --kd 1000 --perturb=-1e-6,0``
and ``validate`` (at the config's phase, ``--theta=0`` and
``--theta=3.141592653589793``), each with ``levstab.cli.DEFAULT_CONFIG``
plus gains 10600/3000, with the same config on the hybrid plant (beta
0.01), without excitation (A = 0), with an inertia J other than the
uniform bar's, at A = 1e-8, where the tongues are narrow, and with the
excitation given in the kinematic form v, d, which ``parse_config``
converts to Omega = 80 and theta = pi/2 up to rounding, ``dump_config``
writes back as v, d, and ``--theta`` replaces, and with m = 1e-300 and C =
1e300, outside the physical range, which every command refuses as bad
input.  Stdout,
stderr, the exit code and every output file must match byte for byte,
except where the map engine may legitimately move a value in its last
digits:

* ``map.csv``: the classes must be identical and ``max_mu_abs`` must agree
  within ``MU_TOL`` relative to max(1, |mu|); the largest deviation is
  printed;
* ``map_meta.json``: the engine fields of its ``grid`` block
  (``ENGINE_FIELDS``) are printed, not compared; all else must be equal;
* ``validation.json``: the timings ``seconds`` and ``elapsed_s`` are ignored,
  and the deviation between two maps that criterion 9 measures
  (``map_max_mu_dev``) must stay within ``MU_TOL`` on both sides.  Every
  other field that moved is printed with its JSON path, both values and,
  for numbers, their deviation relative to max(1, |value|), and counts as
  one difference; a moved ``map_max_mu_dev`` is printed the same way.

Every JSON product of every run must also be strict JSON: it must parse
with the constants NaN, Infinity and -Infinity refused, which Python's
``json`` writes for non-finite floats but strict parsers reject.  A product
that does not counts as a difference, in either tree.

Every ``map`` and ``simulate`` command also runs once more in the
working tree with ``LEVSTAB_THREADS=1``, in one process: the sweep as one
chunk, and ``trajectory.csv`` formatted in-process however many rows it
plans.  Its exit code, stdout, stderr and every product must equal those
of the working tree's default run, byte for byte, which on two or more
CPUs splits the sweep and forks the CSV writer from ``_STREAM_ROWS``
planned rows on; ``map_meta.json`` is compared apart from ``workers``.
The 35 ``simulate`` reruns add about 9 s to a full run, which took 119 s
on a 2-vCPU VM.

Each command's line also gives its wall time and peak RSS in both trees
(one fresh process each, import included), so a change to how a command
starts, runs or ends shows in the same run that checks the outputs.  The
peak RSS is ``ru_maxrss`` from ``os.wait4``, in MB.  A child's high-water
mark starts at the resident size of the process that forks it, so every
command is started by a small launcher process (``LAUNCHER``), never by
this tool, which holds numpy.  These numbers are informational: no
difference is counted for them.  Prints each difference and exits 1 if
there is any, else 0.  A full run takes about 45 s on 2 vCPUs, mostly
``validate``; the A = 1e-8 config adds about 8 s of it, and the kinematic
one about 9 s.  The out-of-range config added 5.4 s against a revision
whose commands still ran it, of a run that took 97 s on a busier 2-vCPU
VM; once both trees refuse it, it costs about 3.5 s there.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bench_pairs import extract
from levstab import all_ellipses
from levstab.cli import DEFAULT_CONFIG
from levstab.config import parse_config

# the configuration levstab runs without --config, at stable gains
BASELINE = {**DEFAULT_CONFIG, "gains": {"Kp": 10600.0, "Kd": 3000.0}}


def tongue_d_window(doc: dict) -> list[str]:
    """``map`` options for tongue d's window of a config, Kp = h1 +/- 3 k1
    and Kd = h2 +/- 5 k2, computed with the working tree's ``all_ellipses``.
    On the baseline every cell of it needs a refined pass, at 200 or 400
    steps."""
    cfg = parse_config(doc)
    d = all_ellipses(cfg.params, cfg.exc)["d"]
    kp, kd = (d.h1 - 3 * d.k1, d.h1 + 3 * d.k1), (d.h2 - 5 * d.k2, d.h2 + 5 * d.k2)
    return ["--kp={!r},{!r}".format(*kp), "--kd={!r},{!r}".format(*kd)]


# the unexcited and non-uniform-J configs take the battery's two skip paths;
# at A = 1e-8 the tongues' half-widths are 7e-8 to 2e-7 of their centres,
# where a cheaper evaluator of criterion 7's scans has trusted indicator
# values of the wrong sign; the kinematic config is the baseline's
# excitation as v, d, with the caveat the CLI prints as a warning line;
# out-of-range lies outside the physical range, its steady currents per
# unit gap underflowing to 0, so every command takes the bad-input path
CONFIGS = {
    "standard": BASELINE,
    "hybrid": {**BASELINE, "hybrid": {"beta": 0.01}},
    "unexcited": {**BASELINE, "excitation": {**BASELINE["excitation"], "A": 0.0}},
    "non-uniform-J": {**BASELINE, "physical": {**BASELINE["physical"], "J": 7000.0}},
    "narrow-tongue": {**BASELINE, "excitation": {**BASELINE["excitation"], "A": 1e-8}},
    "kinematic": {**BASELINE, "excitation": {"A": 0.005, "v": 38.197186342054884, "d": 0.75}},
    "out-of-range": {**BASELINE, "physical": {**BASELINE["physical"], "m": 1e-300, "C": 1e300}},
}
COMMANDS = {
    "ellipses": ["ellipses"],
    "resonance-chart": ["resonance-chart"],
    "resonance-chart-kd": ["resonance-chart", "--kd=0,1e5"],
    "steady-state": ["steady-state"],
    "map": ["map"],
    "map-theta0": ["map", "--theta", "0"],
    # one window for every config, so that all four run the same cells
    "map-tongue-d": ["map", *tongue_d_window(BASELINE)],
    # 2,001 rows: a plan too short to fork a writer, formatted in-process
    "simulate": ["simulate", "--periods", "10"],
    # 3,801 rows, which the forked writer formats on a run under 20 periods
    "simulate-19": ["simulate", "--periods", "19", "--perturb", "1e-4,5e-5"],
    # a perturbed start makes the step control work, which the steady start does not
    "simulate-perturbed": ["simulate", "--periods", "100", "--perturb", "1e-4,5e-5"],
    # a pitch kick that closes a gap early in the run, so the closure row ends
    # a streamed trajectory.csv
    "simulate-closure": ["simulate", "--periods", "100", "--perturb", "0,5e-3"],
    # weaker gains that let a gap close late (t = 3.054 s on the standard
    # config, after 7,779 rows), so the event step follows steps whose dense
    # output was deferred to a block of samples
    "simulate-late-closure": [
        "simulate", "--periods", "100", "--kp", "6000", "--kd", "1000", "--perturb=-1e-6,0"
    ],
    "validate": ["validate"],
    # the two phases at which criteria 4 and 13 close a tongue
    "validate-theta0": ["validate", "--theta=0"],
    "validate-theta-pi": ["validate", "--theta=3.141592653589793"],
}
TIMINGS = {"seconds", "elapsed_s"}
MU_TOL = 1e-9  # max|mu| agreement of two map engines, relative to max(1, |mu|)
# the engine's own record; "rk4_cells_by_steps" is the older name of
# "cells_by_steps", kept so that a revision from before the rename compares,
# and "workers" depends on the CPUs usable and the sweep's minimum chunk
# size, MIN_CHUNK_CELLS
ENGINE_FIELDS = {
    "method",
    "cells_by_steps",
    "rk4_cells_by_steps",
    "fallback_cells",
    "richardson_max",
    "det_rel_err_max",
    "workers",
}


# Reads one job per line, [argv, env, cwd, stdout file, stderr file], runs
# it with its streams in those files, and answers [exit code, wall time in
# s, peak RSS in MB] on a line.  Its own resident size, about 14 MB, is the
# floor of every peak it reports.
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, env, cwd, out, err = json.loads(line)
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=fo, stderr=fe)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_maxrss / 1024.0]), flush=True)
"""


def run(
    launcher: subprocess.Popen, src: Path, argv: list[str], config: Path, out: Path, threads: str | None = None
) -> tuple[int, str, str, float, float]:
    """Run ``levstab argv`` from ``src`` into ``out`` through ``launcher``,
    with LEVSTAB_THREADS set to ``threads`` if given; returns its exit
    code, stdout, stderr, wall time (s) and peak RSS (MB)."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    if threads is not None:
        env["LEVSTAB_THREADS"] = threads
    cmd = [sys.executable, "-m", "levstab.cli", *argv, "--config", str(config), "--out", str(out)]
    streams = [out.parent / f"{out.name}.{name}" for name in ("stdout", "stderr")]
    launcher.stdin.write(json.dumps([cmd, env, str(out.parent), *map(str, streams)]) + "\n")
    launcher.stdin.flush()
    rc, wall, rss_mb = json.loads(launcher.stdout.readline())
    stdout, stderr = (path.read_text() for path in streams)
    return rc, stdout, stderr, wall, rss_mb


def _drop(doc, keys):
    if isinstance(doc, dict):
        return {k: _drop(v, keys) for k, v in doc.items() if k not in keys}
    if isinstance(doc, list):
        return [_drop(v, keys) for v in doc]
    return doc


def _moved(a, b, path: str = "") -> list[tuple[str, object, object]]:
    """The leaves in which two JSON documents differ, as (JSON path, value
    in a, value in b); a key on one side only is a leaf, and so is a list
    whose length changed."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = [*a, *(k for k in b if k not in a)]
        return [m for k in keys for m in _moved(a.get(k, "(absent)"), b.get(k, "(absent)"), f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [m for i, (u, v) in enumerate(zip(a, b)) for m in _moved(u, v, f"{path}[{i}]")]
    return [] if a == b else [(path.lstrip("."), a, b)]


def _map_deviations(doc) -> list:
    """Every ``map_max_mu_dev`` in a validation report."""
    if isinstance(doc, dict):
        own = [doc["map_max_mu_dev"]] if "map_max_mu_dev" in doc else []
        return own + [d for v in doc.values() for d in _map_deviations(v)]
    if isinstance(doc, list):
        return [d for v in doc for d in _map_deviations(v)]
    return []


def _refuse(constant: str):
    raise ValueError(f"non-strict JSON constant {constant}")


def nonstrict_json(out: Path) -> list[str]:
    """The JSON files in ``out`` that do not parse as strict JSON, with
    NaN, Infinity and -Infinity refused."""
    found = []
    for path in sorted(out.glob("*.json")):
        try:
            json.loads(path.read_text(), parse_constant=_refuse)
        except ValueError:
            found.append(path.name)
    return found


def compare_map_csv(a: Path, b: Path) -> list[str]:
    """Classes exact, max|mu| within MU_TOL; prints the largest deviation."""
    rows_a = [r.split(",") for r in a.read_text().splitlines()]
    rows_b = [r.split(",") for r in b.read_text().splitlines()]
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return ["map.csv header or row count"]
    worst = 0.0
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if ra[:3] != rb[:3]:
            return [f"map.csv cell {ra[:3]} -> {rb[:3]}"]
        mu_a, mu_b = float(ra[3]), float(rb[3])
        if not (math.isnan(mu_a) and math.isnan(mu_b)):
            worst = max(worst, abs(mu_a - mu_b) / max(1.0, abs(mu_a)))
    print(f"  map.csv: classes identical, max|mu| deviates by up to {worst:.3e}")
    return [] if worst <= MU_TOL else [f"map.csv max|mu| deviates by {worst:.3e}"]


def compare_map_meta(a: Path, b: Path) -> list[str]:
    """Equal apart from the engine fields, which are printed."""
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    for key in sorted(ENGINE_FIELDS):
        va, vb = doc_a["grid"].get(key), doc_b["grid"].get(key)
        if va != vb:
            print(f"  map_meta.json grid.{key}: {va!r} -> {vb!r}")
    return [] if _drop(doc_a, ENGINE_FIELDS) == _drop(doc_b, ENGINE_FIELDS) else ["map_meta.json"]


def compare_validation(a: Path, b: Path) -> list[str]:
    """Equal apart from timings, each moved field printed and counted;
    criterion 9's map deviation, printed where it moved, within MU_TOL."""
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    diffs = []
    for path, va, vb in _moved(_drop(doc_a, TIMINGS), _drop(doc_b, TIMINGS)):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (va, vb))
        dev = f", deviation {abs(va - vb) / max(1.0, abs(va)):.3e}" if numbers else ""
        print(f"  validation.json {path}: {va!r} -> {vb!r}{dev}")
        if not path.endswith("map_max_mu_dev"):
            diffs.append(f"validation.json {path}")
    devs = _map_deviations(doc_a) + _map_deviations(doc_b)
    return diffs + ([] if all(d <= MU_TOL for d in devs) else [f"validation.json map_max_mu_dev {devs}"])


def compare_all_but_workers(a: Path, b: Path) -> list[str]:
    """Equal apart from ``workers``, the chunk count of the sweep."""
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    return [] if _drop(doc_a, {"workers"}) == _drop(doc_b, {"workers"}) else [a.name]


COMPARE = {
    "map.csv": compare_map_csv,
    "map_meta.json": compare_map_meta,
    "validation.json": compare_validation,
}
# a run of the working tree in one process against its default run: bytes
# but for the map's chunk count
SPLIT_COMPARE = {"map_meta.json": compare_all_but_workers}


def file_differences(a: Path, b: Path, compare: dict = COMPARE) -> list[str]:
    """What differs between the two files, by ``compare[name]`` where given
    and byte for byte elsewhere; empty if they agree."""
    if a.name in compare:
        return compare[a.name](a, b)
    return [] if a.read_bytes() == b.read_bytes() else [a.name]


def differences(rev_run, work_run, compare: dict = COMPARE) -> list[str]:
    """What differs between two (exit code, stdout, stderr, output dir) runs."""
    (rc_a, *streams_a, out_a), (rc_b, *streams_b, out_b) = rev_run, work_run
    diffs = [f"exit code {rc_a} -> {rc_b}"] if rc_a != rc_b else []
    diffs += [name for name, a, b in zip(("stdout", "stderr"), streams_a, streams_b) if a != b]
    files_a = {p.name for p in out_a.iterdir()}
    files_b = {p.name for p in out_b.iterdir()}
    diffs += [f"{name} only at the revision" for name in sorted(files_a - files_b)]
    diffs += [f"{name} only in the working tree" for name in sorted(files_b - files_a)]
    for name in sorted(files_a & files_b):
        diffs += file_differences(out_a / name, out_b / name, compare)
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    total = 0
    wall = {"rev": 0.0, "work": 0.0}
    launcher = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    with launcher, tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"rev": extract(argv[0], tmp / "rev") / "src", "work": ROOT / "src"}
        for cname, doc in CONFIGS.items():
            config = tmp / f"{cname}.json"
            config.write_text(json.dumps(doc))
            for cmd, args in COMMANDS.items():
                runs, seconds, rss = [], {}, {}
                for side, src in trees.items():
                    out = tmp / "out" / side / cname / cmd
                    out.mkdir(parents=True)
                    rc, stdout, stderr, seconds[side], rss[side] = run(launcher, src, args, config, out)
                    runs.append((rc, stdout, stderr, out))
                    wall[side] += seconds[side]
                diffs = differences(*runs)
                outs = {f"at {argv[0]}": runs[0][3], "here": runs[1][3]}
                if args[0] in ("map", "simulate"):
                    out = tmp / "out" / "work-threads-1" / cname / cmd
                    out.mkdir(parents=True)
                    serial = (*run(launcher, trees["work"], args, config, out, threads="1")[:3], out)
                    alone = differences(runs[1], serial, SPLIT_COMPARE)
                    diffs += [f"{d} (LEVSTAB_THREADS=1 against the default run)" for d in alone]
                    outs["here with LEVSTAB_THREADS=1"] = out
                for where, out in outs.items():
                    diffs += [f"{name} is not strict JSON {where}" for name in nonstrict_json(out)]
                for d in diffs:
                    print(f"differs: {cname} {cmd}: {d}")
                print(
                    f"{cname} {cmd}: exit {runs[1][0]}, {len(diffs)} difference(s), "
                    f"{seconds['rev']:.2f} s, {rss['rev']:.1f} MB at {argv[0]} -> "
                    f"{seconds['work']:.2f} s, {rss['work']:.1f} MB here"
                )
                total += len(diffs)
    print(
        f"{total} difference(s); wall time {wall['rev']:.1f} s at {argv[0]} "
        f"-> {wall['work']:.1f} s here"
    )
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
