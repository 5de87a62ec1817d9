"""Run the benchmark in alternating parent/change pairs and record the result.

    python tools/bench_pairs.py REV --out BENCH.json [--change REV2] [--pairs N] [--seed S]
                                [--workload W ...]

Each pair runs ``benchmarks/run.py --workload W --seed S+k --seconds T
--trace 0`` once on the parent REV and once on the change: REV2 if given,
else the working tree's tracked and untracked files (``.gitignore``
respected).  Every run gets a fresh copy of its side in a temporary
directory (``git archive`` for a revision), so no bytecode cache or
benchmark output carries over from one run to the next.  Pair k (from 0)
runs the parent first when k is even and the change first when k is odd,
and both sides of pair k use seed S + k.  The workloads, ``T``
(``run_seconds``) and the end-to-end metrics with their directions and
bounds come from ``BENCHMARK.json`` of the working tree; this tool changes
nothing under ``benchmarks/``.

The JSON written to ``--out`` holds the environment (Python and numpy
versions, CPU count and affinity, ``PYTHONDONTWRITEBYTECODE`` and the BLAS
thread variables ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``, None
where unset), the seeds,
every run's result line (``correct``, ``attempted``, ``failed`` and each
metric) and, per workload and metric, each side's median and quartiles
(``statistics.quantiles``, inclusive method), the change's wins out of the
pairs (ties count for neither) and a verdict:

* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound, relative to the parent's median;
* ``unresolved``: the parent's quartile spread, relative to its median,
  exceeds the bound, and not every change run beats every parent run;
* ``held`` otherwise.

``gain`` says whether the pairs would carry a claim: the change wins at
least nine tenths of them and the medians differ by more than the parent's
quartile spread.  The file is rewritten after every pair, so an
interrupted run keeps what it measured.  Prints one line per run and a
summary table.  Exits 1 if any run failed or was not ``correct``, else 0.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# recorded from the environment: bytecode caching and the BLAS thread count
ENV_VARS = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def extract(rev: str | None, dest: Path) -> Path:
    """A copy of the tree at ``rev``, or of the working tree when None."""
    dest.mkdir(parents=True)
    if rev is not None:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
        return dest
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True,
        check=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return dest


def run_once(tree: Path, scratch: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a fresh copy of ``tree``: its JSON result line,
    or ``{"error": ...}`` when it exits non-zero or prints none."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(tree, scratch)
    argv = ["benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(
        [sys.executable, *argv, "--trace", "0"],
        cwd=scratch,
        capture_output=True,
        text=True,
        timeout=10 * seconds + 300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return result


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metric: dict) -> dict | None:
    """One metric over the pairs whose runs both succeeded."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [
        (p["metrics"][name]["value"], c["metrics"][name]["value"])
        for p, c in ((r["parent"], r["change"]) for r in runs)
        if "metrics" in p and "metrics" in c
    ]
    if len(pairs) < 2:
        return None
    parent, change = (quartiles([pair[i] for pair in pairs]) for i in (0, 1))

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    worse_by = (change["median"] - parent["median"]) / parent["median"] * (1 if lower else -1)
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    all_better = all(better(c, p) for _, c in pairs for p, _ in pairs)
    if worse_by > metric["bound"]:
        verdict = "regressed"
    elif spread > metric["bound"] and not all_better:
        verdict = "unresolved"
    else:
        verdict = "held"
    wins = sum(better(c, p) for p, c in pairs)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "pairs": len(pairs),
        "parent": parent,
        "change": change,
        "change_wins": wins,
        "change_worse_by": worse_by,
        "parent_spread": spread,
        "verdict": verdict,
        "gain": wins >= 0.9 * len(pairs)
        and better(change["median"], parent["median"])
        and abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **{name: os.environ.get(name) for name in ENV_VARS},
        "machine": platform.machine(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent revision")
    parser.add_argument("--change", help="the change's revision (default: the working tree)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair k uses SEED + k")
    parser.add_argument("--workload", action="append", help="workload to run (default: all)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    doc = {
        "parent": args.rev,
        "change": args.change or "working tree",
        "command": f"benchmarks/run.py --seconds {seconds} --trace 0",
        "environment": environment(),
        "seeds": [args.seed + k for k in range(args.pairs)],
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"parent": extract(args.rev, tmp / "parent"), "change": extract(args.change, tmp / "change")}
        for workload in workloads:
            runs = []
            doc["workloads"][workload] = {"runs": runs, "metrics": {}}
            for k, seed in enumerate(doc["seeds"]):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], tmp / "run", workload, seed, seconds)
                    ok &= pair[side].get("correct", False) and pair[side].get("failed") == 0
                    shown = {m: v["value"] for m, v in pair[side].get("metrics", {}).items()}
                    print(f"{workload} seed {seed} {side}: {pair[side].get('error') or shown}", flush=True)
                runs.append(pair)
                for metric in bench["end_to_end"]:
                    doc["workloads"][workload]["metrics"][metric["name"]] = summarize(runs, metric)
                Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"| workload | metric | parent {args.rev} | change | change better | verdict |")
    print("|---|---|---|---|---|---|")
    for workload, block in doc["workloads"].items():
        for name, s in block["metrics"].items():
            if s is None:
                continue
            p, c = s["parent"], s["change"]
            print(
                f"| {workload} | `{name}` | {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] | "
                f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] | {s['change_wins']}/{s['pairs']} | "
                f"{s['verdict']} |"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
