#!/usr/bin/env python3
"""Self-check of the benchmark, in about ten seconds.

    python3 benchmarks/selfcheck.py

1. Every metric declared in BENCHMARK.json is the one run.py emits, and it
   prints by name with its unit for every workload in both trace modes; a
   result whose metrics differ from the declared set is refused.
2. Deliberately corrupted outputs are counted as failed: a flipped class in
   map.csv (across stability bands anywhere, and between the two unstable
   classes on a reference-sampled cell), a truncated trajectory.csv, a
   battery criterion marked fail, a non-zero exit code and an invocation
   that overruns its time limit.  Clean outputs of the same runs pass, so
   the gate can neither pass nor fail everything silently.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402  (needs the sources on sys.path)

DIR = run.OUT / "selfcheck"
problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        problems.append(what)


def check_metric_declarations() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared_e2e == run.END_TO_END, "end_to_end names and units match run.END_TO_END")
    expect(declared_layer == run.PER_LAYER, "per_layer names and units match run.PER_LAYER")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workloads match run.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            metrics = {name: (1.25, 3) for name in units}
            lines = run.emit(workload, trace, metrics, 4, 1).splitlines()
            result = json.loads(lines[-1])
            printed = all(
                any(ln.split()[1] == name and f" {unit}" in ln for ln in lines[:-1]) for name, unit in units.items()
            )
            aliases = trace or all(any(f"({a})" in ln for ln in lines) for a in run.ALIASES[workload].values())
            expect(
                printed
                and aliases
                and "failed_frac" in lines[-2]
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and {k: v["unit"] for k, v in result["metrics"].items()} == units,
                f"{workload} trace={int(trace)}: every metric prints by name with its unit",
            )
            try:
                run.emit(workload, trace, dict(list(metrics.items())[1:]), 4, 0)
                refused = False
            except RuntimeError:
                refused = True
            expect(refused, f"{workload} trace={int(trace)}: a missing metric is refused")


def cli(op: dict, k: int) -> tuple[dict, object]:
    cfg_path, out = run._prepare(DIR, k, op)
    res = run.run_process(
        [sys.executable, "-m", "levstab.cli", *run.op_argv(op, cfg_path, out)], 60.0, DIR / f"op-{k}.log"
    )
    return res, out


def check_gate() -> None:
    outcomes = []  # (description, check passed, corrupted)

    def record(desc: str, chk, corrupted: bool) -> None:
        outcomes.append((desc, chk.ok, corrupted))

    # map: a real 6x6 map, then two corruptions of it
    op = dict(run.make_ops("sweep-map", 0)[0], grid=[6, 6], work=36)
    res, out = cli(op, 0)
    record("clean map.csv", checks.check_map(out, op["config"], (6, 6), res["rc"], random.Random(0)), False)
    record("map exit code 3", checks.check_map(out, op["config"], (6, 6), 3, random.Random(0)), True)
    clean = (out / "map.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in clean[1:]]

    def with_class(k: int, cls: str) -> None:
        changed = [",".join(r if i != k else r[:2] + [cls] + r[3:]) for i, r in enumerate(rows)]
        (out / "map.csv").write_text("\n".join(clean[:1] + changed) + "\n")

    cross = next(k for k, r in enumerate(rows) if r[2] != "stable")
    with_class(cross, "stable")
    record("map.csv class flipped across bands", checks.check_map(out, op["config"], (6, 6), 0, random.Random(0)), True)
    seed, k = next(
        (s, k)
        for s in range(100)
        for k in random.Random(s).sample(range(len(rows)), checks.MAP_SAMPLE)
        if rows[k][2] in checks.UNSTABLE
    )
    other = [c for c in checks.UNSTABLE if c != rows[k][2]][0]
    with_class(k, other)
    record(
        "map.csv unstable class swapped on a sampled cell",
        checks.check_map(out, op["config"], (6, 6), 0, random.Random(seed)),
        True,
    )

    # trajectory: a real 5-period simulation, then a truncated copy
    op = dict(run.make_ops("trajectory", 0)[1], periods=5.0, work=5.0)
    res, out = cli(op, 1)
    args = (out, op["config"], 5.0, tuple(op["perturb"]))
    record("clean trajectory.csv", checks.check_trajectory(*args, res["rc"], True), False)
    lines = (out / "trajectory.csv").read_text().splitlines()
    (out / "trajectory.csv").write_text("\n".join(lines[:-20]) + "\n")
    record("trajectory.csv truncated", checks.check_trajectory(*args, 0, False), True)

    # battery: the report layout validate writes, all pass, then one fail
    out = DIR / "battery"
    out.mkdir()
    report = {"criteria": [{"index": i, "status": s} for i, s in checks.BATTERY_EXPECTED.items()]}
    (out / "validation.json").write_text(json.dumps(report))
    record("clean validation.json", checks.check_battery(out, 0), False)
    report["criteria"][6]["status"] = "fail"
    (out / "validation.json").write_text(json.dumps(report))
    record("battery criterion 7 marked fail", checks.check_battery(out, 1), True)

    for desc, ok, corrupted in outcomes:
        expect(ok != corrupted, f"{desc}: counted as {'passed' if ok else 'failed'}")
    attempted, failed = run.tally([{"ok": ok} for _, ok, _ in outcomes])
    expect(failed == sum(c for _, _, c in outcomes), f"failed_frac counts every corruption: {failed}/{attempted}")

    res = run.run_process([sys.executable, "-c", "import time; time.sleep(30)"], 0.5, DIR / "sleep.log")
    expect(res["timed_out"] and res["wall_s"] < 10.0, "an invocation over its time limit is killed and flagged")


def main() -> int:
    shutil.rmtree(DIR, ignore_errors=True)
    DIR.mkdir(parents=True)
    check_metric_declarations()
    check_gate()
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
