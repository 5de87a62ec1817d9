#!/usr/bin/env python3
"""levstab benchmark: the CLI as users run it, on seeded workloads.

Usage, from the repository root:

    python3 benchmarks/run.py --workload sweep-map --seed 1 --seconds 20 --trace 0

Workloads (see ``benchmarks/README.md`` for why each exists):

* ``sweep-map``   ``levstab map`` at the default window, 21x21 and 26x26 grids;
* ``trajectory``  ``levstab simulate`` over 100 periods, standard and hybrid.

With ``--trace 0`` each operation is one fresh ``python -m levstab.cli``
process, run one at a time with the sweep pool at its default worker count,
until ``--seconds`` are used up; every timing is the median over the run's
operations.  With ``--trace 1`` a fixed subset of the same operations runs
in-process through ``levstab.cli.main``, each once plain and once with the
spans of ``spans.py`` installed, pinned to one sweep worker; the sweep-map
traced run also traces one ``levstab validate``, the only user of the
bisection, finite-difference and validation layers.
Every output is checked against the references in ``checks.py`` after the
timed region.  The last line of standard output is the JSON result; the
full record (seed, every config and argv, timings, environment, spans) is
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep-map", "trajectory")
BASE_PHYSICAL = {"m": 7650.0, "C": 0.05, "R": 9.71, "z0": 0.015}
SETUP_REPEATS = 3
SIM_PERIODS = 100.0
# phase lags of a run: THETA_STRATA evenly spaced over (0, pi], shifted by
# one seeded offset, so every run covers (0, pi] alike
THETA_STRATA = {"sweep-map": 2, "trajectory": 6}
# a cycle runs every config once in each shape; a run makes whole cycles,
# because one map's wall time moves by up to 30 % with theta
CYCLES = 8  # more than any run can make in 60 s
LIMIT_S = {"map": 60.0, "validate": 120.0, "simulate": 60.0}  # per invocation

# metric name -> unit; must match BENCHMARK.json (selfcheck.py verifies)
END_TO_END = {
    "setup_s": "s",
    "latency_s": "s",
    "rate_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "linearized.at_us": "us",
    "linearized.at_calls": "count",
    "linearized.fd_jacobian_ms": "ms",
    "plant.steady_state_us": "us",
    "plant.rhs_us": "us",
    "plant.rhs_calls": "count",
    "plant.integrate_self_s": "s",
    "plant.write_trajectory_csv_s": "s",
    "floquet.monodromy_ms": "ms",
    "floquet.monodromy_calls": "count",
    "floquet.monodromy_nfev": "count",
    "floquet.monodromy_self_ms": "ms",
    "floquet.sweep_cells_per_s_w1": "1/s",
    "floquet.sweep_cells_per_s_auto": "1/s",
    "floquet.write_map_s": "s",
    "floquet.cell_errors": "count",
    "floquet.crossings_s": "s",
    "floquet.crossing_yield": "ratio",
    "floquet.mu_dev_max": "rel",
    "floquet.class_mismatch": "count",
    "validation.run_battery_s": "s",
    "validation.tongue_edges_s": "s",
    "validation.pick_stable_gains_s": "s",
    "boundaries.all_ellipses_us": "us",
    "config.load_ms": "ms",
    "cli.cmd_self_s": "s",
    "trace.overhead_frac": "ratio",
}
# the names the end-to-end metrics carry on each workload
ALIASES = {
    "sweep-map": {"latency_s": "map_s", "rate_per_s": "cells_per_s"},
    "trajectory": {"latency_s": "simulate_s", "rate_per_s": "periods_per_s"},
}
# per-layer metrics of the validate the sweep-map traced run adds
BATTERY_LAYERS = (
    "linearized.fd_jacobian_ms",
    "floquet.crossings_s",
    "floquet.crossing_yield",
    "validation.run_battery_s",
    "validation.tongue_edges_s",
    "validation.pick_stable_gains_s",
)


# ---------------------------------------------------------------- inputs


def _excitation(rng: random.Random, theta_lo: float, theta_hi: float, spread: float) -> dict:
    return {
        "A": 0.005 * rng.uniform(1.0 - spread, 1.0 + spread),
        "Omega": 80.0 * rng.uniform(1.0 - spread, 1.0 + spread),
        "theta": theta_hi - (theta_hi - theta_lo) * rng.random(),  # in (lo, hi]
    }


def _configs(rng: random.Random, strata: int) -> list[dict]:
    """One config per phase-lag stratum: theta = pi (j + u) / strata with a
    shared seeded u in (0, 1], A and Omega within 5 % of the baseline."""
    u = 1.0 - rng.random()
    docs = []
    for j in range(strata):
        exc = _excitation(rng, 0.0, 0.0, 0.05)
        exc["theta"] = math.pi * (j + u) / strata
        docs.append({"physical": BASE_PHYSICAL, "excitation": exc})
    return docs


def make_ops(workload: str, seed: int) -> list[dict]:
    """The seeded operation list.  A run executes its first whole cycles.

    The operations cycle through the run's configs, so that every run meets
    the whole range of phase lags and its medians do not hinge on one draw.
    Each op carries the index of its cycle."""
    rng = random.Random(f"levstab-bench:{workload}:{seed}")
    docs = _configs(rng, THETA_STRATA[workload])
    ops = []
    if workload == "sweep-map":
        # 21x21 and 26x26 maps alternate; the two sizes take the configs in
        # different orders
        for k in range(2 * len(docs) * CYCLES):
            grid = 21 if k % 2 == 0 else 26
            c = (k // 2) % len(docs) if grid == 21 else (k // 2 + len(docs) // 2) % len(docs)
            cycle = k // (2 * len(docs))
            ops.append(
                {"kind": "map", "cfg": c, "cycle": cycle, "config": docs[c], "grid": [grid, grid], "work": grid * grid}
            )
    elif workload == "trajectory":
        for c, doc in enumerate(docs):  # odd strata run the hybrid plant
            if c % 2:
                doc["hybrid"] = {"beta": rng.uniform(0.005, 0.015)}
            doc["gains"] = _stable_gains(doc)
        perturbs = [[rng.uniform(-2e-4, 2e-4), rng.uniform(-1e-4, 1e-4)] for _ in docs]
        for k in range(len(docs) * CYCLES):
            c = k % len(docs)
            ops.append(
                {
                    "kind": "simulate",
                    "cfg": c,
                    "cycle": k // len(docs),
                    "config": docs[c],
                    "periods": SIM_PERIODS,
                    "perturb": perturbs[c],
                    "work": SIM_PERIODS,
                }
            )
    else:
        raise ValueError(workload)
    return ops


def battery_op(seed: int) -> dict:
    """The validate the sweep-map traced run adds, at a config within 5 % of
    the baseline and theta in [0.45 pi, 0.55 pi], where all 13 criteria pass."""
    rng = random.Random(f"levstab-bench:battery:{seed}")
    exc = _excitation(rng, 0.45 * math.pi, 0.55 * math.pi, 0.05)
    return {"kind": "validate", "cfg": 0, "config": {"physical": BASE_PHYSICAL, "excitation": exc}, "work": 13}


def _stable_gains(doc: dict) -> dict:
    """First candidate gain point the reference engine finds Floquet-stable
    for the configured plant (candidates as in validation.pick_stable_gains)."""
    import numpy as np
    from checks import EPS, reference_multipliers
    from levstab.boundaries import all_ellipses, static_boundary_lines
    from levstab.config import parse_config

    cfg = parse_config(doc)
    lines = static_boundary_lines(cfg.params)
    kd0 = all_ellipses(cfg.params, cfg.exc)["a"].h2
    for f in (2.0, 1.4, 2.6, 3.2):
        kp, kd = lines.h0 + 0.5 * lines.slope * f * kd0, f * kd0
        if np.max(np.abs(reference_multipliers(doc, kp, kd))) < 1.0 - EPS:
            return {"Kp": kp, "Kd": kd}
    raise RuntimeError(f"no Floquet-stable gains for {doc}")


def op_argv(op: dict, config_path: Path, out: Path) -> list[str]:
    argv = [op["kind"], "--config", str(config_path.relative_to(ROOT)), "--out", str(out.relative_to(ROOT))]
    if op["kind"] == "map":
        argv += ["--grid", "{},{}".format(*op["grid"])]
    elif op["kind"] == "simulate":
        argv += ["--periods", repr(op["periods"]), "--perturb={!r},{!r}".format(*op["perturb"])]
    return argv


# ------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LEVSTAB_THREADS", None)  # the pool's default worker count
    return env


def run_process(cmd: list[str], limit: float, log: Path) -> dict:
    """Run one process in its own session; kill the session after ``limit``
    seconds.  Returns wall time, exit code and the peak RSS of the process
    and its waited-for children (the sweep workers)."""
    timed_out = threading.Event()
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT, start_new_session=True
        )

        def kill():
            timed_out.set()
            _kill_session(proc.pid)

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_session(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_session(proc.pid)  # stray grandchildren, if any
    return {
        "wall_s": wall,
        "rc": proc.returncode,
        "timed_out": timed_out.is_set(),
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def _kill_session(pgid: int) -> None:
    """SIGKILL every process of a session and wait until none is left."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ---------------------------------------------------------------- checks


def check_op(op: dict, out: Path, rc: int, rng: random.Random, cache: dict, reference: bool):
    import checks

    try:
        if op["kind"] == "map":
            return checks.check_map(out, op["config"], tuple(op["grid"]), rc, rng, cache)
        if op["kind"] == "validate":
            return checks.check_battery(out, rc)
        return checks.check_trajectory(out, op["config"], op["periods"], tuple(op["perturb"]), rc, reference)
    except Exception as err:  # a reference the program can no longer feed fails the operation
        return checks.Check(False, f"check raised {type(err).__name__}: {err}")


# ----------------------------------------------------------------- runs


def median_n(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


def run_untraced(workload: str, ops: list[dict], seconds: float, rundir: Path, record: dict) -> dict:
    def run_op(k: int, tag: str = "") -> dict:
        cfg_path, out = _prepare(rundir, k, ops[k], tag)
        cmd = [sys.executable, "-m", "levstab.cli", *op_argv(ops[k], cfg_path, out)]
        return {"op": k, "tag": tag, **run_process(cmd, LIMIT_S[ops[k]["kind"]], rundir / f"op-{k:02d}{tag}.log")}

    def run_import() -> float:
        res = run_process([sys.executable, "-c", "import levstab.cli"], 60.0, rundir / "setup.log")
        if res["rc"] != 0:
            raise RuntimeError(f"importing levstab.cli failed; see {rundir / 'setup.log'}")
        return res["wall_s"]

    # untimed warm-up: the first import writes the bytecode cache, and one
    # operation loads what the command imports lazily
    run_import()
    results = [run_op(0, "-warmup")]
    # set-up: a fresh interpreter importing levstab.cli, as every invocation pays
    imports = [run_import() for _ in range(SETUP_REPEATS)]

    begin = time.perf_counter()
    cycle_s = []
    for cycle in range(CYCLES):  # a new cycle starts only if one still fits
        if cycle_s and time.perf_counter() - begin + statistics.median(cycle_s) > seconds:
            break
        start = time.perf_counter()
        results += [run_op(k) for k, op in enumerate(ops) if op["cycle"] == cycle]
        cycle_s.append(time.perf_counter() - start)
    record["measured_s"] = time.perf_counter() - begin

    cache: dict = {}
    for k, r in enumerate(results):
        op = ops[r["op"]]
        out = rundir / f"op-{r['op']:02d}{r['tag']}"
        # the rtol 1e-12 reference costs more than the run it checks: one per
        # run, on the first standard or hybrid timed simulation by seed parity
        reference = op["kind"] != "simulate" or k == 1 + record["seed"] % 2
        rng = _check_rng(workload, record["seed"], op)
        chk = check_op(op, out, r["rc"], rng, cache, reference) if not r["timed_out"] else None
        r["ok"] = chk is not None and chk.ok
        r["check"] = {"reason": "timed out"} if chk is None else {"reason": chk.reason, **chk.detail}
        if r["ok"]:
            shutil.rmtree(out, ignore_errors=True)

    timed = [r for r in results if r["tag"] == ""]
    head = [r for r in timed if _shape(ops[r["op"]]) == _headline(workload)]
    rate = [r for r in timed if _shape(ops[r["op"]]) == _rate_shape(workload)]
    metrics = {
        "setup_s": median_n(imports),
        "latency_s": median_n([r["wall_s"] for r in head]),
        "rate_per_s": median_n([ops[r["op"]]["work"] / r["wall_s"] for r in rate]),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), len(results)),
    }
    record["ops_run"] = results
    record["setup_import_s"] = imports
    return metrics


def _shape(op: dict):
    return (op["kind"], tuple(op.get("grid", ())))


def _headline(workload: str):
    return {"sweep-map": ("map", (21, 21)), "trajectory": ("simulate", ())}[workload]


def _rate_shape(workload: str):
    return ("map", (26, 26)) if workload == "sweep-map" else _headline(workload)


def _check_rng(workload: str, seed: int, op: dict) -> random.Random:
    """The same map cells are sampled on every map of one config and grid,
    so their references are computed once."""
    return random.Random(f"levstab-check:{workload}:{seed}:{op['kind']}:{op['cfg']}:{op.get('grid')}")


def config_path(rundir: Path, op: dict) -> Path:
    return rundir / f"config-{op['kind']}-{op['cfg']}.json"


def _prepare(rundir: Path, k: int, op: dict, tag: str = "") -> tuple[Path, Path]:
    cfg_path = config_path(rundir, op)
    if not cfg_path.exists():
        cfg_path.write_text(json.dumps(op["config"], indent=2, sort_keys=True) + "\n")
    out = rundir / f"op-{k:02d}{tag}"
    out.mkdir(parents=True, exist_ok=True)
    return cfg_path, out


def trace_ops(workload: str) -> list[int]:
    """Indices of the operations the traced run repeats in-process, once
    plain and once traced."""
    if workload == "sweep-map":
        return [0, 1]  # one 21x21 and one 26x26 map
    return [0, 1, 2, 3]  # two standard and two hybrid simulations


def run_traced(workload: str, ops: list[dict], rundir: Path, record: dict) -> tuple[dict, list]:
    from spans import Tracer

    import levstab.cli
    from levstab.config import parse_config
    from levstab.floquet import sweep

    os.environ["LEVSTAB_THREADS"] = "1"  # every cell's spans stay in this process
    chosen = trace_ops(workload)

    def run_one(k: int, tag: str, main) -> tuple[float, int]:
        cfg_path, out = _prepare(rundir, k, ops[k], tag)
        with open(rundir / f"op-{k:02d}{tag}.log", "w") as log:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                start = time.perf_counter()
                try:
                    rc = main(op_argv(ops[k], cfg_path, out))
                except Exception as err:  # an operation that raises is a failed one
                    print(f"{type(err).__name__}: {err}", file=log)
                    rc = -1
                return time.perf_counter() - start, rc

    def run_traced_one(k: int, tracer: Tracer) -> tuple[float, int]:
        tracer.install()
        try:
            return run_one(k, "-traced", tracer.span("cli.main", levstab.cli.main))
        finally:
            tracer.remove()

    # plain and traced passes alternate per operation, so drift in the
    # machine's speed falls on both sides of trace.overhead_frac alike
    tracer = Tracer()
    plain_s = traced_s = 0.0
    plain_rc, traced_rc = [], []
    for k in chosen:
        wall, rc = run_one(k, "-plain", levstab.cli.main)
        plain_s += wall
        plain_rc.append(rc)
        wall, rc = run_traced_one(k, tracer)
        traced_s += wall
        traced_rc.append(rc)
    # the validate, traced once with a tracer of its own, so that the map
    # metrics stay those of the maps
    battery = [k for k, op in enumerate(ops) if op["kind"] == "validate"]
    battery_tracer = Tracer()
    battery_rc = [run_traced_one(k, battery_tracer)[1] for k in battery]

    probes = {"w1": 0.0, "auto": 0.0}
    if workload == "sweep-map":
        for name, workers in (("w1", 1), ("auto", 0)):  # 0: one worker per CPU
            cells, wall = 0, 0.0
            for k in chosen:
                cfg = parse_config(ops[k]["config"])
                kp_range, kd_range = _default_window(cfg)
                start = time.perf_counter()
                sweep(cfg.params, cfg.exc, kp_range, kd_range, *ops[k]["grid"], hyb=cfg.hybrid, workers=workers)
                wall += time.perf_counter() - start
                cells += ops[k]["work"]
            probes[name] = cells / wall

    cache: dict = {}
    checked = []
    passes = (("-plain", chosen, plain_rc), ("-traced", chosen, traced_rc), ("-traced", battery, battery_rc))
    for tag, indices, rcs in passes:
        for k, rc in zip(indices, rcs):
            out = rundir / f"op-{k:02d}{tag}"
            rng = _check_rng(workload, record["seed"], ops[k])
            # one final-state reference per simulation, on its traced output
            chk = check_op(ops[k], out, rc, rng, cache, reference=tag == "-traced")
            checked.append({"op": k, "pass": tag[1:], "rc": rc, "ok": chk.ok, "check": {"reason": chk.reason, **chk.detail}})
            if chk.ok:
                shutil.rmtree(out, ignore_errors=True)

    metrics = layer_metrics(tracer, probes, checked, plain_s, traced_s)
    if battery:
        metrics.update({k: v for k, v in layer_metrics(battery_tracer, probes, [], 1.0, 1.0).items() if k in BATTERY_LAYERS})
    record["ops_run"] = checked
    record["trace"] = {
        "pinned_workers": 1,
        "plain_s": plain_s,
        "traced_s": traced_s,
    }
    for name, tr in (("maps_or_simulations", tracer), ("validate", battery_tracer)):
        record["trace"][name] = {
            "stats": {n: _stat_dict(s) for n, s in tr.stats.items()},
            "counters": tr.counters,
            "spans": tr.spans,
        }
    return metrics, checked


def _stat_dict(stat) -> dict:
    return {"calls": stat.calls, "total_s": stat.total, "self_s": stat.self_time}


def _default_window(cfg):
    """The window ``levstab map`` uses when no --kp/--kd range is given."""
    from levstab.boundaries import all_ellipses, static_boundary_lines

    lines = static_boundary_lines(cfg.params)
    ells = all_ellipses(cfg.params, cfg.exc)
    return (0.8 * lines.h0, ells["b"].h1 + 2.0 * ells["b"].k1), (0.1 * ells["a"].h2, 1.3 * ells["b"].h2)


# per-call layer metrics: name -> (span, "total" or "self_time", scale)
PER_CALL = {
    "linearized.at_us": ("linearized.at", "self_time", 1e6),
    "linearized.fd_jacobian_ms": ("linearized.fd_jacobian", "total", 1e3),
    "plant.steady_state_us": ("plant.steady_state", "self_time", 1e6),
    "plant.rhs_us": ("plant.rhs", "self_time", 1e6),
    "plant.integrate_self_s": ("plant.integrate", "self_time", 1.0),
    "plant.write_trajectory_csv_s": ("plant.write_trajectory_csv", "total", 1.0),
    "floquet.monodromy_ms": ("floquet.monodromy", "total", 1e3),
    "floquet.monodromy_self_ms": ("floquet.monodromy", "self_time", 1e3),
    "floquet.crossings_s": ("floquet.boundary_crossings", "total", 1.0),
    "validation.run_battery_s": ("validation.run_battery", "total", 1.0),
    "validation.tongue_edges_s": ("validation.tongue_edges", "total", 1.0),
    "validation.pick_stable_gains_s": ("validation.pick_stable_gains", "total", 1.0),
    "boundaries.all_ellipses_us": ("boundaries.all_ellipses", "total", 1e6),
    "config.load_ms": ("config.load_config", "total", 1e3),
    "cli.cmd_self_s": ("cli.main", "self_time", 1.0),
}


def layer_metrics(tr, probes: dict, checked: list, plain_s: float, traced_s: float) -> dict:
    """name -> (value, calls behind it or None); a layer the run did not
    exercise reports 0."""

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}
    for name, (span, attr, scale) in PER_CALL.items():
        stat = tr.stat(span)
        out[name] = (ratio(getattr(stat, attr), stat.calls) * scale, stat.calls)
    mono = tr.stat("floquet.monodromy")
    maps = tr.stat("floquet.write_map_csv")
    map_checks = [c["check"] for c in checked if "mu_dev_max" in c["check"]]
    bisect_calls = tr.child_calls("floquet.boundary_crossings", "floquet.monodromy")
    out["floquet.write_map_s"] = (
        ratio(maps.total + tr.stat("floquet.write_map_metadata").total, maps.calls),
        maps.calls,
    )
    rest = {
        "linearized.at_calls": tr.stat("linearized.at").calls,
        "plant.rhs_calls": tr.stat("plant.rhs").calls,
        "floquet.monodromy_calls": mono.calls,
        "floquet.monodromy_nfev": ratio(tr.counters.get("monodromy_nfev", 0), mono.calls),
        "floquet.sweep_cells_per_s_w1": probes["w1"],
        "floquet.sweep_cells_per_s_auto": probes["auto"],
        "floquet.cell_errors": tr.counters.get("cell_errors", 0),
        "floquet.crossing_yield": ratio(tr.counters.get("crossings_found", 0), bisect_calls),
        "floquet.mu_dev_max": max((c["mu_dev_max"] for c in map_checks), default=0.0),
        "floquet.class_mismatch": sum(c["class_mismatch"] for c in map_checks),
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
    }
    out.update({k: (v, None) for k, v in rest.items()})
    return {k: out[k] for k in PER_LAYER}


# ----------------------------------------------------------- environment


def environment() -> dict:
    import numpy
    import scipy

    from levstab.floquet import resolve_workers

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "levstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "sweep_workers_default": resolve_workers(0),  # 0: the default, as LEVSTAB_THREADS is unset
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": "shared and unpinned; the benchmark changes no affinity, cgroup or system setting",
    }


# ------------------------------------------------------------------ main


def tally(checked: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over checked operations."""
    return len(checked), sum(not c["ok"] for c in checked)


def emit(workload: str, trace: bool, metrics: dict, attempted: int, failed: int) -> str:
    """Human-readable lines plus the final JSON result line."""
    units = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from the declared {sorted(units)}")
    lines = [f"{workload:<10} traced in-process, pinned to one sweep worker (LEVSTAB_THREADS=1)"] if trace else []
    for name, (value, n) in metrics.items():
        shown = name if trace else f"{name} ({ALIASES[workload].get(name, name)})"
        count = "" if n is None else f"  n={n}"
        lines.append(f"{workload:<10} {shown:<38} {value:>14.6g} {units[name]}{count}")
    lines.append(f"{workload:<10} {'failed_frac':<38} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    return "\n".join(lines + [json.dumps(result)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "levstab" / "cli.py").is_file():
        print(f"error: no levstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rundir = OUT / args.workload / f"seed-{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    ops = make_ops(args.workload, args.seed)
    if args.trace and args.workload == "sweep-map":
        ops.append(battery_op(args.seed))
    for k, op in enumerate(ops):  # every operation can be re-run from the record
        op["argv"] = ["levstab"] + op_argv(op, config_path(rundir, op), rundir / f"op-{k:02d}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record["environment"] = environment()
    record["ops"] = ops

    if args.trace:
        metrics, checked = run_traced(args.workload, ops, rundir, record)
    else:
        metrics = run_untraced(args.workload, ops, args.seconds, rundir, record)
        checked = record["ops_run"]
    attempted, failed = tally(checked)
    record["metrics"] = {k: {"value": v, "n": n} for k, (v, n) in metrics.items()}
    record["failed"], record["attempted"] = failed, attempted
    (rundir / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for c in checked:
        if not c["ok"]:
            print(f"FAILED op {c['op']}: {c['check'].get('reason')}", file=sys.stderr)
    print(emit(args.workload, bool(args.trace), metrics, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
