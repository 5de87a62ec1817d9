"""Correctness gate: references the benchmark computes on its own.

Every operation the benchmark times is checked here, outside the timed
region.  An operation fails when it exits non-zero, runs past its time
limit, or writes output that disagrees with the reference below.

* map: every cell's class must lie in the stability band its own max|mu|
  puts it in, and a seeded sample of cells is recomputed by an independent
  DOP853 integration (rtol 1e-10, atol 1e-12) of ``PeriodicMatrix.at``.
  A sampled cell fails when its max|mu| is off by more than ``MU_TOL`` or
  its class differs, unless the reference lies within ``MU_TOL`` of a class
  edge, in which case either neighbouring class is accepted.  A swap between
  the two unstable classes is only caught on sampled cells.
* validate: every criterion must pass or skip exactly as at the commit that
  defined this benchmark (all 13 pass on the generated configurations).
* simulate: the CSV must have one row per requested sample, only finite
  values, and a final state within ``TRAJ_TOL`` of ``plant.integrate`` run
  at rtol 1e-12.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from levstab.config import parse_config
from levstab.linearized import periodic_matrix
from levstab.model import ControlGains
from levstab.plant import integrate, steady_vehicle_state

MAP_HEADER = "Kp,Kd,class,max_mu_abs"
EPS = 1e-6  # classification margin the map command uses (sweep default)
REAL_TOL = 1e-9  # |Im mu| below this, scaled, is a real multiplier
MU_TOL = 1e-7  # max|mu| agreement, relative to max(1, |mu|)
MAP_SAMPLE = 12  # reference cells per map
REF_RTOL, REF_ATOL = 1e-10, 1e-12
TRAJ_RTOL, TRAJ_ATOL = 1e-12, 1e-14
TRAJ_TOL = 1e-6  # final state, relative to each column's largest magnitude
SAMPLES_PER_PERIOD = 200  # simulate's sampling density
BATTERY_EXPECTED = {i: "pass" for i in range(1, 14)}
UNSTABLE = ("divergence", "parametric-oscillatory")
CLASSES = ("stable", "marginal") + UNSTABLE


@dataclass
class Check:
    ok: bool
    reason: str = ""
    detail: dict = field(default_factory=dict)


def reference_multipliers(doc: dict, kp: float, kd: float) -> np.ndarray:
    """Floquet multipliers of the configured plant at gains (kp, kd)."""
    cfg = parse_config(doc)
    pm = periodic_matrix(cfg.params, cfg.exc, ControlGains(Kp=kp, Kd=kd), hyb=cfg.hybrid)
    sol = solve_ivp(
        lambda t, y: (pm.at(t) @ y.reshape(6, 6)).ravel(),
        (0.0, pm.period),
        np.eye(6).ravel(),
        method="DOP853",
        rtol=REF_RTOL,
        atol=REF_ATOL,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return np.linalg.eigvals(sol.y[:, -1].reshape(6, 6))


def _band(mu_max: float) -> int:
    return 0 if mu_max < 1.0 - EPS else 1 if mu_max <= 1.0 + EPS else 2


def _class_band(cls: str) -> int:
    return {"stable": 0, "marginal": 1}.get(cls, 2)


def reference_class(mu: np.ndarray) -> str:
    mu_max = float(np.max(np.abs(mu)))
    if _band(mu_max) < 2:
        return CLASSES[_band(mu_max)]
    dom = complex(mu[int(np.argmax(np.abs(mu)))])
    if abs(dom.imag) <= REAL_TOL * max(1.0, abs(dom)) and dom.real > 0.0:
        return "divergence"
    return "parametric-oscillatory"


def accepted_classes(mu: np.ndarray) -> set:
    """The reference class plus any class a tolerance-sized change could give."""
    mu_max = float(np.max(np.abs(mu)))
    tol = MU_TOL * max(1.0, mu_max)
    ok = {reference_class(mu)}
    if abs(mu_max - (1.0 - EPS)) <= tol:
        ok |= {"stable", "marginal"}
    if abs(mu_max - (1.0 + EPS)) <= tol:
        ok |= {"marginal", *UNSTABLE}
    dom = complex(mu[int(np.argmax(np.abs(mu)))])
    if mu_max > 1.0 + EPS - tol and abs(dom.imag) <= 1e-6 * max(1.0, abs(dom)):
        ok |= set(UNSTABLE)
    return ok


def check_map(out: Path, doc: dict, grid: tuple, rc: int, rng, cache: dict | None = None) -> Check:
    """Gate one ``levstab map`` output directory."""
    if rc != 0:
        return Check(False, f"exit code {rc}")
    try:
        lines = (out / "map.csv").read_text().splitlines()
    except OSError as err:
        return Check(False, f"map.csv unreadable: {err}")
    if not lines or lines[0] != MAP_HEADER:
        return Check(False, "map.csv header differs")
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != grid[0] * grid[1]:
        return Check(False, f"map.csv has {len(rows)} cells, expected {grid[0] * grid[1]}")
    cells = []
    for k, row in enumerate(rows):
        try:
            kp, kd, cls, mu = float(row[0]), float(row[1]), row[2], float(row[3])
        except (ValueError, IndexError):
            return Check(False, f"cell {k}: malformed row {','.join(row)!r}")
        if cls not in CLASSES or not all(map(math.isfinite, (kp, kd, mu))):
            return Check(False, f"cell {k}: class {cls!r}, max|mu| {mu!r}")
        if _class_band(cls) != _band(mu):
            return Check(False, f"cell {k}: class {cls} contradicts max|mu| = {mu!r}")
        cells.append((kp, kd, cls, mu))

    cache = {} if cache is None else cache
    dev_max, mismatch = 0.0, 0
    for k in sorted(rng.sample(range(len(cells)), min(MAP_SAMPLE, len(cells)))):
        kp, kd, cls, mu = cells[k]
        key = (json.dumps(doc, sort_keys=True), kp, kd)
        if key not in cache:
            cache[key] = reference_multipliers(doc, kp, kd)
        ref = cache[key]
        ref_max = float(np.max(np.abs(ref)))
        dev_max = max(dev_max, abs(mu - ref_max) / max(1.0, ref_max))
        if cls not in accepted_classes(ref):
            mismatch += 1
    detail = {"mu_dev_max": dev_max, "class_mismatch": mismatch, "cells": len(cells)}
    if mismatch:
        return Check(False, f"{mismatch} sampled cell(s) classed unlike the reference", detail)
    if dev_max > MU_TOL:
        return Check(False, f"max|mu| deviates {dev_max:.3e} from the reference", detail)
    return Check(True, "", detail)


def check_battery(out: Path, rc: int) -> Check:
    """Gate one ``levstab validate`` output directory."""
    try:
        report = json.loads((out / "validation.json").read_text())
        status = {c["index"]: c["status"] for c in report["criteria"]}
    except (OSError, ValueError, KeyError, TypeError) as err:
        return Check(False, f"validation.json unreadable: {err}")
    differ = {i: status.get(i) for i, s in BATTERY_EXPECTED.items() if status.get(i) != s}
    if differ or set(status) != set(BATTERY_EXPECTED):
        return Check(False, f"criteria differ from the expected statuses: {differ}", {"status": status})
    if rc != 0:
        return Check(False, f"exit code {rc}")
    return Check(True, "", {"status": status})


def expected_rows(periods: float) -> int:
    return max(2, int(round(SAMPLES_PER_PERIOD * periods))) + 1


def check_trajectory(
    out: Path, doc: dict, periods: float, perturb: tuple, rc: int, reference: bool
) -> Check:
    """Gate one ``levstab simulate`` output directory."""
    if rc != 0:
        return Check(False, f"exit code {rc}")
    try:
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as err:
        return Check(False, f"trajectory.csv unreadable: {err}")
    if data.shape[0] != expected_rows(periods):
        return Check(False, f"trajectory.csv has {data.shape[0]} rows, expected {expected_rows(periods)}")
    if not np.all(np.isfinite(data)):
        return Check(False, "trajectory.csv holds non-finite values")
    if not reference:
        return Check(True, "", {"rows": data.shape[0]})

    cfg = parse_config(doc)
    gains = ControlGains(Kp=doc["gains"]["Kp"], Kd=doc["gains"]["Kd"])
    start = steady_vehicle_state(cfg.params, cfg.exc, 0.0, cfg.hybrid)
    start = replace(start, z=start.z + perturb[0], phi=start.phi + perturb[1])
    t_end = periods * cfg.exc.period
    ref = integrate(
        start,
        (0.0, t_end),
        cfg.params,
        cfg.exc,
        gains,
        mode="standard" if cfg.hybrid is None else "hybrid",
        hyb=cfg.hybrid,
        rtol=TRAJ_RTOL,
        atol=TRAJ_ATOL,
        t_eval=np.array([t_end]),
    )
    states = data[:, 1:7]
    scale = np.max(np.abs(states), axis=0)
    scale[scale == 0.0] = 1.0
    dev = float(np.max(np.abs(states[-1] - ref.states[-1]) / scale))
    detail = {"rows": data.shape[0], "final_state_dev": dev}
    if ref.aborted or abs(data[-1, 0] - t_end) > 1e-9 * t_end or dev > TRAJ_TOL:
        return Check(False, f"final state deviates {dev:.3e} from the rtol 1e-12 reference", detail)
    return Check(True, "", detail)
