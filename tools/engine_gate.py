"""Check the batched map engine against the scalar DOP853 monodromy, cell by cell.

    python tools/engine_gate.py

Runs ``floquet.sweep`` with one worker on 48 maps: the default window
(``boundaries.default_map_window``) of ``levstab.cli.DEFAULT_CONFIG`` (m
7650, C 0.05, R 9.71, z0 0.015, A 0.005, Omega 80) with its theta replaced
by k pi/12 for k = 1..12, on the standard plant and on the hybrid plant
(beta 0.01), at 21x21 and 26x26.
Every cell is recomputed by ``floquet.monodromy`` (DOP853, rtol 1e-10), the
reference the engine falls back to.  A cell differs when its class is not
the reference's, or when the engine or the reference failed on it.

Prints one line per map (class differences, the largest max|mu| deviation
relative to max(1, |mu|), the engine's cells per step count and its
fallback cells) and a summary.  Exits 1 on any class difference or on a
deviation above MU_TOL, else 0.  The maps run in a process pool of
``floquet.resolve_workers()`` processes (``LEVSTAB_THREADS`` sets it); a
full run performs 26,808 DOP853 monodromies and takes about 25 s on 2
vCPUs (Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from compare_outputs import MU_TOL
from levstab import ControlGains, HybridParams
from levstab.boundaries import default_map_window
from levstab.cli import DEFAULT_CONFIG
from levstab.config import parse_config
from levstab.floquet import STEPS, FloquetError, classify, monodromy, resolve_workers, sweep

BASELINE = parse_config(DEFAULT_CONFIG)
PARAMS = BASELINE.params
THETAS = [k * math.pi / 12.0 for k in range(1, 13)]
BETA = 0.01
GRIDS = (21, 26)


def check_map(theta: float, hybrid: bool, n: int) -> dict:
    """One map against DOP853: class differences and the largest deviation."""
    exc = dataclasses.replace(BASELINE.exc, theta=theta)
    hyb = HybridParams(BETA) if hybrid else None
    kp_range, kd_range = default_map_window(PARAMS, exc)
    start = time.perf_counter()
    smap = sweep(PARAMS, exc, kp_range, kd_range, n, n, hyb=hyb, workers=1)
    seconds = time.perf_counter() - start
    differ, worst = 0, 0.0
    for i, kp in enumerate(smap.kp):
        for j, kd in enumerate(smap.kd):
            try:
                ref = monodromy(PARAMS, exc, ControlGains(float(kp), float(kd)), hyb=hyb)
            except FloquetError:
                differ += 1
                continue
            if smap.classes[i, j] != classify(ref):
                differ += 1
            elif math.isfinite(smap.max_mu[i, j]):
                dev = abs(smap.max_mu[i, j] - ref.max_modulus) / max(1.0, ref.max_modulus)
                worst = max(worst, dev)
    return {
        "label": f"theta {theta / math.pi:.4f} pi, {'hybrid' if hybrid else 'standard'}, {n}x{n}",
        "cells": n * n,
        "differ": differ,
        "worst": worst,
        "steps": smap.meta["cells_by_steps"],
        "fallback": smap.meta["fallback_cells"],
        "seconds": seconds,
    }


def main() -> int:
    jobs = [(theta, hybrid, n) for theta in THETAS for hybrid in (False, True) for n in GRIDS]
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=resolve_workers()) as pool:
        results = list(pool.map(check_map, *zip(*jobs)))
    for r in results:
        print(
            f"{r['label']}: {r['differ']} class difference(s), max|mu| deviation "
            f"{r['worst']:.2e}, cells by steps {r['steps']}, {r['fallback']} fallback, "
            f"sweep {r['seconds']:.3f} s"
        )
    differ = sum(r["differ"] for r in results)
    worst = max(r["worst"] for r in results)
    refined = sum(v for r in results for k, v in r["steps"].items() if int(k) > STEPS)
    print(
        f"{len(results)} maps, {sum(r['cells'] for r in results)} cells: {differ} class "
        f"difference(s), max|mu| deviation {worst:.2e} (limit {MU_TOL:g}), "
        f"{refined} cells refined, {sum(r['fallback'] for r in results)} fallback; "
        f"{time.perf_counter() - start:.0f} s"
    )
    return 1 if differ or worst > MU_TOL else 0


if __name__ == "__main__":
    sys.exit(main())
