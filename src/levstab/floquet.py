"""Floquet engine: monodromy matrices, multiplier classification, gain sweeps.

The monodromy matrix M propagates the linearized state over one excitation
period T = 2 pi / Omega; its eigenvalues (Floquet multipliers) decide
stability: any |mu| > 1 grows.  Instability signatures: a real multiplier
above +1 marks divergence, a real multiplier below -1 marks principal
parametric resonance (period-2T growth), and a complex pair leaving the unit
circle marks combination resonance or the static oscillatory instability.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dop853
from .linearized import CURRENT_ROWS, periodic_matrix
from .model import ControlGains, ExcitationParams, HybridParams, PhysicalParams
from .output import write_csv, write_json
from .plant import ATOL, RTOL

__all__ = [
    "MonodromyResult",
    "StabilityMap",
    "FloquetError",
    "monodromy",
    "classify",
    "sweep",
    "boundary_crossings",
    "signature_moduli",
    "resolve_workers",
    "write_map_csv",
    "write_map_metadata",
    "MAP_CSV_HEADER",
]

MAP_CSV_HEADER = "Kp,Kd,class,max_mu_abs"

REAL_TOL = 1e-9  # |Im mu| below this (scaled) counts as a real multiplier
EPS = 1e-6  # |mu| within EPS of 1 is classed marginal
MAX_NFEV = 10_000  # RHS budget of one monodromy: 26x the default windows need, 14x the battery

# sweep's batched engine: classical RK4 on shared nodes, step count doubled
# from RK4_STEPS to RK4_MAX_STEPS until the Richardson estimate of max|mu|
# stays within RK4_TOL * max(1, max|mu|) and det M passes the Liouville check
RK4_STEPS = 200
RK4_MAX_STEPS = 1600
RK4_TOL = 1e-9
# det M of an accepted cell lies within DET_TOL (relative) of the Liouville
# value; its error is set by the fastest-decaying modes, not by max|mu|
DET_TOL = 1e-8
# a batched cell whose max|mu| lies within this many error estimates of a
# class edge 1 +/- EPS is recomputed by monodromy
GUARD = 10.0
ENGINE = "RK4 (Richardson-checked) + DOP853 fallback"
# at its peak the engine holds about 1.9 KB per cell: the four (6, N, 6)
# RK4 stage buffers, the coarse and fine matrices and their multipliers
# (tracemalloc over whole sweeps of 2,500 and 10,000 cells).  At 2 KiB per
# cell a 1 GiB budget allows 2**30 / 2**11 = 524,288 cells, about 724 x 724;
# worker chunks split the cells, so the budget is shared, not multiplied
MAX_GRID_CELLS = 2**30 // 2**11


class FloquetError(RuntimeError):
    """Monodromy integration failed."""


@dataclass(frozen=True)
class MonodromyResult:
    """One-period state transition matrix and its multipliers."""

    matrix: np.ndarray
    multipliers: np.ndarray
    period: float
    stats: dict = field(compare=False, default_factory=dict)

    @property
    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.multipliers)))

    @property
    def dominant(self) -> complex:
        return complex(self.multipliers[int(np.argmax(np.abs(self.multipliers)))])


def monodromy(
    params: PhysicalParams,
    exc: ExcitationParams,
    gains: ControlGains,
    hyb: HybridParams | None = None,
) -> MonodromyResult:
    """Integrate X' = A(t) X, X(0) = I over one period and extract multipliers.

    The six canonical columns are propagated together as a single 36-state
    system; this evaluates A(t) once per step instead of six times, which
    matters for the boundary scans, and yields the same columns as six
    separate runs at the package tolerances.  Raises ``FloquetError`` when
    the integration fails or needs more than MAX_NFEV RHS evaluations.
    """
    pm = periodic_matrix(params, exc, gains, hyb=hyb)
    nfev = 0

    def fun(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > MAX_NFEV:
            raise FloquetError(
                f"monodromy at Kp={gains.Kp!r}, Kd={gains.Kd!r} exceeded {MAX_NFEV} RHS evaluations"
            )
        return (pm.at(t) @ y.reshape(6, 6)).ravel()

    sol = dop853.solve(fun, (0.0, pm.period), np.eye(6).ravel(), RTOL, ATOL)
    if sol.status < 0:
        raise FloquetError(
            f"monodromy integration failed at Kp={gains.Kp!r}, Kd={gains.Kd!r}: {sol.message}"
        )
    m = sol.y[-1].reshape(6, 6)
    return MonodromyResult(
        matrix=m,
        multipliers=np.linalg.eigvals(m),
        period=pm.period,
        stats={"nfev": int(sol.nfev)},
    )


def classify(result: MonodromyResult) -> str:
    """Map multipliers to a stability class.

    stable: all |mu| < 1 - EPS; marginal: largest |mu| within EPS of 1;
    otherwise unstable, split into divergence (dominant multiplier real
    positive) and parametric-oscillatory (real negative, i.e. period
    doubling, or a complex pair).
    """
    return _class_of(result.multipliers)


def _class_of(mu: np.ndarray) -> str:
    """The class ``classify`` gives a set of multipliers."""
    moduli = np.abs(mu)
    mu_max = float(np.max(moduli))
    if mu_max < 1.0 - EPS:
        return "stable"
    if mu_max <= 1.0 + EPS:
        return "marginal"
    dom = complex(mu[int(np.argmax(moduli))])
    if abs(dom.imag) <= REAL_TOL * max(1.0, abs(dom)) and dom.real > 0.0:
        return "divergence"
    return "parametric-oscillatory"


def signature_moduli(multipliers: np.ndarray, family: str) -> np.ndarray:
    """Moduli of the multipliers carrying a resonance signature, descending.

    family 'principal': real negative multipliers (period-2T mechanism).
    family 'combination': one representative per complex-conjugate pair.
    """
    mu = np.asarray(multipliers)
    scale = np.maximum(1.0, np.abs(mu))
    if family == "principal":
        sel = (np.abs(mu.imag) <= REAL_TOL * scale) & (mu.real < 0.0)
    elif family == "combination":
        sel = mu.imag > REAL_TOL * scale
    else:
        raise ValueError(f"family must be 'principal' or 'combination', got {family!r}")
    return np.sort(np.abs(mu[sel]))[::-1]


def resolve_workers(workers: int | None = None) -> int:
    """Worker count for sweeps: explicit argument, else LEVSTAB_THREADS;
    0 or unset means one per usable CPU, and no count exceeds that."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get("LEVSTAB_THREADS", "0")
        try:
            workers = int(env)
        except ValueError as err:
            raise ValueError(f"LEVSTAB_THREADS must be an integer, got {env!r}") from err
    if workers < 0:
        raise ValueError("worker count must be nonnegative")
    return cpus if workers == 0 else min(workers, cpus)


@dataclass
class StabilityMap:
    """Floquet classification over a gain grid.

    ``classes[i, j]`` and ``max_mu[i, j]`` belong to (kp[i], kd[j]); rows of
    the CSV export iterate Kp outer, Kd inner.  Cell failures are recorded
    in ``errors`` as (i, j, message) and classed 'error', never aborting the
    sweep.
    """

    kp: np.ndarray
    kd: np.ndarray
    classes: np.ndarray
    max_mu: np.ndarray
    errors: list
    meta: dict = field(default_factory=dict)


def _propagate(
    a: np.ndarray, g: np.ndarray, kp: np.ndarray, kd: np.ndarray, steps: int, period: float
) -> np.ndarray:
    """Monodromy matrices of every cell (kp[c], kd[c]) by classical RK4 in
    ``steps`` steps over one period, on the nodes of ``PeriodicMatrix.table``
    (``a`` at zero gains, ``g``; its node count must be a multiple of
    2*steps).

    The cells advance together as one (6, N, 6) stack, x[i, c, j] = M_c[i, j].
    The product with A is summed entry by entry in a fixed order, so a cell's
    arithmetic, and with it its result, does not depend on which other cells
    share the stack.  Returns the matrices as an (N, 6, 6) array.
    """
    stride = (len(a) - 1) // (2 * steps)
    kp, kd = kp[:, None], kd[:, None]
    # per row, its nonzero columns over the period, each with the
    # (support, gains) that add to it at CURRENT_ROWS
    added = {}
    for s, (row, cp, cd) in enumerate(CURRENT_ROWS):
        added[row, cp], added[row, cd] = (s, kp), (s, kd)
    terms = [
        [
            (col, added.get((i, col)))
            for col in range(6)
            if (i, col) in added or np.any(a[:, i, col])
        ]
        for i in range(6)
    ]

    def coefficients(node: int) -> list:
        """Per row, (column, coefficient) pairs; a coefficient is a float,
        or an (N, 1) column where the gains enter."""
        an, gn = a[node].tolist(), g[node]
        return [
            [
                (col, an[i][col] if add is None else an[i][col] + add[1] * gn[add[0]])
                for col, add in row
            ]
            for i, row in enumerate(terms)
        ]

    x = np.zeros((6, kp.shape[0], 6))
    for i in range(6):
        x[i, :, i] = 1.0
    k, acc, y = (np.empty_like(x) for _ in range(3))
    tmp = np.empty_like(x[0])
    # row views of the stage buffers, made once
    x_rows, y_rows, k_rows = list(x), list(y), list(k)

    def derivative(coef: list, rows: list) -> None:
        """k = A rows, A given by its coefficients at one node."""
        for out, row in zip(k_rows, coef):
            if not row:  # a row of A that is zero over the whole period
                out.fill(0.0)
                continue
            (k0, c0), *rest = row
            np.multiply(c0, rows[k0], out=out)
            for col, c in rest:
                np.multiply(c, rows[col], out=tmp)
                out += tmp

    h = period / steps
    last = coefficients(0)
    for j in range(steps):
        first = last
        mid, last = coefficients((2 * j + 1) * stride), coefficients((2 * j + 2) * stride)
        derivative(first, x_rows)
        np.copyto(acc, k)
        np.multiply(k, 0.5 * h, out=y)
        y += x
        derivative(mid, y_rows)
        np.multiply(k, 0.5 * h, out=y)
        y += x
        k *= 2.0
        acc += k
        derivative(mid, y_rows)
        np.multiply(k, h, out=y)
        y += x
        k *= 2.0
        acc += k
        derivative(last, y_rows)
        acc += k
        acc *= h / 6.0
        x += acc
    return x.transpose(1, 0, 2).copy()


def _batched_cells(
    params: PhysicalParams,
    exc: ExcitationParams,
    hyb: HybridParams | None,
    kp: np.ndarray,
    kd: np.ndarray,
) -> tuple[list, dict]:
    """Classify the gain cells (kp[c], kd[c]) with the batched RK4 engine.

    Every cell is propagated at RK4_STEPS and at half that on one node
    table.  A cell is accepted once its Richardson estimate
    |max|mu|(n) - max|mu|(n/2)| / 15 is within RK4_TOL * max(1, max|mu|),
    det M is within DET_TOL of the Liouville value exp(-R (z0 + beta) T / C),
    and its class at n equals that at n/2; the others are run again at
    twice the steps, up to RK4_MAX_STEPS.  A cell goes to the scalar
    ``monodromy`` (DOP853) when its matrix is not finite, when it is still
    not accepted at the cap, or when its max|mu| lies within GUARD estimates
    of a class edge 1 +/- EPS (or within RK4_TOL, how closely the two
    engines agree); a cell whose ``monodromy`` fails is classed 'error' and
    never aborts the batch.

    Returns one (class, max|mu|, error message or None) per cell, and
    statistics: cells accepted per step count, fallback cells, the largest
    Richardson estimate (relative to max(1, max|mu|)) and the largest
    relative det M error.
    """
    pm = periodic_matrix(params, exc, ControlGains(Kp=0.0, Kd=0.0), hyb=hyb)
    det_exact = np.exp(-params.R * (params.z0 + pm.gap_offset) * pm.period / params.C)
    out: list = [None] * kp.size
    stats = {"steps": {}, "fallback": 0, "richardson_max": 0.0, "det_rel_err_max": 0.0}
    fallback = []
    pending = np.arange(kp.size)
    steps = RK4_STEPS
    with np.errstate(all="ignore"):
        a, g = pm.table(2 * steps)
        coarse = _propagate(a, g, kp, kd, steps // 2, pm.period)
        while pending.size:
            if steps > RK4_STEPS:
                a, g = pm.table(2 * steps)
            fine = _propagate(a, g, kp[pending], kd[pending], steps, pm.period)
            finite = np.isfinite(fine).all(axis=(1, 2)) & np.isfinite(coarse).all(axis=(1, 2))
            fallback += list(pending[~finite])
            pending, coarse, fine = pending[finite], coarse[finite], fine[finite]
            mu_coarse, mu_fine = np.linalg.eigvals(coarse), np.linalg.eigvals(fine)
            top = np.abs(mu_fine).max(axis=1)
            scale = np.maximum(1.0, top)
            est = np.abs(top - np.abs(mu_coarse).max(axis=1)) / 15.0 / scale
            det_err = np.abs(np.linalg.det(fine) / det_exact - 1.0)
            edge_gap = np.minimum(np.abs(top - (1.0 - EPS)), np.abs(top - (1.0 + EPS)))
            margin = np.maximum(GUARD * est, RK4_TOL) * scale
            retry = []
            for r, c in enumerate(pending):
                cls = _class_of(mu_fine[r])
                if est[r] > RK4_TOL or det_err[r] > DET_TOL or cls != _class_of(mu_coarse[r]):
                    retry.append(r)
                elif edge_gap[r] <= margin[r]:
                    fallback.append(c)
                else:
                    out[c] = (cls, float(top[r]), None)
                    stats["steps"][steps] = stats["steps"].get(steps, 0) + 1
                    stats["richardson_max"] = max(stats["richardson_max"], float(est[r]))
                    stats["det_rel_err_max"] = max(stats["det_rel_err_max"], float(det_err[r]))
            if steps >= RK4_MAX_STEPS:
                fallback += list(pending[retry])
                break
            pending, coarse = pending[retry], fine[retry]
            steps *= 2
    for c in sorted(fallback):
        stats["fallback"] += 1
        try:
            res = monodromy(params, exc, ControlGains(Kp=float(kp[c]), Kd=float(kd[c])), hyb=hyb)
        except Exception as err:  # per-cell capture: the sweep must finish
            out[c] = ("error", float("nan"), f"{type(err).__name__}: {err}")
            continue
        out[c] = (classify(res), res.max_modulus, None)
        det_err = abs(float(np.linalg.det(res.matrix)) / det_exact - 1.0)
        stats["det_rel_err_max"] = max(stats["det_rel_err_max"], det_err)
    return out, stats


def sweep(
    params: PhysicalParams,
    exc: ExcitationParams,
    Kp_range: tuple[float, float],
    Kd_range: tuple[float, float],
    nx: int,
    ny: int,
    hyb: HybridParams | None = None,
    workers: int | None = None,
) -> StabilityMap:
    """Classify an nx-by-ny gain grid.

    The cells, Kp outer and Kd inner, are split into one contiguous chunk
    per worker and each chunk is classified by the batched engine
    (``_batched_cells``); with more than one chunk the chunks run in a
    process pool.  A cell's result does not depend on its chunk, so the
    output is the same for every worker count.
    """
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be at least 2")
    if nx * ny > MAX_GRID_CELLS:
        raise ValueError(
            f"a {nx}x{ny} grid has {nx * ny} cells, over the limit of "
            f"MAX_GRID_CELLS = {MAX_GRID_CELLS} (a 1 GiB budget at 2 KiB per cell)"
        )
    kp = np.linspace(Kp_range[0], Kp_range[1], nx)
    kd = np.linspace(Kd_range[0], Kd_range[1], ny)
    cells_kp, cells_kd = np.repeat(kp, ny), np.tile(kd, nx)
    bounds = np.linspace(0, nx * ny, min(resolve_workers(workers), nx * ny) + 1).astype(int)
    chunks = [
        (params, exc, hyb, cells_kp[lo:hi], cells_kd[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ]
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(_batched_cells, *zip(*chunks)))
    else:
        results = [_batched_cells(*chunks[0])]
    cells = [cell for part, _ in results for cell in part]
    stats = [st for _, st in results]
    steps = sorted({n for st in stats for n in st["steps"]})
    errors = [(*divmod(c, ny), err) for c, (_, _, err) in enumerate(cells) if err is not None]
    return StabilityMap(
        kp=kp,
        kd=kd,
        classes=np.array([cls for cls, _, _ in cells], dtype=object).reshape(nx, ny),
        max_mu=np.array([mu for _, mu, _ in cells]).reshape(nx, ny),
        errors=errors,
        meta={
            "Kp_range": list(Kp_range),
            "Kd_range": list(Kd_range),
            "nx": nx,
            "ny": ny,
            "eps": EPS,
            "rtol": RTOL,
            "atol": ATOL,
            "method": ENGINE,
            "rk4_cells_by_steps": {
                str(n): sum(st["steps"].get(n, 0) for st in stats) for n in steps
            },
            "fallback_cells": sum(st["fallback"] for st in stats),
            "richardson_max": max(st["richardson_max"] for st in stats),
            "det_rel_err_max": max(st["det_rel_err_max"] for st in stats),
            "workers": len(chunks),
            "hybrid_beta": None if hyb is None else hyb.beta,
        },
    )


@functools.lru_cache(maxsize=128)
def _multipliers(params: PhysicalParams, exc: ExcitationParams, kp: float, kd: float) -> tuple:
    """Multipliers at one gain point, memoized for the last 128 points in
    the process: scans that share their presample points (as the two edge
    searches of a tongue do) integrate each point once.  A tuple, so no
    caller can alter a cached value."""
    return tuple(monodromy(params, exc, ControlGains(Kp=kp, Kd=kd)).multipliers)


def boundary_crossings(
    params: PhysicalParams,
    exc: ExcitationParams,
    scan: tuple[tuple[float, float], tuple[float, float]],
    indicator=None,
    n_presample: int = 17,
) -> list[tuple[float, float]]:
    """Locate stability-boundary crossings along a line segment of gains.

    ``scan`` is ((Kp0, Kd0), (Kp1, Kd1)).  The default indicator is
    max|mu| - 1; bisection runs on each sign change of the indicator among
    ``n_presample`` uniform samples, down to 1e-3 of the scan length.  A
    custom indicator maps the multiplier array to a scalar, which lets
    callers track a single resonance signature instead of the dominant
    multiplier.  Returns the crossing coordinates ordered along the scan;
    empty if no sign change.
    """
    tol = 1e-3
    (kp0, kd0), (kp1, kd1) = scan
    if indicator is None:
        indicator = lambda mu: float(np.max(np.abs(mu))) - 1.0

    def f(u: float) -> float:
        mu = _multipliers(params, exc, kp0 + u * (kp1 - kp0), kd0 + u * (kd1 - kd0))
        return indicator(np.array(mu))

    us = np.linspace(0.0, 1.0, n_presample)
    vals = [f(u) for u in us]
    crossings = []
    for a, b, fa, fb in zip(us[:-1], us[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            crossings.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        lo, hi, flo = a, b, fa
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        crossings.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        crossings.append(1.0)
    return [(kp0 + u * (kp1 - kp0), kd0 + u * (kd1 - kd0)) for u in crossings]


def write_map_csv(smap: StabilityMap, path) -> None:
    """Map cells as CSV rows Kp,Kd,class,max_mu_abs (Kp outer, Kd inner)."""
    nx, ny = smap.kp.size, smap.kd.size
    columns = [np.repeat(smap.kp, ny), np.tile(smap.kd, nx), smap.classes.ravel(), smap.max_mu.ravel()]
    write_csv(path, MAP_CSV_HEADER, columns)


def write_map_metadata(
    smap: StabilityMap, path, exc: ExcitationParams, version: str, config: dict
) -> None:
    """Companion JSON describing exactly what produced a map CSV.

    ``config`` is the run's configuration as written by ``dump_config``;
    ``excitation`` repeats the resolved Omega and theta, which a kinematic
    (v, d) configuration does not state.
    """
    write_json(
        path,
        {
            "config": config,
            "excitation": {"A": exc.A, "Omega": exc.Omega, "theta": exc.theta},
            "grid": smap.meta,
            "cell_errors": [list(e) for e in smap.errors],
            "version": version,
        },
    )
