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
import math
import os
from dataclasses import dataclass, field

import numpy as np

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
BISECT_TOL = 1e-3  # boundary_crossings bisects to this fraction of its scan
N_PRESAMPLE = 25  # uniform samples in which boundary_crossings looks for sign changes
MAX_NFEV = 10_000  # RHS budget of one monodromy: 26x the default windows need, 14x the battery

# sweep's batched engine: Butcher's order-6 Runge-Kutta method on shared
# nodes, step count doubled from STEPS to MAX_STEPS until the Richardson
# estimate of max|mu| stays within STEP_TOL * max(1, max|mu|) and det M
# passes the Liouville check
STEPS = 50
MAX_STEPS = 400
# a refined pass (over STEPS steps) runs as segments of this many steps
SEGMENT = STEPS // 2
STEP_TOL = 1e-9
# det M of an accepted cell lies within DET_TOL (relative) of the Liouville
# value; its error is set by the fastest-decaying modes, not by max|mu|
DET_TOL = 1e-8
# a batched cell whose max|mu| lies within this many error estimates of a
# class edge 1 +/- EPS is recomputed by monodromy
GUARD = 10.0
ENGINE = "RK6 (Butcher 7-stage, Richardson-checked) + DOP853 fallback"
# cells per engine block; the process pool starts only when every worker
# gets at least one full block
BLOCK = 2048
# stack columns (cells times segments) of one group of a pass, ten arrays
# of 36 floats each, about 3 MB.  Best of 5 in-process timings on a 2-vCPU
# VM, 1024 columns against 2048: 135 against 154 ms for a 50-step pass of
# 2048 cells, 1190 against 1238 ms for one at 400 steps, and 84 against 96
# ms for 128 cells at 400 steps, whose 16 segments run side by side
GROUP_COLUMNS = 1024
# Memory (tracemalloc over whole one-worker sweeps of 50x50 to 301x301
# cells): a worker's engine holds 5-8 MB for its block, the stage stack of
# at most GROUP_COLUMNS columns and the block's matrices and multipliers,
# whatever the grid and the step counts (7.9 MB for the all-refined 50x50
# map of tongue d's window), and the results add about 110 bytes per cell;
# 301x301 peaks at 16 MB.
# The cap was set when the engine held all of a chunk at once, at 2 KiB per
# cell for a 1 GiB budget: 2**30 / 2**11 = 524,288 cells, about 724 x 724.
# It is kept, and a map at the cap now needs about 60 MB plus 8 MB per worker
MAX_GRID_CELLS = 2**30 // 2**11

# Butcher's 7-stage explicit Runge-Kutta method of order 6 (Butcher 1964;
# Butcher 2008, Numerical Methods for Ordinary Differential Equations): the
# nodes in sixths of a step, so that PeriodicMatrix.table(6 n) serves n
# steps, the rows of its a-matrix and its weights
_RK6_NODES = (0, 2, 4, 2, 3, 3, 6)
_RK6_A = (
    (1 / 3,),
    (0.0, 2 / 3),
    (1 / 12, 1 / 3, -1 / 12),
    (-1 / 16, 9 / 8, -3 / 16, -3 / 8),
    (0.0, 9 / 8, -3 / 8, -3 / 4, 1 / 2),
    (9 / 44, -9 / 11, 63 / 44, 18 / 11, 0.0, -16 / 11),
)
_RK6_B = (11 / 120, 0.0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120)
# the engine's stack holds the rows of M in the order (d1, d2, I1, I2, v1,
# v2), so that the two supports' rows of each kind form one block
_STACK_ROWS = (0, 3, 2, 5, 1, 4)


class FloquetError(RuntimeError):
    """Monodromy integration failed."""


@dataclass(frozen=True)
class MonodromyResult:
    """One-period state transition matrix and its multipliers.

    ``monodromy`` records in ``stats`` its RHS count ``nfev`` and
    ``det_rel_err``, |det M / exp(-R (z0 + beta) T / C) - 1|, the relative
    error of det M against Liouville's formula.
    """

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
    from . import dop853  # on first use: a map that needs no fallback never loads it

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
        stats={
            "nfev": int(sol.nfev),
            "det_rel_err": abs(float(np.linalg.det(m)) / _liouville_det(params, pm) - 1.0),
        },
    )


def _liouville_det(params: PhysicalParams, pm) -> float:
    """The exact det M of a monodromy, by Liouville's formula the
    exponential of the trace of A(t) integrated over a period:
    exp(-R (z0 + beta) T / C)."""
    return np.exp(-params.R * (params.z0 + pm.gap_offset) * pm.period / params.C)


def classify(result: MonodromyResult) -> str:
    """Map multipliers to a stability class.

    stable: all |mu| < 1 - EPS; marginal: largest |mu| within EPS of 1;
    otherwise unstable, split into divergence (dominant multiplier real
    positive) and parametric-oscillatory (real negative, i.e. period
    doubling, or a complex pair).
    """
    return _classes(result.multipliers[None, :])[0]


_CLASSES = np.array(["stable", "marginal", "divergence", "parametric-oscillatory"], dtype=object)


def _classes(mu: np.ndarray) -> np.ndarray:
    """The class ``classify`` gives each row of multipliers of an (n, 6)
    array.  The dominant multiplier of a row is its first of largest
    modulus."""
    moduli = np.abs(mu)
    top = moduli.max(axis=1)
    dom = np.take_along_axis(mu, moduli.argmax(axis=1)[:, None], axis=1)[:, 0]
    real = np.abs(dom.imag) <= REAL_TOL * np.maximum(1.0, top)
    return _CLASSES[np.select([top < 1.0 - EPS, top <= 1.0 + EPS, real & (dom.real > 0.0)], [0, 1, 2], 3)]


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
    """Monodromy matrices of every cell (kp[c], kd[c]) by Butcher's order-6
    method in ``steps`` steps over one period, on the nodes of
    ``PeriodicMatrix.table`` (``a`` at zero gains, ``g``; its node count
    must be a multiple of 6*steps).

    A pass of at most STEPS steps integrates the period in one piece, S =
    1 segment.  A refined pass splits it into S = steps / SEGMENT segments,
    integrates each from the identity and multiplies their matrices in step
    order.  The segments are integrated side by side, GROUP_COLUMNS // S
    cells at a time, so a group makes SEGMENT stack iterations, not
    ``steps``.

    The stack of S segments of n cells is (6, 6, S, n), x[r, j, s, c] =
    M_sc[_STACK_ROWS[r], j] for segment s of cell c, so a segment's
    coefficients broadcast over its cells and a pass of one segment is the
    case S = 1.  Each support pair of rows is a contiguous (2, 6, S, n)
    block and A acts on it by elementwise products summed in a fixed order:
    the rate rows are the velocity rows, the force rows take both gaps and
    both currents, and the current rows take their own gap, rate and
    current, with the gains entering the gap and rate columns.  The
    segments' product is elementwise too.  So a cell's arithmetic, and with
    it its result, depends neither on which other cells share the stack.
    Returns the matrices as an (N, 6, 6) array.
    """
    segments = 1 if steps <= STEPS else steps // SEGMENT
    length = steps // segments
    h = period / steps
    stride = (len(a) - 1) // (6 * steps)
    # the table row of node k of step i of segment s, as [i, k, s]
    begin = 6 * stride * (np.arange(segments) * length + np.arange(length)[:, None])
    at = begin[:, None, :] + stride * np.arange(7)[:, None]

    def columns(table: np.ndarray) -> np.ndarray:
        """A table of two entries per node as (2, 1, S, 1) columns, indexed
        [step, node], which broadcast over a stack's cells."""
        return table[at].transpose(0, 1, 3, 2)[:, :, :, None, :, None]

    # the force rows' entries on d1, I1, d2, I2 and the current rows' on
    # their own current, then the current rows' entries on their gap and
    # rate at zero gains, and the gain scale d_i/2C
    rows, gaps, rates = (list(cols) for cols in zip(*CURRENT_ROWS))
    fixed = [columns(a[:, [1, 4], col]) for col in (0, 2, 3, 5)] + [columns(a[:, rows, rows])]
    force_rows = [_STACK_ROWS.index(col) for col in (0, 2, 3, 5)]
    cur_d, cur_v, scale = columns(a[:, rows, gaps]), columns(a[:, rows, rates]), columns(g)
    stages = [
        (node, [(j, h * c) for j, c in enumerate(row) if c])
        for node, row in zip(_RK6_NODES[1:], _RK6_A)
    ]
    weights = [(j, h * b) for j, b in enumerate(_RK6_B) if b]

    def derivative(y, k, pair, coef: list, gap: np.ndarray, rate: np.ndarray):
        """k = A y at one node, with the entries ``coef`` of ``fixed`` there
        and the current rows' gap and rate entries at the cells' gains."""
        np.copyto(k[0:2], y[4:6])
        out = k[4:6]
        np.multiply(coef[0], y[force_rows[0]], out=out)
        for f, row in zip(coef[1:4], force_rows[1:]):
            np.multiply(f, y[row], out=pair)
            out += pair
        out = k[2:4]
        np.multiply(gap, y[0:2], out=out)
        np.multiply(rate, y[4:6], out=pair)
        out += pair
        np.multiply(coef[4], y[2:4], out=pair)
        out += pair

    def run(gkp: np.ndarray, gkd: np.ndarray) -> np.ndarray:
        """Matrices of every segment of the cells (gkp, gkd), integrated
        side by side, as (6, 6, S, n) in the natural row order."""
        x = np.zeros((6, 6, segments, gkp.size))
        for r, row in enumerate(_STACK_ROWS):
            x[r, row] = 1.0
        ks = [np.empty_like(x) for _ in _RK6_B]
        y, tmp = np.empty_like(x), np.empty_like(x)
        for step in range(length):
            gap = cur_d[step] + gkp * scale[step]
            rate = cur_v[step] + gkd * scale[step]
            derivative(x, ks[0], tmp[:2], [t[step, 0] for t in fixed], gap[0], rate[0])
            for s, (node, terms) in enumerate(stages, start=1):
                (j, c), *rest = terms
                np.multiply(ks[j], c, out=y)
                y += x
                for j, c in rest:
                    np.multiply(ks[j], c, out=tmp)
                    y += tmp
                derivative(y, ks[s], tmp[:2], [t[step, node] for t in fixed], gap[node], rate[node])
            (j, c), *rest = weights
            np.multiply(ks[j], c, out=y)
            for j, c in rest:
                np.multiply(ks[j], c, out=tmp)
                y += tmp
            x += y
        seg = np.empty_like(x)
        seg[list(_STACK_ROWS)] = x
        return seg

    m = np.empty((kp.size, 6, 6))
    group = max(1, GROUP_COLUMNS // segments)
    for lo in range(0, kp.size, group):
        seg = run(kp[lo : lo + group], kd[lo : lo + group])
        # M = M_{S-1} ... M_1 M_0
        prod = seg[:, :, 0]
        for s in range(1, segments):
            later = seg[:, :, s]
            nxt = later[:, 0, None] * prod[0]
            for k in range(1, 6):
                nxt += later[:, k, None] * prod[k]
            prod = nxt
        m[lo : lo + group] = prod.transpose(2, 0, 1)
    return m


def _batched_cells(
    params: PhysicalParams,
    exc: ExcitationParams,
    hyb: HybridParams | None,
    kp: np.ndarray,
    kd: np.ndarray,
) -> tuple[list, dict]:
    """Classify the gain cells (kp[c], kd[c]) with the batched engine, in
    blocks of BLOCK cells.

    Every cell of a block is propagated at STEPS and at half that on one
    node table.  A cell is accepted once its Richardson estimate
    |max|mu|(n) - max|mu|(n/2)| / 63 is within STEP_TOL * max(1, max|mu|),
    det M is within DET_TOL of the Liouville value exp(-R (z0 + beta) T / C),
    and its class at n equals that at n/2; the others are run again at
    twice the steps, up to MAX_STEPS.  A cell goes to the scalar
    ``monodromy`` (DOP853) when its matrix is not finite, when it is still
    not accepted at the cap, or when its max|mu| lies within GUARD estimates
    of a class edge 1 +/- EPS (or within STEP_TOL, how closely the two
    engines agree); a cell whose ``monodromy`` fails is classed 'error' and
    never aborts the batch.

    Returns one (class, max|mu|, error message or None) per cell, and
    statistics: cells accepted per step count, fallback cells, the largest
    Richardson estimate (relative to max(1, max|mu|)) and the largest
    relative det M error.
    """
    pm = periodic_matrix(params, exc, ControlGains(Kp=0.0, Kd=0.0), hyb=hyb)
    det_exact = _liouville_det(params, pm)
    out: list = [None] * kp.size
    stats = {"steps": {}, "fallback": 0, "richardson_max": 0.0, "det_rel_err_max": 0.0}
    fallback = []
    table = functools.cache(lambda steps: pm.table(6 * steps))
    with np.errstate(all="ignore"):
        for start in range(0, kp.size, BLOCK):
            pending = np.arange(start, min(start + BLOCK, kp.size))
            steps = STEPS
            coarse = _propagate(*table(steps), kp[pending], kd[pending], steps // 2, pm.period)
            while pending.size:
                fine = _propagate(*table(steps), kp[pending], kd[pending], steps, pm.period)
                finite = np.isfinite(fine).all(axis=(1, 2)) & np.isfinite(coarse).all(axis=(1, 2))
                fallback += list(pending[~finite])
                pending, coarse, fine = pending[finite], coarse[finite], fine[finite]
                mu_coarse, mu_fine = np.linalg.eigvals(coarse), np.linalg.eigvals(fine)
                top = np.abs(mu_fine).max(axis=1)
                scale = np.maximum(1.0, top)
                # order 6: halving the step divides the error by 2**6
                est = np.abs(top - np.abs(mu_coarse).max(axis=1)) / 63.0 / scale
                det_err = np.abs(np.linalg.det(fine) / det_exact - 1.0)
                edge_gap = np.minimum(np.abs(top - (1.0 - EPS)), np.abs(top - (1.0 + EPS)))
                margin = np.maximum(GUARD * est, STEP_TOL) * scale
                cls = _classes(mu_fine)
                retry = (est > STEP_TOL) | (det_err > DET_TOL) | (cls != _classes(mu_coarse))
                edge = ~retry & (edge_gap <= margin)
                done = ~retry & ~edge
                fallback += list(pending[edge])
                for c, name, mu in zip(pending[done], cls[done], top[done]):
                    out[c] = (name, float(mu), None)
                if done.any():
                    stats["steps"][steps] = stats["steps"].get(steps, 0) + int(done.sum())
                    # fmax, like max(), passes over a NaN
                    for key, value in (("richardson_max", est), ("det_rel_err_max", det_err)):
                        stats[key] = float(np.fmax.reduce(value[done], initial=stats[key]))
                if steps >= MAX_STEPS:
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
        stats["det_rel_err_max"] = max(stats["det_rel_err_max"], res.stats["det_rel_err"])
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
    (``_batched_cells``).  The workers are those of ``resolve_workers``, but
    no more than the grid has full blocks of BLOCK cells; with more than one
    chunk the chunks run in a process pool.  A cell's result does not depend
    on its chunk, so the output is the same for every worker count.  A
    range whose width hi - lo overflows raises ``ValueError``.
    """
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be at least 2")
    if nx * ny > MAX_GRID_CELLS:
        raise ValueError(
            f"a {nx}x{ny} grid has {nx * ny} cells, over the limit of "
            f"MAX_GRID_CELLS = {MAX_GRID_CELLS} (about 724x724)"
        )
    for flag, (lo, hi) in (("Kp", Kp_range), ("Kd", Kd_range)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"the {flag} range {lo!r},{hi!r} is wider than a float can hold")
    kp = np.linspace(Kp_range[0], Kp_range[1], nx)
    kd = np.linspace(Kd_range[0], Kd_range[1], ny)
    cells_kp, cells_kd = np.repeat(kp, ny), np.tile(kd, nx)
    workers = max(1, min(resolve_workers(workers), nx * ny // BLOCK))
    bounds = np.linspace(0, nx * ny, workers + 1).astype(int)
    chunks = [
        (params, exc, hyb, cells_kp[lo:hi], cells_kd[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ]
    if len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

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
            "cells_by_steps": {
                str(n): sum(st["steps"].get(n, 0) for st in stats) for n in steps
            },
            "fallback_cells": sum(st["fallback"] for st in stats),
            "richardson_max": max(st["richardson_max"] for st in stats),
            "det_rel_err_max": max(st["det_rel_err_max"] for st in stats),
            "workers": len(chunks),
            "hybrid_beta": None if hyb is None else hyb.beta,
        },
    )


def boundary_crossings(
    params: PhysicalParams,
    exc: ExcitationParams,
    scan: tuple[tuple[float, float], tuple[float, float]],
    indicator,
) -> list[tuple[float, float]]:
    """Locate the sign changes of an indicator along a line segment of gains.

    ``scan`` is ((Kp0, Kd0), (Kp1, Kd1)); ``indicator`` maps the multiplier
    array of one gain point to a scalar, for example max|mu| - 1 for the
    stability boundary, or a measure of a single resonance signature.
    Bisection runs on each sign change among N_PRESAMPLE uniform samples,
    down to BISECT_TOL of the scan length, so each gain point is integrated
    once.  Returns the crossing coordinates ordered along the scan; empty if
    no sign change.
    """
    (kp0, kd0), (kp1, kd1) = scan

    def f(u: float) -> float:
        gains = ControlGains(Kp=kp0 + u * (kp1 - kp0), Kd=kd0 + u * (kd1 - kd0))
        return indicator(monodromy(params, exc, gains).multipliers)

    us = np.linspace(0.0, 1.0, N_PRESAMPLE)
    vals = [f(u) for u in us]
    crossings = []
    for a, b, fa, fb in zip(us[:-1], us[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            crossings.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        lo, hi, flo = a, b, fa
        while hi - lo > BISECT_TOL:
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
