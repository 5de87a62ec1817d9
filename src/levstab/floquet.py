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
import mmap
import pickle
from typing import NamedTuple

import numpy as np

from . import dop853  # lazy: a map that needs no fallback never runs it
from .linearized import periodic_matrix
from .model import ATOL, RTOL, ControlGains, ExcitationParams, HybridParams, PhysicalParams
from .output import fork, reap, resolve_workers, write_csv, write_json

__all__ = [
    "MonodromyResult",
    "StabilityMap",
    "FloquetError",
    "monodromy",
    "classify",
    "sweep",
    "boundary_crossings",
    "is_real",
    "write_map_csv",
    "write_map_metadata",
    "MAP_CSV_HEADER",
]

MAP_CSV_HEADER = "Kp,Kd,class,max_mu_abs"

REAL_TOL = 1e-9  # |Im mu| below this (scaled) counts as a real multiplier
EPS = 1e-6  # |mu| within EPS of 1 is classed marginal
NODES = 32  # first-kind Chebyshev nodes per boundary_crossings scan; even, so none is its centre
DELTA = 2.5e-4  # boundary_crossings certifies each crossing across +-DELTA of its scan
MAX_NFEV = 10_000  # RHS budget of one monodromy: 26x the default windows need, 14x the battery

# the engine's step doubling (``_refine``) runs STEPS against STEPS // 2 first, MAX_STEPS last
STEPS = 50
MAX_STEPS = 400
# a refined pass (over STEPS steps) runs as segments of this many steps
SEGMENT = STEPS // 2
STEP_TOL = 1e-9  # a cell's accepted Richardson estimate of max|mu|, relative to max(1, max|mu|)
# det M of an accepted cell lies within DET_TOL (relative) of the Liouville
# value; its error is set by the fastest-decaying modes, not by max|mu|
DET_TOL = 1e-8
# a batched cell whose max|mu| lies within this many error estimates of a
# class edge 1 +/- EPS is recomputed by monodromy
GUARD = 10.0
ENGINE = "RK6 (Butcher 7-stage, Richardson-checked) + DOP853 fallback"
# cells per engine block: the engine's working memory does not grow past
# one block's, whatever the chunk
BLOCK = 2048
# a sweep splits its cells into no more chunks than give each at least
# this many cells, set where a two-way split broke even (144 cells) on an
# earlier, faster 2-vCPU VM.  On a later one, fresh `map --grid n,n`
# processes, medians of 7 alternations, the split cost +13.3 ms at 121
# cells, +10.5 at 169, +11.9 at 441 and +9.6 at 676 (26x26), faster in at
# most 2 of 7; where cells refine it still pays: in-process 26x26 maps
# over theta = k pi/6 took 38 ms on two workers against 58 ms on one
MIN_CHUNK_CELLS = 96
# stack columns (cells times segments) of one group of a pass, nine
# arrays of 36 floats each, about 2.7 MB.  Best of 5 in-process timings on
# a 2-vCPU VM, 1024 columns against 2048: 82 against 89 ms for a 50-step
# pass of 2048 cells, 779 against 853 ms for one at 400 steps, and 50
# against 56 ms for 128 cells at 400 steps, whose 16 segments run side by
# side
GROUP_COLUMNS = 1024
# Memory (tracemalloc over whole one-worker sweeps of 50x50 to 301x301
# cells, plus the record's shared mapping, which tracemalloc does not see):
# a worker's engine holds 5.1-7.3 MB for its block, the stage stack of at
# most GROUP_COLUMNS columns and the block's matrices and multipliers,
# whatever the grid and the step counts (7.3 MB for the all-refined 50x50
# map of tongue d's window), and the record adds 128 bytes per cell, 120 of them
# shared, which the sweep derives from a block at a time: 301x301 peaks at
# 19.5 MB.  A two-worker sweep's calling process holds the record, counted
# whole from its allocation, and its own chunk's engine: 301x301 peaks
# there at 19.4 MB and 724x724 at 82 MB, and the forked child adds its
# engine and the error messages of its chunk (ru_maxrss 74 MB at 724x724,
# its pages of the shared record included).
# The cap was set when the engine held all of a chunk at once, at 2 KiB per
# cell for a 1 GiB budget: 2**30 / 2**11 = 524,288 cells, about 724 x 724.
# It is kept, and a one-worker map at the cap peaks at 82 MB
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
# the numeric fields of a cell of the engine's record, 120 bytes, as they
# lie in the shared mapping that every chunk of a sweep fills
_CELL = np.dtype([("mu", complex, (6,)), ("steps", np.int64), ("richardson", float), ("det_rel_err", float)])


class FloquetError(RuntimeError):
    """Monodromy integration failed."""


class MonodromyResult(NamedTuple):
    """One-period state transition matrix and its multipliers.

    ``monodromy`` records in ``stats`` its RHS count ``nfev`` and
    ``det_rel_err``, |det M / exp(-R (z0 + beta) T / C) - 1|, the relative
    error of det M against Liouville's formula.  That is NaN when the
    Liouville value underflows to 0 (R (z0 + beta) T / C above about 745),
    against which no relative error is defined.
    """

    matrix: np.ndarray
    multipliers: np.ndarray
    stats: dict

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
    system, which evaluates A(t) once per step instead of six times and
    yields the same columns as six separate runs at the package
    tolerances.  Raises ``FloquetError`` when the integration fails or
    needs more than MAX_NFEV RHS evaluations.
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
    exact = _liouville_det(params, pm)
    return MonodromyResult(
        matrix=m,
        multipliers=np.linalg.eigvals(m),
        stats={
            "nfev": int(sol.nfev),
            "det_rel_err": abs(float(np.linalg.det(m)) / exact - 1.0) if exact > 0.0 else math.nan,
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
    real = is_real(dom)
    return _CLASSES[np.select([top < 1.0 - EPS, top <= 1.0 + EPS, real & (dom.real > 0.0)], [0, 1, 2], 3)]


def is_real(mu):
    """Whether each multiplier is real: |Im mu| <= REAL_TOL max(1, |mu|)."""
    return np.abs(mu.imag) <= REAL_TOL * np.maximum(1.0, np.abs(mu))


class StabilityMap(NamedTuple):
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
    meta: dict


def _propagate(a: np.ndarray, g: np.ndarray, kp: np.ndarray, kd: np.ndarray, period: float) -> np.ndarray:
    """Monodromy matrices of every cell (kp[c], kd[c]) by Butcher's order-6
    method over one period, in n steps on the 6n + 1 nodes of
    ``PeriodicMatrix.table(6 n)`` (``a`` at zero gains, and ``g``).

    A pass of at most STEPS steps integrates the period in one piece, S =
    1 segment.  A refined pass splits it into S = steps / SEGMENT segments,
    integrates each from the identity and multiplies their matrices in step
    order.  The segments are integrated side by side, GROUP_COLUMNS // S
    cells at a time, so a group makes SEGMENT stack iterations, not n.

    A stack of S segments of n cells is (S, 6, 6, n), x[s, r, j, c] =
    M_sc[_STACK_ROWS[r], j] for segment s of cell c, and the buffer ``ks``
    holds x and the seven stages' derivatives.  A stage value x + h sum_j
    a_ij k_j, and the step's update, is one matrix-vector product of its
    coefficient row with the whole buffer, flat; A y at a node is one
    matrix product per segment of A at zero gains with every column of y,
    and the gains add Kp g_i y_d + Kd g_i y_v to the current rows, with
    elementwise products.  The segments' product is elementwise too.  No
    sum mixes two cells' entries, and BLAS adds the terms of each output
    entry in the same order wherever it lies in the vector (the tests
    ``test_base_pass_independent_of_groups`` and
    ``test_refined_pass_independent_of_groups`` pin this bit for bit), so a
    cell's result depends neither on which other cells share the stack nor
    on their number.  Returns the matrices as an (N, 6, 6) array.
    """
    steps = (len(a) - 1) // 6
    segments = 1 if steps <= STEPS else steps // SEGMENT
    length = steps // segments
    h = period / steps
    # the table row of node k of step i of segment s, as [i, k, s]
    begin = 6 * (np.arange(segments) * length + np.arange(length)[:, None])
    at = begin[:, None, :] + np.arange(7)[:, None]
    # A at zero gains in the stack's row and column order, and the gain
    # scale as (2, 1, 1) columns over the current rows, the stack's matrix
    # columns and its cells, both indexed [step, node, segment]
    order = np.array(_STACK_ROWS)
    coef = np.ascontiguousarray(a[at][..., order[:, None], order])
    scale = g[at][..., None, None]
    # the rows (1, h a_i1, ...) of the stage values and (1, h b_1, ...) of the update
    sums = [np.array((1.0, *(h * c for c in row))) for row in (*_RK6_A, _RK6_B)]

    def views(stack: np.ndarray) -> tuple:
        """A stack as the (S, 6, 6 n) operand of A's matrix product, then
        its gap, rate and current rows."""
        return stack.reshape(segments, 6, -1), stack[:, 0:2], stack[:, 4:6], stack[:, 2:4]

    def derivative(y: tuple, k: tuple, node: np.ndarray, gap: np.ndarray, rate: np.ndarray, tmp) -> None:
        """k = A y at one node, on the ``views`` of two stacks: A there at
        zero gains (``node``) times every column, and the current rows'
        gain entries at the cells' gains."""
        (y_all, y_gap, y_rate, _), (k_all, _, _, k_cur) = y, k
        np.matmul(node, y_all, out=k_all)
        np.multiply(gap, y_gap, out=tmp)
        np.add(k_cur, tmp, out=k_cur)
        np.multiply(rate, y_rate, out=tmp)
        np.add(k_cur, tmp, out=k_cur)

    def run(gkp: np.ndarray, gkd: np.ndarray) -> np.ndarray:
        """Matrices of every segment of the cells (gkp, gkd), integrated
        side by side, as (S, 6, 6, n) in the natural row order."""
        # x, then the stages' derivatives k1 .. k7
        ks = np.zeros((1 + len(_RK6_B), segments, 6, 6, gkp.size))
        for r, row in enumerate(_STACK_ROWS):
            ks[0, :, r, row] = 1.0
        y, tmp = np.empty_like(ks[0]), np.empty_like(ks[0, :, :2])
        flat, y_flat = ks.reshape(len(ks), -1), y.reshape(-1)
        x, *k = [views(stack) for stack in ks]
        y_views = views(y)
        # each later stage's node, sum row, the stacks that row reads and its k
        stages = [(node, row, flat[: row.size], ki) for node, row, ki in zip(_RK6_NODES[1:], sums, k[1:])]
        for step in range(length):
            gap, rate, a_step = scale[step] * gkp, scale[step] * gkd, coef[step]
            derivative(x, k[0], a_step[0], gap[0], rate[0], tmp)
            for node, row, terms, out in stages:
                np.matmul(row, terms, out=y_flat)
                derivative(y_views, out, a_step[node], gap[node], rate[node], tmp)
            np.matmul(sums[-1], flat, out=y_flat)
            ks[0] = y
        seg = np.empty_like(y)
        seg[:, list(_STACK_ROWS)] = ks[0]
        return seg

    m = np.empty((kp.size, 6, 6))
    group = max(1, GROUP_COLUMNS // segments)
    for lo in range(0, kp.size, group):
        seg = run(kp[lo : lo + group], kd[lo : lo + group])
        # M = M_{S-1} ... M_1 M_0
        prod = seg[0]
        for s in range(1, segments):
            later = seg[s]
            nxt = later[:, 0, None] * prod[0]
            for k in range(1, 6):
                nxt += later[:, k, None] * prod[k]
            prod = nxt
        m[lo : lo + group] = prod.transpose(2, 0, 1)
    return m


def _refine(run, points: np.ndarray, settle) -> np.ndarray:
    """The batched engine's step doubling, which the map's cells
    (``_batched_cells``) and the boundary scans (``boundary_crossings``)
    share.

    ``run(n, points)`` is the caller's function of the monodromy matrices
    of the points at n steps (``_propagate``), on tables of A that it
    keeps for its whole call, so A is tabulated once per step count.  The
    points run at n/2 = STEPS // 2 steps, then at n = STEPS, and
    ``settle(n, points, fine, coarse)`` gets the open points with their
    values at n (``fine``) and at n/2 (``coarse``) and returns those of
    them to run again, as indices into ``points`` or a mask over it.
    Those run at 2n, against their values at n, and so on while n is at
    most MAX_STEPS.  Returns the points still open after MAX_STEPS.
    """
    steps, coarse = STEPS, run(STEPS // 2, points)
    while points.size and steps <= MAX_STEPS:
        fine = run(steps, points)
        again = settle(steps, points, fine, coarse)
        points, coarse, steps = points[again], fine[again], 2 * steps
    return points


def _batched_cells(
    params: PhysicalParams,
    exc: ExcitationParams,
    hyb: HybridParams | None,
    kp: np.ndarray,
    kd: np.ndarray,
    record: dict,
) -> None:
    """Fill ``record`` in place with the multipliers of the gain cells
    (kp[c], kd[c]) by the engine's ``_refine``, in blocks of BLOCK cells.

    A cell is accepted at n steps once its Richardson estimate
    |max|mu|(n) - max|mu|(n/2)| / 63 is within STEP_TOL * max(1, max|mu|),
    det M is within DET_TOL of the Liouville value exp(-R (z0 + beta) T /
    C), and its class at n equals that at n/2; the others run again.  A
    cell goes to the scalar ``monodromy`` (DOP853) when its matrix is not
    finite, when it is still not accepted at MAX_STEPS, or when its max|mu|
    lies within GUARD estimates of a class edge 1 +/- EPS (or within
    STEP_TOL, how closely the two engines agree); a cell whose
    ``monodromy`` fails never aborts the batch.

    The record is a dict of arrays over the cells, every one of which
    this sets: ``mu``, the six multipliers (NaN for a failed cell);
    ``steps``, the accepted step count (0 for a cell sent to
    ``monodromy``); ``richardson``, the accepted Richardson estimate
    relative to max(1, max|mu|) (NaN for those); ``det_rel_err``, the
    relative error of det M against the Liouville value (NaN for every
    cell where that value underflows to 0); and ``error``, a failed
    cell's message, else None.
    """
    pm = periodic_matrix(params, exc, ControlGains(Kp=0.0, Kd=0.0), hyb=hyb)
    det_exact = _liouville_det(params, pm)
    empty = {"mu": np.nan, "steps": 0, "richardson": np.nan, "det_rel_err": np.nan, "error": None}
    for key, value in empty.items():
        record[key][:] = value
    table = functools.cache(lambda steps: pm.table(6 * steps))

    def run(steps: int, cells: np.ndarray) -> np.ndarray:
        return _propagate(*table(steps), kp[cells], kd[cells], pm.period)

    def settle(steps: int, cells: np.ndarray, fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
        """Record the cells accepted at ``steps``; return where the ones to run again lie."""
        finite = np.isfinite(fine).all(axis=(1, 2)) & np.isfinite(coarse).all(axis=(1, 2))
        cells, coarse, fine = cells[finite], coarse[finite], fine[finite]
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
        done = ~retry & (edge_gap > margin)
        for key, value in (("mu", mu_fine), ("richardson", est), ("det_rel_err", det_err)):
            record[key][cells[done]] = value[done]
        record["steps"][cells[done]] = steps
        return np.flatnonzero(finite)[retry]

    with np.errstate(all="ignore"):
        for start in range(0, kp.size, BLOCK):
            _refine(run, np.arange(start, min(start + BLOCK, kp.size)), settle)
    for c in np.flatnonzero(record["steps"] == 0):
        try:
            res = monodromy(params, exc, ControlGains(Kp=float(kp[c]), Kd=float(kd[c])), hyb=hyb)
        except Exception as err:  # per-cell capture: the sweep must finish
            record["error"][c] = f"{type(err).__name__}: {err}"
            continue
        record["mu"][c] = res.multipliers
        record["det_rel_err"][c] = res.stats["det_rel_err"]


def _fill_chunk(pipe, params, exc, hyb, kp, kd, record) -> None:
    """Fill a chunk's cells of the shared record in a child of ``fork``
    (``_batched_cells``), then send its cells' ``error`` messages down
    ``pipe``, pickled: the rest of its record is already in place."""
    _batched_cells(params, exc, hyb, kp, kd, record)
    pickle.dump(record["error"], pipe)


def _cell_record(
    params: PhysicalParams,
    exc: ExcitationParams,
    hyb: HybridParams | None,
    kp: np.ndarray,
    kd: np.ndarray,
    workers: int | None = None,
) -> tuple[dict, int]:
    """The engine's record of the gain cells (kp[c], kd[c]), and the
    number of chunks that filled it.

    The cells are split into one contiguous chunk per process that
    ``output.resolve_workers(workers)`` allows, one where ``os.fork`` is
    missing, but so few that every chunk has at least MIN_CHUNK_CELLS
    cells.  The record's numeric fields are allocated once, as the
    ``_CELL`` rows of an anonymous shared mapping, and its ``error`` field
    in this process.  Chunk 0 fills its cells (``_batched_cells``) in this
    process, and every other chunk in a child of ``fork``
    (``_fill_chunk``) that writes into the mapping and sends only its
    cells' messages down its pipe.  A cell's record does not depend on its
    chunk, so the record is the same for every chunk count.  A child that
    cannot start, fails (``reap``) or exits without sending its messages
    raises ``RuntimeError``.  However this returns or raises, every child
    has been reaped, and one not yet reaped is killed first.
    """
    workers = max(1, min(resolve_workers(workers), kp.size // MIN_CHUNK_CELLS))
    # a mapping cannot be empty, though the cells can
    rows = np.frombuffer(mmap.mmap(-1, max(1, kp.size) * _CELL.itemsize), _CELL, kp.size)
    record = {name: rows[name] for name in _CELL.names}
    record["error"] = np.empty(kp.size, dtype=object)
    bounds = np.linspace(0, kp.size, workers + 1).astype(int)

    def chunk(lo: int, hi: int) -> tuple:
        """The gains and the record of the cells lo:hi, as views."""
        return kp[lo:hi], kd[lo:hi], {key: field[lo:hi] for key, field in record.items()}

    children = []  # (child, lo, hi) of each child not yet reaped
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            children.append((fork("a sweep worker", _fill_chunk, params, exc, hyb, *chunk(lo, hi)), lo, hi))
        _batched_cells(params, exc, hyb, *chunk(0, bounds[1]))
        while children:
            child, lo, hi = children[0]
            try:
                record["error"][lo:hi] = pickle.load(child.pipe)
                fault = None
            except (EOFError, pickle.UnpicklingError):
                fault = "exited with status 0 without sending its cells' messages"
            children.pop(0)
            reap(child, fault)
        return record, workers
    finally:
        for child, _, _ in children:
            reap(child, abort=True)


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

    The classes, max|mu|, errors and engine fields of ``meta`` all come
    from the engine's record of the cells, Kp outer and Kd inner, which
    ``_cell_record`` fills in chunks over at most ``workers`` processes;
    ``meta["workers"]`` is the chunk count, and the output is the same for
    every count.  A range whose width hi - lo overflows raises
    ``ValueError``; a child that fails raises ``RuntimeError``.
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
    cells, workers = _cell_record(params, exc, hyb, np.repeat(kp, ny), np.tile(kd, nx), workers)
    failed = [(c, msg) for c, msg in enumerate(cells["error"]) if msg is not None]
    # derived a block at a time: over the whole grid, _classes' temporaries
    # would take about 100 bytes per cell on top of the record's 128
    blocks = [cells["mu"][lo : lo + BLOCK] for lo in range(0, nx * ny, BLOCK)]
    classes = np.concatenate([_classes(mu) for mu in blocks])
    classes[[c for c, _ in failed]] = "error"
    steps, counts = np.unique(cells["steps"][cells["steps"] > 0], return_counts=True)
    return StabilityMap(
        kp=kp,
        kd=kd,
        classes=classes.reshape(nx, ny),
        max_mu=np.concatenate([np.abs(mu).max(axis=1) for mu in blocks]).reshape(nx, ny),
        errors=[(*divmod(c, ny), msg) for c, msg in failed],
        meta={
            "Kp_range": list(Kp_range),
            "Kd_range": list(Kd_range),
            "nx": nx,
            "ny": ny,
            "eps": EPS,
            "rtol": RTOL,
            "atol": ATOL,
            "method": ENGINE,
            "cells_by_steps": {str(n): int(k) for n, k in zip(steps, counts)},
            "fallback_cells": int(np.count_nonzero(cells["steps"] == 0)),
            # fmax passes over the NaN of the cells the engine did not accept
            "richardson_max": float(np.fmax.reduce(cells["richardson"], initial=0.0)),
            "det_rel_err_max": float(np.fmax.reduce(cells["det_rel_err"], initial=0.0)),
            "workers": workers,
            "hybrid_beta": None if hyb is None else hyb.beta,
        },
    )


def boundary_crossings(
    params: PhysicalParams,
    exc: ExcitationParams,
    scan: tuple[tuple[float, float], tuple[float, float]],
    indicator,
) -> list[tuple[float, float]]:
    """The sign changes, in scan order, of a test function psi along the
    gains from (Kp0, Kd0) to (Kp1, Kd1), each certified to DELTA of the scan.

    ``indicator`` maps an (n, 6, 6) stack of monodromy matrices to psi, an
    analytic function of them, which the batched engine (``_refine``)
    evaluates at NODES first-kind Chebyshev nodes.  The crossings are the
    real roots in the scan of the Chebyshev series through the n-step
    values (``_chebyshev_roots``).  They are certified at n steps when
    psi(n) changes sign across each, and the order-6 Richardson estimate
    |psi(n) - psi(n/2)| / 63 lies below |psi(n)| at every node and at
    DELTA of the scan on either side of each; a scan not certified at
    MAX_STEPS raises ``FloquetError``."""
    (kp0, kd0), (kp1, kd1) = scan
    pm = periodic_matrix(params, exc, ControlGains(Kp=0.0, Kd=0.0))
    table = functools.cache(lambda steps: pm.table(6 * steps))
    angles = np.pi * (np.arange(NODES) + 0.5) / NODES
    # T_k(x) = cos(k arccos x) at the nodes, times 2/N (1/N for k = 0)
    basis = np.cos(np.outer(np.arange(NODES), angles)) * (2.0 / NODES)
    basis[0] /= 2.0
    roots = None

    def psi(steps: int, u: np.ndarray) -> np.ndarray:
        kp, kd = kp0 + u * (kp1 - kp0), kd0 + u * (kd1 - kd0)  # at the fractions u of the scan
        return indicator(_propagate(*table(steps), kp, kd, pm.period))

    def certified(fine: np.ndarray, coarse: np.ndarray) -> bool:
        return bool(np.all(np.abs(fine - coarse) / 63.0 < np.abs(fine)))

    def settle(steps: int, nodes: np.ndarray, fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
        """Every node runs again until the roots of their series are certified."""
        nonlocal roots
        done = certified(fine, coarse)
        if done:
            roots = 0.5 * (1.0 + _chebyshev_roots(basis @ fine))
            ends = (roots[:, None] + np.array([-DELTA, DELTA])).ravel()
            at_ends = psi(steps, ends)
            done = certified(at_ends, psi(steps // 2, ends)) and np.all(at_ends[0::2] * at_ends[1::2] < 0.0)
        return np.full(nodes.size, not done)

    if _refine(psi, 0.5 * (1.0 + np.cos(angles)), settle).size:
        raise FloquetError(f"the scan {scan} is unresolved: its test function's signs are not "
                           f"certified at MAX_STEPS = {MAX_STEPS} steps")
    return [(float(kp0 + u * (kp1 - kp0)), float(kd0 + u * (kd1 - kd0))) for u in roots]


def _chebyshev_roots(coef: np.ndarray) -> np.ndarray:
    """The real roots in [-1, 1], ascending, of the Chebyshev series sum_k
    coef[k] T_k(x): its colleague matrix's eigenvalues (Good 1961) within
    1e-8 of that interval, which a simple root's rounding does not leave."""
    coef = np.trim_zeros(np.asarray(coef, dtype=float), "b")
    degree = coef.size - 1
    if degree < 1:
        return np.empty(0)
    if degree == 1:
        roots = np.array([-coef[0] / coef[1]], dtype=complex)
    else:
        # x T_0 = T_1, x T_k = (T_{k-1} + T_{k+1}) / 2 and sum_k coef[k] T_k = 0
        colleague = np.diag(np.full(degree - 1, 0.5), 1) + np.diag(np.full(degree - 1, 0.5), -1)
        colleague[0, 1] = 1.0
        colleague[-1] -= coef[:-1] / (2.0 * coef[-1])
        roots = np.linalg.eigvals(colleague)
    real = roots[(np.abs(roots.imag) <= 1e-8) & (np.abs(roots.real) <= 1.0 + 1e-8)].real
    return np.sort(np.clip(real, -1.0, 1.0))


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
