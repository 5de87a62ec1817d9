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
from scipy.integrate import solve_ivp

from .linearized import periodic_matrix
from .model import ControlGains, ExcitationParams, HybridParams, PhysicalParams
from .output import write_csv, write_json
from .plant import ATOL, METHOD, RTOL

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
    matters for grid sweeps, and yields the same columns as six separate
    runs at the package tolerances.
    """
    pm = periodic_matrix(params, exc, gains, hyb=hyb)
    fun = lambda t, y: (pm.at(t) @ y.reshape(6, 6)).ravel()
    sol = solve_ivp(
        fun,
        (0.0, pm.period),
        np.eye(6).ravel(),
        method=METHOD,
        rtol=RTOL,
        atol=ATOL,
    )
    if not sol.success:
        raise FloquetError(
            f"monodromy integration failed at Kp={gains.Kp!r}, Kd={gains.Kd!r}: {sol.message}"
        )
    m = sol.y[:, -1].reshape(6, 6)
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
    mu_max = result.max_modulus
    if mu_max < 1.0 - EPS:
        return "stable"
    if mu_max <= 1.0 + EPS:
        return "marginal"
    dom = result.dominant
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


def _sweep_cell(
    params: PhysicalParams,
    exc: ExcitationParams,
    kp: float,
    kd: float,
    hyb: HybridParams | None,
) -> tuple[str, float, str | None]:
    try:
        res = monodromy(params, exc, ControlGains(Kp=kp, Kd=kd), hyb=hyb)
        return classify(res), res.max_modulus, None
    except Exception as err:  # per-cell capture: the sweep must finish
        return "error", float("nan"), f"{type(err).__name__}: {err}"


def _sweep_row(args) -> list[tuple[str, float, str | None]]:
    params, exc, kp, kd_values, hyb = args
    return [_sweep_cell(params, exc, kp, kd, hyb) for kd in kd_values]


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

    Cells are independent; with more than one worker the rows are evaluated
    in a process pool and written back at their grid indices, so the output
    is deterministic regardless of scheduling.
    """
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be at least 2")
    kp = np.linspace(Kp_range[0], Kp_range[1], nx)
    kd = np.linspace(Kd_range[0], Kd_range[1], ny)
    classes = np.empty((nx, ny), dtype=object)
    max_mu = np.full((nx, ny), np.nan)
    errors: list[tuple[int, int, str]] = []

    workers = resolve_workers(workers)
    row_args = [(params, exc, kp[i], kd, hyb) for i in range(nx)]
    if workers > 1 and nx > 1:
        with ProcessPoolExecutor(max_workers=min(workers, nx)) as pool:
            rows = list(pool.map(_sweep_row, row_args))
    else:
        rows = [_sweep_row(a) for a in row_args]
    for i, row in enumerate(rows):
        for j, (cls, mu, err) in enumerate(row):
            classes[i, j] = cls
            max_mu[i, j] = mu
            if err is not None:
                errors.append((i, j, err))
    return StabilityMap(
        kp=kp,
        kd=kd,
        classes=classes,
        max_mu=max_mu,
        errors=errors,
        meta={
            "Kp_range": list(Kp_range),
            "Kd_range": list(Kd_range),
            "nx": nx,
            "ny": ny,
            "eps": EPS,
            "rtol": RTOL,
            "atol": ATOL,
            "method": METHOD,
            "workers": workers,
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
    smap: StabilityMap, path, params, exc, version: str, config: dict | None = None
) -> None:
    """Companion JSON describing exactly what produced a map CSV."""
    payload = {
        "physical": {
            "m": params.m,
            "C": params.C,
            "R": params.R,
            "g": params.g,
            "z0": params.z0,
            "L": params.L,
            "J": params.J,
        },
        "excitation": {"A": exc.A, "Omega": exc.Omega, "theta": exc.theta},
        "grid": smap.meta,
        "cell_errors": [list(e) for e in smap.errors],
        "version": version,
    }
    if config is not None:
        payload["config"] = config
    write_json(path, payload)
