"""Full nonlinear plant: forces, controlled currents, integration.

Sign convention: z is measured downward from the track, so the airgaps are
Delta_i = z_i - w_i with z_{1,2} = z +/- phi*L/2 the support positions and
w_i the base motion.  Gravity enters the heave equation as +m*g and the
electromagnet force C*I^2/Delta^2 pulls the vehicle up (negative sign):

    m z''   = m g - F1 - F2
    J phi'' = -(F1 - F2) L/2
    I'      = (Delta/2C) (U - R I) + (Delta'/Delta) I

with the PD voltage U = Uss + Kp (Delta - Delta_ss) + Kd (Delta' - Delta_ss').
The steady state, :func:`levstab.model.steady_state`, holds the body fixed at
z0 while gaps, currents and voltages oscillate with the base; it solves these
equations exactly, not approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dop853  # lazy: importing the plant does not run the solver
from .model import (
    ATOL,
    METHOD,
    RTOL,
    ControlGains,
    ExcitationParams,
    HybridParams,
    PhysicalParams,
    SteadyStateSample,
    _steady_kernel,
    hybrid_gamma,
    steady_state,
)
from .output import write_csv

__all__ = [
    "VehicleState",
    "Trajectory",
    "rhs",
    "rhs_hybrid",
    "hybrid_transform",
    "steady_vehicle_state",
    "output_grid",
    "integrate",
    "write_trajectory_csv",
    "TRAJECTORY_CSV_HEADER",
]

TRAJECTORY_CSV_HEADER = "t,z,zdot,phi,phidot,I1,I2,gap1,gap2"

SAMPLES_PER_PERIOD = 200  # integrate()'s default output grid
# a run holds about 80 bytes per output sample at its peak, the grid, the
# solver's output rows, their times and the gap columns, plus under 1 MB for
# the solver's queued steps, their stacked dense output and its sampling
# blocks (tracemalloc over 20-, 80- and 320-period runs of the standard
# plant: 253, 117 and 83 bytes per sample).  The cap was set at 160 bytes per
# sample, when the solver also held its per-step chunks, and is kept: a 1 GiB
# budget allows 2**30 // 160 = 6,710,886 samples, 33,554 periods at
# SAMPLES_PER_PERIOD
MAX_SAMPLES = 2**30 // 160
# integrate() stops a run whose RHS evaluations exceed
# MAX_NFEV_PER_PERIOD * (1 + elapsed time / T).  The largest count measured
# against that allowance is 515 per period (the benchmark's rtol 1e-12
# reference runs, seeds 1-10; the test suite peaks at 508, in the battery's
# criterion 9), so 12,000 leaves 23x headroom, while stiff gains such as
# Kp = Kd = 1e10, at about 41,600 per period, stop within the first period
MAX_NFEV_PER_PERIOD = 12_000

# integrate() declares contact when a gap falls below this fraction of the
# nominal one; rhs denominators are floored at the tighter _EVAL fraction so
# adaptive trial steps can probe past the closure event without blowing up
CLOSURE_FRACTION = 0.01
_EVAL_FLOOR_FRACTION = 1e-3


# a dataclass: its callers, benchmarks/checks.py among them, copy it with
# dataclasses.replace
@dataclass(frozen=True)
class VehicleState:
    """Nonlinear plant state: heave z, pitch phi, their rates, coil currents."""

    z: float
    zdot: float
    phi: float
    phidot: float
    I1: float
    I2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.z, self.zdot, self.phi, self.phidot, self.I1, self.I2])


def _gaps(state, params: PhysicalParams, ss: SteadyStateSample):
    """Airgaps of state rows (z, zdot, phi, phidot, ...) over the base
    motion recorded in ss."""
    z, phi = state[0], state[2]
    half = 0.5 * params.L
    return z + half * phi - ss.w1, z - half * phi - ss.w2


# the derivative of the last configuration that rhs or rhs_hybrid served,
# keyed on the identity of its frozen (params, exc, gains, hyb) objects: one
# tuple, read once per call, so that a miss replaces the entry whole
_last_derivative = (None, None, None, None, None)


def _derivative(params: PhysicalParams, exc: ExcitationParams, gains: ControlGains, hyb):
    """``rhs`` (hyb None) or ``rhs_hybrid`` at one configuration, as a
    function of (state, t), with the configuration's constants hoisted and
    the arithmetic of the gaps, voltages, forces and currents written out;
    it becomes the entry of ``_last_derivative``.

    It takes one state and a float t, computed on Python floats with
    math's cos and sin, or a (k, 6) stack of states and a (k,) array of
    times, computed column by column with numpy's cos and sin, which equal
    math's bit for bit.  The floor keeps a gap d only where ``d > floor``,
    in either form, so a NaN gap takes the floor.
    """
    global _last_derivative
    steady_one = _steady_kernel(params, exc, hyb)
    steady_stack = _steady_kernel(params, exc, hyb, np.cos, np.sin)
    half = 0.5 * params.L
    kp, kd = gains.Kp, gains.Kd
    C, R, g, m, L = params.C, params.R, params.g, params.m, params.L
    twoC, twoJ = 2.0 * C, 2.0 * params.J
    if hyb is None:
        beta = gamma = None
        floor = _EVAL_FLOOR_FRACTION * params.z0
    else:
        beta, gamma = hyb.beta, hybrid_gamma(params, hyb.beta)
        # same trial-stage floor as rhs, on the effective gap Delta + beta
        floor = _EVAL_FLOOR_FRACTION * (params.z0 + beta)

    def derivative(state, t):
        one = isinstance(t, float)
        # one state as Python floats, cheaper in scalar arithmetic than
        # numpy scalars, or a stack as its columns
        if one:
            z, zdot, phi, phidot, i1, i2 = state.tolist()
            w1, w2, s1, s2, s1dot, s2dot, _, _, U1, U2 = steady_one(t)
        else:
            z, zdot, phi, phidot, i1, i2 = state.T
            w1, w2, s1, s2, s1dot, s2dot, _, _, U1, U2 = steady_stack(t)
        d1 = z + half * phi - w1
        d2 = z - half * phi - w2
        d1dot = zdot + half * phidot + s1dot
        d2dot = zdot - half * phidot + s2dot
        u1 = U1 + kp * (d1 - s1) + kd * (d1dot - s1dot)
        u2 = U2 + kp * (d2 - s2) + kd * (d2dot - s2dot)
        # the effective gaps, floored
        e1, e2 = (d1, d2) if beta is None else (d1 + beta, d2 + beta)
        if one:
            e1 = e1 if e1 > floor else floor
            e2 = e2 if e2 > floor else floor
        else:
            e1, e2 = np.where(e1 > floor, e1, floor), np.where(e2 > floor, e2, floor)
        if beta is None:
            f1 = C * i1 * i1 / (e1 * e1)
            f2 = C * i2 * i2 / (e2 * e2)
            i1dot = (e1 / twoC) * (u1 - R * i1 + twoC * i1 * d1dot / (e1 * e1))
            i2dot = (e2 / twoC) * (u2 - R * i2 + twoC * i2 * d2dot / (e2 * e2))
        else:
            j1 = i1 + gamma
            j2 = i2 + gamma
            f1 = C * j1 * j1 / (e1 * e1)
            f2 = C * j2 * j2 / (e2 * e2)
            i1dot = (e1 / twoC) * (u1 - R * i1) + (j1 / e1) * d1dot
            i2dot = (e2 / twoC) * (u2 - R * i2) + (j2 / e2) * d2dot
        zdd = g - (f1 + f2) / m
        phidd = -(f1 - f2) * L / twoJ
        out = np.array([zdot, zdd, phidot, phidd, i1dot, i2dot])
        return out if one else out.T

    _last_derivative = (params, exc, gains, hyb, derivative)
    return derivative


def rhs(state, t, params: PhysicalParams, exc: ExcitationParams, gains: ControlGains) -> np.ndarray:
    """Time derivative of (z, zdot, phi, phidot, I1, I2) for the standard plant.

    ``state`` is one state and t a float, or ``state`` is a (k, 6) stack
    of states, one row each, and t a (k,) array of their times; the
    result is shaped like ``state``.  Both forms go through the one
    derivative of the configuration, kept while the same objects come in.

    Gap denominators are floored at 0.1% of z0: exact above the floor, and a
    finite (if enormous) force below it, so an adaptive integrator can
    evaluate trial stages past the contact event instead of hitting the
    1/gap^2 singularity.
    """
    p, e, g, h, derivative = _last_derivative
    if p is not params or e is not exc or g is not gains or h is not None:
        derivative = _derivative(params, exc, gains, None)
    return derivative(state, t)


def rhs_hybrid(
    state,
    t,
    params: PhysicalParams,
    exc: ExcitationParams,
    gains: ControlGains,
    hyb: HybridParams,
) -> np.ndarray:
    """Time derivative for the hybrid-magnet plant, of one state or a
    stack of states as for :func:`rhs`.

    The permanent magnet shifts the force law to C*((I+gamma)/(Delta+beta))^2,
    gamma = ``hybrid_gamma(params, hyb.beta)``, and the current equation
    accordingly; the PD law still acts on the physical gap error.  Shifted by
    :func:`hybrid_transform`, it is :func:`rhs` with the nominal gap z0 + beta.
    """
    p, e, g, h, derivative = _last_derivative
    if p is not params or e is not exc or g is not gains or h is not hyb:
        derivative = _derivative(params, exc, gains, hyb)
    return derivative(state, t)


def hybrid_transform(state: VehicleState, params: PhysicalParams, hyb: HybridParams) -> VehicleState:
    """Shift a hybrid-plant state into the equivalent standard-plant variables.

    Gaps shift by +beta (z shifts, phi does not) and currents by +gamma of
    ``hybrid_gamma``; rates are unchanged.  The transformed trajectory obeys
    the standard plant with nominal gap z0 + beta.
    """
    gamma = hybrid_gamma(params, hyb.beta)
    return VehicleState(
        z=state.z + hyb.beta,
        zdot=state.zdot,
        phi=state.phi,
        phidot=state.phidot,
        I1=state.I1 + gamma,
        I2=state.I2 + gamma,
    )


def steady_vehicle_state(
    params: PhysicalParams,
    exc: ExcitationParams,
    t: float = 0.0,
    hyb: HybridParams | None = None,
) -> VehicleState:
    """VehicleState on the exact steady state at time t (body at z0, no pitch),
    with the hybrid plant's currents when ``hyb`` is given."""
    ss = steady_state(params, exc, t, hyb)
    return VehicleState(params.z0, 0.0, 0.0, 0.0, float(ss.I1), float(ss.I2))


def output_grid(t_span: tuple[float, float], exc: ExcitationParams) -> np.ndarray:
    """The sample times ``integrate`` uses without ``t_eval``:
    SAMPLES_PER_PERIOD per excitation period, and both ends of t_span.

    A grid of more than MAX_SAMPLES samples raises ``ValueError`` naming
    the limit, before anything is allocated, an infinite count included.
    """
    intervals = SAMPLES_PER_PERIOD * (t_span[1] - t_span[0]) / exc.period
    # clamped before rounding, which cannot convert an infinite count
    n = max(2, round(min(intervals, MAX_SAMPLES + 1)))
    # n intervals between n + 1 samples, both ends included
    if n + 1 > MAX_SAMPLES:
        raise ValueError(
            f"{intervals + 1:.7g} output samples exceed the limit of MAX_SAMPLES = {MAX_SAMPLES} "
            f"({MAX_SAMPLES // SAMPLES_PER_PERIOD} periods; a 1 GiB budget at "
            "160 bytes per sample)"
        )
    return np.linspace(t_span[0], t_span[1], n + 1)


class Trajectory(NamedTuple):
    """Integration result: samples plus integrator metadata.

    ``states`` has one row per sample in the order
    (z, zdot, phi, phidot, I1, I2); ``gap1``/``gap2`` are the derived airgaps.
    """

    t: np.ndarray
    states: np.ndarray
    gap1: np.ndarray
    gap2: np.ndarray
    meta: dict

    @property
    def aborted(self) -> bool:
        return bool(self.meta.get("aborted", False))


def integrate(
    initial: VehicleState,
    t_span: tuple[float, float],
    params: PhysicalParams,
    exc: ExcitationParams,
    gains: ControlGains,
    mode: str = "standard",
    hyb: HybridParams | None = None,
    rtol: float = RTOL,
    atol: float = ATOL,
    t_eval=None,
    sink=None,
) -> Trajectory:
    """Integrate the plant over t_span with adaptive stepping.

    Without ``t_eval`` the output grid is ``output_grid(t_span, exc)``,
    SAMPLES_PER_PERIOD samples per excitation period.  A run that needs
    more than MAX_NFEV_PER_PERIOD RHS evaluations per period, counted from
    t_span[0] plus one period of slack, raises ``RuntimeError`` naming the
    limit; one whose state turns non-finite raises it on the first NaN time.

    A start with an airgap below the contact threshold CLOSURE_FRACTION *
    z0, 1% of the nominal gap, raises ``ValueError`` naming the gap before
    the first RHS evaluation, since the closure event fires only on a
    falling crossing.  An airgap falling through it counts as contact and
    terminates the run (the model has no track-contact physics); the partial
    trajectory is returned with ``meta["aborted"] = True`` and the closure
    time recorded.  A negative current in the force law, I on the standard
    plant and I + ``hybrid_gamma`` on the hybrid one, does not stop the run
    (the force law is sign-blind) but is flagged in
    ``meta["negative_current"]``.

    ``sink(columns)``, if given, gets the trajectory's rows while the run
    goes on, a block at a time as the solver makes them final, and the
    closure sample last: ``columns`` holds the block's t, the six state
    columns and gap1, gap2, in the order of TRAJECTORY_CSV_HEADER.  They
    are views into the arrays the run is filling and returns, so a sink
    must serialize them before it returns.  An exception the sink raises
    ends the run and propagates.
    """
    if mode not in ("standard", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    if (mode == "hybrid") != (hyb is not None):
        raise ValueError("HybridParams go with mode 'hybrid' and only with it")

    t0 = float(t_span[0])
    period = exc.period
    nfev = 0

    def fun(t, y):
        # a stack of k states counts k evaluations, checked at its last time
        nonlocal nfev
        if isinstance(t, float):
            nfev += 1
            t_last = t
        else:
            nfev += t.size
            t_last = float(t.max())
        # a NaN time, which follows a non-finite state or derivative, fails it too
        if nfev <= MAX_NFEV_PER_PERIOD * (1.0 + (t_last - t0) / period):
            if hyb is None:
                return rhs(y, t, params, exc, gains)
            return rhs_hybrid(y, t, params, exc, gains, hyb)
        if not math.isfinite(t_last):
            raise RuntimeError(
                f"integration stopped after {nfev} RHS evaluations: "
                "the state or its derivative became non-finite"
            )
        raise RuntimeError(
            f"integration stopped at t = {t_last:.6g} s after {nfev} RHS evaluations, over the "
            f"budget of MAX_NFEV_PER_PERIOD = {MAX_NFEV_PER_PERIOD} per excitation period"
        )

    contact = CLOSURE_FRACTION * params.z0
    start = initial.as_array()
    for name, gap in zip(("gap1", "gap2"), _gaps(start, params, steady_state(params, exc, t0))):
        if gap < contact:
            raise ValueError(
                f"the start has {name} = {gap:.6g} m, below the contact threshold "
                f"CLOSURE_FRACTION * z0 = {contact:.6g} m"
            )
    half = 0.5 * params.L
    steady = _steady_kernel(params, exc)

    def gap_closure(t, y):
        # _gaps' airgaps, on Python floats
        w1, w2 = steady(t)[:2]
        z, _, phi, _, _, _ = y.tolist()
        return min(z + half * phi - w1, z - half * phi - w2) - contact

    if t_eval is None:
        t_eval = output_grid(t_span, exc)
    # the gap columns, filled a block of samples at a time as the solver
    # hands them over, with one slot more for the closure sample
    gaps = np.empty((2, len(t_eval) + 1))
    done = 0

    def on_samples(t, y):
        nonlocal done
        block = gaps[:, done : done + t.size]
        block[0], block[1] = _gaps(y.T, params, steady_state(params, exc, t))
        done += t.size
        if sink is not None:
            sink((t, *y.T, *block))

    sol = dop853.solve(
        fun,
        t_span,
        start,
        rtol,
        atol,
        t_eval=t_eval,
        event=gap_closure,
        on_samples=on_samples,
    )
    if sol.status == -1:
        raise RuntimeError(f"integration failed: {sol.message}")

    t = sol.t
    states = sol.y
    aborted = sol.status == 1
    # append the event sample so the closure time is part of the record
    if aborted and (t.size == 0 or sol.t_event > t[-1]):
        t = np.append(t, sol.t_event)
        states = np.vstack([states, sol.y_event])
        on_samples(t[-1:], states[-1:])
    gap1, gap2 = gaps[:, : t.size]
    # the current the force law squares is I, or I + gamma on the hybrid plant
    shift = 0.0 if hyb is None else hybrid_gamma(params, hyb.beta)
    meta = {
        "method": METHOD,
        "rtol": rtol,
        "atol": atol,
        "nfev": int(sol.nfev),
        "status": int(sol.status),
        "message": str(sol.message),
        "aborted": aborted,
        "mode": mode,
        "negative_current": bool(np.any(states[:, 4:6] + shift < 0.0)),
    }
    if aborted:
        meta["abort_time"] = float(t[-1])
    return Trajectory(t=t, states=states, gap1=gap1, gap2=gap2, meta=meta)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write samples as CSV with full double precision (17 significant
    digits), in the bytes ``output.csv_stream``'s forked writer gives the
    same rows: ``simulate``'s writer for a run that forks none."""
    write_csv(path, TRAJECTORY_CSV_HEADER, [traj.t, *traj.states.T, traj.gap1, traj.gap2])
