"""Full nonlinear plant: forces, controlled currents, steady state, integration.

Sign convention: z is measured downward from the track, so the airgaps are
Delta_i = z_i - w_i with z_{1,2} = z +/- phi*L/2 the support positions and
w_i the base motion.  Gravity enters the heave equation as +m*g and the
electromagnet force C*I^2/Delta^2 pulls the vehicle up (negative sign):

    m z''   = m g - F1 - F2
    J phi'' = -(F1 - F2) L/2
    I'      = (Delta/2C) (U - R I) + (Delta'/Delta) I

with the PD voltage U = Uss + Kp (Delta - Delta_ss) + Kd (Delta' - Delta_ss').
The steady state holds the body fixed at z0 while gaps, currents and voltages
oscillate with the base; it solves the equations exactly, not approximately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .model import ControlGains, ExcitationParams, HybridParams, PhysicalParams
from .output import write_csv

__all__ = [
    "VehicleState",
    "SteadyStateSample",
    "Trajectory",
    "support_motion",
    "steady_state",
    "control_voltage",
    "rhs",
    "rhs_hybrid",
    "hybrid_gamma",
    "hybrid_transform",
    "steady_vehicle_state",
    "integrate",
    "write_trajectory_csv",
    "TRAJECTORY_CSV_HEADER",
]

TRAJECTORY_CSV_HEADER = "t,z,zdot,phi,phidot,I1,I2,gap1,gap2"

# the one solver policy, shared by trajectories, perturbation runs and
# monodromy matrices
METHOD = "DOP853"
RTOL = 1e-10
ATOL = 1e-12
SAMPLES_PER_PERIOD = 200  # integrate()'s default output grid

# integrate() declares contact when a gap falls below this fraction of the
# nominal one; rhs denominators are floored at the tighter _EVAL fraction so
# adaptive trial steps can probe past the closure event without blowing up
CLOSURE_FRACTION = 0.01
_EVAL_FLOOR_FRACTION = 1e-3


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


def current_scale(params: PhysicalParams) -> float:
    """Current per unit gap in steady state, sqrt(m*g/(2C)) (A/m)."""
    return np.sqrt(params.m * params.g / (2.0 * params.C))


def support_motion(exc: ExcitationParams, t):
    """Base displacement under each support: w1 = A cos(Omega t),
    w2 = A cos(Omega t - theta).  Vectorized in t."""
    ph = exc.Omega * np.asarray(t, dtype=float)
    return exc.A * np.cos(ph), exc.A * np.cos(ph - exc.theta)


@dataclass(frozen=True)
class SteadyStateSample:
    """Exact periodic steady state evaluated at given instants.

    Gaps follow the base motion (the body stays at z0), currents are
    proportional to the gaps with slope sqrt(m*g/2C), and voltages are the
    resistive drop R*I.  All rates are analytic derivatives.
    """

    t: np.ndarray
    gap1: np.ndarray
    gap2: np.ndarray
    gap1_rate: np.ndarray
    gap2_rate: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    I1_rate: np.ndarray
    I2_rate: np.ndarray
    U1: np.ndarray
    U2: np.ndarray


def steady_state(params: PhysicalParams, exc: ExcitationParams, t) -> SteadyStateSample:
    """Evaluate the exact steady state at time(s) t.

    Delta_ss,i = z0 - w_i(t); I_ss = sqrt(m g / 2C) * Delta_ss; U_ss = R I_ss.
    Substituted back into the plant equations these leave zero residuals for
    every t, every A < z0 and every theta.
    """
    t = np.asarray(t, dtype=float)
    w1, w2 = support_motion(exc, t)
    d1 = params.z0 - w1
    d2 = params.z0 - w2
    ph = exc.Omega * t
    d1dot = exc.A * exc.Omega * np.sin(ph)
    d2dot = exc.A * exc.Omega * np.sin(ph - exc.theta)
    kappa = current_scale(params)
    return SteadyStateSample(
        t=t,
        gap1=d1,
        gap2=d2,
        gap1_rate=d1dot,
        gap2_rate=d2dot,
        I1=kappa * d1,
        I2=kappa * d2,
        I1_rate=kappa * d1dot,
        I2_rate=kappa * d2dot,
        U1=params.R * kappa * d1,
        U2=params.R * kappa * d2,
    )


def control_voltage(gains: ControlGains, delta, delta_dot, ss: SteadyStateSample):
    """PD coil voltages for gap pair delta = (d1, d2) and rates delta_dot."""
    d1, d2 = delta
    d1dot, d2dot = delta_dot
    u1 = ss.U1 + gains.Kp * (d1 - ss.gap1) + gains.Kd * (d1dot - ss.gap1_rate)
    u2 = ss.U2 + gains.Kp * (d2 - ss.gap2) + gains.Kd * (d2dot - ss.gap2_rate)
    return u1, u2


def _gaps(state, t, params: PhysicalParams, exc: ExcitationParams):
    z, zdot, phi, phidot = state[0], state[1], state[2], state[3]
    w1, w2 = support_motion(exc, t)
    half = 0.5 * params.L
    d1 = z + half * phi - w1
    d2 = z - half * phi - w2
    ph = exc.Omega * t
    # d/dt of w enters the gap rates with opposite sign
    d1dot = zdot + half * phidot + exc.A * exc.Omega * np.sin(ph)
    d2dot = zdot - half * phidot + exc.A * exc.Omega * np.sin(ph - exc.theta)
    return d1, d2, d1dot, d2dot


def rhs(state, t, params: PhysicalParams, exc: ExcitationParams, gains: ControlGains) -> np.ndarray:
    """Time derivative of (z, zdot, phi, phidot, I1, I2) for the standard plant.

    Gap denominators are floored at 0.1% of z0: exact above the floor, and a
    finite (if enormous) force below it, so an adaptive integrator can
    evaluate trial stages past the contact event instead of hitting the
    1/gap^2 singularity.
    """
    z, zdot, phi, phidot, i1, i2 = state
    d1, d2, d1dot, d2dot = _gaps(state, t, params, exc)
    floor = _EVAL_FLOOR_FRACTION * params.z0
    d1e = d1 if d1 > floor else floor
    d2e = d2 if d2 > floor else floor
    ss = steady_state(params, exc, t)
    u1, u2 = control_voltage(gains, (d1, d2), (d1dot, d2dot), ss)
    f1 = params.C * i1 * i1 / (d1e * d1e)
    f2 = params.C * i2 * i2 / (d2e * d2e)
    zdd = params.g - (f1 + f2) / params.m
    phidd = -(f1 - f2) * params.L / (2.0 * params.J)
    twoC = 2.0 * params.C
    i1dot = (d1e / twoC) * (u1 - params.R * i1 + twoC * i1 * d1dot / (d1e * d1e))
    i2dot = (d2e / twoC) * (u2 - params.R * i2 + twoC * i2 * d2dot / (d2e * d2e))
    return np.array([zdot, zdd, phidot, phidd, i1dot, i2dot])


def hybrid_gamma(params: PhysicalParams, beta: float) -> float:
    """Current offset that lets the permanent magnets carry the static load:
    gamma = sqrt(m*g/2C) * (z0 + beta), so steady currents are zero."""
    if params.z0 + beta <= 0.0:
        raise ValueError("z0 + beta must be positive")
    return float(current_scale(params) * (params.z0 + beta))


def rhs_hybrid(
    state,
    t,
    params: PhysicalParams,
    exc: ExcitationParams,
    gains: ControlGains,
    hyb: HybridParams,
) -> np.ndarray:
    """Time derivative for the hybrid-magnet plant.

    The permanent magnet shifts the force law to C*((I+gamma)/(Delta+beta))^2
    and the current equation accordingly; the PD law still acts on the
    physical gap error.  With beta = gamma = 0 this reduces to :func:`rhs`.
    """
    z, zdot, phi, phidot, i1, i2 = state
    d1, d2, d1dot, d2dot = _gaps(state, t, params, exc)
    ss = steady_state(params, exc, t)
    kappa = current_scale(params)
    iss1 = kappa * (ss.gap1 + hyb.beta) - hyb.gamma
    iss2 = kappa * (ss.gap2 + hyb.beta) - hyb.gamma
    u1 = params.R * iss1 + gains.Kp * (d1 - ss.gap1) + gains.Kd * (d1dot - ss.gap1_rate)
    u2 = params.R * iss2 + gains.Kp * (d2 - ss.gap2) + gains.Kd * (d2dot - ss.gap2_rate)
    # same trial-stage floor as rhs, on the effective gap Delta + beta
    floor = _EVAL_FLOOR_FRACTION * (params.z0 + hyb.beta)
    e1 = d1 + hyb.beta
    e2 = d2 + hyb.beta
    e1 = e1 if e1 > floor else floor
    e2 = e2 if e2 > floor else floor
    j1 = i1 + hyb.gamma
    j2 = i2 + hyb.gamma
    f1 = params.C * j1 * j1 / (e1 * e1)
    f2 = params.C * j2 * j2 / (e2 * e2)
    zdd = params.g - (f1 + f2) / params.m
    phidd = -(f1 - f2) * params.L / (2.0 * params.J)
    twoC = 2.0 * params.C
    i1dot = (e1 / twoC) * (u1 - params.R * i1) + (j1 / e1) * d1dot
    i2dot = (e2 / twoC) * (u2 - params.R * i2) + (j2 / e2) * d2dot
    return np.array([zdot, zdd, phidot, phidd, i1dot, i2dot])


def hybrid_transform(state: VehicleState, hyb: HybridParams, inverse: bool = False) -> VehicleState:
    """Shift a hybrid-plant state into the equivalent standard-plant variables.

    Gaps shift by +beta (z shifts, phi does not) and currents by +gamma;
    rates are unchanged.  The transformed trajectory obeys the standard
    plant with nominal gap z0 + beta.  ``inverse=True`` undoes the shift.
    """
    s = -1.0 if inverse else 1.0
    return VehicleState(
        z=state.z + s * hyb.beta,
        zdot=state.zdot,
        phi=state.phi,
        phidot=state.phidot,
        I1=state.I1 + s * hyb.gamma,
        I2=state.I2 + s * hyb.gamma,
    )


def steady_vehicle_state(
    params: PhysicalParams,
    exc: ExcitationParams,
    t: float = 0.0,
    hyb: HybridParams | None = None,
) -> VehicleState:
    """VehicleState on the exact steady state at time t (body at z0, no pitch).

    The hybrid plant's steady currents are kappa*(Delta_ss + beta) - gamma.
    """
    ss = steady_state(params, exc, t)
    if hyb is None:
        i1, i2 = ss.I1, ss.I2
    else:
        kappa = current_scale(params)
        i1 = kappa * (ss.gap1 + hyb.beta) - hyb.gamma
        i2 = kappa * (ss.gap2 + hyb.beta) - hyb.gamma
    return VehicleState(params.z0, 0.0, 0.0, 0.0, float(i1), float(i2))


@dataclass
class Trajectory:
    """Integration result: samples plus integrator metadata.

    ``states`` has one row per sample in the order
    (z, zdot, phi, phidot, I1, I2); ``gap1``/``gap2`` are the derived airgaps.
    """

    t: np.ndarray
    states: np.ndarray
    gap1: np.ndarray
    gap2: np.ndarray
    meta: dict = field(default_factory=dict)

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
) -> Trajectory:
    """Integrate the plant over t_span with adaptive stepping.

    Without ``t_eval`` the output grid holds SAMPLES_PER_PERIOD samples
    per excitation period.

    An airgap falling below 1% of the nominal z0 counts as contact and
    terminates the run (the model has no track-contact physics); the partial
    trajectory is returned with ``meta["aborted"] = True`` and the closure
    time recorded.  Negative currents do not stop the run (the force law is
    sign-blind) but are flagged in ``meta["negative_current"]``.
    """
    if mode not in ("standard", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "hybrid":
        if hyb is None:
            raise ValueError("hybrid mode needs HybridParams")
        fun = lambda t, y: rhs_hybrid(y, t, params, exc, gains, hyb)
    else:
        fun = lambda t, y: rhs(y, t, params, exc, gains)
    contact = CLOSURE_FRACTION * params.z0

    def gap_closure(t, y):
        d1, d2, _, _ = _gaps(y, t, params, exc)
        return min(d1, d2) - contact

    gap_closure.terminal = True
    gap_closure.direction = -1

    if t_eval is None:
        n = max(2, int(round(SAMPLES_PER_PERIOD * (t_span[1] - t_span[0]) / exc.period)))
        t_eval = np.linspace(t_span[0], t_span[1], n + 1)

    sol = solve_ivp(
        fun,
        t_span,
        initial.as_array(),
        method=METHOD,
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        events=gap_closure,
        dense_output=False,
    )
    if sol.status == -1:
        raise RuntimeError(f"integration failed: {sol.message}")

    t = sol.t
    states = sol.y.T
    aborted = sol.status == 1
    if aborted and sol.t_events[0].size:
        # append the event sample so the closure time is part of the record
        t_ev = float(sol.t_events[0][0])
        if t.size == 0 or t_ev > t[-1]:
            t = np.append(t, t_ev)
            states = np.vstack([states, sol.y_events[0][0]])
    w1, w2 = support_motion(exc, t)
    half = 0.5 * params.L
    gap1 = states[:, 0] + half * states[:, 2] - w1
    gap2 = states[:, 0] - half * states[:, 2] - w2
    meta = {
        "method": METHOD,
        "rtol": rtol,
        "atol": atol,
        "nfev": int(sol.nfev),
        "status": int(sol.status),
        "message": str(sol.message),
        "aborted": aborted,
        "mode": mode,
        "negative_current": bool(np.any(states[:, 4:6] < 0.0)),
    }
    if aborted:
        meta["abort_time"] = float(t[-1])
    return Trajectory(t=t, states=states, gap1=gap1, gap2=gap2, meta=meta)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write samples as CSV with full double precision (17 significant digits)."""
    write_csv(path, TRAJECTORY_CSV_HEADER, [traj.t, *traj.states.T, traj.gap1, traj.gap2])
