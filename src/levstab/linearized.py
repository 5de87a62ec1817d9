"""Linearized time-periodic dynamics about the oscillating steady state.

Perturbation coordinates are per-support gap errors and current errors,
ordered x = (dtr1, dtr1', Itr1, dtr2, dtr2', Itr2).  The first-order system
x' = A(t) x has T-periodic coefficients because the steady-state gaps enter
them; with excitation amplitude A = 0 the matrix is constant and the
translational and rotational subsystems decouple exactly.

Force-balance rows use the perturbation force gradients

    G_i = (2 C Iss_i^2 / dss_i^3) dtr_i - (2 C Iss_i / dss_i^2) Itr_i

with (m/2)(dtr1'' + dtr2'') = G1 + G2 and (2J/L^2)(dtr1'' - dtr2'') = G1 - G2
solved jointly for the two accelerations.  Current rows come from the
linearized coil equation

    Itr' = (Kp dss/2C - dss' Iss/dss^2) dtr
         + (Kd/2C + Iss/dss^2) dss dtr'
         - (R dss^2 - 2C dss')/(2C dss) Itr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .model import ControlGains, ExcitationParams, HybridParams, PhysicalParams
from .plant import (
    current_scale,
    rhs,
    rhs_hybrid,
    steady_state,
    steady_vehicle_state,
)

__all__ = [
    "PeriodicMatrix",
    "ReducedResidual",
    "StaticStability",
    "UnexcitedSpectrum",
    "periodic_matrix",
    "fd_jacobian",
    "integrate_perturbation",
    "reduced_residual",
    "unexcited_spectrum",
    "is_statically_stable",
]


class PeriodicMatrix:
    """Evaluator of the 6x6 coefficient matrix A(t), periodic with T = 2pi/Omega."""

    def __init__(
        self,
        params: PhysicalParams,
        exc: ExcitationParams,
        gains: ControlGains,
        gap_offset: float = 0.0,
    ):
        self.params = params
        self.exc = exc
        self.gains = gains
        self.gap_offset = gap_offset
        self.period = exc.period
        # joint solve of the two force-balance rows for the accelerations:
        # [m/2, m/2; 2J/L^2, -2J/L^2] [d1''; d2''] = [G1+G2; G1-G2]
        m, J, L = params.m, params.J, params.L
        lhs = np.array([[m / 2.0, m / 2.0], [2.0 * J / L**2, -2.0 * J / L**2]])
        try:
            w = np.linalg.solve(lhs, np.eye(2))
        except np.linalg.LinAlgError as err:  # unreachable for m, J > 0
            raise RuntimeError("acceleration solve singular") from err
        # d_i'' = wp_i * G1 + wm_i * G2
        self._w11 = w[0, 0] + w[0, 1]
        self._w12 = w[0, 0] - w[0, 1]
        self._w21 = w[1, 0] + w[1, 1]
        self._w22 = w[1, 0] - w[1, 1]

    def at(self, t: float) -> np.ndarray:
        """Coefficient matrix at time t."""
        p = self.params
        ss = steady_state(p, self.exc, t)
        out = np.zeros((6, 6))
        off = self.gap_offset
        d = (float(ss.gap1) + off, float(ss.gap2) + off)
        ddot = (float(ss.gap1_rate), float(ss.gap2_rate))
        kappa = current_scale(p)
        iss = (kappa * d[0], kappa * d[1])
        # gradients of the force perturbations G_i, per support
        ca = (
            2.0 * p.C * iss[0] ** 2 / d[0] ** 3,
            2.0 * p.C * iss[1] ** 2 / d[1] ** 3,
        )
        cb = (
            2.0 * p.C * iss[0] / d[0] ** 2,
            2.0 * p.C * iss[1] / d[1] ** 2,
        )
        out[0, 1] = 1.0
        out[1, 0] = self._w11 * ca[0]
        out[1, 2] = -self._w11 * cb[0]
        out[1, 3] = self._w12 * ca[1]
        out[1, 5] = -self._w12 * cb[1]
        out[3, 4] = 1.0
        out[4, 0] = self._w21 * ca[0]
        out[4, 2] = -self._w21 * cb[0]
        out[4, 3] = self._w22 * ca[1]
        out[4, 5] = -self._w22 * cb[1]
        twoC = 2.0 * p.C
        for row, k in ((2, 0), (5, 1)):
            out[row, 3 * k] = self.gains.Kp / twoC * d[k] - ddot[k] * iss[k] / d[k] ** 2
            out[row, 3 * k + 1] = (self.gains.Kd / twoC + iss[k] / d[k] ** 2) * d[k]
            out[row, 3 * k + 2] = -(p.R * d[k] ** 2 - twoC * ddot[k]) / (twoC * d[k])
        return out

    def __call__(self, t: float) -> np.ndarray:
        return self.at(t)


def periodic_matrix(
    params: PhysicalParams,
    exc: ExcitationParams,
    gains: ControlGains,
    hyb: HybridParams | None = None,
) -> PeriodicMatrix:
    """Assemble A(t) for the standard plant, or for the hybrid plant
    linearized about its own steady state.

    The hybrid coefficients involve the shifted gap dss + beta and the total
    magnet current Iss + gamma = kappa*(dss + beta); the current offset gamma
    itself cancels, so the linearization equals the standard one with the
    nominal gap z0 + beta.
    """
    if exc.A >= params.z0:
        raise ValueError("A >= z0: steady-state gap closes")
    return PeriodicMatrix(params, exc, gains, gap_offset=0.0 if hyb is None else hyb.beta)


def _vehicle_to_support_basis(L: float) -> np.ndarray:
    """Map (ztr, ztr', phitr, phitr', I1tr, I2tr) to the per-support state."""
    half = 0.5 * L
    return np.array(
        [
            [1.0, 0.0, half, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, half, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, -half, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, -half, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )


def fd_jacobian(
    params: PhysicalParams,
    exc: ExcitationParams,
    gains: ControlGains,
    t: float,
    step: float = 1e-7,
    hyb: HybridParams | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of the nonlinear plant along its steady
    state at phase t, expressed in the per-support perturbation basis.

    Differences are taken along the support-basis directions, not the
    vehicle axes: that keeps one support gap fixed per column, so the
    structural zeros (magnet i blind to gap j) are hit by pure roundoff
    instead of second-order cross-coupling truncation.  The 1e-7 step
    balances truncation against roundoff for the O(1e-2) to O(10) state
    magnitudes involved.  This is the master guard against sign or
    transcription errors in the analytic coefficients.
    """
    y0 = steady_vehicle_state(params, exc, t, hyb).as_array()
    if hyb is None:
        fun = lambda y: rhs(y, t, params, exc, gains)
    else:
        fun = lambda y: rhs_hybrid(y, t, params, exc, gains, hyb)
    S = _vehicle_to_support_basis(params.L)
    directions = np.linalg.inv(S)
    jac = np.zeros((6, 6))
    for j in range(6):
        dy = step * directions[:, j]
        jac[:, j] = S @ (fun(y0 + dy) - fun(y0 - dy)) / (2.0 * step)
    return jac


def integrate_perturbation(
    pm: PeriodicMatrix,
    x0,
    t_span: tuple[float, float],
    t_eval=None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    method: str = "DOP853",
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate x' = A(t) x; returns (t, X) with one state row per sample."""
    if t_eval is None:
        t_eval = np.linspace(t_span[0], t_span[1], 201)
    sol = solve_ivp(
        lambda t, x: pm.at(t) @ x,
        t_span,
        np.asarray(x0, dtype=float),
        method=method,
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
    )
    if not sol.success:
        raise RuntimeError(f"perturbation integration failed: {sol.message}")
    return sol.t, sol.y.T


@dataclass(frozen=True)
class ReducedResidual:
    """Residuals of the third-order aggregate equations on a trajectory.

    ``translation``/``rotation`` are max absolute raw residuals of the heave
    and pitch equations; the scales are the largest single-term magnitudes,
    and ``max_scaled`` is the headline scale-relative residual.
    """

    translation: float
    rotation: float
    translation_scale: float
    rotation_scale: float

    @property
    def max_scaled(self) -> float:
        parts = []
        for res, scale in (
            (self.translation, self.translation_scale),
            (self.rotation, self.rotation_scale),
        ):
            parts.append(0.0 if res == 0.0 else res / scale)
        return max(parts)


def reduced_residual(
    traj: tuple[np.ndarray, np.ndarray],
    params: PhysicalParams,
    exc: ExcitationParams,
    gains: ControlGains,
) -> ReducedResidual:
    """Evaluate the reduced third-order heave/pitch equations on a linearized
    trajectory (t, X) produced by :func:`integrate_perturbation`.

    After eliminating the current perturbations, the six first-order
    equations collapse to two third-order ones in the aggregates
    delta = (dtr1 + dtr2)/2 and phi = (dtr1 - dtr2)/L:

      (-8 Kp L rCgm + 4 rt2 g L m R) delta - 8 Kd L rCgm delta'
        - rt2 L m R (dss1 + dss2) delta'' - 2 rt2 J R (dss1 - dss2) phi''
        - 4 rt2 C L m delta''' = 0

      (-4 Kp L^2 rCgm + 2 rt2 g L^2 m R) phi - 4 Kd L^2 rCgm phi'
        - rt2 L m R (dss1 - dss2) delta'' - 2 rt2 J R (dss1 + dss2) phi''
        - 8 rt2 C J phi''' = 0

    with rCgm = sqrt(C g m) and rt2 = sqrt(2).  The trailing terms must be
    third derivatives: written as second derivatives these equations would be
    dimensionally inconsistent, and only the third-derivative reading makes
    the reduction exact.  Second derivatives come from the first-order
    system, third ones from differentiating the force gradients G_i in time.
    """
    t, X = traj
    p = params
    rt2 = math.sqrt(2.0)
    rcgm = math.sqrt(p.C * p.g * p.m)
    kappa = current_scale(p)
    pm = periodic_matrix(params, exc, gains)

    res_tr = res_rot = 0.0
    scale_tr = scale_rot = 0.0
    for k in range(t.size):
        x = X[k]
        ss = steady_state(p, exc, t[k])
        d = (float(ss.gap1), float(ss.gap2))
        ddot = (float(ss.gap1_rate), float(ss.gap2_rate))
        iss = (float(ss.I1), float(ss.I2))
        issdot = (float(ss.I1_rate), float(ss.I2_rate))
        xdot = pm.at(t[k]) @ x

        delta = 0.5 * (x[0] + x[3])
        delta_r = 0.5 * (x[1] + x[4])
        phi = (x[0] - x[3]) / p.L
        phi_r = (x[1] - x[4]) / p.L
        delta_rr = 0.5 * (xdot[1] + xdot[4])
        phi_rr = (xdot[1] - xdot[4]) / p.L

        # time derivative of G_i = ca_i*dtr_i - cb_i*Itr_i
        gdot = []
        for i, (dtr, dtr_r, itr, itr_r) in enumerate(
            ((x[0], x[1], x[2], xdot[2]), (x[3], x[4], x[5], xdot[5]))
        ):
            ca = 2.0 * p.C * iss[i] ** 2 / d[i] ** 3
            cb = 2.0 * p.C * iss[i] / d[i] ** 2
            ca_dot = 2.0 * p.C * (2.0 * iss[i] * issdot[i] - 3.0 * iss[i] ** 2 * ddot[i] / d[i]) / d[i] ** 3
            cb_dot = 2.0 * p.C * (issdot[i] - 2.0 * iss[i] * ddot[i] / d[i]) / d[i] ** 2
            gdot.append(ca_dot * dtr + ca * dtr_r - cb_dot * itr - cb * itr_r)
        delta_rrr = (gdot[0] + gdot[1]) / p.m
        phi_rrr = (p.L / (2.0 * p.J)) * (gdot[0] - gdot[1])

        terms_tr = (
            (-8.0 * gains.Kp * p.L * rcgm + 4.0 * rt2 * p.g * p.L * p.m * p.R) * delta,
            -8.0 * gains.Kd * p.L * rcgm * delta_r,
            -rt2 * p.L * p.m * p.R * (d[0] + d[1]) * delta_rr,
            -2.0 * rt2 * p.J * p.R * (d[0] - d[1]) * phi_rr,
            -4.0 * rt2 * p.C * p.L * p.m * delta_rrr,
        )
        terms_rot = (
            (-4.0 * gains.Kp * p.L**2 * rcgm + 2.0 * rt2 * p.g * p.L**2 * p.m * p.R) * phi,
            -4.0 * gains.Kd * p.L**2 * rcgm * phi_r,
            -rt2 * p.L * p.m * p.R * (d[0] - d[1]) * delta_rr,
            -2.0 * rt2 * p.J * p.R * (d[0] + d[1]) * phi_rr,
            -8.0 * rt2 * p.C * p.J * phi_rrr,
        )
        res_tr = max(res_tr, abs(sum(terms_tr)))
        res_rot = max(res_rot, abs(sum(terms_rot)))
        scale_tr = max(scale_tr, max(abs(v) for v in terms_tr))
        scale_rot = max(scale_rot, max(abs(v) for v in terms_rot))
    return ReducedResidual(res_tr, res_rot, scale_tr, scale_rot)


@dataclass(frozen=True)
class UnexcitedSpectrum:
    """Eigenvalues of the constant (A = 0) system, split by subsystem."""

    translation: np.ndarray
    rotation: np.ndarray

    @property
    def all(self) -> np.ndarray:
        return np.concatenate([self.translation, self.rotation])


def unexcited_spectrum(params: PhysicalParams, gains: ControlGains) -> UnexcitedSpectrum:
    """Six eigenvalues of the A = 0 linearization, as two labeled triples.

    Without excitation the per-support system block-diagonalizes exactly in
    mean/difference coordinates; the mean block is the translational
    subsystem, the difference block the rotational one.
    """
    a0 = PeriodicMatrix(params, ExcitationParams(A=0.0, Omega=1.0), gains).at(0.0)
    half = np.eye(3) * 0.5
    eye = np.eye(3)
    P = np.block([[half, half], [eye, -eye]])
    b = P @ a0 @ np.linalg.inv(P)
    return UnexcitedSpectrum(
        translation=np.linalg.eigvals(b[:3, :3]),
        rotation=np.linalg.eigvals(b[3:, 3:]),
    )


class StaticStability(NamedTuple):
    stable: bool
    margin: float


def is_statically_stable(params: PhysicalParams, gains: ControlGains) -> StaticStability:
    """True iff every unexcited eigenvalue has negative real part; the margin
    is the distance of the rightmost eigenvalue from the imaginary axis."""
    spec = unexcited_spectrum(params, gains)
    max_re = float(np.max(spec.all.real))
    return StaticStability(stable=max_re < 0.0, margin=-max_re)

