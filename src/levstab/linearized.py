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

from typing import NamedTuple

import numpy as np

from . import plant  # lazy: only fd_jacobian runs the nonlinear plant
from .model import (
    ControlGains,
    ExcitationParams,
    HybridParams,
    PhysicalParams,
    _steady_kernel,
    current_scale,
    steady_state,
    validate,
)

__all__ = [
    "PeriodicMatrix",
    "UnexcitedSpectrum",
    "periodic_matrix",
    "fd_jacobian",
    "unexcited_spectrum",
]


# flat indices of the nonzero entries of A(t): the two rate rows, the
# force-balance rows (1, 4) and the current rows (2, 5)
_NONZERO = np.array([1, 6, 8, 9, 11, 12, 13, 14, 22, 24, 26, 27, 29, 33, 34, 35])


class PeriodicMatrix:
    """Evaluator of the 6x6 coefficient matrix A(t), periodic with T = 2pi/Omega,
    of the standard plant, or of the hybrid plant (``hyb``) linearized about
    its own steady state.

    The hybrid coefficients involve the shifted gap dss + beta and the total
    magnet current Iss + gamma = kappa*(dss + beta); gamma itself cancels,
    so the linearization is the standard one at the nominal gap z0 + beta,
    and ``gap_offset`` is beta.  The constructor checks its configuration
    with ``model.validate``, whose ``ValueError`` names what is wrong: A >=
    z0, where the steady-state gap closes, or a parameter outside the
    physical range, where the acceleration weights below would overflow
    or the solve be singular.
    """

    def __init__(
        self,
        params: PhysicalParams,
        exc: ExcitationParams,
        gains: ControlGains,
        hyb: HybridParams | None = None,
    ):
        validate(params, exc, hyb)
        self.params = params
        self.exc = exc
        self.gap_offset = 0.0 if hyb is None else hyb.beta
        self.period = exc.period
        self._steady = _steady_kernel(params, exc)
        self._kappa = current_scale(params)
        self._twoC = 2.0 * params.C
        self._kp_2C = gains.Kp / self._twoC
        self._kd_2C = gains.Kd / self._twoC
        # joint solve of the two force-balance rows for the accelerations:
        # [m/2, m/2; 2J/L^2, -2J/L^2] [d1''; d2''] = [G1+G2; G1-G2]
        m, J, L = params.m, params.J, params.L
        lhs = np.array([[m / 2.0, m / 2.0], [2.0 * J / L**2, -2.0 * J / L**2]])
        w = np.linalg.solve(lhs, np.eye(2))
        # d_i'' = wp_i * G1 + wm_i * G2, with weights 1/m +/- L^2/(4J)
        self._w11, self._w12, self._w21, self._w22 = (
            w[0, 0] + w[0, 1], w[0, 0] - w[0, 1], w[1, 0] + w[1, 1], w[1, 0] - w[1, 1]
        )

    def at(self, t: float) -> np.ndarray:
        """Coefficient matrix at time t, a float, from this matrix's own
        steady-state kernel."""
        d1, d2, r1, r2 = self._steady(t)[2:6]
        off = self.gap_offset
        out = np.zeros(36)
        out[_NONZERO] = self._entries((d1 + off, d2 + off), (r1, r2))
        return out.reshape(6, 6)

    def table(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """A(t) at this matrix's gains and the gain scale d_i/2C at the
        nodes t_k = k T/count, k = 0..count, from one vectorized steady-state
        evaluation and the assembly ``at`` uses.

        Returns ``(a, g)`` with ``a[k]`` the 6x6 matrix at t_k and ``g[k, i]``
        support i's d_i/2C, the entry per unit gain of its current row (2 or
        5): A at gains (Kp + dKp, Kd + dKd) adds dKp*g_i there on the gap
        column (0 or 3) and dKd*g_i on the gap-rate column (1 or 4).
        """
        t = np.arange(count + 1) * (self.period / count)
        ss = steady_state(self.params, self.exc, t)
        d = (ss.gap1 + self.gap_offset, ss.gap2 + self.gap_offset)
        ddot = (ss.gap1_rate, ss.gap2_rate)
        a = np.zeros((t.size, 36))
        a[:, _NONZERO] = np.stack(np.broadcast_arrays(*self._entries(d, ddot)), axis=-1)
        g = np.stack(d, axis=-1) / self._twoC
        return a.reshape(-1, 6, 6), g

    def _entries(self, d, ddot) -> tuple:
        """The nonzero entries of A, in ``_NONZERO`` order, for the gaps
        d = (d1, d2) and gap rates ddot = (d1', d2'), floats or arrays alike."""
        (d1, d2), (r1, r2) = d, ddot
        twoC, R = self._twoC, self.params.R
        i1, i2 = self._kappa * d1, self._kappa * d2  # steady currents
        s1, s2 = d1**2, d2**2
        # gradients of the force perturbations G_i, per support
        ca1, ca2 = twoC * i1**2 / d1**3, twoC * i2**2 / d2**3
        cb1, cb2 = twoC * i1 / s1, twoC * i2 / s2
        w11, w12, w21, w22 = self._w11, self._w12, self._w21, self._w22
        kp, kd = self._kp_2C, self._kd_2C
        return (
            1.0,
            w11 * ca1, -w11 * cb1, w12 * ca2, -w12 * cb2,
            kp * d1 - r1 * i1 / s1, (kd + i1 / s1) * d1, -(R * s1 - twoC * r1) / (twoC * d1),
            1.0,
            w21 * ca1, -w21 * cb1, w22 * ca2, -w22 * cb2,
            kp * d2 - r2 * i2 / s2, (kd + i2 / s2) * d2, -(R * s2 - twoC * r2) / (twoC * d2),
        )


# the name the package exports and its callers use
periodic_matrix = PeriodicMatrix


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
    step = 1e-7
    y0 = plant.steady_vehicle_state(params, exc, t, hyb).as_array()
    if hyb is None:
        fun = lambda y: plant.rhs(y, t, params, exc, gains)
    else:
        fun = lambda y: plant.rhs_hybrid(y, t, params, exc, gains, hyb)
    S = _vehicle_to_support_basis(params.L)
    directions = np.linalg.inv(S)
    jac = np.zeros((6, 6))
    for j in range(6):
        dy = step * directions[:, j]
        jac[:, j] = S @ (fun(y0 + dy) - fun(y0 - dy)) / (2.0 * step)
    return jac


class UnexcitedSpectrum(NamedTuple):
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
