"""Linearized time-periodic system: coefficient assembly, the numerical
Jacobian cross-check, reduced third-order residuals, and the unexcited
eigenvalue analysis."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from levstab import (
    ControlGains,
    ExcitationParams,
    HybridParams,
    PhysicalParams,
    current_scale,
    fd_jacobian,
    natural_frequencies,
    periodic_matrix,
    steady_state,
    unexcited_spectrum,
)
from levstab.boundaries import h0_gain, static_boundary_lines
from levstab.linearized import _NONZERO, PeriodicMatrix
from levstab.model import ATOL, METHOD, RTOL


GAINS = ControlGains(Kp=10600.0, Kd=3000.0)


def test_periodicity(b0, exc_quarter):
    pm = periodic_matrix(b0, exc_quarter, GAINS)
    T = exc_quarter.period
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 5.0 * T, 10):
        a0 = pm.at(t)
        a1 = pm.at(t + T)
        assert np.linalg.norm(a1 - a0) < 1e-12 * np.linalg.norm(a0)


def test_unexcited_matrix_constant(b0, exc_still):
    pm = periodic_matrix(b0, exc_still, GAINS)
    np.testing.assert_array_equal(pm.at(0.0), pm.at(0.777))


def test_unexcited_matrix_eigenvalues_match_spectrum(b0, exc_still):
    pm = periodic_matrix(b0, exc_still, GAINS)
    eig = np.sort_complex(np.linalg.eigvals(pm.at(0.0)))
    spec = np.sort_complex(unexcited_spectrum(b0, GAINS).all)
    np.testing.assert_allclose(eig, spec, rtol=1e-9, atol=1e-9)


def test_decoupling_in_aggregate_coordinates_at_theta_zero(b0, exc_inphase):
    """With in-phase excitation the mean-gap and differential-gap blocks do
    not talk to each other at any instant."""
    pm = periodic_matrix(b0, exc_inphase, GAINS)
    L = b0.L
    half = np.eye(3) * 0.5
    eye = np.eye(3)
    P = np.block([[half, half], [eye / L, -eye / L]])
    Pinv = np.linalg.inv(P)
    for t in np.linspace(0.0, exc_inphase.period, 7):
        a = pm.at(t)
        b = P @ a @ Pinv
        scale = np.max(np.abs(b))
        assert np.max(np.abs(b[:3, 3:])) < 1e-14 * scale
        assert np.max(np.abs(b[3:, :3])) < 1e-14 * scale


def test_jacobian_consistency_standard(b0, exc_quarter):
    """Analytic coefficients against a central-difference Jacobian of the
    nonlinear plant along the steady state: the master transcription guard."""
    pm = periodic_matrix(b0, exc_quarter, GAINS)
    T = exc_quarter.period
    worst = 0.0
    for t in np.linspace(0.0, T, 20, endpoint=False):
        an = pm.at(t)
        fd = fd_jacobian(b0, exc_quarter, GAINS, t)
        err = np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an)))
        worst = max(worst, err)
    assert worst < 1e-6


def test_jacobian_consistency_hybrid(b0, exc_quarter):
    beta = 0.01
    hyb = HybridParams(beta=beta)
    pm = periodic_matrix(b0, exc_quarter, GAINS, hyb=hyb)
    for t in np.linspace(0.0, exc_quarter.period, 5, endpoint=False):
        an = pm.at(t)
        fd = fd_jacobian(b0, exc_quarter, GAINS, t, hyb=hyb)
        assert np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))) < 1e-6


def _at_from_record(pm: PeriodicMatrix, t) -> np.ndarray:
    """A(t) assembled from the ``steady_state`` record at t: its gaps plus
    the matrix's gap offset, and its gap rates."""
    ss = steady_state(pm.params, pm.exc, t)
    off = pm.gap_offset
    out = np.zeros(36)
    out[_NONZERO] = pm._entries((ss.gap1 + off, ss.gap2 + off), (ss.gap1_rate, ss.gap2_rate))
    return out.reshape(6, 6)


@pytest.mark.parametrize("beta", [None, 0.01])
def test_at_equals_assembly_from_steady_state_record(b0, exc_quarter, beta):
    """``at`` evaluates its own steady-state kernel; at float and np.float64
    instants it gives the bits of the assembly from ``steady_state``, on
    the standard and the hybrid plant."""
    hyb = None if beta is None else HybridParams(beta=beta)
    pm = periodic_matrix(b0, exc_quarter, GAINS, hyb=hyb)
    ts = np.random.default_rng(23).uniform(0.0, 5.0 * pm.period, 200)
    for t in (*ts[:100].tolist(), *ts[100:]):
        assert pm.at(t).tobytes() == _at_from_record(pm, t).tobytes()


def test_at_of_two_matrices_called_alternately(b0, exc_quarter):
    """Two matrices of different configurations, called in turn, each give
    the bits they give when called alone, which are those of the assembly
    from ``steady_state``."""
    other = PhysicalParams(m=5200.0, C=0.04, R=7.5, z0=0.012, L=2.5, J=3100.0)
    hyb = HybridParams(beta=0.006)
    configs = [
        (b0, exc_quarter, GAINS, None),
        (other, ExcitationParams(A=0.003, Omega=120.0, theta=1.1), ControlGains(25000.0, 4500.0), hyb),
    ]
    ts = np.random.default_rng(29).uniform(0.0, 0.5, 100).tolist()
    pms = [periodic_matrix(*c[:3], hyb=c[3]) for c in configs]
    alone = [[pm.at(t).tobytes() for t in ts] for pm in pms]
    for pm, want in zip(pms, alone):
        assert want == [_at_from_record(pm, t).tobytes() for t in ts]
    for k, t in enumerate(ts):
        for pm, want in zip(pms, alone):
            assert pm.at(t).tobytes() == want[k]


def test_hybrid_linearization_equals_shifted_standard(b0, exc_quarter):
    """Linearizing the hybrid plant about its steady state is the standard
    linearization at the enlarged effective gap z0 + beta."""
    beta = 0.01
    hyb = HybridParams(beta=beta)
    shifted = PhysicalParams(m=b0.m, C=b0.C, R=b0.R, z0=b0.z0 + beta)
    pm_h = periodic_matrix(b0, exc_quarter, GAINS, hyb=hyb)
    pm_s = periodic_matrix(shifted, exc_quarter, GAINS)
    for t in (0.0, 0.013, 0.05):
        np.testing.assert_allclose(pm_h.at(t), pm_s.at(t), rtol=1e-12, atol=1e-12)


def integrate_perturbation(
    pm: PeriodicMatrix, x0, t_span: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate x' = A(t) x; returns (t, X) at 201 evenly spaced samples,
    one state row per sample."""
    sol = solve_ivp(
        lambda t, x: pm.at(t) @ x,
        t_span,
        np.asarray(x0, dtype=float),
        method=METHOD,
        rtol=RTOL,
        atol=ATOL,
        t_eval=np.linspace(t_span[0], t_span[1], 201),
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
    pm = periodic_matrix(params, exc, gains)

    res_tr = res_rot = 0.0
    scale_tr = scale_rot = 0.0
    for k in range(t.size):
        x = X[k]
        ss = steady_state(p, exc, t[k])
        d = (float(ss.gap1), float(ss.gap2))
        ddot = (float(ss.gap1_rate), float(ss.gap2_rate))
        iss = (float(ss.I1), float(ss.I2))
        issdot = (current_scale(p) * ddot[0], current_scale(p) * ddot[1])
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


def test_reduced_residual_zero_trajectory(b0, exc_quarter):
    t = np.linspace(0.0, exc_quarter.period, 30)
    X = np.zeros((30, 6))
    res = reduced_residual((t, X), b0, exc_quarter, GAINS)
    assert res.translation == 0.0
    assert res.rotation == 0.0
    assert res.max_scaled == 0.0


def test_reduced_residual_on_linearized_trajectory(b0, exc_quarter):
    """The six first-order equations collapse exactly onto the two reduced
    third-order ones, so any linearized trajectory satisfies them."""
    pm = periodic_matrix(b0, exc_quarter, GAINS)
    T = exc_quarter.period
    x0 = np.array([1e-4, 0.0, 0.0, -5e-5, 0.0, 0.0])
    t, X = integrate_perturbation(pm, x0, (0.0, 3.0 * T))
    res = reduced_residual((t, X), b0, exc_quarter, GAINS)
    assert res.max_scaled < 1e-6


def test_reduced_residual_pure_pitch_at_theta_zero(b0, exc_inphase):
    """At theta = 0 a pure differential (pitch) motion leaves the heave
    equation identically satisfied: its cross-coupling coefficient
    (gap1_ss - gap2_ss) vanishes."""
    pm = periodic_matrix(b0, exc_inphase, GAINS)
    T = exc_inphase.period
    x0 = np.array([1e-4, 0.0, 0.0, -1e-4, 0.0, 0.0])  # dtr1 = -dtr2
    t, X = integrate_perturbation(pm, x0, (0.0, 2.0 * T))
    # antisymmetry is preserved, so the mean gap stays zero
    assert np.max(np.abs(X[:, 0] + X[:, 3])) < 1e-12
    res = reduced_residual((t, X), b0, exc_inphase, GAINS)
    # the heave equation is satisfied at roundoff of the active pitch terms,
    # not merely at its own (vanishing) term scale
    assert res.translation < 1e-12 * res.rotation_scale
    assert res.rotation < 1e-6 * res.rotation_scale


def test_unexcited_spectrum_structure(b0):
    spec = unexcited_spectrum(b0, GAINS)
    assert spec.translation.shape == (3,)
    assert spec.rotation.shape == (3,)
    # conjugate pairing: each subsystem has one real root and one pair
    for block in (spec.translation, spec.rotation):
        real = block[np.abs(block.imag) < 1e-9]
        cplx = block[np.abs(block.imag) >= 1e-9]
        assert len(real) == 1 and len(cplx) == 2
        assert cplx[0].conjugate() == pytest.approx(cplx[1], rel=1e-10)


def test_hopf_boundary_spectrum(b0):
    """On the inclined line each subsystem shows one negative real eigenvalue
    plus a purely imaginary pair at its natural frequency."""
    lines = static_boundary_lines(b0)
    Kd = 2000.0
    g = ControlGains(Kp=lines.inclined(Kd), Kd=Kd)
    spec = unexcited_spectrum(b0, g)
    w1, w2 = natural_frequencies(b0, Kd)
    for block, w in ((spec.translation, w1), (spec.rotation, w2)):
        real = sorted(block, key=lambda z: abs(z.imag))[0]
        assert real.real < 0.0
        pair = sorted(block, key=lambda z: -abs(z.imag))[:2]
        assert abs(pair[0].real) < 1e-6 * abs(pair[0].imag)
        assert abs(pair[0].imag) == pytest.approx(w, rel=1e-9)


def test_divergence_left_of_vertical_line(b0):
    g = ControlGains(Kp=h0_gain(b0) - 100.0, Kd=2000.0)
    spec = unexcited_spectrum(b0, g)
    assert np.max(spec.all.real) > 0.0
    assert np.all(np.abs(spec.all[spec.all.real == np.max(spec.all.real)].imag) < 1e-9)


def test_static_stability_inside_wedge(b0):
    def max_re(kp, kd):
        return float(np.max(unexcited_spectrum(b0, ControlGains(kp, kd)).all.real))

    assert max_re(h0_gain(b0) + 2000.0, 2000.0) < 0.0
    assert max_re(h0_gain(b0) - 100.0, 2000.0) >= 0.0
    lines = static_boundary_lines(b0)
    Kd = 1500.0
    assert abs(max_re(lines.inclined(Kd), Kd)) < 1e-6
