"""Nonlinear plant: steady state exactness, force law, hybrid variant,
time integration and trajectory export."""

import csv
import math

import numpy as np
import pytest

from levstab import (
    ControlGains,
    ExcitationParams,
    GapClosedError,
    HybridParams,
    PhysicalParams,
    Trajectory,
    VehicleState,
    control_voltage,
    current_scale,
    em_force,
    hybrid_gamma,
    hybrid_transform,
    integrate,
    rhs,
    rhs_hybrid,
    steady_state,
    steady_vehicle_state,
    support_motion,
    write_trajectory_csv,
)
from levstab.boundaries import all_ellipses, h0_gain, static_boundary_lines


GAINS = ControlGains(Kp=10600.0, Kd=3000.0)  # inside the stable wedge at B0


def test_support_motion_reference_phases(b0):
    e0 = ExcitationParams(A=0.005, Omega=80.0, theta=0.0)
    assert support_motion(e0, 0.0) == pytest.approx((0.005, 0.005))
    ep = ExcitationParams(A=0.005, Omega=80.0, theta=math.pi)
    w1, w2 = support_motion(ep, 0.0)
    assert (w1, w2) == pytest.approx((0.005, -0.005))
    eq = ExcitationParams(A=0.005, Omega=80.0, theta=math.pi / 2)
    w1, w2 = support_motion(eq, math.pi / 160.0)  # Omega*t = pi/2
    assert w1 == pytest.approx(0.0, abs=1e-18)
    assert w2 == pytest.approx(0.005, rel=1e-12)


def test_em_force_zero_current(b0):
    assert em_force(0.0, 0.01, b0) == 0.0


def test_em_force_balances_half_weight(b0):
    # steady current kappa*z0 at the nominal gap carries mg/2
    kappa = current_scale(b0)
    F = em_force(kappa * b0.z0, b0.z0, b0)
    assert F == pytest.approx(b0.m * b0.g / 2.0, rel=1e-12)
    assert F == pytest.approx(37523.25, rel=1e-6)


def test_em_force_quadratic_in_current(b0):
    F1 = em_force(5.0, 0.012, b0)
    F2 = em_force(10.0, 0.012, b0)
    assert F2 == pytest.approx(4.0 * F1, rel=1e-12)


def test_em_force_rejects_closed_gap(b0):
    with pytest.raises(ValueError, match="gap closed"):
        em_force(5.0, 0.0, b0)


def test_steady_state_quarter_phase(b0):
    e = ExcitationParams(A=0.005, Omega=80.0, theta=math.pi / 2)
    ss = steady_state(b0, e, math.pi / 160.0)  # Omega*t = pi/2
    assert float(ss.gap1) == pytest.approx(0.015, rel=1e-12)
    assert float(ss.gap2) == pytest.approx(0.010, rel=1e-12)
    assert float(ss.I2) == pytest.approx(8.663, rel=1e-3)


def test_steady_state_constant_gap(b0, exc_still):
    ss = steady_state(b0, exc_still, 0.123)
    assert float(ss.gap1) == pytest.approx(0.015, rel=1e-12)
    assert float(ss.I1) == pytest.approx(12.994, rel=1e-3)
    assert float(ss.U1) == pytest.approx(126.2, rel=1e-3)


def test_steady_state_current_voltage_laws(b0, exc_quarter):
    """Iss = sqrt(mg/2C)*gap and Uss = R*Iss pointwise in t."""
    kappa = current_scale(b0)
    t = np.linspace(0.0, exc_quarter.period, 50)
    ss = steady_state(b0, exc_quarter, t)
    np.testing.assert_allclose(ss.I1, kappa * ss.gap1, rtol=1e-13)
    np.testing.assert_allclose(ss.I2, kappa * ss.gap2, rtol=1e-13)
    np.testing.assert_allclose(ss.U1, b0.R * ss.I1, rtol=1e-13)
    np.testing.assert_allclose(ss.U2, b0.R * ss.I2, rtol=1e-13)
    assert np.all(ss.gap1 >= b0.z0 - exc_quarter.A - 1e-15)
    assert np.all(ss.gap1 <= b0.z0 + exc_quarter.A + 1e-15)


def test_control_voltage_on_steady_state(b0, exc_quarter):
    ss = steady_state(b0, exc_quarter, 0.01)
    U1, U2 = control_voltage(GAINS, (ss.gap1, ss.gap2),
                             (ss.gap1_rate, ss.gap2_rate), ss)
    assert float(U1) == pytest.approx(float(ss.U1), rel=1e-14)
    assert float(U2) == pytest.approx(float(ss.U2), rel=1e-14)


def test_control_voltage_linear_increment(b0, exc_still):
    ss = steady_state(b0, exc_still, 0.0)
    g = ControlGains(Kp=1000.0, Kd=123.0)
    U1, _ = control_voltage(g, (ss.gap1 + 0.001, ss.gap2),
                            (ss.gap1_rate, ss.gap2_rate), ss)
    assert float(U1) - float(ss.U1) == pytest.approx(1.0, rel=1e-12)
    gh = ControlGains(Kp=h0_gain(b0), Kd=0.0)
    U1h, _ = control_voltage(gh, (ss.gap1 + 1e-3, ss.gap2),
                             (ss.gap1_rate, ss.gap2_rate), ss)
    assert float(U1h) - float(ss.U1) == pytest.approx(8.41, rel=1e-3)


def test_rhs_steady_state_residual_random_instants(b0):
    """The periodic steady solution satisfies the equations of motion exactly."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        A = float(rng.uniform(0.0, 0.9 * b0.z0))
        e = ExcitationParams(A=A, Omega=float(rng.uniform(5.0, 300.0)), theta=theta)
        t = float(rng.uniform(0.0, 10.0))
        state = steady_vehicle_state(b0, e, t)
        d = rhs(state.as_array(), t, b0, e, GAINS)
        ss = steady_state(b0, e, t)
        # the body holds still (zero accelerations) while the currents track
        # their analytic steady rates
        assert abs(d[1]) < 1e-10 * b0.g
        assert abs(d[3]) < 1e-10 * b0.g
        iscale = current_scale(b0) * b0.z0 * max(1.0, e.Omega)
        assert abs(d[4] - float(ss.I1_rate)) < 1e-10 * iscale
        assert abs(d[5] - float(ss.I2_rate)) < 1e-10 * iscale


def test_rhs_zero_vector_at_rest(b0, exc_still):
    Iss = current_scale(b0) * b0.z0
    state = np.array([b0.z0, 0.0, 0.0, 0.0, Iss, Iss])
    d = rhs(state, 0.37, b0, exc_still, GAINS)
    np.testing.assert_allclose(d, np.zeros(6), atol=1e-12)


def test_rhs_free_fall_without_current(b0, exc_inphase):
    state = np.array([b0.z0, 0.0, 0.0, 0.0, 0.0, 0.0])
    d = rhs(state, 0.0, b0, exc_inphase, ControlGains(0.0, 0.0))
    assert d[1] == pytest.approx(b0.g, rel=1e-14)
    assert d[3] == 0.0


def test_rhs_symmetric_state_stays_symmetric(b0, exc_inphase):
    state = np.array([b0.z0 + 0.001, 0.02, 0.0, 0.0, 10.0, 10.0])
    d = rhs(state, 0.21, b0, exc_inphase, GAINS)
    assert d[3] == pytest.approx(0.0, abs=1e-16)
    assert d[4] == pytest.approx(d[5], rel=1e-14)


def test_rhs_hybrid_reduces_to_standard(b0, exc_quarter):
    hyb0 = HybridParams(beta=0.0, gamma=0.0)
    state = np.array([b0.z0 + 5e-4, 0.01, 2e-4, -0.01, 11.0, 13.0])
    d_std = rhs(state, 0.3, b0, exc_quarter, GAINS)
    d_hyb = rhs_hybrid(state, 0.3, b0, exc_quarter, GAINS, hyb0)
    np.testing.assert_allclose(d_hyb, d_std, rtol=1e-14, atol=1e-16)


def test_hybrid_gamma_values(b0):
    assert hybrid_gamma(b0, 0.010) == pytest.approx(21.657, rel=1e-3)
    assert hybrid_gamma(b0, 0.0) == pytest.approx(12.994, rel=1e-3)
    # affine in beta with slope sqrt(mg/2C)
    kappa = current_scale(b0)
    assert hybrid_gamma(b0, 0.02) - hybrid_gamma(b0, 0.005) == pytest.approx(
        kappa * 0.015, rel=1e-12
    )


def test_hybrid_zero_current_steady_state(b0, exc_quarter):
    """With gamma chosen so the permanent magnet carries the static load, the
    hybrid steady state rides at zero mean current."""
    beta = 0.01
    hyb = HybridParams(beta=beta, gamma=hybrid_gamma(b0, beta))
    state = steady_vehicle_state(b0, exc_quarter, 0.0, hyb=hyb)
    d = rhs_hybrid(state.as_array(), 0.0, b0, exc_quarter, GAINS, hyb)
    assert abs(d[1]) < 1e-10 * b0.g
    assert abs(d[3]) < 1e-10 * b0.g
    # mean hybrid current is zero: at A = 0 the currents vanish identically
    still = ExcitationParams(A=0.0, Omega=80.0, theta=0.0)
    s0 = steady_vehicle_state(b0, still, 0.0, hyb=hyb)
    assert s0.I1 == pytest.approx(0.0, abs=1e-12)
    d0 = rhs_hybrid(s0.as_array(), 0.0, b0, still, GAINS, hyb)
    np.testing.assert_allclose(d0, np.zeros(6), atol=1e-12)


def test_hybrid_transform_round_trip():
    hyb = HybridParams(beta=0.01, gamma=20.0)
    s = VehicleState(z=0.014, zdot=0.1, phi=1e-3, phidot=-0.2, I1=3.0, I2=4.0)
    assert hybrid_transform(s, HybridParams(0.0, 0.0)) == s
    back = hybrid_transform(hybrid_transform(s, hyb), hyb, inverse=True)
    for name in ("z", "zdot", "phi", "phidot", "I1", "I2"):
        assert getattr(back, name) == pytest.approx(getattr(s, name), rel=1e-15)


def test_integrate_steady_start_stays_put(b0, exc_quarter):
    start = steady_vehicle_state(b0, exc_quarter, 0.0)
    T = exc_quarter.period
    traj = integrate(start, (0.0, 2.0 * T), b0, exc_quarter, GAINS)
    assert traj.t[0] == 0.0
    np.testing.assert_allclose(traj.states[0], start.as_array(), rtol=0, atol=0)
    assert np.all(np.diff(traj.t) > 0)
    assert np.max(np.abs(traj.states[:, 0] - b0.z0)) < 1e-8
    assert np.max(np.abs(traj.states[:, 2])) < 1e-8
    assert not traj.aborted


def test_integrate_unexcited_transient_decays(b0, exc_still):
    from levstab import is_statically_stable

    stability = is_statically_stable(b0, GAINS)
    assert stability.stable
    # four e-foldings of the slowest mode
    t_end = 4.0 / stability.margin
    start = steady_vehicle_state(b0, exc_still, 0.0)
    y0 = start.as_array()
    y0[0] += 5e-4
    traj = integrate(VehicleState.from_array(y0), (0.0, t_end), b0, exc_still,
                     GAINS, samples_per_period=3)
    early = np.max(np.abs(traj.states[:20, 0] - b0.z0))
    late = np.max(np.abs(traj.states[-20:, 0] - b0.z0))
    assert late < 0.1 * early


def test_integrate_gap_closure_aborts_with_partial_history(b0, exc_inphase):
    """Unstable gains plus a pitch kick close a gap; the run must stop at the
    contact threshold and hand back the trajectory up to that point."""
    ea = all_ellipses(b0, exc_inphase)["a"]
    g = ControlGains(Kp=ea.h1, Kd=ea.h2)
    start = steady_vehicle_state(b0, exc_inphase, 0.0)
    y0 = start.as_array()
    y0[2] += 2e-3  # large pitch kick
    traj = integrate(
        VehicleState.from_array(y0), (0.0, 40 * exc_inphase.period),
        b0, exc_inphase, g,
    )
    assert traj.aborted
    assert traj.meta["abort_time"] < 40 * exc_inphase.period
    assert traj.t[-1] == pytest.approx(traj.meta["abort_time"], rel=1e-9)
    gap_end = min(traj.gap1[-1], traj.gap2[-1])
    assert gap_end == pytest.approx(0.01 * b0.z0, rel=1e-6)
    assert np.all(np.diff(traj.t) > 0)


def test_mirror_symmetry_swaps_supports(b0):
    """theta -> -theta relabels the supports: after re-anchoring the phase
    reference (a time shift of theta/Omega), z matches, phi flips sign and
    the currents swap."""
    theta = 0.9
    e_pos = ExcitationParams(A=0.004, Omega=80.0, theta=theta)
    e_neg = ExcitationParams(A=0.004, Omega=80.0, theta=-theta)
    shift = theta / e_pos.Omega
    start = steady_vehicle_state(b0, e_pos, shift)
    y0 = start.as_array()
    y0[0] += 2e-4
    y0[2] += 1e-4
    mirrored = y0.copy()
    mirrored[2] = -y0[2]
    mirrored[3] = -y0[3]
    mirrored[[4, 5]] = y0[[5, 4]]
    T = e_pos.period
    t_eval = np.linspace(0.0, 3 * T, 121)
    traj_p = integrate(VehicleState.from_array(y0), (shift, shift + 3 * T),
                       b0, e_pos, GAINS, t_eval=t_eval + shift)
    traj_m = integrate(VehicleState.from_array(mirrored), (0.0, 3 * T), b0,
                       e_neg, GAINS, t_eval=t_eval)
    np.testing.assert_allclose(traj_m.states[:, 0], traj_p.states[:, 0],
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(traj_m.states[:, 2], -traj_p.states[:, 2],
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(traj_m.states[:, 4], traj_p.states[:, 5],
                               rtol=0, atol=1e-7)


def test_trajectory_csv_round_trip(tmp_path, b0, exc_quarter):
    start = steady_vehicle_state(b0, exc_quarter, 0.0)
    traj = integrate(start, (0.0, exc_quarter.period), b0, exc_quarter, GAINS,
                     samples_per_period=20)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z", "zdot", "phi", "phidot", "I1", "I2", "gap1", "gap2"]
    assert len(rows) == len(traj.t) + 1
    reloaded = np.array([[float(v) for v in row] for row in rows[1:]])
    np.testing.assert_array_equal(reloaded[:, 0], traj.t)
    np.testing.assert_array_equal(reloaded[:, 1:7], traj.states)
    np.testing.assert_array_equal(reloaded[:, 7], traj.gap1)


def test_negative_current_flagged(b0, exc_quarter):
    """Currents may go negative in exploratory runs; the trajectory metadata
    must flag it."""
    start = steady_vehicle_state(b0, exc_quarter, 0.0)
    y0 = start.as_array()
    y0[4] = -1.0
    traj = integrate(VehicleState.from_array(y0), (0.0, 0.05), b0, exc_quarter, GAINS)
    assert traj.meta["negative_current"]
