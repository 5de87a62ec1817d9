"""Nonlinear plant: steady state exactness, force law, hybrid variant,
time integration and trajectory export."""

import csv
import math

import numpy as np
import pytest

from levstab import (
    ControlGains,
    ExcitationParams,
    HybridParams,
    PhysicalParams,
    VehicleState,
    current_scale,
    hybrid_gamma,
    hybrid_transform,
    integrate,
    rhs,
    rhs_hybrid,
    steady_state,
    steady_vehicle_state,
    write_trajectory_csv,
)
from levstab.boundaries import all_ellipses
from levstab.model import SteadyStateSample
from levstab.plant import _EVAL_FLOOR_FRACTION


GAINS = ControlGains(Kp=10600.0, Kd=3000.0)  # inside the stable wedge at B0


def test_support_motion_reference_phases(b0):
    e0 = ExcitationParams(A=0.005, Omega=80.0, theta=0.0)
    ss = steady_state(b0, e0, 0.0)
    assert (ss.w1, ss.w2) == pytest.approx((0.005, 0.005))
    ep = ExcitationParams(A=0.005, Omega=80.0, theta=math.pi)
    ss = steady_state(b0, ep, 0.0)
    assert (ss.w1, ss.w2) == pytest.approx((0.005, -0.005))
    eq = ExcitationParams(A=0.005, Omega=80.0, theta=math.pi / 2)
    ss = steady_state(b0, eq, math.pi / 160.0)  # Omega*t = pi/2
    w1, w2 = ss.w1, ss.w2
    assert w1 == pytest.approx(0.0, abs=1e-18)
    assert w2 == pytest.approx(0.005, rel=1e-12)


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
        assert abs(d[4] - current_scale(b0) * float(ss.gap1_rate)) < 1e-10 * iscale
        assert abs(d[5] - current_scale(b0) * float(ss.gap2_rate)) < 1e-10 * iscale


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
    """Validation criterion 9 at the level of one RHS call: the hybrid
    derivative at a state is the standard derivative, with the nominal gap
    z0 + beta, at the state that hybrid_transform shifts it to.  The shifts
    are constant, so the two derivatives agree to rounding (1e-13
    relative; the currents' rates of about 300 A/s differ by 6e-14)."""
    shifted = PhysicalParams(m=b0.m, C=b0.C, R=b0.R, z0=b0.z0 + 0.01)
    for beta, params_std in ((0.0, b0), (0.01, shifted)):
        hyb = HybridParams(beta=beta)
        state = VehicleState(z=b0.z0 + 5e-4, zdot=0.01, phi=2e-4, phidot=-0.01, I1=-1.5, I2=2.0)
        d_hyb = rhs_hybrid(state.as_array(), 0.3, b0, exc_quarter, GAINS, hyb)
        d_std = rhs(hybrid_transform(state, b0, hyb).as_array(), 0.3, params_std, exc_quarter, GAINS)
        np.testing.assert_allclose(d_hyb, d_std, rtol=1e-13, atol=0.0)


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
    hyb = HybridParams(beta=beta)
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


def test_one_hybrid_offset_serves_each_plant_its_own_gamma(b0):
    """One HybridParams paired in turn with two physical parameter sets
    gives each its own zero-current steady state: gamma follows the
    parameters it is used with, not the ones of an earlier call."""
    hyb = HybridParams(beta=0.006)
    other = PhysicalParams(m=5200.0, C=0.04, R=7.5, z0=0.012, L=2.5, J=3100.0)
    still = ExcitationParams(A=0.0, Omega=80.0, theta=0.0)
    assert hybrid_gamma(other, hyb.beta) != hybrid_gamma(b0, hyb.beta)
    for params in (b0, other, b0, other):
        s0 = steady_vehicle_state(params, still, 0.0, hyb=hyb)
        assert (s0.I1, s0.I2) == pytest.approx((0.0, 0.0), abs=1e-12)
        d0 = rhs_hybrid(s0.as_array(), 0.1, params, still, GAINS, hyb)
        np.testing.assert_allclose(d0, np.zeros(6), atol=1e-12)


def test_hybrid_transform_round_trip(b0):
    """z shifts by beta and both currents by the gamma of the physical
    parameters, hybrid_gamma(params, beta), also at beta = 0; pitch and
    rates stay."""
    s = VehicleState(z=0.014, zdot=0.1, phi=1e-3, phidot=-0.2, I1=3.0, I2=4.0)
    for beta in (0.0, 0.01):
        gamma = hybrid_gamma(b0, beta)
        assert hybrid_transform(s, b0, HybridParams(beta)) == VehicleState(
            z=0.014 + beta, zdot=0.1, phi=1e-3, phidot=-0.2, I1=3.0 + gamma, I2=4.0 + gamma
        )


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


def test_integrate_gap_columns_match_whole_grid(b0, exc_quarter):
    """The gap columns, evaluated on each block of samples the solver
    hands over, equal the gaps of the whole output grid evaluated at once,
    bit for bit."""
    from levstab import dop853, plant

    s0 = steady_vehicle_state(b0, exc_quarter, 0.0)
    start = VehicleState(s0.z + 1e-4, 0.0, 5e-5, 0.0, s0.I1, s0.I2)
    traj = integrate(start, (0.0, 6.0 * exc_quarter.period), b0, exc_quarter, GAINS)
    assert traj.t.size > dop853.SAMPLE_BLOCK
    gap1, gap2 = plant._gaps(traj.states.T, b0, steady_state(b0, exc_quarter, traj.t))
    np.testing.assert_array_equal(traj.gap1, gap1)
    np.testing.assert_array_equal(traj.gap2, gap2)


def test_integrate_unexcited_transient_decays(b0, exc_still):
    from levstab import unexcited_spectrum

    margin = -float(np.max(unexcited_spectrum(b0, GAINS).all.real))
    assert margin > 0.0
    # four e-foldings of the slowest mode, sampled three times per period
    t_end = 4.0 / margin
    t_eval = np.linspace(0.0, t_end, round(3 * t_end / exc_still.period) + 1)
    start = steady_vehicle_state(b0, exc_still, 0.0)
    y0 = start.as_array()
    y0[0] += 5e-4
    traj = integrate(VehicleState(*y0), (0.0, t_end), b0, exc_still, GAINS,
                     t_eval=t_eval)
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
        VehicleState(*y0), (0.0, 40 * exc_inphase.period),
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
    traj_p = integrate(VehicleState(*y0), (shift, shift + 3 * T),
                       b0, e_pos, GAINS, t_eval=t_eval + shift)
    traj_m = integrate(VehicleState(*mirrored), (0.0, 3 * T), b0,
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
                     t_eval=np.linspace(0.0, exc_quarter.period, 21))
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
    traj = integrate(VehicleState(*y0), (0.0, 0.05), b0, exc_quarter, GAINS)
    assert traj.meta["negative_current"]


@pytest.mark.parametrize("start, flagged", [("steady", False), ("reversed", True)])
def test_hybrid_negative_current_is_the_force_law_current(b0, exc_quarter, start, flagged):
    """The hybrid coil current I swings around 0 by design; the current the
    force law squares is I + gamma, and only its sign is flagged."""
    hyb = HybridParams(beta=0.01)
    gamma = hybrid_gamma(b0, hyb.beta)
    y0 = steady_vehicle_state(b0, exc_quarter, 0.0, hyb).as_array()
    if start == "reversed":
        y0[4] = -gamma - 1.0
    traj = integrate(VehicleState(*y0), (0.0, 2 * exc_quarter.period), b0, exc_quarter,
                     GAINS, mode="hybrid", hyb=hyb)
    assert not traj.aborted
    assert np.min(traj.states[:, 4:6]) < 0.0
    assert (np.min(traj.states[:, 4:6] + gamma) < 0.0) == flagged
    assert traj.meta["negative_current"] is flagged


@pytest.mark.parametrize(
    "limit, t_trip, nfev",
    [(40, "0.00659236", 44), (150, "0.0559237", 257)],
)
def test_integrate_stops_at_the_exact_rhs_budget(b0, exc_quarter, monkeypatch, limit, t_trip, nfev):
    """A run over MAX_NFEV_PER_PERIOD * (1 + elapsed / T) RHS evaluations
    stops on the first evaluation past it, at the time and count the
    message names.  At these limits a budget one evaluation looser or
    tighter stops elsewhere, so the values pin the check's arithmetic."""
    from levstab import plant

    monkeypatch.setattr(plant, "MAX_NFEV_PER_PERIOD", limit)
    s0 = steady_vehicle_state(b0, exc_quarter, 0.0)
    start = VehicleState(s0.z + 1e-4, 0.0, 5e-5, 0.0, s0.I1, s0.I2)
    with pytest.raises(RuntimeError) as err:
        integrate(start, (0.0, 10 * exc_quarter.period), b0, exc_quarter, GAINS)
    assert str(err.value) == (
        f"integration stopped at t = {t_trip} s after {nfev} RHS evaluations, over the "
        f"budget of MAX_NFEV_PER_PERIOD = {limit} per excitation period"
    )


def test_output_grid_counts_both_ends_against_the_sample_cap(exc_quarter, monkeypatch):
    """n intervals make a grid of n + 1 samples: MAX_SAMPLES - 1 intervals
    fit the cap exactly, one more is rejected, and the message counts the
    grid's samples."""
    from levstab import plant

    monkeypatch.setattr(plant, "MAX_SAMPLES", 1000)
    span = (plant.MAX_SAMPLES - 1) / plant.SAMPLES_PER_PERIOD * exc_quarter.period
    assert plant.output_grid((0.0, span), exc_quarter).size == 1000
    for intervals, samples in ((1000, 1001), (1001, 1002)):
        span = intervals / plant.SAMPLES_PER_PERIOD * exc_quarter.period
        with pytest.raises(ValueError, match=rf"^{samples} output samples exceed the limit of MAX_SAMPLES = 1000 "):
            plant.output_grid((0.0, span), exc_quarter)


def test_integrate_rejects_mode_hyb_mismatch(b0, exc_quarter):
    """HybridParams without mode='hybrid' would silently run the standard
    plant; mode='hybrid' without them has no plant to run."""
    hyb = HybridParams(beta=0.01)
    start = steady_vehicle_state(b0, exc_quarter, 0.0, hyb)
    span = (0.0, exc_quarter.period)
    with pytest.raises(ValueError, match="hybrid"):
        integrate(start, span, b0, exc_quarter, GAINS, hyb=hyb)
    with pytest.raises(ValueError, match="hybrid"):
        integrate(start, span, b0, exc_quarter, GAINS, mode="hybrid")


# The per-call steady state and right-hand sides that the per-configuration
# derivative replaced, kept as the reference it must equal bit for bit.
def _steady_state_reference(params, exc, t, hyb=None):
    cos, sin = (math.cos, math.sin) if isinstance(t, float) else (np.cos, np.sin)
    ph = exc.Omega * t
    w1 = exc.A * cos(ph)
    w2 = exc.A * cos(ph - exc.theta)
    d1 = params.z0 - w1
    d2 = params.z0 - w2
    d1dot = exc.A * exc.Omega * sin(ph)
    d2dot = exc.A * exc.Omega * sin(ph - exc.theta)
    kappa = current_scale(params)
    if hyb is None:
        i1, i2 = kappa * d1, kappa * d2
        u1, u2 = params.R * kappa * d1, params.R * kappa * d2
    else:
        gamma = hybrid_gamma(params, hyb.beta)
        i1 = kappa * (d1 + hyb.beta) - gamma
        i2 = kappa * (d2 + hyb.beta) - gamma
        u1, u2 = params.R * i1, params.R * i2
    return SteadyStateSample(t, w1, w2, d1, d2, d1dot, d2dot, i1, i2, u1, u2)


def _gaps_and_rates(state, params, ss):
    """The airgaps of one state over the base motion in ss, and their rates."""
    z, zdot, phi, phidot = state[:4]
    half = 0.5 * params.L
    d1 = z + half * phi - ss.w1
    d2 = z - half * phi - ss.w2
    d1dot = zdot + half * phidot + ss.gap1_rate
    d2dot = zdot - half * phidot + ss.gap2_rate
    return d1, d2, d1dot, d2dot


def _pd_voltages(gains, d1, d2, d1dot, d2dot, ss):
    """The PD coil voltages U = Uss + Kp (d - d_ss) + Kd (d' - d_ss') of
    the gap pair (d1, d2) and its rates."""
    u1 = ss.U1 + gains.Kp * (d1 - ss.gap1) + gains.Kd * (d1dot - ss.gap1_rate)
    u2 = ss.U2 + gains.Kp * (d2 - ss.gap2) + gains.Kd * (d2dot - ss.gap2_rate)
    return u1, u2


def _rhs_reference(state, t, params, exc, gains):
    state = state.tolist()
    z, zdot, phi, phidot, i1, i2 = state
    ss = _steady_state_reference(params, exc, t)
    d1, d2, d1dot, d2dot = _gaps_and_rates(state, params, ss)
    floor = _EVAL_FLOOR_FRACTION * params.z0
    d1e = d1 if d1 > floor else floor
    d2e = d2 if d2 > floor else floor
    u1, u2 = _pd_voltages(gains, d1, d2, d1dot, d2dot, ss)
    f1 = params.C * i1 * i1 / (d1e * d1e)
    f2 = params.C * i2 * i2 / (d2e * d2e)
    zdd = params.g - (f1 + f2) / params.m
    phidd = -(f1 - f2) * params.L / (2.0 * params.J)
    twoC = 2.0 * params.C
    i1dot = (d1e / twoC) * (u1 - params.R * i1 + twoC * i1 * d1dot / (d1e * d1e))
    i2dot = (d2e / twoC) * (u2 - params.R * i2 + twoC * i2 * d2dot / (d2e * d2e))
    return np.array([zdot, zdd, phidot, phidd, i1dot, i2dot])


def _rhs_hybrid_reference(state, t, params, exc, gains, hyb):
    state = state.tolist()
    z, zdot, phi, phidot, i1, i2 = state
    ss = _steady_state_reference(params, exc, t, hyb)
    d1, d2, d1dot, d2dot = _gaps_and_rates(state, params, ss)
    u1, u2 = _pd_voltages(gains, d1, d2, d1dot, d2dot, ss)
    floor = _EVAL_FLOOR_FRACTION * (params.z0 + hyb.beta)
    e1 = d1 + hyb.beta
    e2 = d2 + hyb.beta
    e1 = e1 if e1 > floor else floor
    e2 = e2 if e2 > floor else floor
    gamma = hybrid_gamma(params, hyb.beta)
    j1 = i1 + gamma
    j2 = i2 + gamma
    f1 = params.C * j1 * j1 / (e1 * e1)
    f2 = params.C * j2 * j2 / (e2 * e2)
    zdd = params.g - (f1 + f2) / params.m
    phidd = -(f1 - f2) * params.L / (2.0 * params.J)
    twoC = 2.0 * params.C
    i1dot = (e1 / twoC) * (u1 - params.R * i1) + (j1 / e1) * d1dot
    i2dot = (e2 / twoC) * (u2 - params.R * i2) + (j2 / e2) * d2dot
    return np.array([zdot, zdd, phidot, phidd, i1dot, i2dot])


def test_rhs_equals_per_call_reference_bit_for_bit(b0, exc_quarter):
    """rhs and rhs_hybrid keep one derivative per configuration, found by
    the identity of its objects.  Over 12,000 random (t, state) pairs per
    plant, calls that switch plant, parameters, excitation, gains (among
    them an equal but distinct gains object) and hybrid offsets at random,
    so that a stale derivative would show, equal bit for bit the per-call
    reference, which derives gamma from the drawn parameters; so does
    steady_state, for floats and arrays."""
    rng = np.random.default_rng(11)
    params = [b0, PhysicalParams(m=5200.0, C=0.04, R=7.5, z0=0.012, L=2.5, J=3100.0)]
    excs = [exc_quarter, ExcitationParams(A=0.003, Omega=120.0, theta=1.1)]
    gains = [GAINS, ControlGains(Kp=10600.0, Kd=3000.0), ControlGains(Kp=25000.0, Kd=4500.0)]
    hybs = [HybridParams(0.01), HybridParams(0.006)]
    for _ in range(12_000):
        p, e, g = params[rng.integers(2)], excs[rng.integers(2)], gains[rng.integers(3)]
        h = hybs[rng.integers(2)]
        t = float(rng.uniform(0.0, 10.0))
        state = steady_vehicle_state(p, e, t).as_array()
        state += rng.normal(size=6) * [2e-3, 0.05, 1e-3, 0.05, 5.0, 5.0]
        if rng.random() < 0.05:  # a gap below the evaluation floor
            state[0] = -0.02
        calls = [
            (rhs(state, t, p, e, g), _rhs_reference(state, t, p, e, g)),
            (rhs_hybrid(state, t, p, e, g, h), _rhs_hybrid_reference(state, t, p, e, g, h)),
        ]
        for new, ref in calls[:: 1 if rng.random() < 0.5 else -1]:
            assert new.tobytes() == ref.tobytes()
    ts = rng.uniform(0.0, 10.0, 500)
    for p in params:
        for e in excs:
            for h in (None, *hybs):
                for t in (ts, float(ts[0]), float(ts[1])):
                    got = steady_state(p, e, t, h)
                    want = _steady_state_reference(p, e, t, h)
                    for a, b in zip(got, want):
                        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_stacked_rhs_equals_per_row_calls_bit_for_bit(b0, exc_quarter):
    """rhs and rhs_hybrid on a (k, 6) stack of states with a (k,) array of
    times, as the solver's dense output calls them, give each row the bits
    of the call on that row alone.  The rows are the 12,000 random
    (t, state) pairs of the per-call test above, gaps below the evaluation
    floor included, plus NaN rows, grouped by configuration."""
    rng = np.random.default_rng(11)
    params = [b0, PhysicalParams(m=5200.0, C=0.04, R=7.5, z0=0.012, L=2.5, J=3100.0)]
    excs = [exc_quarter, ExcitationParams(A=0.003, Omega=120.0, theta=1.1)]
    gains = [GAINS, ControlGains(Kp=10600.0, Kd=3000.0), ControlGains(Kp=25000.0, Kd=4500.0)]
    hybs = [HybridParams(0.01), HybridParams(0.006)]
    groups = {}
    for _ in range(12_000):
        key = (rng.integers(2), rng.integers(2), rng.integers(3), rng.integers(2))
        t = float(rng.uniform(0.0, 10.0))
        state = steady_vehicle_state(params[key[0]], excs[key[1]], t).as_array()
        state += rng.normal(size=6) * [2e-3, 0.05, 1e-3, 0.05, 5.0, 5.0]
        if rng.random() < 0.05:  # a gap below the evaluation floor
            state[0] = -0.02
        rng.random()  # the per-call test's draw of the call order
        groups.setdefault(key, []).append((t, state))
    nan_rng = np.random.default_rng(12)
    for (ip, ie, ig, ih), rows in groups.items():
        p, e, g, h = params[ip], excs[ie], gains[ig], hybs[ih]
        ts, states = np.array([t for t, _ in rows]), np.array([s for _, s in rows])
        nan = nan_rng.random(states.shape) < 0.01  # NaN states, gaps among them
        states[nan] = np.nan
        assert len(ts) > 1
        for new, one in [
            (rhs(states, ts, p, e, g), lambda y, t: rhs(y, t, p, e, g)),
            (rhs_hybrid(states, ts, p, e, g, h), lambda y, t: rhs_hybrid(y, t, p, e, g, h)),
        ]:
            assert new.shape == states.shape
            for row, state, t in zip(new, states, ts.tolist()):
                assert row.tobytes() == one(state, t).tobytes()
