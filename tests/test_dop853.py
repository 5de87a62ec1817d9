"""The package's DOP853 against scipy.integrate.solve_ivp(method="DOP853").

``levstab.dop853.solve`` repeats SciPy's integrator operation for operation,
so on the package's own problems its samples, final states and RHS counts
must equal SciPy's bit for bit.  SciPy is the independent reference here and
is needed by the tests only.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from levstab import ControlGains, HybridParams, all_ellipses, monodromy
from levstab.dop853 import solve
from levstab.linearized import periodic_matrix
from levstab.model import ATOL, RTOL, steady_state
from levstab.plant import (
    CLOSURE_FRACTION,
    _gaps,
    integrate,
    output_grid,
    rhs,
    rhs_hybrid,
    steady_vehicle_state,
)

GAINS = ControlGains(Kp=10600.0, Kd=3000.0)


def _gap_closure(params, exc):
    contact = CLOSURE_FRACTION * params.z0

    def event(t, y):
        d1, d2, _, _ = _gaps(y, params, steady_state(params, exc, t))
        return min(d1, d2) - contact

    return event


def _reference(fun, t_span, y0, t_eval=None, event=None, rtol=RTOL, atol=ATOL):
    events = None
    if event is not None:
        events = lambda t, y: event(t, y)
        events.terminal, events.direction = True, -1
    return solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval, events=events)


@pytest.mark.parametrize("plant", ["standard", "hybrid"])
def test_perturbed_run_matches_solve_ivp_bit_for_bit(b0, exc_quarter, plant):
    """A perturbed 20-period run sampled on a t_eval grid, with the gap
    closure event armed: same samples, same nfev, status and message."""
    hyb = None
    if plant == "hybrid":
        hyb = HybridParams(beta=0.01)
        fun = lambda t, y: rhs_hybrid(y, t, b0, exc_quarter, GAINS, hyb)
    else:
        fun = lambda t, y: rhs(y, t, b0, exc_quarter, GAINS)
    start = steady_vehicle_state(b0, exc_quarter, 0.0, hyb)
    y0 = replace(start, z=start.z + 1e-4, phi=start.phi + 5e-5).as_array()
    t_end = 20.0 * exc_quarter.period
    t_eval = np.linspace(0.0, t_end, 4001)
    event = _gap_closure(b0, exc_quarter)

    ref = _reference(fun, (0.0, t_end), y0, t_eval, event)
    sol = solve(fun, (0.0, t_end), y0, RTOL, ATOL, t_eval=t_eval, event=event)
    assert ref.status == sol.status == 0
    assert sol.message == ref.message
    assert sol.nfev == ref.nfev
    assert sol.t_event is None and ref.t_events[0].size == 0
    np.testing.assert_array_equal(sol.t, ref.t)
    np.testing.assert_array_equal(sol.y, ref.y.T)


def test_monodromy_matches_solve_ivp_bit_for_bit(b0, exc_quarter):
    """The DOP853 monodromy at the tongue-a center: the final state of the
    36-state variational system and its RHS count equal SciPy's."""
    ea = all_ellipses(b0, exc_quarter)["a"]
    gains = ControlGains(ea.h1, ea.h2)
    pm = periodic_matrix(b0, exc_quarter, gains)
    ref = _reference(lambda t, y: (pm.at(t) @ y.reshape(6, 6)).ravel(), (0.0, pm.period), np.eye(6).ravel())
    res = monodromy(b0, exc_quarter, gains)
    np.testing.assert_array_equal(res.matrix, ref.y[:, -1].reshape(6, 6))
    assert res.stats["nfev"] == ref.nfev


def test_gap_closure_event_matches_solve_ivp(b0, exc_quarter):
    """Weak gains let the gap close: the run stops on the event, located to
    1e-12 relative of SciPy's, and every earlier sample is identical."""
    gains = ControlGains(Kp=3000.0, Kd=10.0)
    fun = lambda t, y: rhs(y, t, b0, exc_quarter, gains)
    y0 = steady_vehicle_state(b0, exc_quarter).as_array()
    y0[0] += 1e-4
    t_end = 50.0 * exc_quarter.period
    t_eval = np.linspace(0.0, t_end, 10001)
    event = _gap_closure(b0, exc_quarter)

    ref = _reference(fun, (0.0, t_end), y0, t_eval, event)
    sol = solve(fun, (0.0, t_end), y0, RTOL, ATOL, t_eval=t_eval, event=event)
    assert ref.status == sol.status == 1
    assert sol.message == ref.message
    assert sol.nfev == ref.nfev
    t_ref = float(ref.t_events[0][0])
    assert abs(sol.t_event - t_ref) <= 1e-12 * t_ref
    assert sol.t[-1] <= sol.t_event < t_end
    np.testing.assert_array_equal(sol.t, ref.t)
    np.testing.assert_array_equal(sol.y, ref.y.T)


def _plant_fun(params, exc, gains, hyb):
    if hyb is None:
        return lambda t, y: rhs(y, t, params, exc, gains)
    return lambda t, y: rhs_hybrid(y, t, params, exc, gains, hyb)


@pytest.mark.parametrize("plant", ["standard", "hybrid"])
def test_integrate_matches_solve_ivp_bit_for_bit(b0, exc_quarter, plant):
    """``integrate``, through its own budgeted RHS and closure event, on a
    perturbed 20-period run: SciPy over the public rhs and the same
    closure gives the same samples and the same nfev."""
    hyb = HybridParams(beta=0.01) if plant == "hybrid" else None
    start = steady_vehicle_state(b0, exc_quarter, 0.0, hyb)
    start = replace(start, z=start.z + 1e-4, phi=start.phi + 5e-5)
    t_span = (0.0, 20.0 * exc_quarter.period)

    traj = integrate(start, t_span, b0, exc_quarter, GAINS, mode=plant, hyb=hyb)
    ref = _reference(_plant_fun(b0, exc_quarter, GAINS, hyb), t_span, start.as_array(),
                     output_grid(t_span, exc_quarter), _gap_closure(b0, exc_quarter))
    assert ref.status == traj.meta["status"] == 0
    assert traj.meta["nfev"] == ref.nfev
    np.testing.assert_array_equal(traj.t, ref.t)
    np.testing.assert_array_equal(traj.states, ref.y.T)


def test_integrate_gap_closure_matches_solve_ivp(b0, exc_quarter):
    """Weak gains close a gap in ``integrate``: its abort time is SciPy's
    event to 1e-12 relative, and every sample before it is identical."""
    gains = ControlGains(Kp=3000.0, Kd=10.0)
    start = steady_vehicle_state(b0, exc_quarter)
    start = replace(start, z=start.z + 1e-4)
    t_span = (0.0, 50.0 * exc_quarter.period)

    traj = integrate(start, t_span, b0, exc_quarter, gains)
    ref = _reference(_plant_fun(b0, exc_quarter, gains, None), t_span, start.as_array(),
                     output_grid(t_span, exc_quarter), _gap_closure(b0, exc_quarter))
    assert ref.status == traj.meta["status"] == 1 and traj.aborted
    assert traj.meta["nfev"] == ref.nfev
    t_ref = float(ref.t_events[0][0])
    assert abs(traj.meta["abort_time"] - t_ref) <= 1e-12 * t_ref
    assert traj.t[-1] == traj.meta["abort_time"]
    np.testing.assert_array_equal(traj.t[:-1], ref.t)
    np.testing.assert_array_equal(traj.states[:-1], ref.y.T)


def test_single_state_calls_get_float_times(b0, exc_quarter):
    """Over a 5-s decay run, every call of ``fun`` on one state, the
    initial-step probe and every stage included, gets a Python float t:
    the step sizes are floats, not numpy scalars."""
    kinds = []

    def fun(t, y):
        if y.ndim == 1:
            kinds.append(type(t))
        return rhs(y, t, b0, exc_quarter, GAINS)

    start = steady_vehicle_state(b0, exc_quarter)
    y0 = replace(start, z=start.z + 1e-4, phi=start.phi + 5e-5).as_array()
    t_eval = np.linspace(0.0, 5.0, 401)
    sol = solve(fun, (0.0, 5.0), y0, RTOL, ATOL, t_eval=t_eval, event=_gap_closure(b0, exc_quarter))
    assert sol.status == 0
    assert len(kinds) > 100 and set(kinds) == {float}


def test_solve_rejects_what_it_does_not_implement():
    fun = lambda t, y: -y
    with pytest.raises(ValueError, match="increasing"):
        solve(fun, (1.0, 0.0), np.ones(2), RTOL, ATOL)
    with pytest.raises(ValueError, match="t_eval"):
        solve(fun, (0.0, 1.0), np.ones(2), RTOL, ATOL, t_eval=[0.5, 2.0])
    with pytest.raises(ValueError, match="increasing"):
        solve(fun, (0.0, 1.0), np.ones(2), RTOL, ATOL, t_eval=[0.5, 0.25])


@pytest.mark.parametrize("samples", ["one", "step-ends", 1023, 1024, 1025])
def test_sample_grids_match_solve_ivp_bit_for_bit(b0, exc_quarter, samples):
    """solve samples t_eval in blocks of SAMPLE_BLOCK = 1024: one sample,
    samples on the step ends themselves, and grids one short of, equal to
    and one past a block give SciPy's samples and RHS count."""
    fun = lambda t, y: rhs(y, t, b0, exc_quarter, GAINS)
    y0 = steady_vehicle_state(b0, exc_quarter, 0.0).as_array()
    y0[0] += 1e-4
    y0[2] += 5e-5
    t_span = (0.0, 2.0 * exc_quarter.period)
    if samples == "one":
        t_eval = np.array([0.37 * t_span[1]])
    elif samples == "step-ends":
        t_eval = _reference(fun, t_span, y0).t
        assert t_eval.size > 20
    else:
        t_eval = np.linspace(*t_span, samples)

    ref = _reference(fun, t_span, y0, t_eval)
    sol = solve(fun, t_span, y0, RTOL, ATOL, t_eval=t_eval)
    assert ref.status == sol.status == 0
    assert sol.nfev == ref.nfev
    np.testing.assert_array_equal(sol.t, ref.t)
    np.testing.assert_array_equal(sol.y, ref.y.T)


@pytest.mark.parametrize("grid", ["dense", "ends-on-a-block"])
@pytest.mark.parametrize("plant", ["standard", "hybrid"])
def test_event_after_deferred_dense_output_matches_solve_ivp(b0, exc_quarter, plant, grid):
    """solve defers the dense output of sampled steps to their block of
    samples.  A gap closure after several blocks, on a grid of 1000
    samples per period, finds deferred steps queued before the event step;
    on a grid of exactly one block that ends before the closure, the event
    step is queued alone and holds no sample.  Samples, RHS count and event
    equal SciPy's, and on_samples gets every sample once, in order, in
    blocks that are not empty."""
    from levstab.dop853 import SAMPLE_BLOCK

    gains = ControlGains(Kp=3000.0, Kd=10.0)
    hyb = None
    if plant == "hybrid":
        hyb = HybridParams(beta=0.01)
        fun = lambda t, y: rhs_hybrid(y, t, b0, exc_quarter, gains, hyb)
    else:
        fun = lambda t, y: rhs(y, t, b0, exc_quarter, gains)
    y0 = steady_vehicle_state(b0, exc_quarter, 0.0, hyb).as_array()
    y0[0] += 1e-4
    t_end = 8.0 * exc_quarter.period
    if grid == "dense":
        t_eval = np.linspace(0.0, t_end, 8001)
    else:
        t_eval = np.linspace(0.0, 0.3, SAMPLE_BLOCK)
    event = _gap_closure(b0, exc_quarter)
    blocks = []

    ref = _reference(fun, (0.0, t_end), y0, t_eval, event)
    sol = solve(fun, (0.0, t_end), y0, RTOL, ATOL, t_eval=t_eval, event=event,
                on_samples=lambda t, y: blocks.append((t.copy(), y.copy())))
    assert ref.status == sol.status == 1
    assert sol.nfev == ref.nfev
    assert sol.t.size >= (3 * SAMPLE_BLOCK + 1 if grid == "dense" else SAMPLE_BLOCK)
    t_ref = float(ref.t_events[0][0])
    assert abs(sol.t_event - t_ref) <= 1e-12 * t_ref
    np.testing.assert_array_equal(sol.t, ref.t)
    np.testing.assert_array_equal(sol.y, ref.y.T)
    assert all(t.size >= SAMPLE_BLOCK for t, _ in blocks[:-1]) and blocks[-1][0].size
    np.testing.assert_array_equal(np.concatenate([t for t, _ in blocks]), sol.t)
    np.testing.assert_array_equal(np.concatenate([y for _, y in blocks]), sol.y)
