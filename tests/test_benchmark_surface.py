"""The program surface that the benchmark under ``benchmarks/`` relies on.

The benchmark traces the functions listed in ``benchmarks/spans.py`` and
calls a few of them with keyword arguments.  Dropping any of these breaks
the benchmark, not the program, so this suite guards them.
"""

import inspect
from pathlib import Path

import pytest

import levstab.cli  # noqa: F401  (imports every module the tracer patches)
from levstab import ControlGains, HybridParams, floquet, monodromy, periodic_matrix, plant

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from spans import Tracer

    originals = (plant.integrate, floquet.sweep, floquet.monodromy)
    tracer = Tracer()
    try:
        tracer.install()
        assert plant.integrate is not originals[0]
    finally:
        tracer.remove()
    assert (plant.integrate, floquet.sweep, floquet.monodromy) == originals


@pytest.mark.parametrize("beta", [None, 0.01])
def test_tracer_counts_every_rhs_evaluation(monkeypatch, b0, exc_quarter, beta):
    """integrate calls rhs and rhs_hybrid by module name, so the tracer
    sees every call.  A call evaluates one state, or a stack of states for
    the solver's dense output: the rows of all calls equal integrate's
    nfev, and plant.rhs_calls counts the calls."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from spans import Tracer

    calls = rows = 0

    def counting(original):
        def count(state, *args):
            nonlocal calls, rows
            calls += 1
            rows += 1 if state.ndim == 1 else len(state)
            return original(state, *args)

        return count

    monkeypatch.setattr(plant, "rhs", counting(plant.rhs))
    monkeypatch.setattr(plant, "rhs_hybrid", counting(plant.rhs_hybrid))
    hyb = None if beta is None else HybridParams(beta, plant.hybrid_gamma(b0, beta))
    start = plant.steady_vehicle_state(b0, exc_quarter, 0.0, hyb)
    tracer = Tracer()
    try:
        tracer.install()
        traj = plant.integrate(
            start,
            (0.0, 2.0 * exc_quarter.period),
            b0,
            exc_quarter,
            ControlGains(Kp=10600.0, Kd=3000.0),
            mode="standard" if hyb is None else "hybrid",
            hyb=hyb,
        )
    finally:
        tracer.remove()
    assert traj.meta["nfev"] > 0
    assert rows == traj.meta["nfev"]
    assert calls < rows
    assert tracer.stat("plant.rhs").calls == calls


def test_benchmark_call_signatures(b0, exc_quarter):
    integrate_args = inspect.signature(plant.integrate).parameters
    for name in ("mode", "hyb", "rtol", "atol", "t_eval"):
        assert name in integrate_args
    sweep_args = inspect.signature(floquet.sweep).parameters
    for name in ("hyb", "workers"):
        assert name in sweep_args
    workers = floquet.resolve_workers(0)
    assert isinstance(workers, int) and workers >= 1

    gains = ControlGains(Kp=10600.0, Kd=3000.0)
    pm = periodic_matrix(b0, exc_quarter, gains, hyb=None)
    assert pm.at(0.0).shape == (6, 6)
    assert pm.period == exc_quarter.period
    assert monodromy(b0, exc_quarter, gains).stats["nfev"] > 0
    assert plant.steady_vehicle_state(b0, exc_quarter, 0.0, None).z == b0.z0
