"""The program surface that the benchmark under ``benchmarks/`` relies on.

The benchmark traces the functions listed in ``benchmarks/spans.py`` and
calls a few of them with keyword arguments.  Dropping any of these breaks
the benchmark, not the program, so this suite guards them.
"""

import inspect
from pathlib import Path

import levstab.cli  # noqa: F401  (imports every module the tracer patches)
from levstab import ControlGains, floquet, monodromy, periodic_matrix, plant

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
