"""The program surface that the benchmark under ``benchmarks/`` relies on.

The benchmark traces the functions listed in ``benchmarks/spans.py`` and
calls a few of them with keyword arguments.  Dropping any of these breaks
the benchmark, not the program, so this suite guards them.
"""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levstab.cli  # noqa: F401  (the package registers every module the tracer patches)
from levstab import ControlGains, HybridParams, floquet, monodromy, output, periodic_matrix, plant
from levstab.cli import DEFAULT_CONFIG
from levstab.config import parse_config

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


_STALE_WRAPPER_SCRIPT = """
import json, sys
sys.path.insert(0, BENCHMARKS)
import levstab.cli
from spans import Tracer

# validation first runs while this tracer is installed
first = Tracer()
first.install()
first.remove()
from levstab import validation
from levstab.cli import DEFAULT_CONFIG
from levstab.config import parse_config

cfg = parse_config(DEFAULT_CONFIG)
second = Tracer()
second.install()
try:
    ok = validation._c10_linearization_consistency(cfg.params, cfg.exc)[0]
finally:
    second.remove()

# every wrapper a tracer makes runs the same code
marker = Tracer().span("marker", len).__code__
modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "levstab"]
owners = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
stale = sorted(
    f"{getattr(owner, '__name__', owner)}.{attr}"
    for owner in owners
    for attr, value in vars(owner).items()
    if getattr(value, "__code__", None) is marker
)
print(json.dumps([ok, second.stat("linearized.fd_jacobian").calls, stale]))
"""


def test_second_tracer_sees_the_battery_after_the_first_is_removed():
    """In a fresh interpreter, validation first runs while a tracer is
    installed.  It reaches the traced engine functions through their
    modules, so it keeps no wrapper of that tracer: after ``remove`` no
    attribute of a levstab module or class is a wrapper, and a second
    tracer counts criterion 10's 20 ``linearized.fd_jacobian`` calls."""
    src = Path(levstab.cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", f"BENCHMARKS = {str(BENCHMARKS)!r}\n" + _STALE_WRAPPER_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [True, 20, []]


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
    hyb = None if beta is None else HybridParams(beta)
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
    """The calls that benchmarks/run.py makes, and the fields of their
    results that benchmarks/checks.py and benchmarks/spans.py read."""
    integrate_args = inspect.signature(plant.integrate).parameters
    for name in ("mode", "hyb", "rtol", "atol", "t_eval"):
        assert name in integrate_args
    sweep_args = inspect.signature(floquet.sweep).parameters
    for name in ("hyb", "workers"):
        assert name in sweep_args
    workers = floquet.resolve_workers(0)
    assert isinstance(workers, int) and workers >= 1
    # run.py and engine_gate.py import it from floquet; output defines it
    assert floquet.resolve_workers is output.resolve_workers

    gains = ControlGains(Kp=10600.0, Kd=3000.0)
    pm = periodic_matrix(b0, exc_quarter, gains, hyb=None)
    assert pm.at(0.0).shape == (6, 6)
    assert pm.period == exc_quarter.period
    assert monodromy(b0, exc_quarter, gains).stats["nfev"] > 0
    assert plant.steady_vehicle_state(b0, exc_quarter, 0.0, None).z == b0.z0

    # checks.py perturbs the start with dataclasses.replace
    cfg = parse_config({**DEFAULT_CONFIG, "hybrid": {"beta": 0.01}})
    assert (cfg.params, cfg.exc, cfg.hybrid) == (b0, exc_quarter, HybridParams(0.01))
    start = plant.steady_vehicle_state(cfg.params, cfg.exc, 0.0, cfg.hybrid)
    moved = dataclasses.replace(start, z=start.z + 1e-4, phi=start.phi + 5e-5)
    assert (moved.z, moved.phi, moved.I1) == (start.z + 1e-4, start.phi + 5e-5, start.I1)
    traj = plant.integrate(
        moved, (0.0, cfg.exc.period), cfg.params, cfg.exc, gains, mode="hybrid", hyb=cfg.hybrid,
        t_eval=np.array([cfg.exc.period]),
    )
    assert traj.states.shape == (1, 6) and traj.aborted is False
    # spans.py counts a sweep's failed cells
    smap = floquet.sweep(cfg.params, cfg.exc, (10000.0, 11000.0), (2000.0, 2100.0), 2, 2, hyb=cfg.hybrid, workers=1)
    assert smap.errors == []
