"""Stability analysis of a two-electromagnet suspended vehicle on a wavy track.

The library models a rigid vehicle of mass m and inertia J hanging from two
PD-controlled electromagnets spaced L apart, with the track underside
oscillating harmonically under each support.  It provides the exact nonlinear
plant, the linearized time-periodic system about the oscillating steady state,
closed-form parametric-resonance stability ellipses in the (Kp, Kd) gain
plane, and a Floquet engine that classifies gain grids numerically.

Importing the package runs none of its modules.  Every submodule but ``cli``
(which ``python -m levstab.cli`` runs as ``__main__``) is registered here
through ``importlib.util.LazyLoader`` and runs on its first attribute access,
whoever makes it.  A public name is looked up in its module on every access
(PEP 562) and never cached here.
"""

import importlib.util
import sys

__version__ = "0.1.0"

for _name in ("boundaries", "config", "dop853", "floquet", "linearized", "model", "output", "plant", "validation"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])  # binds the loader; runs nothing

# submodule -> the public names it exports
_EXPORTS = {
    "model": (
        "PhysicalParams",
        "ExcitationParams",
        "ControlGains",
        "HybridParams",
        "validate",
        "default_inertia",
        "has_uniform_bar_inertia",
        "natural_frequencies",
        "kinematic_excitation",
        "current_scale",
        "steady_state",
        "hybrid_gamma",
    ),
    "plant": (
        "VehicleState",
        "Trajectory",
        "steady_vehicle_state",
        "rhs",
        "rhs_hybrid",
        "hybrid_transform",
        "integrate",
        "write_trajectory_csv",
    ),
    "linearized": ("periodic_matrix", "fd_jacobian", "unexcited_spectrum"),
    "boundaries": (
        "Ellipse",
        "h0_gain",
        "static_boundary_lines",
        "all_ellipses",
        "default_map_window",
        "relative_size",
        "resonance_chart",
    ),
    "floquet": (
        "MonodromyResult",
        "StabilityMap",
        "monodromy",
        "classify",
        "sweep",
        "boundary_crossings",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    # not cached: a tracer that rebinds a function in its module (see
    # benchmarks/spans.py) must leave no copy of its wrapper here
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)
