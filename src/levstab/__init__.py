"""Stability analysis of a two-electromagnet suspended vehicle on a wavy track.

The library models a rigid vehicle of mass m and inertia J hanging from two
PD-controlled electromagnets spaced L apart, with the track underside
oscillating harmonically under each support.  It provides the exact nonlinear
plant, the linearized time-periodic system about the oscillating steady state,
closed-form parametric-resonance stability ellipses in the (Kp, Kd) gain
plane, and a Floquet engine that classifies gain grids numerically.
"""

__version__ = "0.1.0"

from .model import (
    PhysicalParams,
    ExcitationParams,
    ControlGains,
    HybridParams,
    validate,
    default_inertia,
    has_uniform_bar_inertia,
    natural_frequencies,
    kinematic_excitation,
)
from .plant import (
    VehicleState,
    Trajectory,
    current_scale,
    steady_state,
    steady_vehicle_state,
    control_voltage,
    rhs,
    rhs_hybrid,
    hybrid_gamma,
    hybrid_transform,
    integrate,
    write_trajectory_csv,
)
from .linearized import (
    periodic_matrix,
    fd_jacobian,
    unexcited_spectrum,
)
from .boundaries import (
    Ellipse,
    h0_gain,
    static_boundary_lines,
    combination_frequencies,
    all_ellipses,
    default_map_window,
    relative_size,
    hb_determinant_principal,
    hill_determinant_combination,
    resonance_chart,
)
from .floquet import (
    MonodromyResult,
    StabilityMap,
    monodromy,
    classify,
    sweep,
    boundary_crossings,
)

__all__ = [
    "__version__",
    "PhysicalParams",
    "ExcitationParams",
    "ControlGains",
    "HybridParams",
    "validate",
    "default_inertia",
    "has_uniform_bar_inertia",
    "natural_frequencies",
    "kinematic_excitation",
    "VehicleState",
    "Trajectory",
    "current_scale",
    "steady_state",
    "steady_vehicle_state",
    "control_voltage",
    "rhs",
    "rhs_hybrid",
    "hybrid_gamma",
    "hybrid_transform",
    "integrate",
    "write_trajectory_csv",
    "periodic_matrix",
    "fd_jacobian",
    "unexcited_spectrum",
    "Ellipse",
    "h0_gain",
    "static_boundary_lines",
    "combination_frequencies",
    "all_ellipses",
    "default_map_window",
    "relative_size",
    "hb_determinant_principal",
    "hill_determinant_combination",
    "resonance_chart",
    "MonodromyResult",
    "StabilityMap",
    "monodromy",
    "classify",
    "sweep",
    "boundary_crossings",
]
