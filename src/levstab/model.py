"""Parameter types and parameter-level derived quantities.

The vehicle is a rigid bar (mass m, rotational inertia J, support spacing L)
suspended below a track by two attractive electromagnets.  Each magnet pulls
with force C*I^2/gap^2 and is driven through a coil of resistance R by a PD
voltage law that regulates its airgap toward the nominal value z0.  The track
underside is wavy, so each support point sees a harmonic base motion of
amplitude A at angular frequency Omega, the second support lagging the first
by the phase theta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

__all__ = [
    "PhysicalParams",
    "ExcitationParams",
    "ControlGains",
    "HybridParams",
    "validate",
    "default_inertia",
    "natural_frequencies",
    "kinematic_excitation",
]

TWO_PI = 2.0 * math.pi


def default_inertia(m: float, L: float) -> float:
    """Uniform-bar rotational inertia m*L^2/12 about the center of mass.

    This is the inertia for which the rotational natural frequency is
    exactly sqrt(3) times the translational one, the ratio every closed-form
    boundary in :mod:`levstab.boundaries` relies on.
    """
    if m <= 0 or L <= 0:
        raise ValueError("m and L must be positive")
    return m * L * L / 12.0


@dataclass(frozen=True)
class PhysicalParams:
    """Vehicle and electromagnet constants (SI units throughout).

    Attributes
    ----------
    m : mass (kg)
    J : rotational moment of inertia (kg m^2); defaults to m*L^2/12
    L : electromagnet spacing (m)
    C : electromagnetic force constant (N m^2 / A^2)
    R : coil resistance (Ohm)
    g : gravitational acceleration (m/s^2)
    z0 : nominal steady-state airgap (m)
    """

    m: float
    C: float
    R: float
    z0: float
    g: float = 9.81
    L: float = 3.0
    J: float | None = None
    # set when J was filled in from default_inertia; l-invariance of the
    # stability maps holds only in that case
    j_defaulted: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.J is None:
            object.__setattr__(self, "J", default_inertia(self.m, self.L))
            object.__setattr__(self, "j_defaulted", True)


@dataclass(frozen=True)
class ExcitationParams:
    """Harmonic base excitation seen by the two supports.

    w1 = A cos(Omega t) under support 1 and w2 = A cos(Omega t - theta)
    under support 2.  theta is stored normalized to [0, 2*pi).  When the
    instance was built by :func:`kinematic_excitation`, the kinematic origin
    (vehicle speed v, surface wavelength d) is kept for provenance.
    """

    A: float
    Omega: float
    theta: float = 0.0
    v: float | None = field(default=None, compare=False)
    d: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # a non-finite theta is kept as given for validate() to reject
        if math.isfinite(self.theta):
            th = math.fmod(self.theta, TWO_PI)
            if th < 0.0:
                th += TWO_PI
            object.__setattr__(self, "theta", th)

    @property
    def period(self) -> float:
        """Excitation period T = 2*pi/Omega."""
        return TWO_PI / self.Omega


@dataclass(frozen=True)
class ControlGains:
    """PD gains mapping gap error (m) and gap-rate error (m/s) to volts."""

    Kp: float
    Kd: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.Kp) and math.isfinite(self.Kd)):
            raise ValueError(f"gains must be finite, got Kp={self.Kp!r}, Kd={self.Kd!r}")


@dataclass(frozen=True)
class HybridParams:
    """Hybrid-magnet offsets: the permanent magnet is modeled by shifting the
    force law to C*((I + gamma)/(gap + beta))^2."""

    beta: float
    gamma: float


def validate(params: PhysicalParams, exc: ExcitationParams) -> tuple[PhysicalParams, ExcitationParams]:
    """Check all type invariants; return the pair unchanged if they hold.

    Raises ValueError naming the first violated invariant.
    """
    for name in ("m", "C", "R", "g", "z0", "L", "J"):
        value = getattr(params, name)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive")
    if not math.isfinite(exc.A) or exc.A < 0.0:
        raise ValueError("A must be nonnegative")
    if exc.A >= params.z0:
        raise ValueError("A >= z0: steady-state gap closes")
    if not math.isfinite(exc.Omega) or exc.Omega <= 0.0:
        raise ValueError("Omega must be positive")
    if not math.isfinite(exc.theta):
        raise ValueError("theta must be finite")
    return params, exc


def natural_frequencies(params: PhysicalParams, Kd: float) -> tuple[float, float]:
    """Natural frequencies of the unexcited system at the oscillatory boundary.

    omega1 = sqrt(Kd) * (2g/(m*C))^(1/4) belongs to the translational mode.
    The rotational mode sees the effective mass 4J/L^2 instead of m while
    the magnet and controller coefficients stay put, so
    omega2 = omega1 * sqrt(m*L^2/(4J)), which is sqrt(3)*omega1 exactly for
    the uniform-bar inertia J = m*L^2/12.  The uniform-bar case is detected
    and returned as an exact sqrt(3) ratio so that omega2, like omega1, is
    then bit-identical under changes of J, L, R and z0.
    """
    if Kd < 0:
        raise ValueError("Kd must be nonnegative")
    omega1 = math.sqrt(Kd) * (2.0 * params.g / (params.m * params.C)) ** 0.25
    J_bar = params.m * params.L**2 / 12.0
    if params.J == J_bar or math.isclose(params.J, J_bar, rel_tol=1e-12):
        ratio = math.sqrt(3.0)
    else:
        ratio = math.sqrt(params.m * params.L**2 / (4.0 * params.J))
    return omega1, omega1 * ratio


def kinematic_excitation(v: float, d: float, L: float, A: float) -> ExcitationParams:
    """Translate vehicle speed and surface waviness into excitation parameters.

    Uses Omega = 2*pi*v/L and theta = 2*pi*d/L.  These mappings look
    transposed on dimensional grounds (the surface wavelength, not the
    support spacing, would normally set the frequency); they are provided
    as a convenience only and never feed the core analyses, which take
    Omega and theta directly.
    """
    if v <= 0 or d <= 0 or L <= 0:
        raise ValueError("v, d and L must be positive")
    warnings.warn(
        "kinematic_excitation uses Omega = 2*pi*v/L, theta = 2*pi*d/L as "
        "published; the roles of d and L are suspected transposed. "
        "Prefer supplying Omega and theta directly.",
        UserWarning,
        stacklevel=2,
    )
    return ExcitationParams(A=A, Omega=TWO_PI * v / L, theta=TWO_PI * d / L, v=v, d=d)
