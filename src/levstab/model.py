"""Parameter types and parameter-level derived quantities.

The vehicle is a rigid bar (mass m, rotational inertia J, support spacing L)
suspended below a track by two attractive electromagnets.  Each magnet pulls
with force C*I^2/gap^2 and is driven through a coil of resistance R by a PD
voltage law that regulates its airgap toward the nominal value z0.  The track
underside is wavy, so each support point sees a harmonic base motion of
amplitude A at angular frequency Omega, the second support lagging the first
by the phase theta.

The exact periodic steady state about which the body hangs still is a
parameter-level quantity too, and it lives here with the one solver policy,
so that a command that integrates nothing (``map``, ``steady-state``) runs
no plant.  numpy loads only when the steady state is evaluated on an array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, NamedTuple

__all__ = [
    "PhysicalParams",
    "ExcitationParams",
    "ControlGains",
    "HybridParams",
    "validate",
    "default_inertia",
    "has_uniform_bar_inertia",
    "natural_frequencies",
    "kinematic_excitation",
    "SteadyStateSample",
    "current_scale",
    "hybrid_gamma",
    "steady_state",
]

TWO_PI = 2.0 * math.pi

# the one solver policy, shared by trajectories, perturbation runs and
# monodromy matrices
METHOD = "DOP853"
RTOL = 1e-10
ATOL = 1e-12


def default_inertia(m: float, L: float) -> float:
    """Uniform-bar rotational inertia m*L^2/12 about the center of mass.

    This is the inertia for which the rotational natural frequency is
    exactly sqrt(3) times the translational one, the ratio every closed-form
    boundary in :mod:`levstab.boundaries` relies on.
    """
    if m <= 0 or L <= 0:
        raise ValueError("m and L must be positive")
    return m * L * L / 12.0


# a dataclass, not a NamedTuple: __post_init__ derives J
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

    def __post_init__(self) -> None:
        if self.J is None:
            object.__setattr__(self, "J", default_inertia(self.m, self.L))


def has_uniform_bar_inertia(params: PhysicalParams) -> bool:
    """Whether J is the uniform-bar m*L^2/12 to 1e-12 relative.

    The closed-form boundaries and the L-invariance of the stability maps
    hold only in that case.
    """
    return math.isclose(params.J, params.m * params.L**2 / 12.0, rel_tol=1e-12)


# a dataclass: __post_init__ normalizes theta, and v and d stay out of equality
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


# a dataclass: __post_init__ rejects non-finite gains
@dataclass(frozen=True)
class ControlGains:
    """PD gains mapping gap error (m) and gap-rate error (m/s) to volts."""

    Kp: float
    Kd: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.Kp) and math.isfinite(self.Kd)):
            raise ValueError(f"gains must be finite, got Kp={self.Kp!r}, Kd={self.Kd!r}")


# a dataclass: a configuration section, whose keys config._section reads
# through dataclasses.fields
@dataclass(frozen=True)
class HybridParams:
    """Hybrid-magnet gap offset: the permanent magnet shifts the force law to
    C*((I + gamma)/(gap + beta))^2, gamma = ``hybrid_gamma(params, beta)``."""

    beta: float


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
    if not math.isfinite(exc.period):
        raise ValueError(f"Omega = {exc.Omega!r} is too small: its period 2 pi/Omega overflows")
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
    if has_uniform_bar_inertia(params):
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


def current_scale(params: PhysicalParams) -> float:
    """Current per unit gap in steady state, sqrt(m*g/(2C)) (A/m)."""
    return math.sqrt(params.m * params.g / (2.0 * params.C))


def hybrid_gamma(params: PhysicalParams, beta: float) -> float:
    """Current offset that lets the permanent magnets carry the static load:
    gamma = sqrt(m*g/2C) * (z0 + beta), so steady currents are zero."""
    if params.z0 + beta <= 0.0:
        raise ValueError("z0 + beta must be positive")
    return float(current_scale(params) * (params.z0 + beta))


class SteadyStateSample(NamedTuple):
    """Exact periodic steady state evaluated at given instants.

    The body stays at z0, so the gaps follow the base motion w; currents are
    the ones that hold the gaps there and voltages are the resistive drop
    R*I.  The gap rates are analytic derivatives; the current rates are
    ``current_scale(params)`` times them, on either plant, and are not
    kept.  Fields are floats or arrays, like the t they were evaluated at.
    """

    t: Any
    w1: Any
    w2: Any
    gap1: Any
    gap2: Any
    gap1_rate: Any
    gap2_rate: Any
    I1: Any
    I2: Any
    U1: Any
    U2: Any


def _steady_kernel(
    params: PhysicalParams, exc: ExcitationParams, hyb=None, cos=math.cos, sin=math.sin
):
    """The steady-state terms as a function of t, with the run's constants
    hoisted out of it.

    The kernel returns the plain tuple (w1, w2, gap1, gap2, gap1_rate,
    gap2_rate, I1, I2, U1, U2), the fields of :class:`SteadyStateSample`
    after t.  ``cos`` and ``sin`` are math's for a float t and numpy's for
    an array.
    """
    A, Omega, theta, z0 = exc.A, exc.Omega, exc.theta, params.z0
    A_Omega = A * Omega
    kappa = current_scale(params)
    R = params.R
    R_kappa = R * kappa
    beta, gamma = (None, None) if hyb is None else (hyb.beta, hybrid_gamma(params, hyb.beta))

    def kernel(t):
        ph = Omega * t
        w1 = A * cos(ph)
        w2 = A * cos(ph - theta)
        d1 = z0 - w1
        d2 = z0 - w2
        d1dot = A_Omega * sin(ph)
        d2dot = A_Omega * sin(ph - theta)
        if beta is None:
            i1, i2 = kappa * d1, kappa * d2
            u1, u2 = R_kappa * d1, R_kappa * d2
        else:
            i1 = kappa * (d1 + beta) - gamma
            i2 = kappa * (d2 + beta) - gamma
            u1, u2 = R * i1, R * i2
        return w1, w2, d1, d2, d1dot, d2dot, i1, i2, u1, u2

    return kernel


def steady_state(
    params: PhysicalParams, exc: ExcitationParams, t, hyb: HybridParams | None = None
) -> SteadyStateSample:
    """Evaluate the exact steady state at time(s) t, a float or an array.

    The base moves by w1 = A cos(Omega t), w2 = A cos(Omega t - theta), so
    Delta_ss,i = z0 - w_i; I_ss = sqrt(m g / 2C) * Delta_ss and U_ss = R I_ss.
    With ``hyb`` the currents are those of the hybrid plant,
    kappa*(Delta_ss + beta) - gamma.  Substituted back into the plant
    equations these leave zero residuals for every t, every A < z0 and every
    theta.  Its kernel is the one place that evaluates the base motion; the
    plant's derivative holds two for its configuration, math's for one
    state and numpy's for a stack, its closure event and
    ``PeriodicMatrix.at`` one each, and this function builds a fresh one
    per call.  A float t takes ``math``'s cos and sin, a fraction of
    numpy's cost per call; on x86-64 with numpy 2.4 they give numpy's
    values bit for bit (checked on 1.2 million phases).
    """
    if isinstance(t, float):
        trig = math.cos, math.sin
    else:
        import numpy as np

        trig = np.cos, np.sin
    return SteadyStateSample(t, *_steady_kernel(params, exc, hyb, *trig)(t))
