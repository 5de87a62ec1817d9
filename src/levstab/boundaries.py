"""Closed-form stability boundaries in the (Kp, Kd) gain plane.

Without excitation the stable region is a wedge between a vertical
divergence line Kp = h0 and an inclined oscillatory (Hopf) line
Kp = h0 + (R z0 / 2C) Kd.  Base excitation carves four elliptical
parametric-resonance regions out of that wedge, all centered on the
inclined line:

  a: rotational principal resonance, omega2 = Omega/2
  b: translational principal resonance, omega1 = Omega/2
  c: combination sum resonance, omega1 + omega2 = Omega
  d: combination difference resonance, omega2 - omega1 = Omega

The closed forms bake in the uniform-bar inertia J = m L^2/12 through the
omega2 = sqrt(3) omega1 ratio; the harmonic-balance determinants offered for
cross-validation keep J symbolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import ExcitationParams, PhysicalParams
from .output import write_csv

__all__ = [
    "Ellipse",
    "BoundaryLines",
    "RelativeSize",
    "ResonanceChart",
    "h0_gain",
    "static_boundary_lines",
    "combination_frequencies",
    "all_ellipses",
    "default_map_window",
    "relative_size",
    "hb_determinant_principal",
    "hill_determinant_combination",
    "resonance_chart",
    "ellipse_to_dict",
    "write_ellipse_boundary_csv",
    "write_resonance_chart_csv",
]

RT2 = math.sqrt(2.0)
RT3 = math.sqrt(3.0)
RT6 = math.sqrt(6.0)


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned stability ellipse (Kp - h1)^2/k1^2 + (Kd - h2)^2/k2^2 = 1.

    A and theta record the excitation that produced the axes; degenerate
    ellipses (zero axes) arise at A = 0 or at the phase that cancels the
    resonance's forcing.
    """

    kind: str
    h1: float
    h2: float
    k1: float
    k2: float
    A: float = field(default=0.0, compare=False)
    theta: float = field(default=0.0, compare=False)

    @property
    def degenerate(self) -> bool:
        return self.k1 == 0.0

    def boundary_points(self, n: int = 64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample the boundary at s_k = 2 pi k / n:
        (Kp, Kd) = (h1 + k1 cos s, h2 + k2 sin s)."""
        s = 2.0 * math.pi * np.arange(n) / n
        return s, self.h1 + self.k1 * np.cos(s), self.h2 + self.k2 * np.sin(s)


def h0_gain(params: PhysicalParams) -> float:
    """Divergence gain h0 = m R g / (sqrt(2) sqrt(C g m)): the vertical
    static boundary, independent of Kd and of z0."""
    return params.m * params.R * params.g / (RT2 * math.sqrt(params.C * params.g * params.m))


@dataclass(frozen=True)
class BoundaryLines:
    """Static stability boundaries: the wedge h0 < Kp < h0 + slope*Kd."""

    h0: float
    slope: float

    def inclined(self, Kd):
        """Kp on the oscillatory (Hopf) boundary at the given Kd."""
        return self.h0 + self.slope * np.asarray(Kd, dtype=float)


def static_boundary_lines(params: PhysicalParams) -> BoundaryLines:
    """Vertical line Kp = h0 and inclined line Kp = h0 + (R z0/2C) Kd."""
    return BoundaryLines(h0=h0_gain(params), slope=params.R * params.z0 / (2.0 * params.C))


def combination_frequencies(Omega: float) -> dict[str, tuple[float, float]]:
    """Natural-frequency pairs (omega1, omega2 = sqrt(3) omega1) that combine
    to the excitation frequency: the 'sum' pair has omega1 + omega2 = Omega,
    the 'difference' pair omega2 - omega1 = Omega."""
    if Omega <= 0:
        raise ValueError("Omega must be positive")
    w1s = math.sqrt((2.0 - RT3) / 2.0) * Omega
    w1d = math.sqrt((2.0 + RT3) / 2.0) * Omega
    return {
        "sum": (w1s, RT3 * w1s),
        "difference": (w1d, RT3 * w1d),
    }


class _Resonance(NamedTuple):
    """Constants of one resonance ellipse.

    ``curve`` reaches the excitation ``level`` at the center, where
    (omega1/Omega)^2 = n/den.  With rcgm = sqrt(C g m):

      h1 = m R (2 den g + n z0 Omega^2) / (2 den sqrt(2) rcgm)
      h2 = n C m Omega^2 / (den sqrt(2) rcgm)
      k2 = sqrt(n A^2 m R^2 Omega^2 (1 + sign cos theta) / (K C g))
      k1 = f Omega k2

    sign is +1 for the principal resonances (closed at theta = pi) and -1
    for the combination ones (closed at theta = 0).
    """

    curve: str
    level: str
    n: float
    den: float
    K: float
    sign: float
    f: float


_RESONANCES = {
    "a": _Resonance("omega2", "Omega/2", 1.0, 12.0, 2304.0, 1.0, 0.5),
    "b": _Resonance("omega1", "Omega/2", 1.0, 4.0, 256.0, 1.0, 0.5),
    "c": _Resonance(
        "sum", "Omega", 2.0 - RT3, 2.0, 128.0 * RT3, -1.0, math.sqrt(RT3 * (2.0 - RT3) / 2.0)
    ),
    "d": _Resonance(
        "difference", "Omega", 2.0 + RT3, 2.0, 128.0 * RT3, -1.0, math.sqrt(RT3 * (2.0 + RT3) / 2.0)
    ),
}


def all_ellipses(params: PhysicalParams, exc: ExcitationParams) -> dict[str, Ellipse]:
    """All four resonance ellipses keyed by kind."""
    p, Om, A = params, exc.Omega, exc.A
    rcgm = math.sqrt(p.C * p.g * p.m)
    cos_theta = math.cos(exc.theta)
    out = {}
    for kind, r in _RESONANCES.items():
        h1 = p.m * p.R * (2.0 * r.den * p.g + r.n * p.z0 * Om**2) / (2.0 * r.den * RT2 * rcgm)
        h2 = r.n * p.C * p.m * Om**2 / (r.den * RT2 * rcgm)
        k2 = math.sqrt(r.n * A**2 * p.m * p.R**2 * Om**2 * (1.0 + r.sign * cos_theta) / (r.K * p.C * p.g))
        out[kind] = Ellipse(kind, h1, h2, r.f * Om * k2, k2, A=A, theta=exc.theta)
    return out


def default_map_window(
    params: PhysicalParams, exc: ExcitationParams
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Gain window ((Kp lo, hi), (Kd lo, hi)) enclosing the static triangle
    tip and the a, b, c tongues."""
    lines = static_boundary_lines(params)
    ells = all_ellipses(params, exc)
    kp = (0.8 * lines.h0, ells["b"].h1 + 2.0 * ells["b"].k1)
    kd = (0.1 * ells["a"].h2, 1.3 * ells["b"].h2)
    return kp, kd


@dataclass(frozen=True)
class RelativeSize:
    """Ellipse major axis relative to the local width of the stable wedge.

    ``geometric`` is k1/(h1 - h0) evaluated from the ellipse fields;
    ``printed`` is the published closed form A*sqrt(1 +/- cos theta)/(4 rt2 z0).
    As published the two disagree by exactly a factor of 2 (the geometric
    value is the larger); numerical Floquet scans side with the geometric
    axes, i.e. the printed k1 values are the physical half-widths and the
    printed eta closed form carries the error.  Both are reported so the
    discrepancy stays visible.
    """

    geometric: float
    printed: float


def relative_size(e: Ellipse, params: PhysicalParams) -> RelativeSize:
    """Relative size measure eta = k1/(h1 - h0) next to its printed form."""
    width = e.h1 - h0_gain(params)
    if width == 0.0:
        raise ValueError("relative size undefined: ellipse center sits on the vertical line")
    printed = e.A * math.sqrt(1.0 + _RESONANCES[e.kind].sign * math.cos(e.theta)) / (4.0 * RT2 * params.z0)
    return RelativeSize(geometric=e.k1 / width, printed=printed)


def hb_determinant_principal(
    params: PhysicalParams,
    exc: ExcitationParams,
    gains,
    kind: str,
) -> float:
    """Determinant of the first-harmonic balance matrix for a principal
    resonance, negative inside the corresponding ellipse and zero on it.

    For kind 'a' the pitch equation is probed with phi = b0 cos(omega2 t) +
    b1 sin(omega2 t) at omega2 = Omega/2; for kind 'b' the heave equation
    with the analogous ansatz at omega1 = Omega/2.  Coefficients keep J
    symbolic, so the zero set matches the closed-form ellipse only for the
    uniform-bar inertia.
    """
    p = params
    rcgm = math.sqrt(p.C * p.g * p.m)
    P = exc.A * math.cos(exc.theta)
    Q = exc.A * math.sin(exc.theta)
    Kp, Kd = gains.Kp, gains.Kd
    if kind == "a":
        w2 = exc.Omega / 2.0
        L2, J = p.L**2, p.J
        # rows: coefficients of (b0, b1) in the cos and sin balance equations
        c00 = (
            -4.0 * Kp * L2 * rcgm
            + 2.0 * RT2 * p.g * L2 * p.m * p.R
            - RT2 * exc.A * J * p.R * w2**2
            - RT2 * J * P * p.R * w2**2
            + 4.0 * RT2 * J * p.R * p.z0 * w2**2
        )
        c01 = -4.0 * Kd * L2 * rcgm * w2 - RT2 * J * Q * p.R * w2**2 + 8.0 * RT2 * p.C * J * w2**3
        c10 = 4.0 * Kd * L2 * rcgm * w2 - RT2 * J * Q * p.R * w2**2 - 8.0 * RT2 * p.C * J * w2**3
        c11 = (
            -4.0 * Kp * L2 * rcgm
            + 2.0 * RT2 * p.g * L2 * p.m * p.R
            + RT2 * exc.A * J * p.R * w2**2
            + RT2 * J * P * p.R * w2**2
            + 4.0 * RT2 * J * p.R * p.z0 * w2**2
        )
    elif kind == "b":
        w1 = exc.Omega / 2.0
        L, m, R = p.L, p.m, p.R
        c00 = (
            -8.0 * Kp * L * rcgm
            + 4.0 * RT2 * p.g * L * m * R
            - exc.A * L * m * R * w1**2 / RT2
            - L * m * P * R * w1**2 / RT2
            + 2.0 * RT2 * L * m * R * p.z0 * w1**2
        )
        c01 = -(8.0 * Kd * L * rcgm * w1 + L * m * Q * R * w1**2 / RT2 - 4.0 * RT2 * p.C * L * m * w1**3)
        c10 = 8.0 * Kd * L * rcgm * w1 - L * m * Q * R * w1**2 / RT2 - 4.0 * RT2 * p.C * L * m * w1**3
        c11 = -(
            8.0 * Kp * L * rcgm
            - 4.0 * RT2 * p.g * L * m * R
            - exc.A * L * m * R * w1**2 / RT2
            - L * m * P * R * w1**2 / RT2
            - 2.0 * RT2 * L * m * R * p.z0 * w1**2
        )
    else:
        raise ValueError(f"kind must be 'a' or 'b', got {kind!r}")
    return c00 * c11 - c01 * c10


def hill_determinant_combination(
    params: PhysicalParams,
    exc: ExcitationParams,
    gains,
    pair: str,
) -> tuple[float, float]:
    """Truncated Hill determinant for a combination resonance.

    Returns (det, residual): ``det`` is the determinant of the 4x4
    first-harmonic coefficient matrix in the amplitudes (a0, a1, b0, b1);
    ``residual`` is the scalar reduction M1^2 + M2*M3 -
    sqrt((L1^2+L2^2)(L3^2+L4^2)) obtained by eliminating the amplitudes,
    whose zero set is the combination ellipse itself.  The raw determinant
    vanishes on the ellipse only where the mode phases align (the axis
    points); the reduction removes that phase freedom.
    """
    p = params
    freqs = combination_frequencies(exc.Omega)
    if pair not in freqs:
        raise ValueError(f"pair must be 'sum' or 'difference', got {pair!r}")
    w1 = freqs[pair][0]
    rcgm = math.sqrt(p.C * p.g * p.m)
    P = exc.A * math.cos(exc.theta)
    Q = exc.A * math.sin(exc.theta)
    L, m, R = p.L, p.m, p.R
    M1 = 2.0 * L * (-4.0 * gains.Kp * rcgm + RT2 * m * R * (2.0 * p.g + p.z0 * w1**2))
    M2 = 8.0 * gains.Kd * L * rcgm * w1 - 4.0 * RT2 * p.C * L * m * w1**3
    M3 = 8.0 * RT3 * gains.Kd * L * rcgm * w1 - 4.0 * RT6 * p.C * L * m * w1**3
    L1 = L**2 * m * (-exc.A + P) * R * w1**2 / (2.0 * RT2)
    L2 = L**2 * m * Q * R * w1**2 / (2.0 * RT2)
    L3 = RT2 * m * (-exc.A + P) * R * w1**2
    L4 = RT2 * m * Q * R * w1**2
    H = np.array(
        [
            [M1, -M2, L1, L2],
            [M2, M1, L2, -L1],
            [L3, L4, M1, -M3],
            [L4, -L3, M3, M1],
        ]
    )
    residual = M1**2 + M2 * M3 - math.sqrt((L1**2 + L2**2) * (L3**2 + L4**2))
    return float(np.linalg.det(H)), residual


_CURVES = ("omega1", "omega2", "sum", "difference")


@dataclass(frozen=True)
class ResonanceChart:
    """Sampled natural-frequency curves over Kd and their intersections with
    the excitation lines Omega and Omega/2.

    Of the eight generic intersections only four resonances are actually
    observed with first-harmonic forcing: omega2 = Omega/2 (kind a),
    omega1 = Omega/2 (kind b), omega1 + omega2 = Omega (kind c) and
    omega2 - omega1 = Omega (kind d).
    """

    Omega: float
    Kd: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    sum: np.ndarray
    difference: np.ndarray
    intersections: tuple


def resonance_chart(
    params: PhysicalParams,
    Omega: float,
    Kd_range: tuple[float, float],
    n: int = 400,
) -> ResonanceChart:
    """Sample omega1, omega2, their sum and difference over a Kd range and
    solve each curve against the levels Omega and Omega/2 in closed form.

    An empty range (lo >= hi) yields a chart with no samples; the
    intersection records are still computed, all flagged out of range.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if Kd_range[0] >= Kd_range[1]:
        kd = np.empty(0)
    else:
        kd = np.linspace(Kd_range[0], Kd_range[1], n)
    scale = math.sqrt(2.0 * params.g / (params.m * params.C))  # omega1^2 per Kd
    w1 = np.sqrt(np.maximum(kd, 0.0) * scale)
    factors = {"omega1": 1.0, "omega2": RT3, "sum": 1.0 + RT3, "difference": RT3 - 1.0}
    kinds = {(r.curve, r.level): kind for kind, r in _RESONANCES.items()}
    inter = []
    for curve in _CURVES:
        for label, level in (("Omega", Omega), ("Omega/2", Omega / 2.0)):
            kd_star = (level / factors[curve]) ** 2 / scale
            inter.append(
                {
                    "curve": curve,
                    "level": label,
                    "Kd": kd_star,
                    "observed": (curve, label) in kinds,
                    "kind": kinds.get((curve, label)),
                    "in_range": bool(Kd_range[0] <= kd_star <= Kd_range[1]),
                }
            )
    return ResonanceChart(
        Omega=Omega,
        Kd=kd,
        omega1=w1,
        omega2=RT3 * w1,
        sum=(1.0 + RT3) * w1,
        difference=(RT3 - 1.0) * w1,
        intersections=tuple(inter),
    )


def ellipse_to_dict(e: Ellipse, params: PhysicalParams) -> dict:
    """JSON-ready ellipse record including both relative-size measures."""
    size = relative_size(e, params)
    return {
        "kind": e.kind,
        "h1": e.h1,
        "h2": e.h2,
        "k1": e.k1,
        "k2": e.k2,
        "eta_geometric": size.geometric,
        "eta_printed": size.printed,
        "degenerate": e.degenerate,
    }


def write_ellipse_boundary_csv(e: Ellipse, path, n: int = 64) -> None:
    """Boundary samples as CSV rows s,Kp,Kd with 17 significant digits."""
    write_csv(path, "s,Kp,Kd", e.boundary_points(n))


def write_resonance_chart_csv(chart: ResonanceChart, path) -> None:
    """Curve samples as CSV rows Kd,omega1,omega2,sum,difference."""
    columns = [chart.Kd, chart.omega1, chart.omega2, chart.sum, chart.difference]
    write_csv(path, "Kd,omega1,omega2,sum,difference", columns)
