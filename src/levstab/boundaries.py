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
omega2 = sqrt(3) omega1 ratio.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .model import ExcitationParams, PhysicalParams

__all__ = [
    "Ellipse",
    "BoundaryLines",
    "RelativeSize",
    "ResonanceChart",
    "h0_gain",
    "static_boundary_lines",
    "all_ellipses",
    "default_map_window",
    "relative_size",
    "resonance_chart",
    "ellipse_to_dict",
]

RT2 = math.sqrt(2.0)
RT3 = math.sqrt(3.0)
BOUNDARY_SAMPLES = 64  # samples of an ellipse's boundary


class Ellipse(NamedTuple):
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
    A: float = 0.0
    theta: float = 0.0

    @property
    def degenerate(self) -> bool:
        return self.k1 == 0.0

    @property
    def family(self) -> str:
        """'principal' (kinds a, b) or 'combination' (c, d)."""
        return _RESONANCES[self.kind].family

    @property
    def open_theta(self) -> float:
        """The phase that opens this kind's tongue widest: 1 + sign cos theta = 2."""
        return 0.0 if _RESONANCES[self.kind].sign > 0.0 else math.pi

    def boundary_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample the boundary at s_k = 2 pi k / n, n = BOUNDARY_SAMPLES:
        (Kp, Kd) = (h1 + k1 cos s, h2 + k2 sin s)."""
        s = 2.0 * math.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
        return s, self.h1 + self.k1 * np.cos(s), self.h2 + self.k2 * np.sin(s)


def h0_gain(params: PhysicalParams) -> float:
    """Divergence gain h0 = m R g / (sqrt(2) sqrt(C g m)): the vertical
    static boundary, independent of Kd and of z0."""
    return params.m * params.R * params.g / (RT2 * math.sqrt(params.C * params.g * params.m))


class BoundaryLines(NamedTuple):
    """Static stability boundaries: the wedge h0 < Kp < h0 + slope*Kd."""

    h0: float
    slope: float

    def inclined(self, Kd):
        """Kp on the oscillatory (Hopf) boundary at the given Kd."""
        return self.h0 + self.slope * np.asarray(Kd, dtype=float)


def static_boundary_lines(params: PhysicalParams) -> BoundaryLines:
    """Vertical line Kp = h0 and inclined line Kp = h0 + (R z0/2C) Kd."""
    return BoundaryLines(h0=h0_gain(params), slope=params.R * params.z0 / (2.0 * params.C))


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

    @property
    def family(self) -> str:
        return "principal" if self.sign > 0.0 else "combination"


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
    """All four resonance ellipses keyed by kind.

    A subnormal A**2 (A below about 1.5e-154) counts as zero, so every
    tongue is degenerate as at A = 0: it has lost the precision that the
    half-widths, and every measurement of a tongue, rely on.
    """
    p, Om, A = params, exc.Omega, exc.A
    A2 = A**2 if A**2 >= sys.float_info.min else 0.0
    rcgm = math.sqrt(p.C * p.g * p.m)
    cos_theta = math.cos(exc.theta)
    out = {}
    for kind, r in _RESONANCES.items():
        h1 = p.m * p.R * (2.0 * r.den * p.g + r.n * p.z0 * Om**2) / (2.0 * r.den * RT2 * rcgm)
        h2 = r.n * p.C * p.m * Om**2 / (r.den * RT2 * rcgm)
        k2 = math.sqrt(r.n * A2 * p.m * p.R**2 * Om**2 * (1.0 + r.sign * cos_theta) / (r.K * p.C * p.g))
        out[kind] = Ellipse(kind, h1, h2, r.f * Om * k2, k2, A=A, theta=exc.theta)
    return out


def default_map_window(
    params: PhysicalParams, exc: ExcitationParams
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Gain window ((Kp lo, hi), (Kd lo, hi)) enclosing the static triangle
    tip and the a, b, c tongues' centres.  Its grids barely sample them: at
    the baseline (A = 5 mm, theta = pi/2) a 21x21 grid has no cell inside
    any ellipse, and a 101x101 grid 6, all in b."""
    lines = static_boundary_lines(params)
    ells = all_ellipses(params, exc)
    kp = (0.8 * lines.h0, ells["b"].h1 + 2.0 * ells["b"].k1)
    kd = (0.1 * ells["a"].h2, 1.3 * ells["b"].h2)
    return kp, kd


class RelativeSize(NamedTuple):
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


CHART_SAMPLES = 400  # Kd samples of a resonance chart


class ResonanceChart(NamedTuple):
    """Sampled natural-frequency curves over Kd and their intersections with
    the excitation lines Omega and Omega/2.

    Of the eight generic intersections only four resonances are actually
    observed with first-harmonic forcing: omega2 = Omega/2 (kind a),
    omega1 = Omega/2 (kind b), omega1 + omega2 = Omega (kind c) and
    omega2 - omega1 = Omega (kind d).
    """

    Omega: float
    Kd_range: tuple[float, float]
    Kd: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    sum: np.ndarray
    difference: np.ndarray
    intersections: tuple


def resonance_chart(
    params: PhysicalParams,
    Omega: float,
    Kd_range: tuple[float, float] | None = None,
) -> ResonanceChart:
    """Sample omega1, omega2, their sum and difference at CHART_SAMPLES
    points of a Kd range and solve each curve against the levels Omega and
    Omega/2 in closed form.

    The default range, 0 to 1.3 times tongue d's Kd, covers all four
    observed intersections; the chart records the range it used.  An empty
    range (lo >= hi) yields a chart with no samples; the intersection
    records are still computed, all flagged out of range.  A range whose
    width hi - lo overflows raises ``ValueError``.
    """
    scale = math.sqrt(2.0 * params.g / (params.m * params.C))  # omega1^2 per Kd
    # each curve as a multiple of omega1
    factors = {"omega1": 1.0, "omega2": RT3, "sum": 1.0 + RT3, "difference": RT3 - 1.0}
    if Kd_range is None:
        Kd_range = (0.0, 1.3 * (Omega / factors["difference"]) ** 2 / scale)
    if not math.isfinite(Kd_range[1] - Kd_range[0]):
        raise ValueError(f"the Kd range {Kd_range[0]!r},{Kd_range[1]!r} is wider than a float can hold")
    if Kd_range[0] >= Kd_range[1]:
        kd = np.empty(0)
    else:
        kd = np.linspace(Kd_range[0], Kd_range[1], CHART_SAMPLES)
    w1 = np.sqrt(np.maximum(kd, 0.0) * scale)
    kinds = {(r.curve, r.level): kind for kind, r in _RESONANCES.items()}
    inter = []
    for curve, factor in factors.items():
        for label, level in (("Omega", Omega), ("Omega/2", Omega / 2.0)):
            kd_star = (level / factor) ** 2 / scale
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
        Kd_range=Kd_range,
        Kd=kd,
        intersections=tuple(inter),
        **{curve: factor * w1 for curve, factor in factors.items()},
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

