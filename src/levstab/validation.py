"""Cross-validation battery: every analytic result checked against an
independent numerical route.

Each criterion compares two implementations that share no code path for the
quantity under test (closed forms vs Floquet, analytic Jacobian vs finite
differences, hybrid plant vs shifted standard plant, ...).  The battery
reports per-criterion pass/fail/skip with measured values so a report is
auditable without rerunning.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

# The engine functions that benchmarks/spans.py traces are called through
# their modules, never bound here by name: a name bound while a tracer is
# installed would keep its wrapper after the tracer is removed.
from . import boundaries, floquet, linearized, plant
from .floquet import BISECT_TOL, classify, is_real, signature_moduli
from .linearized import periodic_matrix, unexcited_spectrum
from .model import (
    ControlGains,
    ExcitationParams,
    HybridParams,
    PhysicalParams,
    RTOL,
    has_uniform_bar_inertia,
    hybrid_gamma,
    natural_frequencies,
)
from .plant import hybrid_transform, steady_vehicle_state

__all__ = [
    "CriterionResult",
    "ValidationReport",
    "run_battery",
    "pick_stable_gains",
    "tongue_edges",
]

RT3 = math.sqrt(3.0)
SEED = 20260814
# tongue_edges scans h1 +- SCAN_HALF_WIDTH * k1
SCAN_HALF_WIDTH = 1.6
# The narrowest relative tongue width k1/h1 (about 7 A) that the boundary
# bisection resolves.  It places an edge to BISECT_TOL of its scan, which is
# 2 * SCAN_HALF_WIDTH * k1 long, and inside a tongue |mu| - 1 is of the
# order of k1/h1 (near 0.2 k1/h1 at the centres), so over that distance
# |mu| moves by about 2 * SCAN_HALF_WIDTH * BISECT_TOL * k1/h1.  The
# monodromy resolves |mu| to about RTOL, and a narrower tongue puts its
# edges inside that error.  The limit errs on the safe side: at theta =
# pi/2 the Floquet tongue criteria still pass at A = 1e-9 (narrowest width
# 6.8e-9) and fail at A = 1e-10 (6.8e-10)
MIN_TONGUE_WIDTH = RTOL / (2.0 * SCAN_HALF_WIDTH * BISECT_TOL)


class CriterionResult(NamedTuple):
    """Outcome of one battery criterion."""

    index: int
    name: str
    status: str  # "pass" | "fail" | "skip"
    tolerance: str
    measured: dict
    detail: str = ""
    reason: str = ""
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {**self._asdict(), "seconds": round(self.seconds, 3)}


class ValidationReport(NamedTuple):
    """Battery results; ``passed`` means no criterion failed (skips allowed)."""

    criteria: list

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.criteria)

    def counts(self) -> dict:
        return {s: sum(c.status == s for c in self.criteria) for s in ("pass", "fail", "skip")}

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "counts": self.counts(),
            "criteria": [c.to_dict() for c in self.criteria],
        }


def pick_stable_gains(params: PhysicalParams, exc: ExcitationParams) -> ControlGains:
    """A gain point verified stable by Floquet, used by trajectory criteria.

    Candidates sit midway between the static boundary lines at a few Kd
    multiples of the first resonance center, which keeps them far from every
    tongue at moderate excitation amplitudes.
    """
    lines = boundaries.static_boundary_lines(params)
    ells = boundaries.all_ellipses(params, exc)
    kd0 = ells["a"].h2
    for f in (2.0, 1.4, 2.6, 3.2):
        gains = ControlGains(Kp=lines.h0 + 0.5 * lines.slope * f * kd0, Kd=f * kd0)
        if classify(floquet.monodromy(params, exc, gains)) == "stable":
            return gains
    raise RuntimeError("no Floquet-stable gain candidate found")


def _inside_tongue(mu, family: str) -> float:
    """``tongue_edges``' indicator min(s0 - 1, 1 - s1) of ``family``'s moduli."""
    s0, s1 = np.concatenate([signature_moduli(mu, family), [0.0, 0.0]])[:2]
    return float(min(s0 - 1.0, 1.0 - s1))


def tongue_edges(
    params: PhysicalParams,
    exc: ExcitationParams,
    ell: boundaries.Ellipse,
) -> tuple[float, float]:
    """Kp of the left and right tongue edges along the horizontal Kd = h2,
    scanned over h1 +- SCAN_HALF_WIDTH * k1.

    Edge detection tracks the resonance-signature multipliers rather than
    max|mu|: the right half of each tongue lies beyond the oscillatory
    static boundary, where an unrelated complex pair already exceeds the
    unit circle, so max|mu| - 1 has no sign change there.  Of the two
    largest signature moduli s0 >= s1 (an absent one counts as 0), both lie
    below 1 left of the tongue, only s0 exceeds 1 inside it, and both do
    right of it, where the partner multiplier has left the unit circle too.
    So min(s0 - 1, 1 - s1) is positive exactly inside the tongue, and one
    scan finds both edges, as its first and last crossings.
    """
    half = SCAN_HALF_WIDTH * ell.k1
    scan = ((ell.h1 - half, ell.h2), (ell.h1 + half, ell.h2))
    crossings = floquet.boundary_crossings(params, exc, scan, lambda mu: _inside_tongue(mu, ell.family))
    if len(crossings) < 2:
        raise RuntimeError(f"tongue edges of kind {ell.kind} not bracketed by the scan")
    return crossings[0][0], crossings[-1][0]


def _rng_params(rng) -> PhysicalParams:
    return PhysicalParams(
        m=float(10 ** rng.uniform(2.0, 4.3)),
        C=float(10 ** rng.uniform(-2.0, 0.0)),
        R=float(rng.uniform(1.0, 40.0)),
        z0=float(rng.uniform(0.006, 0.04)),
        g=float(rng.uniform(3.0, 20.0)),
        L=float(rng.uniform(1.0, 8.0)),
    )


class _Skip(Exception):
    """Raised by a criterion that does not apply to the configuration; the
    message is the reason reported."""


# criterion implementations; each returns (ok, measured, detail)


def _c1_frequency_ratio(params, exc):
    rng = np.random.default_rng(SEED)
    worst = dev = 0.0
    for _ in range(100):
        p = _rng_params(rng)
        kd = float(10 ** rng.uniform(1.0, 5.0))
        # the imaginary pairs of the unexcited spectrum on the oscillatory line
        lines = boundaries.static_boundary_lines(p)
        spec = unexcited_spectrum(p, ControlGains(float(lines.inclined(kd)), kd))
        w1, w2 = (float(np.max(block.imag)) for block in (spec.translation, spec.rotation))
        ref1, ref2 = natural_frequencies(p, kd)
        worst = max(worst, abs(w2 / w1 / RT3 - 1.0))
        dev = max(dev, abs(w1 / ref1 - 1.0), abs(w2 / ref2 - 1.0))
    return (
        worst <= 1e-12 and dev <= 1e-12,
        {"max_rel_err": worst, "max_closed_form_dev": dev, "draws": 100},
        f"unexcited spectrum on the oscillatory line: max |omega2/omega1/sqrt(3) - 1| = "
        f"{worst:.3e}, max deviation from natural_frequencies {dev:.3e}",
    )


def _c2_ellipse_centers(params, exc):
    ells = boundaries.all_ellipses(params, exc)
    s4 = (2.0 * params.g / (params.m * params.C)) ** 0.25
    w1, w2 = natural_frequencies(params, 1.0)
    r2 = w2 / w1
    om = exc.Omega
    targets = {
        "a": (om / (2.0 * r2 * s4)) ** 2,
        "b": (om / (2.0 * s4)) ** 2,
        "c": (om / ((1.0 + r2) * s4)) ** 2,
        "d": (om / ((r2 - 1.0) * s4)) ** 2,
    }
    worst = 0.0
    measured = {}
    for kind, target in targets.items():
        h2 = ells[kind].h2
        worst = max(worst, abs(h2 / target - 1.0))
        measured[f"h2_{kind}"] = h2
    measured["max_rel_err"] = worst
    return (
        worst <= 1e-9,
        measured,
        "centers vs inverted resonance frequencies, max rel err "
        f"{worst:.3e}",
    )


def _c3_center_line(params, exc):
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(50):
        p = _rng_params(rng)
        e = ExcitationParams(
            A=0.2 * p.z0,
            Omega=float(10 ** rng.uniform(1.2, 2.5)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        lines = boundaries.static_boundary_lines(p)
        for ell in boundaries.all_ellipses(p, e).values():
            line = float(lines.inclined(ell.h2))
            worst = max(worst, abs(ell.h1 / line - 1.0))
    if worst > 1e-12:
        return (
            False,
            {"max_center_rel_err": worst},
            f"center line identity violated, max rel err {worst:.3e}",
        )

    # bisected oscillatory boundary of the unexcited spectrum vs the line
    lines = boundaries.static_boundary_lines(params)
    kd_ref = boundaries.all_ellipses(params, exc)["b"].h2
    worst_hopf = 0.0
    for frac in (0.25, 0.5, 1.0, 1.5, 2.0):
        kd = frac * kd_ref
        line = float(lines.inclined(kd))
        lo, hi = lines.h0 + 0.5 * lines.slope * kd, lines.h0 + 1.5 * lines.slope * kd

        def growth(kp: float) -> float:
            return float(np.max(unexcited_spectrum(params, ControlGains(kp, kd)).all.real))

        if growth(lo) >= 0.0 or growth(hi) <= 0.0:
            return False, {"Kd": kd}, "oscillatory boundary not bracketed"
        while hi - lo > 1e-10 * hi:
            mid = 0.5 * (lo + hi)
            if growth(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        worst_hopf = max(worst_hopf, abs(0.5 * (lo + hi) / line - 1.0))
    return (
        worst_hopf <= 1e-6,
        {"max_center_rel_err": worst, "max_hopf_rel_err": worst_hopf},
        f"50 random sets: centers on line to {worst:.1e}; "
        f"bisected oscillatory boundary matches to {worst_hopf:.1e}",
    )


def _c4_axis_ratios(params, exc):
    ells = boundaries.all_ellipses(params, exc)
    measured = {}
    worst = 0.0
    if not ells["a"].degenerate:
        r = ells["b"].k1 / ells["a"].k1
        measured["k1b_over_k1a"] = r
        worst = max(worst, abs(r / 3.0 - 1.0))
    if not ells["c"].degenerate:
        r = ells["d"].k1 / ells["c"].k1
        measured["k1d_over_k1c"] = r
        worst = max(worst, abs(r / (7.0 + 4.0 * RT3) - 1.0))
    if not measured:
        raise _Skip("all tongues degenerate at this phase")
    measured["max_rel_err"] = worst
    return worst <= 1e-12, measured, f"axis ratios, max rel err {worst:.3e}"


def _c5_eta_frequency_independence(params, exc):
    worst = 0.0
    measured = {}
    for kind in "abcd":
        etas = []
        for om in (20.0, 80.0, 320.0):
            ell = boundaries.all_ellipses(
                params, ExcitationParams(A=exc.A, Omega=om, theta=exc.theta)
            )[kind]
            if ell.degenerate:
                break
            etas.append(boundaries.relative_size(ell, params).geometric)
        if len(etas) < 3:
            continue
        spread = max(abs(e / etas[0] - 1.0) for e in etas)
        measured[f"eta_{kind}"] = etas[0]
        worst = max(worst, spread)
    if not measured:
        raise _Skip("all tongues degenerate at this phase")
    measured["max_rel_spread"] = worst
    return (
        worst <= 1e-12,
        measured,
        f"eta constant over Omega in {{20, 80, 320}}, max spread {worst:.3e}",
    )


def _c6_degeneracy(params, exc):
    in_phase = boundaries.all_ellipses(params, ExcitationParams(A=exc.A, Omega=exc.Omega, theta=0.0))
    anti_phase = boundaries.all_ellipses(
        params, ExcitationParams(A=exc.A, Omega=exc.Omega, theta=math.pi)
    )
    measured = {
        "k1_c_at_0": in_phase["c"].k1,
        "k1_d_at_0": in_phase["d"].k1,
        "k1_a_at_pi": anti_phase["a"].k1,
        "k1_b_at_pi": anti_phase["b"].k1,
    }
    return (
        all(v == 0.0 for v in measured.values()),
        measured,
        "combination tongues closed in phase, principal tongues closed in antiphase",
    )


def _c7_floquet_vs_analytic(params, exc):
    t0 = time.perf_counter()
    scans = []
    for theta in (0.0, math.pi / 2.0, math.pi):
        exc_t = ExcitationParams(A=exc.A, Omega=exc.Omega, theta=theta)
        for kind, ell in boundaries.all_ellipses(params, exc_t).items():
            if ell.degenerate:  # closed at its family's phase
                continue
            left, right = tongue_edges(params, exc_t, ell)
            scans.append(
                {
                    "kind": kind,
                    "theta": theta,
                    "center_err": (0.5 * (left + right) - ell.h1) / ell.k1,
                    "half_width_factor": 0.5 * (right - left) / ell.k1,
                }
            )
    elapsed = time.perf_counter() - t0
    factor_dev = max(abs(s["half_width_factor"] - 1.0) for s in scans)
    center_err = max(abs(s["center_err"]) for s in scans)
    measured = {
        "scans": scans,
        "max_center_err": center_err,
        "max_factor_dev": factor_dev,
        "elapsed_s": elapsed,
    }
    return (
        factor_dev <= 0.02 and center_err <= 0.01 and elapsed <= 60.0,
        measured,
        f"{len(scans)} scans; half-widths match k1 to {factor_dev:.2e}, "
        f"centers match h1 to {center_err:.2e} k1",
    )


def _c8_steady_state_exactness(params, exc):
    gains = pick_stable_gains(params, exc)
    t_end = 10.0 * exc.period
    traj = plant.integrate(steady_vehicle_state(params, exc, 0.0), (0.0, t_end), params, exc, gains)
    if traj.aborted:
        return False, {}, "gap closed during steady-state run"
    dz = float(np.max(np.abs(traj.states[:, 0] - params.z0)))
    dphi = float(np.max(np.abs(traj.states[:, 2])))
    return (
        dz < 1e-8 and dphi < 1e-8,
        {"max_abs_dz": dz, "max_abs_phi": dphi, "Kp": gains.Kp, "Kd": gains.Kd},
        f"max|z - z0| = {dz:.2e} m, max|phi| = {dphi:.2e} rad over 10 periods",
    )


def _c9_hybrid_equivalence(params, exc):
    beta = 0.01
    hyb = HybridParams(beta=beta)
    gamma = hybrid_gamma(params, beta)
    params_bar = replace(params, z0=params.z0 + beta)
    gains = pick_stable_gains(params, exc)

    s0 = steady_vehicle_state(params, exc, 0.0, hyb)
    start_h = replace(s0, z=s0.z + 1e-4, phi=s0.phi + 5e-5)
    start_s = hybrid_transform(start_h, params, hyb)
    t_end = 10.0 * exc.period
    t_eval = np.linspace(0.0, t_end, 1201)
    kw = dict(rtol=1e-12, atol=1e-14, t_eval=t_eval)
    traj_h = plant.integrate(start_h, (0.0, t_end), params, exc, gains, mode="hybrid", hyb=hyb, **kw)
    traj_s = plant.integrate(start_s, (0.0, t_end), params_bar, exc, gains, **kw)
    if traj_h.aborted or traj_s.aborted:
        return False, {}, "gap closed during equivalence run"
    shift = np.array([beta, 0.0, 0.0, 0.0, gamma, gamma])
    diff = np.abs(traj_s.states - shift[None, :] - traj_h.states)
    scale = np.max(np.abs(traj_h.states), axis=0)
    scale[scale == 0.0] = 1.0
    traj_err = float(np.max(diff / scale[None, :]))

    kp_range, kd_range = boundaries.default_map_window(params, exc)
    map_h = floquet.sweep(params, exc, kp_range, kd_range, 21, 21, hyb=hyb)
    map_s = floquet.sweep(params_bar, exc, kp_range, kd_range, 21, 21)
    cells_differ = int(np.sum(map_h.classes != map_s.classes))
    map_err = float(np.nanmax(np.abs(map_h.max_mu - map_s.max_mu)))
    ok = (
        traj_err <= 1e-8
        and cells_differ == 0
        and not map_h.errors
        and not map_s.errors
    )
    return (
        ok,
        {
            "trajectory_rel_err": traj_err,
            "beta": beta,
            "gamma": gamma,
            "map_cells_differing": cells_differ,
            "map_max_mu_dev": map_err,
        },
        f"trajectories agree to {traj_err:.2e} rel; "
        f"{cells_differ} of 441 map cells differ",
    )


def _c10_linearization_consistency(params, exc):
    gains = pick_stable_gains(params, exc)
    pm = periodic_matrix(params, exc, gains)
    worst = 0.0
    for k in range(20):
        t = k * exc.period / 20.0
        a_an = pm.at(t)
        a_fd = linearized.fd_jacobian(params, exc, gains, t)
        worst = max(worst, float(np.max(np.abs(a_fd - a_an) / np.maximum(1.0, np.abs(a_an)))))
    return (
        worst <= 1e-6,
        {"max_rel_err": worst, "Kp": gains.Kp, "Kd": gains.Kd},
        f"analytic vs central-difference system matrix, max entry err {worst:.3e}",
    )


def _c11_length_invariance(params, exc):
    kp_range, kd_range = boundaries.default_map_window(params, exc)
    maps = {}
    for l_val in (1.0, 3.0, 10.0):
        p = PhysicalParams(m=params.m, C=params.C, R=params.R, z0=params.z0, g=params.g, L=l_val)
        maps[l_val] = floquet.sweep(p, exc, kp_range, kd_range, 21, 21)
    ref = maps[3.0]
    differing = {
        l_val: int(np.sum(m.classes != ref.classes)) for l_val, m in maps.items() if l_val != 3.0
    }
    errors = sum(len(m.errors) for m in maps.values())
    return (
        all(v == 0 for v in differing.values()) and errors == 0,
        {"cells_differing": differing, "cell_errors": errors},
        "classification maps identical for L in {1, 3, 10} with the uniform-bar inertia",
    )


def _c12_printed_factor(params, exc):
    theta = exc.theta if 0.0 < exc.theta < math.pi else math.pi / 2.0
    ells = boundaries.all_ellipses(params, ExcitationParams(A=exc.A, Omega=exc.Omega, theta=theta))
    measured = {}
    worst = 0.0
    for kind, ell in ells.items():
        rs = boundaries.relative_size(ell, params)
        ratio = rs.geometric / rs.printed
        measured[f"ratio_{kind}"] = ratio
        worst = max(worst, abs(ratio / 2.0 - 1.0))
    measured["max_rel_err"] = worst
    return (
        worst <= 1e-9,
        measured,
        "geometric relative size is exactly twice the closed-form one for "
        "every kind (documented discrepancy, not resolved here)",
    )


def _c13_multiplier_signatures(params, exc):
    measured = {}
    ok = True
    # the ellipses at each phase used; a tongue closed at exc.theta is
    # measured at its family's open phase
    at = {exc.theta: boundaries.all_ellipses(params, exc)}
    for kind, ell in at[exc.theta].items():
        theta = ell.open_theta if ell.degenerate else exc.theta
        if theta not in at:
            at[theta] = boundaries.all_ellipses(params, ExcitationParams(exc.A, exc.Omega, theta))
        ell = at[theta][kind]
        gains = ControlGains(ell.h1, ell.h2)
        res = floquet.monodromy(params, ExcitationParams(exc.A, exc.Omega, theta), gains)
        dom = res.dominant
        measured[f"dominant_{kind}"] = {"re": dom.real, "im": dom.imag, "abs": abs(dom)}
        if ell.family == "principal":
            ok = ok and is_real(dom) and dom.real < 0.0 and abs(dom) > 1.0
        else:
            ok = ok and not is_real(dom) and abs(dom) > 1.0
    return (
        ok,
        measured,
        "dominant multiplier real negative at a/b centers, complex pair at c/d centers",
    )


# index, name, tolerance, implementation, the reason it is skipped when every
# tongue is degenerate, as at A = 0 (None: it runs), whether it measures
# tongues by their Floquet multipliers (skipped below MIN_TONGUE_WIDTH), and
# whether it needs the uniform-bar inertia
_CRITERIA = [
    (1, "natural-frequency-ratio", "1e-12 relative", _c1_frequency_ratio, None, False, False),
    (2, "ellipse-centers", "1e-9 relative vs frequency inversion", _c2_ellipse_centers,
     None, False, True),
    (3, "center-line", "1e-12 relative (line), 1e-6 (bisected boundary)", _c3_center_line,
     None, False, False),
    (4, "axis-ratios", "1e-12 relative", _c4_axis_ratios,
     "tongue half-widths vanish without excitation", False, True),
    (5, "eta-frequency-independence", "1e-12 relative", _c5_eta_frequency_independence,
     "eta undefined without excitation", False, True),
    (6, "theta-degeneracy", "exact zeros", _c6_degeneracy,
     "degeneracy pattern is vacuous without excitation", False, False),
    (7, "floquet-vs-analytic", "center 1% of k1, half-width 2%", _c7_floquet_vs_analytic,
     "no tongues to locate without excitation", True, True),
    (8, "steady-state-exactness", "1e-8 m / 1e-8 rad over 10 periods", _c8_steady_state_exactness,
     None, False, False),
    (9, "hybrid-equivalence", "1e-8 relative, cell-identical maps", _c9_hybrid_equivalence,
     None, False, False),
    (10, "linearization-consistency", "1e-6 entrywise relative", _c10_linearization_consistency,
     None, False, False),
    (11, "length-invariance", "cell-identical maps", _c11_length_invariance, None, False, False),
    (12, "printed-factor-ratio", "ratio = 2.000 to 1e-9", _c12_printed_factor,
     "size ratio undefined without excitation", False, True),
    (13, "multiplier-signatures", "signature at each tongue center", _c13_multiplier_signatures,
     "no resonant multipliers without excitation", True, True),
]


def run_battery(params: PhysicalParams, exc: ExcitationParams) -> ValidationReport:
    """Run all cross-validation criteria against the given configuration.

    A criterion is skipped with its reason when the excitation opens no
    tongue (every closed-form tongue degenerate: at A = 0, or when A**2
    is subnormal) and ``_CRITERIA`` gives one, else when it measures
    tongues by Floquet and the narrowest tongue at theta = pi/2, where all
    four are open, is narrower than MIN_TONGUE_WIDTH, else when it needs
    the uniform-bar inertia and the configuration has another J, else when
    it raises ``_Skip``; otherwise it passes or fails on its own verdict.
    An unexpected exception inside a criterion fails it rather than
    aborting the battery.
    """
    uniform_j = has_uniform_bar_inertia(params)
    unexcited = all(e.degenerate for e in boundaries.all_ellipses(params, exc).values())
    quarter = ExcitationParams(A=exc.A, Omega=exc.Omega, theta=math.pi / 2.0)
    widths = [e.k1 / e.h1 for e in boundaries.all_ellipses(params, quarter).values()]
    narrow = min(widths) < MIN_TONGUE_WIDTH
    results = []
    for index, name, tolerance, fn, unexcited_reason, floquet_tongues, needs_uniform_j in _CRITERIA:
        t0 = time.perf_counter()
        status, measured, detail, reason = "skip", {}, "", ""
        if unexcited and unexcited_reason is not None:
            reason = unexcited_reason
        elif floquet_tongues and narrow:
            reason = (
                f"tongues narrower than MIN_TONGUE_WIDTH = {MIN_TONGUE_WIDTH:.3g} (k1/h1), "
                "below what the boundary bisection resolves"
            )
        elif needs_uniform_j and not uniform_j:
            reason = "closed-form boundaries assume the uniform-bar inertia"
        else:
            try:
                ok, measured, detail = fn(params, exc)
                status = "pass" if ok else "fail"
            except _Skip as skip:
                reason = str(skip)
            except Exception as err:  # criterion must report, not abort
                status, detail = "fail", f"unexpected {type(err).__name__}: {err}"
        results.append(
            CriterionResult(
                index, name, status, tolerance, measured, detail, reason, time.perf_counter() - t0
            )
        )
    return ValidationReport(criteria=results)
