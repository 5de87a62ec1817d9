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
from dataclasses import dataclass, field, replace

import numpy as np

from . import boundaries
from .floquet import (
    IntegrationOptions,
    boundary_crossings,
    classify,
    monodromy,
    signature_moduli,
    sweep,
)
from .linearized import fd_jacobian, periodic_matrix, unexcited_spectrum
from .model import (
    ControlGains,
    ExcitationParams,
    HybridParams,
    PhysicalParams,
    default_inertia,
    natural_frequencies,
)
from .plant import (
    hybrid_gamma,
    hybrid_transform,
    integrate,
    steady_vehicle_state,
)

__all__ = [
    "CriterionResult",
    "ValidationReport",
    "run_battery",
    "pick_stable_gains",
    "tongue_edges",
]

RT3 = math.sqrt(3.0)
SEED = 20260814


@dataclass
class CriterionResult:
    """Outcome of one battery criterion."""

    index: int
    name: str
    status: str  # "pass" | "fail" | "skip"
    tolerance: str
    measured: dict = field(default_factory=dict)
    detail: str = ""
    reason: str = ""
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "status": self.status,
            "tolerance": self.tolerance,
            "measured": self.measured,
            "detail": self.detail,
            "reason": self.reason,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class ValidationReport:
    """Battery results; ``passed`` means no criterion failed (skips allowed)."""

    criteria: list

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.criteria)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.criteria:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    def to_json(self, config: dict | None = None) -> dict:
        doc = {
            "passed": self.passed,
            "counts": self.counts(),
            "criteria": [c.to_dict() for c in self.criteria],
        }
        if config is not None:
            doc["config"] = config
        return doc


def _uses_default_inertia(params: PhysicalParams) -> bool:
    return math.isclose(params.J, default_inertia(params.m, params.L), rel_tol=1e-12)


def pick_stable_gains(
    params: PhysicalParams,
    exc: ExcitationParams,
    opts: IntegrationOptions | None = None,
) -> ControlGains:
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
        if classify(monodromy(params, exc, gains, opts=opts)) == "stable":
            return gains
    raise RuntimeError("no Floquet-stable gain candidate found")


def tongue_edges(
    params: PhysicalParams,
    exc: ExcitationParams,
    ell: boundaries.Ellipse,
    opts: IntegrationOptions | None = None,
    span: float = 1.6,
    n_presample: int = 25,
    tol: float = 1e-3,
) -> tuple[float, float]:
    """Kp of the left and right tongue edges along the horizontal Kd = h2.

    Edge detection tracks the resonance-signature multipliers rather than
    max|mu|: the right half of each tongue lies beyond the oscillatory
    static boundary, where an unrelated complex pair already exceeds the
    unit circle, so max|mu| - 1 has no sign change there.  The largest
    signature modulus crosses 1 at the left edge and the second largest at
    the right edge (the partner multiplier rejoining the unit circle).
    """
    family = "principal" if ell.kind in ("a", "b") else "combination"

    def rank_indicator(rank: int):
        def f(mu) -> float:
            s = signature_moduli(mu, family)
            return float(s[rank] - 1.0) if s.size > rank else -1.0

        return f

    scan = ((ell.h1 - span * ell.k1, ell.h2), (ell.h1 + span * ell.k1, ell.h2))
    left = boundary_crossings(
        params, exc, scan, opts=opts, indicator=rank_indicator(0), n_presample=n_presample, tol=tol
    )
    right = boundary_crossings(
        params, exc, scan, opts=opts, indicator=rank_indicator(1), n_presample=n_presample, tol=tol
    )
    if not left or not right:
        raise RuntimeError(f"tongue edges of kind {ell.kind} not bracketed by the scan")
    return left[0][0], right[-1][0]


def _rng_params(rng) -> PhysicalParams:
    return PhysicalParams(
        m=float(10 ** rng.uniform(2.0, 4.3)),
        C=float(10 ** rng.uniform(-2.0, 0.0)),
        R=float(rng.uniform(1.0, 40.0)),
        z0=float(rng.uniform(0.006, 0.04)),
        g=float(rng.uniform(3.0, 20.0)),
        L=float(rng.uniform(1.0, 8.0)),
    )


# criterion implementations; each returns (status, measured, detail, reason)


def _c1_frequency_ratio(params, exc):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        p = _rng_params(rng)
        kd = float(10 ** rng.uniform(1.0, 5.0))
        w1, w2 = natural_frequencies(p, kd)
        worst = max(worst, abs(w2 / w1 / RT3 - 1.0))
    ok = worst <= 1e-12
    return (
        "pass" if ok else "fail",
        {"max_rel_err": worst, "draws": 100},
        f"max |omega2/omega1/sqrt(3) - 1| = {worst:.3e}",
        "",
    )


def _c2_ellipse_centers(params, exc):
    if not _uses_default_inertia(params):
        return "skip", {}, "", "closed-form boundaries assume the uniform-bar inertia"
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
    ok = worst <= 1e-9
    return (
        "pass" if ok else "fail",
        measured,
        "centers vs inverted resonance frequencies, max rel err "
        f"{worst:.3e}",
        "",
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
            line = lines.h0 + lines.slope * ell.h2
            worst = max(worst, abs(ell.h1 / line - 1.0))
    if worst > 1e-12:
        return (
            "fail",
            {"max_center_rel_err": worst},
            f"center line identity violated, max rel err {worst:.3e}",
            "",
        )

    # bisected oscillatory boundary of the unexcited spectrum vs the line
    lines = boundaries.static_boundary_lines(params)
    kd_ref = boundaries.all_ellipses(params, exc)["b"].h2
    worst_hopf = 0.0
    for frac in (0.25, 0.5, 1.0, 1.5, 2.0):
        kd = frac * kd_ref
        line = lines.h0 + lines.slope * kd
        lo, hi = lines.h0 + 0.5 * lines.slope * kd, lines.h0 + 1.5 * lines.slope * kd

        def growth(kp: float) -> float:
            return float(np.max(unexcited_spectrum(params, ControlGains(kp, kd)).all.real))

        if growth(lo) >= 0.0 or growth(hi) <= 0.0:
            return "fail", {"Kd": kd}, "oscillatory boundary not bracketed", ""
        while hi - lo > 1e-10 * hi:
            mid = 0.5 * (lo + hi)
            if growth(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        worst_hopf = max(worst_hopf, abs(0.5 * (lo + hi) / line - 1.0))
    ok = worst_hopf <= 1e-6
    return (
        "pass" if ok else "fail",
        {"max_center_rel_err": worst, "max_hopf_rel_err": worst_hopf},
        f"50 random sets: centers on line to {worst:.1e}; "
        f"bisected oscillatory boundary matches to {worst_hopf:.1e}",
        "",
    )


def _c4_axis_ratios(params, exc):
    if exc.A == 0.0:
        return "skip", {}, "", "tongue half-widths vanish without excitation"
    if not _uses_default_inertia(params):
        return "skip", {}, "", "closed-form boundaries assume the uniform-bar inertia"
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
        return "skip", {}, "", "all tongues degenerate at this phase"
    measured["max_rel_err"] = worst
    ok = worst <= 1e-12
    return "pass" if ok else "fail", measured, f"axis ratios, max rel err {worst:.3e}", ""


def _c5_eta_frequency_independence(params, exc):
    if exc.A == 0.0:
        return "skip", {}, "", "eta undefined without excitation"
    if not _uses_default_inertia(params):
        return "skip", {}, "", "closed-form boundaries assume the uniform-bar inertia"
    h0 = boundaries.h0_gain(params)
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
            etas.append(ell.k1 / (ell.h1 - h0))
        if len(etas) < 3:
            continue
        spread = max(abs(e / etas[0] - 1.0) for e in etas)
        measured[f"eta_{kind}"] = etas[0]
        worst = max(worst, spread)
    if not measured:
        return "skip", {}, "", "all tongues degenerate at this phase"
    measured["max_rel_spread"] = worst
    ok = worst <= 1e-12
    return (
        "pass" if ok else "fail",
        measured,
        f"eta constant over Omega in {{20, 80, 320}}, max spread {worst:.3e}",
        "",
    )


def _c6_degeneracy(params, exc):
    if exc.A == 0.0:
        return "skip", {}, "", "degeneracy pattern is vacuous without excitation"
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
    ok = all(v == 0.0 for v in measured.values())
    return (
        "pass" if ok else "fail",
        measured,
        "combination tongues closed in phase, principal tongues closed in antiphase",
        "",
    )


def _c7_floquet_vs_analytic(params, exc):
    if exc.A == 0.0:
        return "skip", {}, "", "no tongues to locate without excitation"
    if not _uses_default_inertia(params):
        return "skip", {}, "", "closed-form boundaries assume the uniform-bar inertia"
    t0 = time.perf_counter()
    plan = [(0.0, "ab"), (math.pi / 2.0, "abcd"), (math.pi, "cd")]
    scans = []
    for theta, kinds in plan:
        exc_t = ExcitationParams(A=exc.A, Omega=exc.Omega, theta=theta)
        ells = boundaries.all_ellipses(params, exc_t)
        for kind in kinds:
            ell = ells[kind]
            if ell.degenerate:
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
    factors = [s["half_width_factor"] for s in scans]
    labels = [min((1.0, 2.0), key=lambda c: abs(f - c) / c) for f in factors]
    width_ok = all(abs(f - c) <= 0.02 * c for f, c in zip(factors, labels))
    center_ok = all(abs(s["center_err"]) <= 0.01 for s in scans)
    consistent = len(set(labels)) == 1
    ok = width_ok and center_ok and consistent and elapsed <= 60.0
    measured = {
        "scans": scans,
        "measured_factor": labels[0] if consistent else None,
        "max_center_err": max(abs(s["center_err"]) for s in scans),
        "max_factor_dev": max(abs(f - c) / c for f, c in zip(factors, labels)),
        "elapsed_s": elapsed,
    }
    return (
        "pass" if ok else "fail",
        measured,
        f"{len(scans)} scans; half-widths match {labels[0] if consistent else labels} "
        f"times k1 (criterion allows 1 or 2; measured factor reported)",
        "",
    )


def _c8_steady_state_exactness(params, exc):
    gains = pick_stable_gains(params, exc)
    t_end = 10.0 * exc.period
    traj = integrate(steady_vehicle_state(params, exc, 0.0), (0.0, t_end), params, exc, gains)
    if traj.aborted:
        return "fail", {}, "gap closed during steady-state run", ""
    dz = float(np.max(np.abs(traj.states[:, 0] - params.z0)))
    dphi = float(np.max(np.abs(traj.states[:, 2])))
    ok = dz < 1e-8 and dphi < 1e-8
    return (
        "pass" if ok else "fail",
        {"max_abs_dz": dz, "max_abs_phi": dphi, "Kp": gains.Kp, "Kd": gains.Kd},
        f"max|z - z0| = {dz:.2e} m, max|phi| = {dphi:.2e} rad over 10 periods",
        "",
    )


def _c9_hybrid_equivalence(params, exc):
    beta = 0.01
    hyb = HybridParams(beta=beta, gamma=hybrid_gamma(params, beta))
    params_bar = replace(params, z0=params.z0 + beta)
    gains = pick_stable_gains(params, exc)

    s0 = steady_vehicle_state(params, exc, 0.0, hyb)
    start_h = replace(s0, z=s0.z + 1e-4, phi=s0.phi + 5e-5)
    start_s = hybrid_transform(start_h, hyb)
    t_end = 10.0 * exc.period
    t_eval = np.linspace(0.0, t_end, 1201)
    kw = dict(rtol=1e-12, atol=1e-14, t_eval=t_eval)
    traj_h = integrate(start_h, (0.0, t_end), params, exc, gains, mode="hybrid", hyb=hyb, **kw)
    traj_s = integrate(start_s, (0.0, t_end), params_bar, exc, gains, **kw)
    if traj_h.aborted or traj_s.aborted:
        return "fail", {}, "gap closed during equivalence run", ""
    shift = np.array([beta, 0.0, 0.0, 0.0, hyb.gamma, hyb.gamma])
    diff = np.abs(traj_s.states - shift[None, :] - traj_h.states)
    scale = np.max(np.abs(traj_h.states), axis=0)
    scale[scale == 0.0] = 1.0
    traj_err = float(np.max(diff / scale[None, :]))

    kp_range, kd_range = boundaries.default_map_window(params, exc)
    map_h = sweep(params, exc, kp_range, kd_range, 21, 21, hyb=hyb)
    map_s = sweep(params_bar, exc, kp_range, kd_range, 21, 21)
    cells_differ = int(np.sum(map_h.classes != map_s.classes))
    map_err = float(np.nanmax(np.abs(map_h.max_mu - map_s.max_mu)))
    ok = (
        traj_err <= 1e-8
        and cells_differ == 0
        and not map_h.errors
        and not map_s.errors
    )
    return (
        "pass" if ok else "fail",
        {
            "trajectory_rel_err": traj_err,
            "beta": beta,
            "gamma": hyb.gamma,
            "map_cells_differing": cells_differ,
            "map_max_mu_dev": map_err,
        },
        f"trajectories agree to {traj_err:.2e} rel; "
        f"{cells_differ} of 441 map cells differ",
        "",
    )


def _c10_linearization_consistency(params, exc):
    gains = pick_stable_gains(params, exc)
    pm = periodic_matrix(params, exc, gains)
    worst = 0.0
    for k in range(20):
        t = k * exc.period / 20.0
        a_an = pm.at(t)
        a_fd = fd_jacobian(params, exc, gains, t)
        worst = max(worst, float(np.max(np.abs(a_fd - a_an) / np.maximum(1.0, np.abs(a_an)))))
    ok = worst <= 1e-6
    return (
        "pass" if ok else "fail",
        {"max_rel_err": worst, "Kp": gains.Kp, "Kd": gains.Kd},
        f"analytic vs central-difference system matrix, max entry err {worst:.3e}",
        "",
    )


def _c11_length_invariance(params, exc):
    kp_range, kd_range = boundaries.default_map_window(params, exc)
    maps = {}
    for l_val in (1.0, 3.0, 10.0):
        p = PhysicalParams(m=params.m, C=params.C, R=params.R, z0=params.z0, g=params.g, L=l_val)
        maps[l_val] = sweep(p, exc, kp_range, kd_range, 21, 21)
    ref = maps[3.0]
    differing = {
        l_val: int(np.sum(m.classes != ref.classes)) for l_val, m in maps.items() if l_val != 3.0
    }
    errors = sum(len(m.errors) for m in maps.values())
    ok = all(v == 0 for v in differing.values()) and errors == 0
    return (
        "pass" if ok else "fail",
        {"cells_differing": differing, "cell_errors": errors},
        "classification maps identical for L in {1, 3, 10} with the uniform-bar inertia",
        "",
    )


def _c12_printed_factor(params, exc):
    if exc.A == 0.0:
        return "skip", {}, "", "size ratio undefined without excitation"
    if not _uses_default_inertia(params):
        return "skip", {}, "", "closed-form boundaries assume the uniform-bar inertia"
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
    ok = worst <= 1e-9
    return (
        "pass" if ok else "fail",
        measured,
        "geometric relative size is exactly twice the closed-form one for "
        "every kind (documented discrepancy, not resolved here)",
        "",
    )


def _c13_multiplier_signatures(params, exc):
    if exc.A == 0.0:
        return "skip", {}, "", "no resonant multipliers without excitation"
    if not _uses_default_inertia(params):
        return "skip", {}, "", "closed-form boundaries assume the uniform-bar inertia"
    measured = {}
    ok = True
    for kind in "abcd":
        principal = kind in ("a", "b")
        theta = exc.theta
        ell = boundaries.all_ellipses(params, ExcitationParams(exc.A, exc.Omega, theta))[kind]
        if ell.degenerate:
            theta = 0.0 if principal else math.pi
            ell = boundaries.all_ellipses(params, ExcitationParams(exc.A, exc.Omega, theta))[kind]
        res = monodromy(params, ExcitationParams(exc.A, exc.Omega, theta), ControlGains(ell.h1, ell.h2))
        dom = res.dominant
        measured[f"dominant_{kind}"] = {"re": dom.real, "im": dom.imag, "abs": abs(dom)}
        is_real = abs(dom.imag) <= 1e-9 * max(1.0, abs(dom))
        if principal:
            ok = ok and is_real and dom.real < 0.0 and abs(dom) > 1.0
        else:
            ok = ok and not is_real and abs(dom) > 1.0
    return (
        "pass" if ok else "fail",
        measured,
        "dominant multiplier real negative at a/b centers, complex pair at c/d centers",
        "",
    )


_CRITERIA = [
    (1, "natural-frequency-ratio", "1e-12 relative", _c1_frequency_ratio),
    (2, "ellipse-centers", "1e-9 relative vs frequency inversion", _c2_ellipse_centers),
    (3, "center-line", "1e-12 relative (line), 1e-6 (bisected boundary)", _c3_center_line),
    (4, "axis-ratios", "1e-12 relative", _c4_axis_ratios),
    (5, "eta-frequency-independence", "1e-12 relative", _c5_eta_frequency_independence),
    (6, "theta-degeneracy", "exact zeros", _c6_degeneracy),
    (7, "floquet-vs-analytic", "center 1% of k1, half-width 2%", _c7_floquet_vs_analytic),
    (8, "steady-state-exactness", "1e-8 m / 1e-8 rad over 10 periods", _c8_steady_state_exactness),
    (9, "hybrid-equivalence", "1e-8 relative, cell-identical maps", _c9_hybrid_equivalence),
    (10, "linearization-consistency", "1e-6 entrywise relative", _c10_linearization_consistency),
    (11, "length-invariance", "cell-identical maps", _c11_length_invariance),
    (12, "printed-factor-ratio", "ratio = 2.000 to 1e-9", _c12_printed_factor),
    (13, "multiplier-signatures", "signature at each tongue center", _c13_multiplier_signatures),
]


def run_battery(params: PhysicalParams, exc: ExcitationParams) -> ValidationReport:
    """Run all cross-validation criteria against the given configuration.

    Criteria that need a nonzero excitation amplitude or the uniform-bar
    inertia are skipped with a reason when the configuration rules them out;
    unexpected exceptions inside a criterion fail it rather than aborting
    the battery.
    """
    results = []
    for index, name, tolerance, fn in _CRITERIA:
        t0 = time.perf_counter()
        try:
            status, measured, detail, reason = fn(params, exc)
        except Exception as err:  # criterion must report, not abort
            status, measured, detail, reason = (
                "fail",
                {},
                f"unexpected {type(err).__name__}: {err}",
                "",
            )
        results.append(
            CriterionResult(
                index=index,
                name=name,
                status=status,
                tolerance=tolerance,
                measured=measured,
                detail=detail,
                reason=reason,
                seconds=time.perf_counter() - t0,
            )
        )
    return ValidationReport(criteria=results)
