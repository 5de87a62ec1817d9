"""Closed-form stability boundaries: static lines, the four resonance
ellipses, size measures, harmonic-balance determinants and the resonance
chart."""

import math

import numpy as np
import pytest

from levstab import (
    ControlGains,
    Ellipse,
    ExcitationParams,
    PhysicalParams,
    all_ellipses,
    combination_frequencies,
    h0_gain,
    hb_determinant_principal,
    hill_determinant_combination,
    natural_frequencies,
    relative_size,
    resonance_chart,
    static_boundary_lines,
    unexcited_spectrum,
)
from levstab.boundaries import write_ellipse_boundary_csv, write_resonance_chart_csv


RT3 = math.sqrt(3.0)

# frozen reference values at B0 (m=7650, C=0.05, R=9.71, z0=0.015, g=9.81),
# Omega = 80, A = 0.005; principal ellipses at theta = 0, combination at pi
H0_REF = 8411.713089882463
SLOPE_REF = 1.4565
ELL_A = dict(h1=11841.565522046567, h2=2354.859205056027,
             k1=571.642072027351, k2=14.291051800684)
ELL_B = dict(h1=18701.270386374774, h2=7064.577615168081,
             k1=1714.926216082052, k2=42.873155402051)
ELL_C = dict(k1=919.026189356294, k2=23.847692246949)
ELL_D = dict(h1=85214.014325683180, h2=52730.725187642092,
             k1=12800.383539300123, k2=89.000799108878)


def _random_params(rng):
    return PhysicalParams(
        m=float(10.0 ** rng.uniform(2.0, 4.3)),
        C=float(10.0 ** rng.uniform(-2.0, 0.0)),
        R=float(rng.uniform(1.0, 40.0)),
        z0=float(rng.uniform(0.006, 0.04)),
        g=float(rng.uniform(3.0, 20.0)),
        L=float(rng.uniform(1.0, 8.0)),
    )


def test_h0_value_and_linearity(b0):
    assert h0_gain(b0) == pytest.approx(8411.7, rel=1e-4)
    assert h0_gain(b0) == pytest.approx(H0_REF, rel=1e-13)
    doubled = PhysicalParams(m=b0.m, C=b0.C, R=2.0 * b0.R, z0=b0.z0)
    assert h0_gain(doubled) == pytest.approx(2.0 * h0_gain(b0), rel=1e-13)


def test_static_lines_slope_and_intercept(b0):
    lines = static_boundary_lines(b0)
    assert lines.h0 == pytest.approx(H0_REF, rel=1e-13)
    assert lines.slope == pytest.approx(b0.R * b0.z0 / (2.0 * b0.C), rel=1e-13)
    assert lines.slope == pytest.approx(SLOPE_REF, rel=1e-4)
    assert lines.inclined(0.0) == pytest.approx(lines.h0, rel=1e-13)


def test_inclined_line_matches_bisected_hopf_boundary(b0):
    """The closed-form inclined line must reproduce the sign change of the
    unexcited spectrum's max real part."""
    lines = static_boundary_lines(b0)
    for Kd in (800.0, 3000.0, 9000.0):
        pred = lines.inclined(Kd)
        lo, hi = 0.9 * pred, 1.1 * pred

        def max_re(Kp):
            return float(np.max(unexcited_spectrum(b0, ControlGains(Kp, Kd)).all.real))

        assert max_re(lo) < 0.0 < max_re(hi)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if max_re(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(pred, rel=1e-6)


def test_principal_ellipse_a_reference(b0, exc_inphase):
    e = all_ellipses(b0, exc_inphase)["a"]
    assert e.kind == "a"
    for field, ref in ELL_A.items():
        assert getattr(e, field) == pytest.approx(ref, rel=1e-12), field
    # printed rounded values
    assert e.h1 == pytest.approx(11841.6, rel=1e-4)
    assert e.h2 == pytest.approx(2354.8, rel=1e-4)
    assert e.k2 == pytest.approx(14.29, rel=1e-3)
    assert e.k1 == pytest.approx(571.7, rel=1e-3)
    assert e.k1 == pytest.approx(0.5 * exc_inphase.Omega * e.k2, rel=1e-12)


def test_principal_ellipse_b_reference(b0, exc_inphase):
    e = all_ellipses(b0, exc_inphase)["b"]
    for field, ref in ELL_B.items():
        assert getattr(e, field) == pytest.approx(ref, rel=1e-12), field
    assert e.h2 == pytest.approx(7064.5, rel=1e-4)
    assert e.k1 == pytest.approx(1715.0, rel=1e-3)


def test_combination_ellipse_c_reference(b0, exc_antiphase):
    e = all_ellipses(b0, exc_antiphase)["c"]
    for field, ref in ELL_C.items():
        assert getattr(e, field) == pytest.approx(ref, rel=1e-12), field
    assert e.h2 == pytest.approx(3785.9, rel=1e-4)
    assert e.k1 == pytest.approx(918.9, rel=2e-4)


def test_combination_ellipse_d_reference(b0, exc_antiphase):
    e = all_ellipses(b0, exc_antiphase)["d"]
    for field, ref in ELL_D.items():
        assert getattr(e, field) == pytest.approx(ref, rel=1e-12), field
    assert e.h2 == pytest.approx(52731.0, rel=1e-4)
    assert e.k1 == pytest.approx(12798.0, rel=3e-4)


def test_centers_from_frequency_inversion(b0, exc_quarter):
    """Independent oracle for the center Kd values: put the resonant
    frequency combination at the excitation and invert omega(Kd)."""
    s4 = (2.0 * b0.g / (b0.m * b0.C)) ** 0.25
    Om = exc_quarter.Omega
    ells = all_ellipses(b0, exc_quarter)
    targets = {
        "a": (Om / (2.0 * RT3 * s4)) ** 2,
        "b": (Om / (2.0 * s4)) ** 2,
        "c": (Om / ((1.0 + RT3) * s4)) ** 2,
        "d": (Om / ((RT3 - 1.0) * s4)) ** 2,
    }
    for kind, target in targets.items():
        assert ells[kind].h2 == pytest.approx(target, rel=1e-9), kind
        # and the resonance condition itself
        w1, w2 = natural_frequencies(b0, ells[kind].h2)
        combo = {"a": w2 * 2, "b": w1 * 2, "c": w1 + w2, "d": w2 - w1}[kind]
        assert combo == pytest.approx(Om, rel=1e-9)


def test_centers_on_inclined_line_random(b0):
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = _random_params(rng)
        e = ExcitationParams(
            A=float(rng.uniform(0.0, 0.9) * p.z0),
            Omega=float(10.0 ** rng.uniform(0.8, 2.8)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        h0 = h0_gain(p)
        slope = p.R * p.z0 / (2.0 * p.C)
        for kind, ell in all_ellipses(p, e).items():
            assert ell.h1 == pytest.approx(h0 + slope * ell.h2, rel=1e-12), kind


def test_axis_ratios_random(b0):
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = _random_params(rng)
        e = ExcitationParams(
            A=float(rng.uniform(0.05, 0.9) * p.z0),
            Omega=float(10.0 ** rng.uniform(0.8, 2.8)),
            theta=float(rng.uniform(0.1, 2.0 * math.pi - 0.1)),
        )
        ells = all_ellipses(p, e)
        if not ells["a"].degenerate:
            assert ells["b"].k1 / ells["a"].k1 == pytest.approx(3.0, rel=1e-12)
        if not ells["c"].degenerate:
            assert ells["d"].k1 / ells["c"].k1 == pytest.approx(
                7.0 + 4.0 * RT3, rel=1e-12
            )


def test_axis_aspect_constants(b0, exc_quarter):
    """k1 = r*Omega*k2 with r = 1/2 for a, b and the printed combination
    constants for c, d."""
    ells = all_ellipses(b0, exc_quarter)
    Om = exc_quarter.Omega
    r_c = math.sqrt(RT3 * (2.0 - RT3) / 2.0)
    r_d = math.sqrt(RT3 * (2.0 + RT3) / 2.0)
    assert ells["a"].k1 / (Om * ells["a"].k2) == pytest.approx(0.5, rel=1e-12)
    assert ells["b"].k1 / (Om * ells["b"].k2) == pytest.approx(0.5, rel=1e-12)
    assert ells["c"].k1 / (Om * ells["c"].k2) == pytest.approx(r_c, rel=1e-12)
    assert ells["d"].k1 / (Om * ells["d"].k2) == pytest.approx(r_d, rel=1e-12)


def test_degeneracy_by_phase(b0):
    at0 = all_ellipses(b0, ExcitationParams(A=0.005, Omega=80.0, theta=0.0))
    assert at0["c"].k1 == 0.0 and at0["d"].k1 == 0.0
    assert at0["c"].degenerate and at0["d"].degenerate
    assert not at0["a"].degenerate
    atpi = all_ellipses(b0, ExcitationParams(A=0.005, Omega=80.0, theta=math.pi))
    assert atpi["a"].k1 == 0.0 and atpi["b"].k1 == 0.0
    assert not atpi["c"].degenerate
    still = all_ellipses(b0, ExcitationParams(A=0.0, Omega=80.0, theta=0.7))
    for kind, e in still.items():
        assert e.degenerate and e.k1 == 0.0 and e.k2 == 0.0
        # centers unaffected by the amplitude
        assert e.h2 > 0.0


def test_size_ordering_at_quarter_phase(b0, exc_quarter):
    ells = all_ellipses(b0, exc_quarter)
    k1s = [ells[k].k1 for k in ("a", "c", "b", "d")]
    assert k1s == sorted(k1s)


def test_phase_scaling_of_axes(b0):
    """Principal axes scale with sqrt(1 + cos theta), combination axes with
    sqrt(1 - cos theta)."""
    e_q = all_ellipses(b0, ExcitationParams(A=0.005, Omega=80.0, theta=math.pi / 2))
    e_0 = all_ellipses(b0, ExcitationParams(A=0.005, Omega=80.0, theta=0.0))
    e_pi = all_ellipses(b0, ExcitationParams(A=0.005, Omega=80.0, theta=math.pi))
    assert e_q["a"].k1 == pytest.approx(e_0["a"].k1 / math.sqrt(2.0), rel=1e-12)
    assert e_q["b"].k1 == pytest.approx(e_0["b"].k1 / math.sqrt(2.0), rel=1e-12)
    assert e_q["c"].k1 == pytest.approx(e_pi["c"].k1 / math.sqrt(2.0), rel=1e-12)
    assert e_q["d"].k1 == pytest.approx(e_pi["d"].k1 / math.sqrt(2.0), rel=1e-12)


def test_combination_frequencies_closure():
    freqs = combination_frequencies(80.0)
    w1s, w2s = freqs["sum"]
    assert (w1s, w2s) == pytest.approx((29.282, 50.718), rel=1e-4)
    assert w1s + w2s == pytest.approx(80.0, rel=1e-12)
    w1d, w2d = freqs["difference"]
    assert (w1d, w2d) == pytest.approx((109.282, 189.282), rel=1e-4)
    assert w2d - w1d == pytest.approx(80.0, rel=1e-12)
    assert w2s / w1s == pytest.approx(RT3, rel=1e-12)
    assert w2d / w1d == pytest.approx(RT3, rel=1e-12)


def test_relative_size_factor_two(b0):
    """The geometric size measure k1/(h1 - h0) is exactly twice the printed
    closed form, for every kind; both are reported."""
    for theta, kinds in ((0.0, "ab"), (math.pi, "cd"), (math.pi / 2, "abcd")):
        e = ExcitationParams(A=0.005, Omega=80.0, theta=theta)
        ells = all_ellipses(b0, e)
        for kind in kinds:
            rs = relative_size(ells[kind], b0)
            assert rs.geometric / rs.printed == pytest.approx(2.0, rel=1e-9), kind


def test_relative_size_frequency_independent(b0):
    for kind in "abcd":
        vals = []
        for Om in (20.0, 80.0, 320.0):
            e = ExcitationParams(A=0.005, Omega=Om, theta=math.pi / 2)
            vals.append(relative_size(all_ellipses(b0, e)[kind], b0).geometric)
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)


def test_relative_size_mass_capacitance_scaling(b0, exc_quarter):
    """(m, C) -> (alpha m, C/alpha) leaves the size measure fixed."""
    alpha = 3.7
    scaled = PhysicalParams(m=alpha * b0.m, C=b0.C / alpha, R=b0.R, z0=b0.z0)
    for kind in "abcd":
        ref = relative_size(all_ellipses(b0, exc_quarter)[kind], b0)
        got = relative_size(all_ellipses(scaled, exc_quarter)[kind], scaled)
        assert got.geometric == pytest.approx(ref.geometric, rel=1e-12)
        assert got.printed == pytest.approx(ref.printed, rel=1e-12)


def test_relative_size_linear_in_amplitude(b0):
    e1 = ExcitationParams(A=0.002, Omega=80.0, theta=math.pi / 2)
    e2 = ExcitationParams(A=0.006, Omega=80.0, theta=math.pi / 2)
    for kind in "abcd":
        r1 = relative_size(all_ellipses(b0, e1)[kind], b0).geometric
        r2 = relative_size(all_ellipses(b0, e2)[kind], b0).geometric
        assert r2 == pytest.approx(3.0 * r1, rel=1e-12)


def test_relative_size_undefined_on_vertical_line(b0):
    degenerate = Ellipse(kind="a", h1=h0_gain(b0), h2=0.0, k1=0.0, k2=0.0)
    with pytest.raises(ValueError, match="undefined"):
        relative_size(degenerate, b0)


def test_ellipse_boundary_points_parameterization(b0, exc_inphase):
    e = all_ellipses(b0, exc_inphase)["a"]
    s, kp, kd = e.boundary_points(64)
    assert len(s) == 64 and s[0] == 0.0
    np.testing.assert_allclose(kp, e.h1 + e.k1 * np.cos(s), rtol=1e-15)
    np.testing.assert_allclose(kd, e.h2 + e.k2 * np.sin(s), rtol=1e-15)
    on = ((kp - e.h1) / e.k1) ** 2 + ((kd - e.h2) / e.k2) ** 2
    np.testing.assert_allclose(on, 1.0, rtol=1e-12)


@pytest.mark.parametrize("kind", ["a", "b"])
def test_hb_determinant_vanishes_on_principal_boundary(b0, exc_inphase, kind):
    e = all_ellipses(b0, exc_inphase)[kind]
    _, kp, kd = e.boundary_points(64)
    ref = abs(hb_determinant_principal(
        b0, exc_inphase, ControlGains(e.h1 + 2.0 * e.k1, e.h2), kind))
    for Kp, Kd in zip(kp, kd):
        det = hb_determinant_principal(b0, exc_inphase, ControlGains(Kp, Kd), kind)
        assert abs(det) < 1e-6 * ref
    center = hb_determinant_principal(b0, exc_inphase, ControlGains(e.h1, e.h2), kind)
    assert center < 0.0


def test_hb_determinant_unexcited_collapses_to_center(b0, exc_still):
    e = all_ellipses(b0, exc_still)["a"]
    det = hb_determinant_principal(b0, exc_still, ControlGains(e.h1, e.h2), "a")
    off = hb_determinant_principal(b0, exc_still, ControlGains(e.h1 + 1.0, e.h2), "a")
    assert abs(det) < 1e-12 * abs(off)


@pytest.mark.parametrize("kind,pair", [("c", "sum"), ("d", "difference")])
def test_hill_residual_vanishes_on_combination_boundary(b0, exc_antiphase, kind, pair):
    e = all_ellipses(b0, exc_antiphase)[kind]
    _, kp, kd = e.boundary_points(64)
    _, ref = hill_determinant_combination(
        b0, exc_antiphase, ControlGains(e.h1 + 2.0 * e.k1, e.h2), pair)
    for Kp, Kd in zip(kp, kd):
        _, res = hill_determinant_combination(
            b0, exc_antiphase, ControlGains(Kp, Kd), pair)
        assert abs(res) < 1e-6 * abs(ref)
    _, center = hill_determinant_combination(
        b0, exc_antiphase, ControlGains(e.h1, e.h2), pair)
    assert center < 0.0


def test_hill_raw_determinant_zero_only_at_axis_points(b0, exc_antiphase):
    """The 4x4 determinant retains the relative mode phase, so on the ellipse
    it only vanishes where the phase aligns: the four axis points."""
    e = all_ellipses(b0, exc_antiphase)["c"]
    s, kp, kd = e.boundary_points(64)
    dets = np.array([
        hill_determinant_combination(b0, exc_antiphase, ControlGains(Kp, Kd), "sum")[0]
        for Kp, Kd in zip(kp, kd)
    ])
    small = np.abs(dets) < 1e-6 * np.max(np.abs(dets))
    assert set(np.nonzero(small)[0]) == {0, 16, 32, 48}


def test_hill_phase_independence_at_theta_zero(b0, exc_inphase, exc_still):
    """In-phase excitation cancels the combination forcing: the residual
    loses its amplitude dependence entirely."""
    g = ControlGains(Kp=12000.0, Kd=3800.0)
    _, r_inphase = hill_determinant_combination(b0, exc_inphase, g, "sum")
    _, r_still = hill_determinant_combination(b0, exc_still, g, "sum")
    assert r_inphase == r_still


def test_invalid_kind_and_pair_rejected(b0, exc_quarter):
    with pytest.raises(ValueError):
        hb_determinant_principal(b0, exc_quarter, ControlGains(1.0, 1.0), "c")
    with pytest.raises(ValueError):
        hill_determinant_combination(b0, exc_quarter, ControlGains(1.0, 1.0), "a")


def test_resonance_chart_intersections(b0):
    chart = resonance_chart(b0, 80.0, (0.0, 1e5))
    observed = {rec["kind"]: rec for rec in chart.intersections if rec["observed"]}
    assert observed.keys() == {"a", "b", "c", "d"}
    assert observed["a"]["Kd"] == pytest.approx(2354.8, rel=1e-4)
    assert observed["b"]["Kd"] == pytest.approx(7064.5, rel=1e-4)
    assert observed["c"]["Kd"] == pytest.approx(3785.9, rel=1e-4)
    assert observed["d"]["Kd"] == pytest.approx(52731.0, rel=1e-4)
    assert len(chart.intersections) == 8
    assert all(rec["in_range"] for rec in chart.intersections)
    # curves obey the fixed frequency ratios
    np.testing.assert_allclose(chart.omega2, RT3 * chart.omega1, rtol=1e-12)
    np.testing.assert_allclose(chart.sum, chart.omega1 + chart.omega2, rtol=1e-12)


def test_resonance_chart_quadratic_frequency_scaling(b0):
    base = resonance_chart(b0, 80.0, (0.0, 1e6))
    doubled = resonance_chart(b0, 160.0, (0.0, 1e6))
    for rec_b, rec_d in zip(base.intersections, doubled.intersections):
        assert rec_d["Kd"] == pytest.approx(4.0 * rec_b["Kd"], rel=1e-12)


def test_resonance_chart_empty_range(b0):
    chart = resonance_chart(b0, 80.0, (100.0, 100.0))
    assert chart.Kd.size == 0
    assert len(chart.intersections) == 8
    assert not any(rec["in_range"] for rec in chart.intersections)


def test_boundary_csv_exports(tmp_path, b0, exc_quarter):
    e = all_ellipses(b0, exc_quarter)["a"]
    path = tmp_path / "ellipse_a.csv"
    write_ellipse_boundary_csv(e, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,Kp,Kd"
    assert len(lines) == 65
    chart = resonance_chart(b0, 80.0, (0.0, 1e4), n=50)
    cpath = tmp_path / "chart.csv"
    write_resonance_chart_csv(chart, cpath)
    clines = cpath.read_text().splitlines()
    assert clines[0].startswith("Kd,")
    assert len(clines) == 51
