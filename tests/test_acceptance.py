"""Acceptance battery: every cross-validation criterion must pass at its
stated tolerance on the baseline configuration (quarter-period phase lag).

Each test prints one ACCEPTANCE line naming the criterion, its status, the
measured quantities and the tolerance it was judged against.
"""

import math
from dataclasses import replace

import pytest

from levstab import all_ellipses, static_boundary_lines
from levstab.floquet import DELTA
from levstab.validation import _CRITERIA, SCAN_HALF_WIDTH, tongue_edges


def _fmt(val):
    if isinstance(val, float):
        return format(val, ".9g")
    if isinstance(val, dict):
        return "{" + ", ".join(f"{k}={_fmt(v)}" for k, v in val.items()) + "}"
    if isinstance(val, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in val) + "]"
    return str(val)


@pytest.mark.parametrize(
    "index",
    [idx for idx, *_ in _CRITERIA],
    ids=[f"{idx:02d}-{name}" for idx, name, *_ in _CRITERIA],
)
def test_acceptance_criterion(index, battery_report):
    c = next(c for c in battery_report.criteria if c.index == index)
    line = (
        f"ACCEPTANCE {c.index:2d} {c.name}: {c.status.upper()} "
        f"measured={_fmt(c.measured)} tol={c.tolerance}"
    )
    print(line)
    if c.status == "skip":
        pytest.skip(c.reason)
    assert c.status == "pass", line


def test_acceptance_battery_complete(battery_report):
    """All thirteen criteria report, none errored out of the battery."""
    indices = sorted(c.index for c in battery_report.criteria)
    assert indices == list(range(1, 14))
    assert all(c.status in ("pass", "fail", "skip") for c in battery_report.criteria)


def test_acceptance_tongue_centers_spot_values(b0, exc_quarter):
    """Closed-form tongue centers at the baseline: Kd from the resonance
    condition, Kp on the inclined static line."""
    ells = all_ellipses(b0, exc_quarter)
    lines = static_boundary_lines(b0)
    expected_kd = {
        "a": 2354.859205056028,
        "b": 7064.577615168082,
        "c": 3785.895733702548,
        "d": 52730.72518764212,
    }
    assert lines.h0 == pytest.approx(8411.713089882463, rel=1e-12)
    assert lines.slope == pytest.approx(1.4565, rel=1e-12)
    for kind, kd in expected_kd.items():
        e = ells[kind]
        assert e.h2 == pytest.approx(kd, rel=1e-12), kind
        assert e.h1 == pytest.approx(lines.h0 + lines.slope * kd, rel=1e-12), kind
    assert ells["b"].h2 == pytest.approx(3.0 * ells["a"].h2, rel=1e-12)
    assert ells["d"].k1 / ells["c"].k1 == pytest.approx(7.0 + 4.0 * math.sqrt(3.0), rel=1e-12)


def test_tongue_a_centre_shift_grows_as_amplitude_squared(seed1):
    """Seed 1's config misses criterion 7's 1e-2 gate on tongue a's centre
    at theta = pi/2, the one scan of its battery that does.  The miss is
    the second-order shift the first-order ellipse leaves out: in units of
    k1, which grows as A, the centre error (centre - h1)/k1 grows as A, so
    err(A) = 2 err(A/2) to within the edges' certified half-width, 2
    SCAN_HALF_WIDTH DELTA in units of k1, three times over: once for
    err(A) and twice for 2 err(A/2) (it reads -4.12e-2 and -2.05e-2)."""
    params, exc = seed1
    errs = []
    for amplitude in (exc.A, exc.A / 2.0):
        exc_a = replace(exc, A=amplitude)
        ell = all_ellipses(params, exc_a)["a"]
        left, right = tongue_edges(params, exc_a, ell)
        errs.append((0.5 * (left + right) - ell.h1) / ell.k1)
    assert abs(errs[0]) > 1e-2
    assert abs(errs[0] - 2.0 * errs[1]) <= 3.0 * 2.0 * SCAN_HALF_WIDTH * DELTA


def test_run_battery_applies_prerequisites(monkeypatch, b0, exc_quarter, exc_still):
    """run_battery alone decides a criterion's status: the A = 0 reason
    first, then the narrow-tongue gate, then the uniform-bar inertia, then
    the criterion's own _Skip; its verdict maps to pass or fail and an
    unexpected exception to fail."""
    from levstab import validation

    def skips(params, exc):
        raise validation._Skip("own reason")

    def breaks(params, exc):
        raise ZeroDivisionError("boom")

    def passes(params, exc):
        return True, {"x": 1.0}, "fine"

    monkeypatch.setattr(validation, "_CRITERIA", [
        (1, "passes", "", passes, None, False, False),
        (2, "fails", "", lambda params, exc: (False, {}, "bad"), None, False, False),
        (3, "own-skip", "", skips, None, False, False),
        (4, "breaks", "", breaks, None, False, False),
        (5, "needs-excitation", "", passes, "unexcited", False, True),
        (6, "needs-uniform-j", "", passes, None, False, True),
        (7, "needs-resolvable-tongues", "", passes, "unexcited", True, True),
    ])

    def outcomes(params, exc):
        report = validation.run_battery(params, exc)
        return [(c.status, c.reason or c.detail) for c in report.criteria]

    uniform = "closed-form boundaries assume the uniform-bar inertia"
    assert outcomes(b0, exc_quarter) == [
        ("pass", "fine"),
        ("fail", "bad"),
        ("skip", "own reason"),
        ("fail", "unexpected ZeroDivisionError: boom"),
        ("pass", "fine"),
        ("pass", "fine"),
        ("pass", "fine"),
    ]
    odd_j = replace(b0, J=7000.0)
    assert outcomes(odd_j, exc_quarter)[4:] == [("skip", uniform)] * 3
    assert outcomes(odd_j, exc_still)[4:] == [
        ("skip", "unexcited"), ("skip", uniform), ("skip", "unexcited"),
    ]
    narrow = outcomes(odd_j, replace(exc_quarter, A=1e-12))
    assert narrow[4:6] == [("skip", uniform)] * 2
    assert narrow[6][0] == "skip" and "MIN_TONGUE_WIDTH" in narrow[6][1]


def test_run_battery_underflowing_excitation_skips_like_unexcited(b0, exc_still):
    """At A = 1e-170, A**2 underflows to zero; at A = 1.7e-162 it is
    subnormal, with one significant bit left.  Either way every tongue is
    degenerate, so the battery skips the tongue criteria as at A = 0 instead
    of failing them on tongues it cannot measure."""
    from levstab import ExcitationParams
    from levstab.validation import run_battery

    def skips(exc):
        report = run_battery(b0, exc)
        assert report.counts()["fail"] == 0
        return [(c.index, c.reason) for c in report.criteria if c.status == "skip"]

    unexcited = skips(exc_still)
    for A in (1e-170, 1.7e-162):
        tiny = ExcitationParams(A=A, Omega=exc_still.Omega, theta=math.pi / 2)
        assert all(e.degenerate for e in all_ellipses(b0, tiny).values())
        assert skips(tiny) == unexcited


def test_run_battery_skips_floquet_tongue_criteria_below_resolvable_width(b0):
    """The relative tongue width is about 7 A.  Below MIN_TONGUE_WIDTH the
    Chebyshev scan cannot certify a tongue's edges, so at A = 1e-12 and 1e-150
    the criteria that measure tongues by Floquet (7 and 13) are skipped
    with a reason naming that limit, where they used to fail; at A = 1e-8
    all 13 criteria still run and pass."""
    from levstab import ExcitationParams
    from levstab.validation import MIN_TONGUE_WIDTH, run_battery

    for A in (1e-12, 1e-150):
        report = run_battery(b0, ExcitationParams(A=A, Omega=80.0, theta=math.pi / 2))
        assert report.counts() == {"pass": 11, "fail": 0, "skip": 2}
        skipped = [(c.index, c.reason) for c in report.criteria if c.status == "skip"]
        assert [index for index, _ in skipped] == [7, 13]
        assert all(f"MIN_TONGUE_WIDTH = {MIN_TONGUE_WIDTH:.3g}" in reason for _, reason in skipped)
    report = run_battery(b0, ExcitationParams(A=1e-8, Omega=80.0, theta=math.pi / 2))
    assert report.counts() == {"pass": 13, "fail": 0, "skip": 0}
