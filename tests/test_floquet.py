"""Floquet engine: monodromy matrices, multiplier classification, grid
sweeps and boundary-crossing scans."""

import math
import os

import numpy as np
import pytest

from levstab import (
    ControlGains,
    ExcitationParams,
    HybridParams,
    MonodromyResult,
    PhysicalParams,
    all_ellipses,
    boundary_crossings,
    classify,
    hybrid_gamma,
    monodromy,
    sweep,
    unexcited_spectrum,
)
from levstab.boundaries import h0_gain, static_boundary_lines
from levstab.floquet import (
    MAP_CSV_HEADER,
    resolve_workers,
    signature_moduli,
    write_map_csv,
    write_map_metadata,
)


STABLE = ControlGains(Kp=10600.0, Kd=3000.0)


def _ranked(rank):
    """Indicator of the rank-th largest principal signature modulus."""
    def indicator(mu):
        moduli = signature_moduli(mu, "principal")
        if len(moduli) <= rank:
            return -1.0
        return float(moduli[rank]) - 1.0
    return indicator


def _fake_result(multipliers):
    mu = np.asarray(multipliers, dtype=complex)
    return MonodromyResult(matrix=np.eye(6), multipliers=mu, period=1.0)


def test_monodromy_unexcited_stable_gains(b0, exc_still):
    res = monodromy(b0, exc_still, STABLE)
    assert res.max_modulus < 1.0
    assert res.matrix.shape == (6, 6)
    assert res.stats.get("nfev", 0) > 0


def test_monodromy_matches_matrix_exponential_oracle(b0, exc_still):
    """At A = 0 the multipliers are exp(lambda*T) of the constant system."""
    for gains in (STABLE, ControlGains(8000.0, 2000.0), ControlGains(15000.0, 2500.0)):
        res = monodromy(b0, exc_still, gains)
        lam = unexcited_spectrum(b0, gains).all
        expected = np.sort_complex(np.exp(lam * res.period))
        got = np.sort_complex(res.multipliers)
        np.testing.assert_allclose(got, expected, rtol=1e-8)


def test_multipliers_are_matrix_eigenvalues(b0, exc_quarter):
    res = monodromy(b0, exc_quarter, STABLE)
    eig = np.sort_complex(np.linalg.eigvals(res.matrix))
    np.testing.assert_allclose(np.sort_complex(res.multipliers), eig,
                               rtol=1e-10, atol=1e-12)


def test_multipliers_conjugate_pairing(b0, exc_quarter):
    res = monodromy(b0, exc_quarter, STABLE)
    mu = res.multipliers
    for m in mu:
        if abs(m.imag) > 1e-10 * max(1.0, abs(m)):
            dist = np.min(np.abs(mu - m.conjugate()))
            assert dist < 1e-10 * max(1.0, abs(m))


def test_principal_center_period_doubling_signature(b0, exc_inphase):
    ea = all_ellipses(b0, exc_inphase)["a"]
    res = monodromy(b0, exc_inphase, ControlGains(ea.h1, ea.h2))
    dom = res.dominant
    assert abs(dom.imag) < 1e-9 * abs(dom)
    assert dom.real < -1.0
    assert classify(res) == "parametric-oscillatory"


def test_combination_center_complex_signature(b0, exc_antiphase):
    ec = all_ellipses(b0, exc_antiphase)["c"]
    res = monodromy(b0, exc_antiphase, ControlGains(ec.h1, ec.h2))
    dom = res.dominant
    assert abs(dom.imag) > 1e-6
    assert abs(dom) > 1.0
    assert classify(res) == "parametric-oscillatory"


def test_classify_synthetic_cases():
    assert classify(_fake_result([0.5, 0.2, 0.1, 0.1, 0.1, 0.1])) == "stable"
    assert classify(_fake_result([1.0 + 2e-7, 0.5, 0.1, 0.1, 0.1, 0.1])) == "marginal"
    assert classify(_fake_result([1.2, 0.5, 0.1, 0.1, 0.1, 0.1])) == "divergence"
    assert classify(_fake_result([-1.2, 0.5, 0.1, 0.1, 0.1, 0.1])) == "parametric-oscillatory"
    pair = [1.1 * np.exp(1j * 0.3), 1.1 * np.exp(-1j * 0.3), 0.1, 0.1, 0.1, 0.1]
    assert classify(_fake_result(pair)) == "parametric-oscillatory"


def test_classify_divergence_left_of_vertical_line(b0, exc_quarter):
    res = monodromy(b0, exc_quarter, ControlGains(h0_gain(b0) - 100.0, 2000.0))
    assert classify(res) == "divergence"


def test_signature_moduli_families():
    mu = np.array([-1.2, -0.5, 0.8, 0.3 + 0.9j, 0.3 - 0.9j, 0.1])
    princ = signature_moduli(mu, "principal")
    np.testing.assert_allclose(princ, [1.2, 0.5])
    comb = signature_moduli(mu, "combination")
    np.testing.assert_allclose(comb, [abs(0.3 + 0.9j)])
    with pytest.raises(ValueError):
        signature_moduli(mu, "both")


def test_sweep_agrees_with_static_oracle_when_unexcited(b0, exc_still):
    """A = 0 classification must reproduce the eigenvalue verdict cell by
    cell on a 20x20 grid spanning both static boundaries."""
    h0 = h0_gain(b0)
    smap = sweep(b0, exc_still, (0.8 * h0, 2.2 * h0), (500.0, 6000.0), 20, 20,
                 workers=1)
    assert not smap.errors
    for i, kp in enumerate(smap.kp):
        for j, kd in enumerate(smap.kd):
            max_re = float(np.max(unexcited_spectrum(b0, ControlGains(kp, kd)).all.real))
            got = smap.classes[i, j]
            if abs(max_re) * smap.kp[0] < 1e-6:
                continue  # numerically on a boundary: class is tolerance-bound
            assert (got == "stable") == (max_re < 0.0), (kp, kd, got)


def test_sweep_deterministic_exports(tmp_path, b0, exc_quarter):
    """Two identical sweeps serialize to byte-identical CSV files, parallel
    or not."""
    kp_range = (10000.0, 13000.0)
    kd_range = (2300.0, 2420.0)
    m1 = sweep(b0, exc_quarter, kp_range, kd_range, 4, 4, workers=1)
    m2 = sweep(b0, exc_quarter, kp_range, kd_range, 4, 4, workers=2)
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_map_csv(m1, p1)
    write_map_csv(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == MAP_CSV_HEADER == "Kp,Kd,class,max_mu_abs"


def test_sweep_grid_properties(b0, exc_still):
    smap = sweep(b0, exc_still, (9000.0, 12000.0), (2000.0, 4000.0), 3, 5,
                 workers=1)
    assert smap.kp.shape == (3,) and smap.kd.shape == (5,)
    assert np.all(np.diff(smap.kp) > 0) and np.all(np.diff(smap.kd) > 0)
    assert smap.classes.shape == (3, 5)
    assert all(c in {"stable", "marginal", "divergence",
                     "parametric-oscillatory"} for c in smap.classes.ravel())
    assert np.all(np.isfinite(smap.max_mu))
    with pytest.raises(ValueError):
        sweep(b0, exc_still, (1.0, 2.0), (1.0, 2.0), 1, 5)


def test_sweep_captures_cell_errors(monkeypatch, b0, exc_still):
    """A failing cell is marked 'error' and the sweep still completes."""
    import levstab.floquet as fl

    real = fl.monodromy
    target = {"hit": False}

    def flaky(params, exc, gains, hyb=None):
        if not target["hit"] and gains.Kp == 9000.0 and gains.Kd == 2000.0:
            target["hit"] = True
            raise RuntimeError("synthetic integrator failure")
        return real(params, exc, gains, hyb=hyb)

    monkeypatch.setattr(fl, "monodromy", flaky)
    smap = fl.sweep(b0, exc_still, (9000.0, 10000.0), (2000.0, 3000.0), 2, 2,
                    workers=1)
    assert target["hit"]
    assert smap.classes[0, 0] == "error"
    assert math.isnan(smap.max_mu[0, 0])
    assert len(smap.errors) == 1
    i, j, msg = smap.errors[0]
    assert (i, j) == (0, 0) and "synthetic integrator failure" in msg
    # the other cells are classified normally
    assert smap.classes[1, 1] in {"stable", "divergence"}


def test_sweep_islands_follow_phase(b0):
    """Around the kind-a center a 5-point scan is unstable for in-phase
    excitation and quiet for antiphase, where that resonance is cancelled."""
    ea = all_ellipses(b0, ExcitationParams(A=0.005, Omega=80.0, theta=0.0))["a"]
    # stay left of the inclined static line: only the tongue itself may fire
    kp_range = (ea.h1 - 0.9 * ea.k1, ea.h1 - 0.3 * ea.k1)
    kd_range = (ea.h2 - 1.0, ea.h2 + 1.0)
    hot = sweep(b0, ExcitationParams(A=0.005, Omega=80.0, theta=0.0),
                kp_range, kd_range, 3, 2, workers=1)
    cold = sweep(b0, ExcitationParams(A=0.005, Omega=80.0, theta=math.pi),
                 kp_range, kd_range, 3, 2, workers=1)
    assert np.any(hot.classes == "parametric-oscillatory")
    assert np.all(cold.classes == "stable")


def test_hybrid_sweep_identical_to_standard(b0, exc_quarter):
    """The hybrid plant linearized about its own steady state shares the
    standard plant's stability map cell by cell."""
    beta = 0.01
    hyb = HybridParams(beta=beta, gamma=hybrid_gamma(b0, beta))
    shifted = PhysicalParams(m=b0.m, C=b0.C, R=b0.R, z0=b0.z0 + beta)
    kp_range, kd_range = (10500.0, 12500.0), (2330.0, 2380.0)
    std = sweep(shifted, exc_quarter, kp_range, kd_range, 3, 3, workers=1)
    hybm = sweep(b0, exc_quarter, kp_range, kd_range, 3, 3, hyb=hyb, workers=1)
    assert np.array_equal(std.classes, hybm.classes)
    np.testing.assert_allclose(std.max_mu, hybm.max_mu, rtol=1e-9)


def test_boundary_crossing_left_edge_of_principal_tongue(b0, exc_inphase):
    """Scanning Kd = h2,a across ellipse a, the dominant-multiplier indicator
    crosses unity once, at the left edge h1 - k1 (the right half of the
    tongue overlaps the statically unstable side of the inclined line)."""
    ea = all_ellipses(b0, exc_inphase)["a"]
    scan = ((ea.h1 - 1.6 * ea.k1, ea.h2), (ea.h1 + 1.6 * ea.k1, ea.h2))
    pts = boundary_crossings(b0, exc_inphase, scan)
    assert len(pts) == 1
    kp_cross, kd_cross = pts[0]
    assert kd_cross == ea.h2
    assert kp_cross == pytest.approx(ea.h1 - ea.k1, abs=0.01 * ea.k1)


def test_boundary_crossing_signature_indicator_finds_both_edges(b0, exc_inphase):
    """Tracking the resonant (real negative) multiplier pair separates the
    two tongue edges: the larger of the pair crosses unity at the left edge,
    the smaller at the right edge."""
    ea = all_ellipses(b0, exc_inphase)["a"]
    scan = ((ea.h1 - 1.6 * ea.k1, ea.h2), (ea.h1 + 1.6 * ea.k1, ea.h2))
    left = boundary_crossings(b0, exc_inphase, scan, indicator=_ranked(0))
    right = boundary_crossings(b0, exc_inphase, scan, indicator=_ranked(1))
    assert len(left) >= 1 and len(right) >= 1
    assert left[0][0] == pytest.approx(ea.h1 - ea.k1, abs=0.02 * ea.k1)
    assert right[-1][0] == pytest.approx(ea.h1 + ea.k1, abs=0.02 * ea.k1)


def test_boundary_crossing_static_vertical_line(b0, exc_still):
    """With A = 0 a horizontal scan crosses the divergence boundary exactly
    at Kp = h0."""
    h0 = h0_gain(b0)
    scan = ((h0 - 800.0, 2000.0), (h0 + 800.0, 2000.0))
    pts = boundary_crossings(b0, exc_still, scan)
    assert len(pts) == 1
    assert pts[0][0] == pytest.approx(h0, rel=1e-3)


def test_boundary_crossing_stable_scan_empty(b0, exc_quarter):
    lines = static_boundary_lines(b0)
    kd = 2000.0  # off every tongue center at Omega = 80
    lo = lines.h0 + 0.35 * (lines.inclined(kd) - lines.h0)
    hi = lines.h0 + 0.65 * (lines.inclined(kd) - lines.h0)
    assert boundary_crossings(b0, exc_quarter, ((lo, kd), (hi, kd))) == []


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("LEVSTAB_THREADS", raising=False)
    cpus = _usable_cpus()
    assert resolve_workers(3) == min(3, cpus)
    assert resolve_workers(None) == cpus
    monkeypatch.setenv("LEVSTAB_THREADS", "2")
    assert resolve_workers(None) == min(2, cpus)
    monkeypatch.setenv("LEVSTAB_THREADS", "0")
    assert resolve_workers(None) == cpus
    monkeypatch.setenv("LEVSTAB_THREADS", "nope")
    with pytest.raises(ValueError, match="LEVSTAB_THREADS"):
        resolve_workers(None)
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_resolve_workers_capped_at_usable_cpus(monkeypatch):
    """Auto mode and every requested count stop at the CPUs this process
    may run on.  Only the count is checked; no pool is started."""
    monkeypatch.setenv("LEVSTAB_THREADS", "1000000")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert resolve_workers(None) == 3
    assert resolve_workers(1000000) == 3
    assert resolve_workers(0) == 3
    assert resolve_workers(2) == 2
    # without an affinity call the CPU count is the limit
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert resolve_workers(None) == 5


def test_tongue_edge_scans_integrate_each_gain_once(monkeypatch, b0, exc_inphase):
    """The left- and right-edge searches share their 25 presample points:
    each gain point is integrated once, and the edges are the ones two
    uncached searches find."""
    import levstab.floquet as fl
    from levstab.validation import tongue_edges

    ea = all_ellipses(b0, exc_inphase)["a"]
    real = fl.monodromy
    seen = []

    def counting(params, exc, gains, hyb=None):
        seen.append((gains.Kp, gains.Kd))
        return real(params, exc, gains, hyb=hyb)

    monkeypatch.setattr(fl, "monodromy", counting)
    fl._multipliers.cache_clear()
    edges = tongue_edges(b0, exc_inphase, ea)
    assert len(seen) == len(set(seen)) > 25

    scan = ((ea.h1 - 1.6 * ea.k1, ea.h2), (ea.h1 + 1.6 * ea.k1, ea.h2))
    uncached = []
    for rank in (0, 1):
        fl._multipliers.cache_clear()
        uncached.append(
            boundary_crossings(b0, exc_inphase, scan, indicator=_ranked(rank), n_presample=25)
        )
    assert edges == (uncached[0][0][0], uncached[1][-1][0])


def test_map_metadata_round_trip(tmp_path, b0, exc_quarter):
    import json

    smap = sweep(b0, exc_quarter, (10000.0, 11000.0), (2000.0, 2100.0), 2, 2,
                 workers=1)
    path = tmp_path / "meta.json"
    write_map_metadata(smap, path, b0, exc_quarter, version="x.y.z")
    doc = json.loads(path.read_text())
    assert doc["grid"]["nx"] == 2 and doc["grid"]["ny"] == 2
    assert doc["physical"]["m"] == b0.m
    assert doc["excitation"]["Omega"] == exc_quarter.Omega
    assert doc["version"] == "x.y.z"
    assert doc["grid"]["rtol"] == 1e-10
    assert (doc["grid"]["atol"], doc["grid"]["eps"]) == (1e-12, 1e-6)
    assert (doc["grid"]["method"], doc["grid"]["workers"]) == ("DOP853", 1)
    assert doc["cell_errors"] == []
