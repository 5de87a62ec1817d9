"""Floquet engine: monodromy matrices, multiplier classification, grid
sweeps and Chebyshev boundary-crossing scans."""

import math
import os
import signal

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
    monodromy,
    sweep,
    unexcited_spectrum,
)
from levstab.boundaries import default_map_window, h0_gain, static_boundary_lines
from levstab.floquet import (
    DELTA,
    MAP_CSV_HEADER,
    MIN_CHUNK_CELLS,
    NODES,
    FloquetError,
    _batched_cells,
    _cell_record,
    _chebyshev_roots,
    is_real,
    resolve_workers,
    write_map_csv,
    write_map_metadata,
)
from levstab.validation import _psi_ns, _psi_pd


STABLE = ControlGains(Kp=10600.0, Kd=3000.0)


def _signature_moduli(multipliers, family):
    """Moduli of the multipliers carrying a resonance signature, descending:
    for family 'principal' the real negative multipliers (period-2T
    mechanism), for 'combination' one of each complex-conjugate pair."""
    mu = np.asarray(multipliers)
    if family == "principal":
        sel = is_real(mu) & (mu.real < 0.0)
    else:
        sel = ~is_real(mu) & (mu.imag > 0.0)
    return np.sort(np.abs(mu[sel]))[::-1]


def _fake_result(multipliers):
    mu = np.asarray(multipliers, dtype=complex)
    return MonodromyResult(matrix=np.eye(6), multipliers=mu, stats={})


def test_monodromy_unexcited_stable_gains(b0, exc_still):
    res = monodromy(b0, exc_still, STABLE)
    assert res.max_modulus < 1.0
    assert res.matrix.shape == (6, 6)
    assert res.stats.get("nfev", 0) > 0


@pytest.mark.parametrize("beta", [None, 0.01])
def test_monodromy_records_liouville_det_error(b0, exc_quarter, beta):
    """stats["det_rel_err"] is |det M / exp(-R (z0 + beta) T / C) - 1|,
    which DOP853 at the package tolerances keeps far below DET_TOL."""
    import levstab.floquet as fl

    hyb = None if beta is None else HybridParams(beta)
    res = monodromy(b0, exc_quarter, STABLE, hyb=hyb)
    exact = math.exp(-b0.R * (b0.z0 + (beta or 0.0)) * exc_quarter.period / b0.C)
    det_err = abs(np.linalg.det(res.matrix) / exact - 1.0)
    assert res.stats["det_rel_err"] == pytest.approx(det_err, abs=1e-15)
    assert 0.0 <= res.stats["det_rel_err"] < 1e-2 * fl.DET_TOL


def test_monodromy_matches_matrix_exponential_oracle(b0, exc_still):
    """At A = 0 the multipliers are exp(lambda*T) of the constant system."""
    for gains in (STABLE, ControlGains(8000.0, 2000.0), ControlGains(15000.0, 2500.0)):
        res = monodromy(b0, exc_still, gains)
        lam = unexcited_spectrum(b0, gains).all
        expected = np.sort_complex(np.exp(lam * exc_still.period))
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


def _check_classes(rows_and_classes):
    """classify on each row, and the engine's classifier on all rows as one
    (n, 6) array, give the expected class of every row."""
    from levstab.floquet import _classes

    rows = np.array([row for row, _ in rows_and_classes], dtype=complex)
    expected = [cls for _, cls in rows_and_classes]
    assert [classify(_fake_result(row)) for row in rows] == expected
    assert list(_classes(rows)) == expected


def test_classify_synthetic_cases():
    pair = [1.1 * np.exp(1j * 0.3), 1.1 * np.exp(-1j * 0.3), 0.1, 0.1, 0.1, 0.1]
    _check_classes([
        ([0.5, 0.2, 0.1, 0.1, 0.1, 0.1], "stable"),
        ([1.0 + 2e-7, 0.5, 0.1, 0.1, 0.1, 0.1], "marginal"),
        ([1.2, 0.5, 0.1, 0.1, 0.1, 0.1], "divergence"),
        ([-1.2, 0.5, 0.1, 0.1, 0.1, 0.1], "parametric-oscillatory"),
        (pair, "parametric-oscillatory"),
    ])


def test_classify_tied_moduli():
    """Of several multipliers of the largest modulus the first is the
    dominant one."""
    rest = [0.1, 0.1, 0.1, 0.1]
    _check_classes([
        ([1.2, -1.2, *rest], "divergence"),
        ([-1.2, 1.2, *rest], "parametric-oscillatory"),
        ([1.2, 1.2j, *rest], "divergence"),
        ([1.2j, 1.2, *rest], "parametric-oscillatory"),
        ([0.5, -0.5, *rest], "stable"),
    ])


def test_classify_one_ulp_around_class_edges():
    """Values one ulp either side of 1 - EPS and 1 + EPS: stable below
    1 - EPS, marginal from it up to 1 + EPS, unstable above."""
    from levstab.floquet import EPS

    lo, hi = 1.0 - EPS, 1.0 + EPS
    rest = [0.1, 0.1, 0.1, 0.1, 0.1]
    _check_classes([
        ([np.nextafter(lo, 0.0), *rest], "stable"),
        ([lo, *rest], "marginal"),
        ([np.nextafter(lo, 2.0), *rest], "marginal"),
        ([np.nextafter(hi, 0.0), *rest], "marginal"),
        ([hi, *rest], "marginal"),
        ([np.nextafter(hi, 2.0), *rest], "divergence"),
        ([-np.nextafter(hi, 2.0), *rest], "parametric-oscillatory"),
    ])


def test_classify_at_the_real_tolerance():
    """A dominant multiplier counts as real while |Im mu| is at most
    REAL_TOL * max(1, |mu|): one ulp more makes it a complex one."""
    from levstab.floquet import REAL_TOL

    rest = [0.1, 0.1, 0.1, 0.1, 0.1]
    rows = []
    for re in (1.5, 3.0):
        im = REAL_TOL * abs(complex(re, REAL_TOL * re))
        assert REAL_TOL * abs(complex(re, im)) == im  # the edge itself
        rows += [
            ([complex(re, im), *rest], "divergence"),
            ([complex(re, -im), *rest], "divergence"),
            ([complex(re, np.nextafter(im, 1.0)), *rest], "parametric-oscillatory"),
        ]
    _check_classes(rows)


def test_classify_divergence_left_of_vertical_line(b0, exc_quarter):
    res = monodromy(b0, exc_quarter, ControlGains(h0_gain(b0) - 100.0, 2000.0))
    assert classify(res) == "divergence"


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


def _cpus(monkeypatch, n=2):
    """Let ``resolve_workers`` see n usable CPUs, whatever the machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_sweep_deterministic_exports(monkeypatch, tmp_path, b0, exc_quarter):
    """Two identical sweeps serialize to byte-identical CSV files, split or
    not.  No chunk gets fewer than MIN_CHUNK_CELLS cells, so a 4x4 map runs
    as one chunk; with the minimum shrunk to 8 cells it runs as two, one
    in a forked child, and as one again where ``os.fork`` is missing."""
    import levstab.floquet as fl

    _cpus(monkeypatch)
    kp_range = (10000.0, 13000.0)
    kd_range = (2300.0, 2420.0)
    m1 = sweep(b0, exc_quarter, kp_range, kd_range, 4, 4, workers=1)
    assert 4 * 4 < 2 * fl.MIN_CHUNK_CELLS
    assert sweep(b0, exc_quarter, kp_range, kd_range, 4, 4, workers=2).meta["workers"] == 1
    monkeypatch.setattr(fl, "MIN_CHUNK_CELLS", 8)
    m2 = sweep(b0, exc_quarter, kp_range, kd_range, 4, 4, workers=2)
    assert m2.meta["workers"] == 2
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_map_csv(m1, p1)
    write_map_csv(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == MAP_CSV_HEADER == "Kp,Kd,class,max_mu_abs"
    monkeypatch.delattr(os, "fork")
    assert sweep(b0, exc_quarter, kp_range, kd_range, 4, 4, workers=2).meta["workers"] == 1


def test_sweep_default_window_split_keeps_bytes(monkeypatch, tmp_path, b0, exc_quarter):
    """The 26x26 default-window map, split two ways (as on two CPUs) and
    three, with a forked child filling each chunk but the first in the
    shared record, writes the same map.csv bytes as one chunk in this
    process, and the same ``meta`` apart from the chunk count."""
    window = default_map_window(b0, exc_quarter)
    one = sweep(b0, exc_quarter, *window, 26, 26, workers=1)
    assert one.meta.pop("workers") == 1
    write_map_csv(one, tmp_path / "one.csv")
    for chunks in (2, 3):
        _cpus(monkeypatch, chunks)
        smap = sweep(b0, exc_quarter, *window, 26, 26, workers=chunks)
        assert smap.meta.pop("workers") == chunks
        write_map_csv(smap, tmp_path / f"split{chunks}.csv")
        assert (tmp_path / f"split{chunks}.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert smap.meta == one.meta


def _record(params, exc, kp, kd):
    """The engine's record of the cells (kp, kd), filled as one chunk in
    this process."""
    record, chunks = _cell_record(params, exc, None, kp, kd, workers=1)
    assert chunks == 1
    return record


def _stub_cells(params, exc, hyb, kp, kd, record):
    """A stand-in for the engine that fills the record of the cells (kp,
    kd) with every cell stable at 50 steps: the sweep's own memory without
    the engine's."""
    record["mu"][:], record["steps"][:] = 0.5, 50
    record["richardson"][:] = record["det_rel_err"][:] = 0.0


@pytest.mark.parametrize("cpus, workers, cells, chunks", [
    (2, None, 2 * MIN_CHUNK_CELLS - 1, 1),
    (2, None, 2 * MIN_CHUNK_CELLS, 2),
    (3, 3, 3 * MIN_CHUNK_CELLS - 1, 2),
    (3, 3, 3 * MIN_CHUNK_CELLS, 3),
])
def test_cell_record_gives_every_chunk_min_chunk_cells(
    monkeypatch, b0, exc_quarter, cpus, workers, cells, chunks
):
    """A sweep splits its cells into no more chunks than give each at least
    MIN_CHUNK_CELLS cells: on two CPUs one cell short of two chunks' worth
    runs as one chunk in this process and two chunks' worth splits in two,
    and on three one cell short of three chunks' worth splits in two and
    three chunks' worth in three.  Every chunk fills its cells (a stand-in
    engine)."""
    import levstab.floquet as fl

    _cpus(monkeypatch, cpus)
    monkeypatch.delenv("LEVSTAB_THREADS", raising=False)
    monkeypatch.setattr(fl, "_batched_cells", _stub_cells)
    kp, kd = np.linspace(10000.0, 13000.0, cells), np.full(cells, 2300.0)
    record, got = _cell_record(b0, exc_quarter, None, kp, kd, workers)
    assert got == chunks
    assert (record["steps"] == 50).all() and all(msg is None for msg in record["error"])


def test_sweep_two_worker_memory_bound(monkeypatch, b0, exc_quarter):
    """A two-worker 101x101 sweep holds its record once in the calling
    process: tracemalloc's peak there, over the whole sweep with a
    stand-in engine, plus the record's 120 bytes per cell in the shared
    mapping, which tracemalloc does not see, is at most the record's 128
    bytes per cell and 64 more (38 measured: the cells' gains and the
    derived classes and max|mu|).  The record is allocated once and every
    chunk fills its cells in place, the child's in the shared mapping;
    joining both chunks' records from a process pool peaked at 183 bytes
    per cell more."""
    import tracemalloc

    import levstab.floquet as fl

    _cpus(monkeypatch)
    monkeypatch.setattr(fl, "_batched_cells", _stub_cells)
    cells = 101 * 101
    tracemalloc.start()
    try:
        smap = sweep(b0, exc_quarter, *default_map_window(b0, exc_quarter), 101, 101, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert smap.meta["workers"] == 2
    assert (smap.classes == "stable").all() and (smap.max_mu == 0.5).all()
    assert peak + fl._CELL.itemsize * cells <= (128 + 64) * cells


def _in_child(monkeypatch, child_engine, own_engine=_batched_cells, chunks=2):
    """Split a map of at least 8 ``chunks`` cells that many ways, and run
    ``child_engine`` in place of the engine in the forked children and
    ``own_engine`` in this process."""
    import levstab.floquet as fl

    _cpus(monkeypatch, chunks)
    monkeypatch.setattr(fl, "MIN_CHUNK_CELLS", 8)
    parent = os.getpid()

    def engine(*args):
        return (own_engine if os.getpid() == parent else child_engine)(*args)

    monkeypatch.setattr(fl, "_batched_cells", engine)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("child_engine, status", [
    (lambda *args: os._exit(7), "exited with status 7"),
    (lambda *args: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL:d} "),
    (lambda *args: os._exit(0), "exited with status 0 without sending its cells' messages"),
], ids=["exit-7", "sigkill", "no-messages"])
def test_sweep_child_failure_raises(monkeypatch, b0, exc_quarter, child_engine, status):
    """A child that exits nonzero, is killed by a signal, or exits 0
    without sending its cells' messages makes the sweep raise
    ``RuntimeError`` naming its status, and leaves no child behind."""
    _in_child(monkeypatch, child_engine)
    with pytest.raises(RuntimeError, match=f"^a sweep worker \\(pid \\d+\\) {status}"):
        sweep(b0, exc_quarter, (10000.0, 13000.0), (2300.0, 2420.0), 4, 4, workers=2)
    _assert_no_child_left()


def test_sweep_parent_chunk_failure_kills_children(monkeypatch, b0, exc_quarter):
    """When the chunk this process runs raises, the children are killed and
    reaped before the exception propagates: a child that would sleep for
    a minute does not hold the sweep up."""
    import time

    def fail(*args):
        raise ValueError("the calling process's chunk failed")

    _in_child(monkeypatch, lambda *args: time.sleep(60.0), own_engine=fail)
    start = time.monotonic()
    with pytest.raises(ValueError, match="calling process's chunk failed"):
        sweep(b0, exc_quarter, (10000.0, 13000.0), (2300.0, 2420.0), 4, 4, workers=2)
    assert time.monotonic() - start < 30.0
    _assert_no_child_left()


def test_sweep_failed_child_kills_the_next(monkeypatch, b0, exc_quarter):
    """In a three-way split of a 5x5 map, when the child of chunk 1 exits
    7, the sweep raises at once: the child of chunk 2, which would sleep
    for a minute, is killed and reaped first."""
    import time

    first = np.repeat(np.linspace(10000.0, 13000.0, 5), 5)[25 // 3]  # chunk 1's first Kp

    def child_engine(params, exc, hyb, kp, kd, record):
        if kp[0] == first:
            os._exit(7)
        time.sleep(60.0)

    _in_child(monkeypatch, child_engine, chunks=3)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="exited with status 7"):
        sweep(b0, exc_quarter, (10000.0, 13000.0), (2300.0, 2420.0), 5, 5, workers=3)
    assert time.monotonic() - start < 30.0
    _assert_no_child_left()


def test_sweep_child_cell_error_reaches_the_map(monkeypatch, tmp_path, b0, exc_quarter):
    """A cell that fails in a forked child's chunk is classed 'error', and
    its message, raised in the child, reaches ``errors`` and the
    ``cell_errors`` of the map's metadata at its own (i, j)."""
    import json

    import levstab.floquet as fl

    real = fl._propagate
    parent = os.getpid()

    def poisoned(a, g, kp, kd, period):
        m = real(a, g, kp, kd, period)
        m[(kp == 13000.0) & (kd == 2340.0)] = np.nan
        return m

    def failing(params, exc, gains, hyb=None):
        raise RuntimeError(f"synthetic failure at Kp={gains.Kp}, Kd={gains.Kd} in pid {os.getpid()}")

    _in_child(monkeypatch, _batched_cells)
    monkeypatch.setattr(fl, "_propagate", poisoned)
    monkeypatch.setattr(fl, "monodromy", failing)
    smap = sweep(b0, exc_quarter, (10000.0, 13000.0), (2300.0, 2420.0), 4, 4, workers=2)
    assert smap.meta["workers"] == 2
    [(i, j, msg)] = smap.errors
    assert (i, j) == (3, 1) and smap.classes[3, 1] == "error"
    assert msg.startswith("RuntimeError: synthetic failure at Kp=13000.0, Kd=2340.0 in pid ")
    assert int(msg.rsplit(" ", 1)[1]) != parent
    write_map_metadata(smap, tmp_path / "meta.json", exc_quarter, "x.y.z", {})
    assert json.loads((tmp_path / "meta.json").read_text())["cell_errors"] == [[3, 1, msg]]


def test_sweep_one_worker_memory_bound(monkeypatch, b0, exc_quarter):
    """A one-worker 101x101 sweep of the default window peaks under 10 MB
    (tracemalloc, plus the record's 120 bytes per cell in the shared
    mapping, which it does not see; 7.8 MB measured, in the engine).  Once
    the engine has filled the record, the sweep holds it and at most 64
    bytes per cell more (39 measured): it derives the classes and max|mu|
    from the record a block at a time.  Deriving them over the whole grid
    held 113 bytes per cell more."""
    import tracemalloc

    import levstab.floquet as fl

    engine = fl._batched_cells
    seen = []

    def measured(params, exc, hyb, kp, kd, record):
        engine(params, exc, hyb, kp, kd, record)
        seen.append((tracemalloc.get_traced_memory()[1], sum(field.nbytes for field in record.values())))
        tracemalloc.reset_peak()

    monkeypatch.setattr(fl, "_batched_cells", measured)
    tracemalloc.start()
    try:
        sweep(b0, exc_quarter, *default_map_window(b0, exc_quarter), 101, 101, workers=1)
        after_engine = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(engine_peak, record_bytes)] = seen
    shared = fl._CELL.itemsize * 101 * 101
    assert max(engine_peak, after_engine) + shared < 10e6
    assert after_engine + shared <= record_bytes + 64 * 101 * 101


def _assert_same_record(a, b):
    """Two engine records hold the same bits in every field, NaN included."""
    assert a.keys() == b.keys()
    for key in a:
        if a[key].dtype == object:
            assert list(a[key]) == list(b[key]), key
        else:
            assert (a[key].dtype, a[key].tobytes()) == (b[key].dtype, b[key].tobytes()), key


def test_batched_cells_independent_of_chunking(monkeypatch, b0, exc_quarter):
    """A cell's result does not depend on the other cells of its batch, so
    neither the worker split nor the engine's blocks can change a map,
    whatever the CPU count: every field of the engine's record on a set of
    cells equals, bit for bit, its record on two unequal parts of it, and
    its record in blocks of 4 cells; an empty set of cells has an empty
    record.  The kind-d tongue centre, far outside
    the default window, needs refined passes (at 25 steps it errs by about
    1e-4)."""
    import levstab.floquet as fl

    kp_range, kd_range = default_map_window(b0, exc_quarter)
    ed = all_ellipses(b0, exc_quarter)["d"]
    kp = np.append(np.repeat(np.linspace(*kp_range, 5), 5), [ed.h1, 1.01 * ed.h1])
    kd = np.append(np.tile(np.linspace(*kd_range, 5), 5), [ed.h2, ed.h2])
    whole = _record(b0, exc_quarter, kp, kd)
    head = _record(b0, exc_quarter, kp[:7], kd[:7])
    tail = _record(b0, exc_quarter, kp[7:], kd[7:])
    assert len(set(whole["steps"]) - {0}) > 1  # some cells needed a refined pass
    _assert_same_record(whole, {key: np.concatenate([head[key], tail[key]]) for key in head})
    monkeypatch.setattr(fl, "BLOCK", 4)
    _assert_same_record(whole, _record(b0, exc_quarter, kp, kd))
    assert all(len(field) == 0 for field in _record(b0, exc_quarter, kp[:0], kd[:0]).values())


@pytest.mark.parametrize("window", [
    "tongue-d",
    pytest.param("default", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the engine accepts a cell on max|mu| alone: at 50 steps a smaller modulus of the "
        "window's last cell is 1.05e-9 off DOP853, which is within 1.4e-11 of 800 steps"
    ))),
])
def test_batched_multipliers_match_monodromy(monkeypatch, b0, exc_quarter, window):
    """The engine's record holds each cell's six multipliers.  On a 5x5
    grid of tongue d's window (Kp = h1 +/- 3 k1, Kd = h2 +/- 5 k2), where
    every cell refines to 200 or 400 steps, and of the default window, their
    sorted moduli and both families' signature moduli agree with
    monodromy's within 1e-9 max(1, |mu|).  With MAX_STEPS cut to STEPS the
    tongue-d cells go to monodromy, and the record holds its multipliers
    bit for bit."""
    import levstab.floquet as fl

    if window == "tongue-d":
        ed = all_ellipses(b0, exc_quarter)["d"]
        ranges = ((ed.h1 - 3 * ed.k1, ed.h1 + 3 * ed.k1), (ed.h2 - 5 * ed.k2, ed.h2 + 5 * ed.k2))
    else:
        ranges = default_map_window(b0, exc_quarter)
    kp, kd = (np.linspace(*r, 5) for r in ranges)
    kp, kd = np.repeat(kp, 5), np.tile(kd, 5)
    record = _record(b0, exc_quarter, kp, kd)
    refs = [monodromy(b0, exc_quarter, ControlGains(p, d)).multipliers for p, d in zip(kp, kd)]
    assert set(record["steps"]) <= ({200, 400} if window == "tongue-d" else {50, 100, 200, 400})

    def close(got, ref):
        return got.shape == ref.shape and np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, ref))

    for mu, ref in zip(record["mu"], refs):
        assert close(np.sort(np.abs(mu)), np.sort(np.abs(ref))), (mu, ref)
        for family in ("principal", "combination"):
            assert close(_signature_moduli(mu, family), _signature_moduli(ref, family)), (family, mu, ref)
    if window == "tongue-d":
        monkeypatch.setattr(fl, "MAX_STEPS", fl.STEPS)
        record = _record(b0, exc_quarter, kp, kd)
        assert not record["steps"].any() and np.isnan(record["richardson"]).all()
        for mu, ref in zip(record["mu"], refs):
            assert mu.tobytes() == np.asarray(ref, dtype=complex).tobytes()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "inside a narrow tongue the Richardson estimate understates the engine's error: the cell "
    "is accepted at 200 steps with an estimate of 9.85e-10, and its max|mu| is 3.89e-9 off "
    "DOP853 at rtol 1e-13"
))
def test_batched_max_mu_inside_tongue_d_matches_monodromy(b0):
    """Inside tongue d at A = 1e-6, theta = pi/2, the engine's max|mu|
    agrees with monodromy's within 1e-9 max(1, |mu|), the engine gate's
    limit.  The cell is (18, 18) of a 21x21 grid of Kp = h1 +/- 1.6 k1 by
    Kd = h2 +/- 4.5 k2; its record does not depend on the other cells, so
    it runs alone.  monodromy (rtol 1e-10) lies within 2.3e-10 of a DOP853
    run at rtol 1e-13 there, the engine's value 3.89e-9 from it."""
    exc = ExcitationParams(A=1e-6, Omega=80.0, theta=math.pi / 2)
    d = all_ellipses(b0, exc)["d"]
    kp = np.linspace(d.h1 - 1.6 * d.k1, d.h1 + 1.6 * d.k1, 21)[18]
    kd = np.linspace(d.h2 - 4.5 * d.k2, d.h2 + 4.5 * d.k2, 21)[18]
    got = np.abs(_record(b0, exc, np.array([kp]), np.array([kd]))["mu"][0]).max()
    ref = monodromy(b0, exc, ControlGains(float(kp), float(kd))).max_modulus
    assert abs(got - ref) <= 1e-9 * max(1.0, ref), (got, ref)


def test_batched_step_is_sixth_order(b0, exc_quarter):
    """Guards the engine's tableau: at the tongue-a centre the monodromy
    matrix at 25, 50 and 100 steps converges on a 400-step run at an
    observed order of at least 5.5.  (max|mu| itself is no guard here: its
    error is about 1e-6 of the matrix's and reaches roundoff by 100 steps.)"""
    from levstab.floquet import _propagate
    from levstab.linearized import periodic_matrix

    ea = all_ellipses(b0, exc_quarter)["a"]
    pm = periodic_matrix(b0, exc_quarter, ControlGains(0.0, 0.0))
    kp, kd = np.array([ea.h1]), np.array([ea.h2])
    m = {}
    for n in (25, 50, 100, 400):
        a, g = pm.table(6 * n)
        m[n] = _propagate(a, g, kp, kd, pm.period)[0]
    err = [np.max(np.abs(m[n] - m[400])) for n in (25, 50, 100)]
    orders = [math.log2(e0 / e1) for e0, e1 in zip(err, err[1:])]
    assert min(orders) >= 5.5, orders


def _stack_iterations(params, exc, steps: int, cells: int) -> int:
    """Stack iterations one _propagate pass of ``cells`` cells at ``steps``
    steps makes: the calls of its A y evaluation, seven per iteration."""
    import sys

    from levstab import floquet as fl
    from levstab.linearized import periodic_matrix

    pm = periodic_matrix(params, exc, ControlGains(0.0, 0.0))
    table = pm.table(6 * steps)
    calls = []

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "derivative" and code.co_filename == fl.__file__:
            calls.append(1)

    kp, kd = np.full(cells, STABLE.Kp), np.full(cells, STABLE.Kd)
    sys.setprofile(count)
    try:
        fl._propagate(*table, kp, kd, pm.period)
    finally:
        sys.setprofile(None)
    assert len(calls) % len(fl._RK6_B) == 0
    return len(calls) // len(fl._RK6_B)


def test_refined_pass_runs_as_segments(b0, exc_quarter):
    """A refined pass of 2 cells at 100 steps runs its 100 / SEGMENT
    segments side by side, in SEGMENT stack iterations; a level-0 pass
    makes one per step."""
    from levstab.floquet import SEGMENT, STEPS

    assert 100 % SEGMENT == 0 and SEGMENT < 100
    assert _stack_iterations(b0, exc_quarter, 100, 2) == SEGMENT
    assert _stack_iterations(b0, exc_quarter, STEPS, 2) == STEPS


def test_segmented_pass_matches_one_segment(monkeypatch, b0, exc_quarter):
    """At tongue d's centre, where the engine accepts one cell at 200 steps
    and one at 400, max|mu| of the segmented passes is within 1e-13
    (relative) of one-segment passes over the whole period, and the
    matrices agree to roundoff."""
    import levstab.floquet as fl
    from levstab.linearized import periodic_matrix

    ed = all_ellipses(b0, exc_quarter)["d"]
    kp, kd = np.array([ed.h1, ed.h1]), np.array([ed.h2, ed.h2 + 3.0 * ed.k2])
    assert list(_record(b0, exc_quarter, kp, kd)["steps"]) == [200, 400]
    pm = periodic_matrix(b0, exc_quarter, ControlGains(0.0, 0.0))
    for steps in (200, 400):
        table = pm.table(6 * steps)
        segmented = fl._propagate(*table, kp, kd, pm.period)
        with monkeypatch.context() as one_segment:
            one_segment.setattr(fl, "SEGMENT", steps)
            whole = fl._propagate(*table, kp, kd, pm.period)
        assert not np.array_equal(segmented, whole)
        np.testing.assert_allclose(segmented, whole, rtol=0.0, atol=1e-12 * np.abs(whole).max())
        top = [np.abs(np.linalg.eigvals(m)).max(axis=1) for m in (segmented, whole)]
        np.testing.assert_allclose(top[0], top[1], rtol=1e-13, atol=0.0)


def test_refined_pass_independent_of_groups(monkeypatch, b0, exc_quarter):
    """A refined pass of twelve cells across tongue d's window, at 100, 200
    and 400 steps, gives each cell the bits of a pass in groups of one cell,
    whether the cells share one group or split into groups of five."""
    import levstab.floquet as fl
    from levstab.linearized import periodic_matrix

    ed = all_ellipses(b0, exc_quarter)["d"]
    rng = np.random.default_rng(19)
    kp = ed.h1 + ed.k1 * rng.uniform(-3.0, 3.0, 12)
    kd = ed.h2 + ed.k2 * rng.uniform(-5.0, 5.0, 12)
    pm = periodic_matrix(b0, exc_quarter, ControlGains(0.0, 0.0))
    for steps in (100, 200, 400):
        table = pm.table(6 * steps)
        segments = steps // fl.SEGMENT
        passes = {}
        for cells in (None, 5, 1):
            with monkeypatch.context() as groups:
                if cells is not None:
                    groups.setattr(fl, "GROUP_COLUMNS", cells * segments)
                passes[cells] = fl._propagate(*table, kp, kd, pm.period)
        assert passes[None].tobytes() == passes[1].tobytes()
        assert passes[5].tobytes() == passes[1].tobytes()


def test_base_pass_independent_of_groups(monkeypatch, b0, exc_quarter):
    """The one-segment passes at 25 and 50 steps give each of 1, 7, 13 and
    441 cells across the default window the bits of a pass in groups of
    one cell, whether the cells share one group or split into groups of
    five.  The stage sums and A's products run in BLAS, whose kernels take
    other paths at the tail of a vector than in its body, so this pins that
    a cell's bits depend neither on its place in the stack nor on the
    stack's width."""
    import levstab.floquet as fl
    from levstab.linearized import periodic_matrix

    (kp_lo, kp_hi), (kd_lo, kd_hi) = default_map_window(b0, exc_quarter)
    rng = np.random.default_rng(23)
    pm = periodic_matrix(b0, exc_quarter, ControlGains(0.0, 0.0))
    for steps in (25, 50):
        table = pm.table(6 * steps)
        for count in (1, 7, 13, 441):
            kp, kd = rng.uniform(kp_lo, kp_hi, count), rng.uniform(kd_lo, kd_hi, count)
            passes = {}
            for cells in (None, 5, 1):
                with monkeypatch.context() as groups:
                    if cells is not None:
                        groups.setattr(fl, "GROUP_COLUMNS", cells)
                    passes[cells] = fl._propagate(*table, kp, kd, pm.period)
            assert passes[None].tobytes() == passes[1].tobytes(), (steps, count)
            assert passes[5].tobytes() == passes[1].tobytes(), (steps, count)


# Butcher's 7-stage order-6 tableau, written out here apart from the
# engine's: nodes in sixths of a step, a-rows and weights
_REF_NODES = (0, 2, 4, 2, 3, 3, 6)
_REF_A = (
    (),
    (1 / 3,),
    (0.0, 2 / 3),
    (1 / 12, 1 / 3, -1 / 12),
    (-1 / 16, 9 / 8, -3 / 16, -3 / 8),
    (0.0, 9 / 8, -3 / 8, -3 / 4, 1 / 2),
    (9 / 44, -9 / 11, 63 / 44, 18 / 11, 0.0, -16 / 11),
)
_REF_B = (11 / 120, 0.0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120)


def _reference_rk6(params, exc, gains, steps: int) -> np.ndarray:
    """The monodromy matrix of one cell by the plain Butcher loop over one
    period in ``steps`` steps, with the dense A at the cell's own gains
    from ``PeriodicMatrix.table``."""
    from levstab.linearized import periodic_matrix

    pm = periodic_matrix(params, exc, gains)
    a, _ = pm.table(6 * steps)
    h = pm.period / steps
    x = np.eye(6)
    for i in range(steps):
        k = []
        for node, row in zip(_REF_NODES, _REF_A):
            y = x + h * sum((c * kj for c, kj in zip(row, k)), np.zeros((6, 6)))
            k.append(a[6 * i + node] @ y)
        x = x + h * sum(b * kj for b, kj in zip(_REF_B, k))
    return x


def test_propagate_matches_reference_rk6(b0, exc_quarter):
    """_propagate's matrices at 25, 50 and 100 steps (the last in
    segments) equal the plain Butcher loop's to 1e-13 of their largest
    entry, at stable gains and at tongues a, b and d: a permuted stack row,
    a stage that reads the wrong derivatives or a wrong coefficient row
    moves them far more."""
    from levstab.floquet import _propagate
    from levstab.linearized import periodic_matrix

    e = all_ellipses(b0, exc_quarter)
    cells = [
        (STABLE.Kp, STABLE.Kd),
        (e["a"].h1, e["a"].h2),
        (e["b"].h1 + e["b"].k1, e["b"].h2),
        (e["d"].h1, e["d"].h2 + 3.0 * e["d"].k2),
    ]
    kp, kd = (np.array(col) for col in zip(*cells))
    pm = periodic_matrix(b0, exc_quarter, ControlGains(0.0, 0.0))
    for steps in (25, 50, 100):
        got = _propagate(*pm.table(6 * steps), kp, kd, pm.period)
        for c, (p, d) in enumerate(cells):
            ref = _reference_rk6(b0, exc_quarter, ControlGains(p, d), steps)
            assert np.abs(got[c] - ref).max() <= 1e-13 * np.abs(ref).max(), (steps, c)


def test_sweep_refuses_currents_that_underflow(exc_quarter, monkeypatch):
    """With m = 1e-300 and C = 1e300 the steady currents per unit gap,
    sqrt(m g/(2C)), underflow to zero, and the force-balance rows of A
    with them, so every cell would read marginal: the sweep refuses the
    parameters with a ``ValueError`` naming kappa^2 before any cell runs."""
    import levstab.floquet as fl

    params = PhysicalParams(m=1e-300, C=1e300, R=9.71, z0=0.015)
    for name in ("_propagate", "monodromy"):
        monkeypatch.setattr(fl, name, lambda *a, **k: pytest.fail("ran a cell"))
    with pytest.raises(ValueError, match=r"^kappa\^2 = m g/\(2C\) = 0\.0 is not a normal float"):
        sweep(params, exc_quarter, (1.0, 2.0), (1.0, 2.0), 3, 3, workers=1)


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
    """A cell whose batched result is not finite goes to monodromy; when that
    fails too, the cell is marked 'error' and the sweep still completes."""
    import levstab.floquet as fl

    real = fl._propagate
    calls = []

    def poisoned(a, g, kp, kd, period):
        m = real(a, g, kp, kd, period)
        m[(kp == 9000.0) & (kd == 2000.0)] = np.nan
        return m

    def failing(params, exc, gains, hyb=None):
        calls.append((gains.Kp, gains.Kd))
        raise RuntimeError("synthetic integrator failure")

    monkeypatch.setattr(fl, "_propagate", poisoned)
    monkeypatch.setattr(fl, "monodromy", failing)
    smap = fl.sweep(b0, exc_still, (9000.0, 10000.0), (2000.0, 3000.0), 2, 2,
                    workers=1)
    assert calls == [(9000.0, 2000.0)]
    assert smap.classes[0, 0] == "error"
    assert math.isnan(smap.max_mu[0, 0])
    assert len(smap.errors) == 1
    i, j, msg = smap.errors[0]
    assert (i, j) == (0, 0) and "synthetic integrator failure" in msg
    assert smap.meta["fallback_cells"] == 1
    # the other cells are classified normally
    assert smap.classes[1, 1] in {"stable", "divergence"}
    # the engine's record of the failed cell: no multipliers, no step count
    kp, kd = np.array([9000.0, 10000.0]), np.array([2000.0, 3000.0])
    record = _record(b0, exc_still, kp, kd)
    assert np.isnan(record["mu"][0]).all() and record["steps"][0] == 0
    assert "synthetic integrator failure" in record["error"][0] and record["error"][1] is None


@pytest.mark.parametrize("case", ["still", "inphase", "quarter", "antiphase", "hybrid"])
def test_batched_engine_matches_monodromy(case, b0):
    """Every cell of a 5x5 grid over the a, b and c tongues gets the class
    the scalar DOP853 monodromy gives and its max|mu| to 1e-9."""
    theta = {"inphase": 0.0, "antiphase": math.pi}.get(case, math.pi / 2)
    exc = ExcitationParams(A=0.0 if case == "still" else 0.005, Omega=80.0, theta=theta)
    hyb = HybridParams(beta=0.01) if case == "hybrid" else None
    kp_range, kd_range = default_map_window(b0, ExcitationParams(A=0.005, Omega=80.0, theta=theta))
    smap = sweep(b0, exc, kp_range, kd_range, 5, 5, hyb=hyb, workers=1)
    assert not smap.errors
    for i, kp in enumerate(smap.kp):
        for j, kd in enumerate(smap.kd):
            ref = monodromy(b0, exc, ControlGains(kp, kd), hyb=hyb)
            assert smap.classes[i, j] == classify(ref), (kp, kd)
            assert abs(smap.max_mu[i, j] - ref.max_modulus) <= 1e-9 * max(1.0, ref.max_modulus)


def test_sweep_routes_band_edge_cell_to_monodromy(monkeypatch, b0, exc_still):
    """A cell whose max|mu| lies within the engine's margin of the class edge
    1 + EPS is classified by monodromy.  At A = 0 the multipliers are
    exp(lambda T), so bisection on the static spectrum places a gain there."""
    import levstab.floquet as fl

    kd = 2000.0

    def excess(kp):
        lam = unexcited_spectrum(b0, ControlGains(kp, kd)).all
        return float(np.max(np.exp(lam.real * exc_still.period))) - (1.0 + fl.EPS)

    lo, hi = h0_gain(b0) - 100.0, h0_gain(b0) + 100.0
    assert excess(lo) > 0.0 > excess(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    edge = lo
    real = fl.monodromy
    calls = []

    def counting(params, exc, gains, hyb=None):
        calls.append((gains.Kp, gains.Kd))
        return real(params, exc, gains, hyb=hyb)

    monkeypatch.setattr(fl, "monodromy", counting)
    smap = fl.sweep(b0, exc_still, (edge, edge + 2000.0), (kd, kd + 500.0), 2, 2, workers=1)
    assert (edge, kd) in calls
    assert smap.meta["fallback_cells"] == len(calls) < 4
    assert smap.classes[0, 0] == classify(real(b0, exc_still, ControlGains(edge, kd)))


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
    hyb = HybridParams(beta=beta)
    shifted = PhysicalParams(m=b0.m, C=b0.C, R=b0.R, z0=b0.z0 + beta)
    kp_range, kd_range = (10500.0, 12500.0), (2330.0, 2380.0)
    std = sweep(shifted, exc_quarter, kp_range, kd_range, 3, 3, workers=1)
    hybm = sweep(b0, exc_quarter, kp_range, kd_range, 3, 3, hyb=hyb, workers=1)
    assert np.array_equal(std.classes, hybm.classes)
    np.testing.assert_allclose(std.max_mu, hybm.max_mu, rtol=1e-9)


def test_boundary_crossing_left_edge_of_principal_tongue(b0, exc_inphase):
    """Scanning Kd = h2,a across ellipse a, the period-doubling test
    function -det(M + I) crosses zero twice, first at the left edge
    h1 - k1."""
    ea = all_ellipses(b0, exc_inphase)["a"]
    scan = ((ea.h1 - 1.6 * ea.k1, ea.h2), (ea.h1 + 1.6 * ea.k1, ea.h2))
    pts = boundary_crossings(b0, exc_inphase, scan, _psi_pd)
    assert len(pts) == 2
    kp_cross, kd_cross = pts[0]
    assert kd_cross == ea.h2
    assert kp_cross == pytest.approx(ea.h1 - ea.k1, abs=0.01 * ea.k1)


def test_boundary_crossing_signature_indicator_finds_both_edges(b0, exc_antiphase):
    """The combination family's test function det(C2(M) - I), zero where
    two multipliers' product passes 1, separates the two edges of tongue c:
    it crosses zero at h1 - k1 and at h1 + k1."""
    ec = all_ellipses(b0, exc_antiphase)["c"]
    scan = ((ec.h1 - 1.6 * ec.k1, ec.h2), (ec.h1 + 1.6 * ec.k1, ec.h2))
    (left, _), (right, _) = boundary_crossings(b0, exc_antiphase, scan, _psi_ns)
    assert left == pytest.approx(ec.h1 - ec.k1, abs=0.02 * ec.k1)
    assert right == pytest.approx(ec.h1 + ec.k1, abs=0.02 * ec.k1)


def test_boundary_crossing_static_vertical_line(b0, exc_still):
    """With A = 0 a horizontal scan crosses the divergence boundary at Kp =
    h0, to DELTA of the scan.  The supports are alike, so M keeps the
    supports' symmetric states, (d1 + d2, v1 + v2, I1 + I2), to themselves:
    det(M - I) on them has a simple root at h0, where the translation's
    real multiplier passes 1.  det(M - I) on all six states touches zero
    there without a sign change, the rotation's multiplier passing 1 too,
    so it has no crossing."""
    h0 = h0_gain(b0)
    scan = ((h0 - 800.0, 2000.0), (h0 + 800.0, 2000.0))
    q = np.vstack([np.eye(3), np.eye(3)]) / math.sqrt(2.0)
    pts = boundary_crossings(b0, exc_still, scan, lambda m: np.linalg.det(q.T @ m @ q - np.eye(3)))
    assert len(pts) == 1
    assert pts[0][0] == pytest.approx(h0, abs=1600.0 * DELTA)
    assert boundary_crossings(b0, exc_still, scan, lambda m: np.linalg.det(m - np.eye(6))) == []


def test_boundary_crossing_stable_scan_empty(b0, exc_quarter):
    lines = static_boundary_lines(b0)
    kd = 2000.0  # off every tongue center at Omega = 80
    lo = lines.h0 + 0.35 * (lines.inclined(kd) - lines.h0)
    hi = lines.h0 + 0.65 * (lines.inclined(kd) - lines.h0)
    for psi in (_psi_pd, _psi_ns):
        assert boundary_crossings(b0, exc_quarter, ((lo, kd), (hi, kd)), psi) == []


def _from_roots(roots, extra=()):
    """Chebyshev coefficients of prod (x - r) over ``roots``, times the
    polynomials whose monomial coefficients (lowest first) ``extra`` lists,
    built by x T_0 = T_1 and x T_k = (T_{k-1} + T_{k+1}) / 2."""
    def times_x(c):
        out = np.zeros(c.size + 1)
        out[1] += c[0]
        for k in range(1, c.size):
            out[k - 1] += 0.5 * c[k]
            out[k + 1] += 0.5 * c[k]
        return out

    coef = np.array([1.0])
    for poly in [(-r, 1.0) for r in roots] + list(extra):
        power, total = coef, np.zeros(coef.size + len(poly) - 1)
        for a in poly:
            total[: power.size] += a * power
            power = times_x(power)
        coef = total
    return coef


@pytest.mark.parametrize("roots, extra", [
    # simple roots inside and within 1e-12 of the ends, with a real root
    # outside and a complex pair
    ((-1.0 + 1e-12, -0.5, 1.0 / 3.0, 1.0 - 1e-12), ((-1.5, 1.0), (0.25, 0.0, 1.0))),
    # roots at both ends
    ((-1.0, 0.2, 1.0), ()),
    ((0.0,), ()),
    ((-0.9, 0.8, 0.999999), ((2.0, 1.0),)),
    # no real root in [-1, 1]: real roots outside it and complex pairs
    ((), ((-1.1, 1.0), (3.0, 1.0), (0.01, 0.0, 1.0), (1.0, 0.2, 1.0))),
    # a constant, with trailing zero coefficients
    ((), ((2.0, 0.0, 0.0),)),
])
def test_chebyshev_roots_of_known_series(roots, extra):
    """The colleague matrix gives a Chebyshev series' real roots in [-1, 1]
    in ascending order, and none of its roots outside or off the axis."""
    got = _chebyshev_roots(_from_roots(roots, extra))
    np.testing.assert_allclose(got, sorted(roots), rtol=0.0, atol=1e-12)


def test_test_functions_are_products_over_multipliers():
    """On seeded random 6x6 matrices, -det(M + I) equals -prod(mu_i + 1)
    and det(C2(M) - I) equals prod_{i<j}(mu_i mu_j - 1), to 1e-10
    relative."""
    m = np.random.default_rng(7).normal(size=(20, 6, 6))
    mu = np.linalg.eigvals(m)
    i, j = np.triu_indices(6, 1)
    pd = -np.prod(mu + 1.0, axis=1)
    ns = np.prod(mu[:, i] * mu[:, j] - 1.0, axis=1)
    assert np.all(np.abs(pd.imag) <= 1e-10 * np.abs(pd)) and np.all(np.abs(ns.imag) <= 1e-10 * np.abs(ns))
    np.testing.assert_allclose(_psi_pd(m), pd.real, rtol=1e-10)
    np.testing.assert_allclose(_psi_ns(m), ns.real, rtol=1e-10)


def _gain_engine(monkeypatch):
    """Replace the engine by one whose every monodromy matrix holds Kp at
    [0, 0], whatever the step count."""
    import levstab.floquet as fl

    def propagate(a, g, kp, kd, period):
        m = np.zeros((kp.size, 6, 6))
        m[:, 0, 0] = kp
        return m

    monkeypatch.setattr(fl, "_propagate", propagate)


@pytest.mark.parametrize("roots", [
    (0.1234567, 0.5 + 1e-4, 0.81, 0.999),
    (0.0, 0.5),
    (1e-3, 1.0),
])
def test_boundary_crossings_certify_the_roots_of_a_known_function(monkeypatch, b0, exc_still, roots):
    """With a stand-in engine that returns Kp, and a scan of Kp over [0, 1]
    at Kd = 0, the crossings of a polynomial in Kp are its roots, in scan
    order, whether inside the scan or at its ends."""
    _gain_engine(monkeypatch)
    got = boundary_crossings(b0, exc_still, ((0.0, 0.0), (1.0, 0.0)),
                             lambda m: np.prod([m[:, 0, 0] - r for r in roots], axis=0))
    np.testing.assert_allclose([kp for kp, _ in got], roots, rtol=0.0, atol=1e-10)
    assert all(kd == 0.0 for _, kd in got)


@pytest.mark.parametrize("psi", [
    # two crossings closer than DELTA of the scan: psi keeps its sign across either
    lambda kp: (kp - 0.4) * (kp - 0.4 - DELTA),
    # a test function that is zero everywhere has no certain sign anywhere
    lambda kp: 0.0 * kp,
    # nor does one that is not finite
    lambda kp: np.full(kp.shape, np.nan),
])
def test_boundary_crossings_unresolved_raise(monkeypatch, b0, exc_still, psi):
    """A scan whose signs cannot be certified at MAX_STEPS raises
    FloquetError rather than return crossings it has not confirmed."""
    _gain_engine(monkeypatch)
    with pytest.raises(FloquetError, match="unresolved"):
        boundary_crossings(b0, exc_still, ((0.0, 0.0), (1.0, 0.0)), lambda m: psi(m[:, 0, 0]))


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


def test_resolve_workers_one_without_fork(monkeypatch):
    """Where ``os.fork`` is missing every count is 1, once it has been
    checked: a malformed LEVSTAB_THREADS is still bad input."""
    monkeypatch.delattr(os, "fork")
    monkeypatch.setenv("LEVSTAB_THREADS", "0")
    assert resolve_workers() == resolve_workers(0) == resolve_workers(4) == 1
    monkeypatch.setenv("LEVSTAB_THREADS", "two")
    with pytest.raises(ValueError, match="LEVSTAB_THREADS"):
        resolve_workers()
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_tongue_edge_scans_integrate_each_gain_once(monkeypatch, b0, exc_inphase):
    """tongue_edges finds both edges in one boundary_crossings call, which
    runs no scalar monodromy and propagates each gain point once per step
    count: tongue a's is certified at 50 steps, which reads the NODES nodes
    and the two points around each edge at 50 steps and at 25.  A second
    call propagates the same points again, so no state outlives a call."""
    import levstab.floquet as fl
    from levstab import validation

    ea = all_ellipses(b0, exc_inphase)["a"]
    real_propagate, real_crossings = fl._propagate, fl.boundary_crossings
    seen, scans = [], []

    def propagating(a, g, kp, kd, period):
        seen.extend(((len(a) - 1) // 6, p, d) for p, d in zip(kp, kd))
        return real_propagate(a, g, kp, kd, period)

    def crossings(params, exc, scan, indicator):
        scans.append(scan)
        return real_crossings(params, exc, scan, indicator)

    def no_monodromy(*args, **kwargs):
        raise AssertionError("a scan ran the scalar monodromy")

    monkeypatch.setattr(fl, "_propagate", propagating)
    monkeypatch.setattr(fl, "boundary_crossings", crossings)
    monkeypatch.setattr(fl, "monodromy", no_monodromy)
    edges = validation.tongue_edges(b0, exc_inphase, ea)
    first = list(seen)
    assert len(scans) == 1
    assert len(first) == len(set(first)) == 2 * (NODES + 4)
    assert {steps for steps, _, _ in first} == {25, 50}

    seen.clear()
    assert validation.tongue_edges(b0, exc_inphase, ea) == edges
    assert len(scans) == 2 and seen == first


def test_engine_passes_run_in_a_fixed_order(monkeypatch, b0, exc_quarter):
    """Every ``_propagate`` pass, as (step count, points), in order, for the
    scans and the map's cells.  At A = 1e-8 tongue a's scan (theta = 0) is
    certified at its nodes at 50 steps but not at its edges' end points,
    so it runs again at 100; tongue d's (theta = pi) doubles to 400.  Of a
    3x3 map on which cells settle at 50, 100 and 200 steps, one cell whose
    matrices are not finite leaves the engine for DOP853 after the base
    pair."""
    import levstab.floquet as fl
    from levstab import validation

    real = fl._propagate
    passes = []

    def recorded(a, g, kp, kd, period):
        passes.append(((len(a) - 1) // 6, kp.size))
        m = real(a, g, kp, kd, period)
        m[(kp == 8000.0) & (kd == 30500.0)] = np.nan
        return m

    monkeypatch.setattr(fl, "_propagate", recorded)
    for theta, kind, order in (
        (0.0, "a", [(25, 32), (50, 32), (50, 4), (25, 4), (100, 32), (100, 4), (50, 4)]),
        (math.pi, "d", [(25, 32), (50, 32), (100, 32), (200, 32), (400, 32), (400, 4), (200, 4)]),
    ):
        exc = ExcitationParams(A=1e-8, Omega=80.0, theta=theta)
        passes.clear()
        validation.tongue_edges(b0, exc, all_ellipses(b0, exc)[kind])
        assert passes == order

    kp, kd = np.linspace(8000.0, 30000.0, 3), np.linspace(1000.0, 60000.0, 3)
    passes.clear()
    record = _record(b0, exc_quarter, np.repeat(kp, 3), np.tile(kd, 3))
    assert passes == [(25, 9), (50, 9), (100, 5), (200, 3)]
    assert record["steps"].tolist() == [50, 0, 200, 50, 100, 200, 50, 100, 200]


@pytest.mark.parametrize("kind,exc_name", [
    ("a", "exc_inphase"), ("b", "exc_inphase"), ("c", "exc_antiphase"), ("d", "exc_antiphase"),
])
def test_tongue_edges_match_rank_indicator_searches(request, b0, kind, exc_name):
    """Each edge's certified bracket holds the sign change of the rank
    indicator that marks it, by the scalar monodromy: the largest
    signature modulus of the tongue's family passes 1 within DELTA of the
    scan around the left edge, and the second largest around the right
    one, where the partner multiplier leaves the unit circle too."""
    from levstab.validation import SCAN_HALF_WIDTH, tongue_edges

    exc = request.getfixturevalue(exc_name)
    ell = all_ellipses(b0, exc)[kind]
    family = "principal" if kind in "ab" else "combination"
    delta = 2.0 * SCAN_HALF_WIDTH * ell.k1 * DELTA

    def ranked(kp, rank):
        moduli = _signature_moduli(monodromy(b0, exc, ControlGains(kp, ell.h2)).multipliers, family)
        return moduli[rank] - 1.0 if len(moduli) > rank else -1.0

    for edge, rank in zip(tongue_edges(b0, exc, ell), (0, 1)):
        assert ranked(edge - delta, rank) < 0.0 < ranked(edge + delta, rank)


def test_monodromy_det_error_is_nan_where_liouville_underflows(underflow_doc):
    """Where exp(-R z0 T / C) underflows to 0 no relative error of det M is
    defined: ``det_rel_err`` is NaN, and ``monodromy`` divides by nothing,
    so it warns of nothing."""
    import warnings

    from levstab.config import parse_config

    cfg = parse_config(underflow_doc)
    (_, kp), (_, kd) = default_map_window(cfg.params, cfg.exc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = monodromy(cfg.params, cfg.exc, ControlGains(Kp=kp, Kd=kd))
    assert res.stats["nfev"] > 0 and math.isnan(res.stats["det_rel_err"])
    assert classify(res) == "stable"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5(d): the engine's det M check is relative to exp(-R z0 T / C), and at "
    "R z0 T / C = 100 it fails on every cell, so all 25 go to DOP853, which gives them "
    "the same classes"
))
def test_damped_map_keeps_its_cells_on_the_engine(underflow_doc):
    """On a plant whose Liouville value exp(-R z0 T / C) is small but
    representable (R z0 T / C = 100), the batched engine keeps every cell
    of a 5x5 default window, with DOP853's classes."""
    import dataclasses

    from levstab.config import parse_config

    cfg = parse_config(underflow_doc)
    params = cfg.params
    exc = dataclasses.replace(cfg.exc, Omega=0.06760946216681478)
    assert params.R * params.z0 * exc.period / params.C == pytest.approx(100.0, rel=1e-12)
    kp_range, kd_range = default_map_window(params, exc)
    smap = sweep(params, exc, kp_range, kd_range, 5, 5, workers=1)
    for i, kp in enumerate(smap.kp):
        for j, kd in enumerate(smap.kd):
            ref = monodromy(params, exc, ControlGains(Kp=float(kp), Kd=float(kd)))
            assert smap.classes[i, j] == classify(ref)
    assert smap.meta["fallback_cells"] == 0


def test_map_metadata_round_trip(tmp_path, b0, exc_quarter):
    import json

    smap = sweep(b0, exc_quarter, (10000.0, 11000.0), (2000.0, 2100.0), 2, 2,
                 workers=1)
    path = tmp_path / "meta.json"
    config = {"physical": {"m": b0.m}}
    write_map_metadata(smap, path, exc_quarter, "x.y.z", config)
    doc = json.loads(path.read_text())
    assert doc["grid"]["nx"] == 2 and doc["grid"]["ny"] == 2
    assert doc["config"] == config and "physical" not in doc
    assert doc["excitation"]["Omega"] == exc_quarter.Omega
    assert doc["version"] == "x.y.z"
    assert doc["grid"]["rtol"] == 1e-10
    assert (doc["grid"]["atol"], doc["grid"]["eps"]) == (1e-12, 1e-6)
    grid = doc["grid"]
    assert (grid["method"], grid["workers"]) == (
        "RK6 (Butcher 7-stage, Richardson-checked) + DOP853 fallback", 1
    )
    assert sum(grid["cells_by_steps"].values()) + grid["fallback_cells"] == 4
    assert set(grid["cells_by_steps"]) <= {"50", "100", "200", "400"}
    assert 0.0 <= grid["richardson_max"] <= 1e-9
    assert 0.0 <= grid["det_rel_err_max"] <= 1e-8
    assert doc["cell_errors"] == []
    # the engine fields are reductions of the engine's record of the cells
    record = _record(b0, exc_quarter, np.repeat(smap.kp, 2), np.tile(smap.kd, 2))
    steps = [int(n) for n in record["steps"]]
    assert grid["cells_by_steps"] == {str(n): steps.count(n) for n in sorted(set(steps) - {0})}
    assert grid["fallback_cells"] == steps.count(0)
    for key, field in (("richardson_max", "richardson"), ("det_rel_err_max", "det_rel_err")):
        assert grid[key] == max([0.0, *(x for x in record[field] if not math.isnan(x))]), key
