"""Configuration parsing/round-trip and the command-line surface, including
exit codes and file products."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import levstab
from levstab import ControlGains, all_ellipses, monodromy
from levstab.cli import (
    DEFAULT_CONFIG,
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    main,
)
from levstab.config import ConfigError, dump_config, load_config, parse_config


B0_DOC = {
    "physical": {"m": 7650.0, "C": 0.05, "R": 9.71, "z0": 0.015},
    "excitation": {"A": 0.005, "Omega": 80.0, "theta": math.pi / 2},
}
GAINS_ARGS = ["--kp", "10600", "--kd", "3000"]


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- config


def test_parse_minimal_config():
    cfg = parse_config(B0_DOC)
    assert cfg.params.m == 7650.0
    assert cfg.params.J == pytest.approx(5737.5)
    assert cfg.exc.theta == pytest.approx(math.pi / 2)
    assert cfg.gains is None and cfg.hybrid is None


def test_parse_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({**B0_DOC, "physical": {**B0_DOC["physical"], "mass": 1.0}})
    with pytest.raises(ConfigError, match="missing key"):
        parse_config({"physical": {"m": 1.0, "C": 0.1, "R": 1.0},
                      "excitation": {"A": 0.0, "Omega": 1.0}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({**B0_DOC, "extras": {}})
    with pytest.raises(ConfigError, match="missing key"):
        parse_config({"physical": B0_DOC["physical"]})


def test_parse_rejects_mixed_excitation():
    doc = {**B0_DOC, "excitation": {"A": 0.005, "Omega": 80.0, "v": 38.0, "d": 0.75}}
    with pytest.raises(ConfigError, match="not a mixture"):
        parse_config(doc)
    with pytest.raises(ConfigError, match="both v and d"):
        parse_config({**B0_DOC, "excitation": {"A": 0.005, "v": 38.0}})
    with pytest.raises(ConfigError, match="Omega"):
        parse_config({**B0_DOC, "excitation": {"A": 0.005}})


def test_parse_rejects_non_numbers():
    doc = {**B0_DOC, "physical": {**B0_DOC["physical"], "m": True}}
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(doc)
    doc = {**B0_DOC, "physical": {**B0_DOC["physical"], "m": "7650"}}
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(doc)


def test_parse_enforces_model_invariants():
    doc = {**B0_DOC, "excitation": {"A": 0.02, "Omega": 80.0}}
    with pytest.raises(ConfigError, match="A >= z0"):
        parse_config(doc)
    doc = {**B0_DOC, "physical": {**B0_DOC["physical"], "m": -1.0}}
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config(doc)


def test_parse_kinematic_form_warns_and_converts():
    doc = {**B0_DOC, "excitation": {"A": 0.005, "v": 38.197186342054884, "d": 0.75}}
    with pytest.warns(UserWarning, match="transposed"):
        cfg = parse_config(doc)
    assert cfg.exc.Omega == pytest.approx(80.0, rel=1e-12)
    assert cfg.exc.theta == pytest.approx(math.pi / 2, rel=1e-12)


def test_parse_hybrid_block():
    doc = {**B0_DOC, "hybrid": {"beta": 0.01}}
    cfg = parse_config(doc)
    assert cfg.hybrid.beta == 0.01
    assert cfg.hybrid.gamma == pytest.approx(21.657, rel=1e-3)
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config({**B0_DOC, "hybrid": {"beta": -0.01}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({**B0_DOC, "hybrid": {"beta": 0.01, "gamma": 1.0}})


def test_config_round_trip_direct_form():
    doc = {**B0_DOC, "gains": {"Kp": 11000.0, "Kd": 2500.0},
           "hybrid": {"beta": 0.005}}
    cfg = parse_config(doc)
    again = parse_config(dump_config(cfg))
    assert again == cfg


def test_config_round_trip_kinematic_form():
    doc = {**B0_DOC, "excitation": {"A": 0.005, "v": 38.197186342054884, "d": 0.75}}
    with pytest.warns(UserWarning):
        cfg = parse_config(doc)
    emitted = dump_config(cfg)
    assert emitted["excitation"] == {"A": 0.005, "v": 38.197186342054884, "d": 0.75}
    with pytest.warns(UserWarning):
        again = parse_config(emitted)
    assert again == cfg


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


def test_default_config_is_valid():
    cfg = parse_config(DEFAULT_CONFIG)
    assert cfg.exc.A == 0.005 and cfg.exc.Omega == 80.0


# ------------------------------------------------------------------- cli


def test_cli_ellipses_quarter_phase(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["ellipses", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads((out / "ellipses.json").read_text())
    ells = {e["kind"]: e for e in doc["ellipses"]}
    assert not any(e["degenerate"] for e in ells.values())
    k1s = [ells[k]["k1"] for k in ("a", "c", "b", "d")]
    assert k1s == sorted(k1s)
    assert doc["static_lines"]["h0"] == pytest.approx(8411.7, rel=1e-4)
    for kind in "abcd":
        rows = (out / f"ellipse_{kind}.csv").read_text().splitlines()
        assert rows[0] == "s,Kp,Kd" and len(rows) == 65
    # the emitted config reloads identically
    assert parse_config(doc["config"]) == parse_config(DEFAULT_CONFIG)


def test_cli_ellipses_theta_override_degenerate(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["ellipses", "--theta", "0", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads((out / "ellipses.json").read_text())
    ells = {e["kind"]: e for e in doc["ellipses"]}
    assert ells["c"]["degenerate"] and ells["d"]["degenerate"]
    assert not ells["a"]["degenerate"] and not ells["b"]["degenerate"]
    assert "degenerate" in capsys.readouterr().out
    rc = main(["ellipses", "--theta", str(math.pi), "--out", str(out),
               "--format", "json"])
    doc = json.loads((out / "ellipses.json").read_text())
    ells = {e["kind"]: e for e in doc["ellipses"]}
    assert ells["a"]["degenerate"] and ells["b"]["degenerate"]


def test_cli_ellipses_format_filter(tmp_path):
    out = tmp_path / "csvonly"
    rc = main(["ellipses", "--out", str(out), "--format", "csv"])
    assert rc == EXIT_OK
    assert not (out / "ellipses.json").exists()
    assert (out / "ellipse_a.csv").exists()
    out2 = tmp_path / "jsononly"
    rc = main(["ellipses", "--out", str(out2), "--format", "json"])
    assert rc == EXIT_OK
    assert (out2 / "ellipses.json").exists()
    assert not (out2 / "ellipse_a.csv").exists()


def test_cli_map_smoke(tmp_path, capsys):
    out = tmp_path / "map"
    rc = main(["map", "--kp", "10000,12000", "--kd", "2000,2600",
               "--grid", "2,2", "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "map.csv").read_text().splitlines()
    assert rows[0] == "Kp,Kd,class,max_mu_abs"
    assert len(rows) == 5
    meta = json.loads((out / "map_meta.json").read_text())
    assert meta["grid"]["nx"] == 2
    assert parse_config(meta["config"]) == parse_config(DEFAULT_CONFIG)
    overlay = (out / "map_overlay.csv").read_text().splitlines()
    assert overlay[0] == "kind,s,Kp,Kd"
    assert len(overlay) == 1 + 4 * 64  # four non-degenerate ellipses
    assert "map 2x2:" in capsys.readouterr().out


def test_cli_map_bad_grid_and_ranges(tmp_path):
    assert main(["map", "--kp", "1,2", "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    assert main(["map", "--grid", "0,5", "--kp", "1,2", "--kd", "1,2",
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    assert main(["map", "--grid", "2", "--kp", "1,2", "--kd", "1,2",
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    assert main(["map", "--kp", "1;2", "--kd", "1,2",
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT


def test_cli_map_cell_errors_exit_code(tmp_path, monkeypatch, capsys):
    """Completed-with-cell-errors is a distinct, nonzero outcome."""
    import levstab.cli as cli
    import levstab.floquet as fl

    def broken_sweep(params, exc, kp_range, kd_range, nx, ny, **kwargs):
        smap = fl.sweep(params, exc, kp_range, kd_range, nx, ny, **kwargs)
        smap.classes[0, 0] = "error"
        smap.errors.append((0, 0, "synthetic failure"))
        return smap

    monkeypatch.setattr(cli, "sweep", broken_sweep)
    rc = main(["map", "--kp", "10000,12000", "--kd", "2000,2600",
               "--grid", "2,2", "--out", str(tmp_path)])
    assert rc == EXIT_RUNTIME
    assert "cell(s) failed" in capsys.readouterr().err
    meta = json.loads((tmp_path / "map_meta.json").read_text())
    assert meta["cell_errors"] == [[0, 0, "synthetic failure"]]


def test_cli_map_extreme_gains_fail_fast(tmp_path):
    """Gains of 1e12 overflow the batched engine and exhaust monodromy's RHS
    budget: every cell is classed 'error' and the map exits 3 within
    seconds, with no numpy RuntimeWarning on stderr."""
    src = Path(levstab.__file__).resolve().parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "levstab.cli", "map", "--kp", "1e12,2e12", "--kd", "1e3,2e3",
         "--grid", "2,2", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert time.perf_counter() - start < 30.0
    assert proc.returncode == EXIT_RUNTIME
    assert "Warning" not in proc.stderr
    rows = (tmp_path / "map.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["error"] * 4
    meta = json.loads((tmp_path / "map_meta.json").read_text())
    assert all("RHS evaluations" in msg for _, _, msg in meta["cell_errors"])


def test_cli_map_grid_over_cell_cap_rejected(tmp_path, monkeypatch, capsys):
    """A grid over MAX_GRID_CELLS is bad input: exit 2 at once, before any
    engine buffer is allocated, on one error line naming the limit.  A
    101x101 grid stays under the cap (engine stubbed out, so only the cap
    is exercised)."""
    from levstab import floquet

    start = time.perf_counter()
    rc = main(["map", "--grid", "2000,2000", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"MAX_GRID_CELLS = {floquet.MAX_GRID_CELLS}" in err
    assert not (tmp_path / "map.csv").exists()

    stats = {"steps": {}, "fallback": 0, "richardson_max": 0.0, "det_rel_err_max": 0.0}
    monkeypatch.setenv("LEVSTAB_THREADS", "1")
    monkeypatch.setattr(
        floquet, "_batched_cells",
        lambda params, exc, hyb, kp, kd: ([("stable", 0.5, None)] * kp.size, stats),
    )
    assert main(["map", "--grid", "101,101", "--out", str(tmp_path)]) == EXIT_OK
    assert len((tmp_path / "map.csv").read_text().splitlines()) == 1 + 101 * 101


def test_cli_simulate_periods_over_sample_cap_rejected(tmp_path, capsys):
    """--periods beyond MAX_SAMPLES output samples is bad input: exit 2 on
    one error line naming the limit, before the output grid is built."""
    from levstab.plant import MAX_SAMPLES

    rc = main(["simulate", "--kp", "10600", "--kd", "3000", "--periods", "1e9",
               "--out", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"MAX_SAMPLES = {MAX_SAMPLES}" in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_cli_simulate_stiff_gains_stop_at_rhs_budget(tmp_path):
    """Gains of 1e10 make the plant so stiff that DOP853 needs about 41,600
    RHS evaluations per period: over MAX_NFEV_PER_PERIOD the run stops
    within the first period, exit 3 on one error line naming the limit,
    instead of grinding through 1000 periods for half an hour.  Run in a
    fresh interpreter, so that no numpy RuntimeWarning from the rejected
    overflowing steps can hide behind a capture: stderr is that one line."""
    from levstab.plant import MAX_NFEV_PER_PERIOD

    src = Path(levstab.__file__).resolve().parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "levstab.cli", "simulate", "--kp", "1e10", "--kd", "1e10",
         "--periods", "1000", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert time.perf_counter() - start < 30.0
    assert proc.returncode == EXIT_RUNTIME
    err = proc.stderr
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"MAX_NFEV_PER_PERIOD = {MAX_NFEV_PER_PERIOD}" in err
    assert not (tmp_path / "trajectory.csv").exists()


_NO_SCIPY_SCRIPT = """
import json, sys
from levstab import ControlGains, all_ellipses, monodromy
from levstab.cli import DEFAULT_CONFIG, main
from levstab.config import parse_config
out = sys.argv[1]
seen = {"import": [0, "scipy" in sys.modules]}
for cmd in ("map", "ellipses", "resonance-chart", "steady-state"):
    seen[cmd] = [main([cmd, "--out", f"{out}/{cmd}"]), "scipy" in sys.modules]
rc = main(["simulate", "--kp", "10600", "--kd", "3000", "--periods", "1",
           "--out", f"{out}/simulate"])
seen["simulate"] = [rc, "scipy" in sys.modules]
cfg = parse_config(DEFAULT_CONFIG)
ea = all_ellipses(cfg.params, cfg.exc)["a"]
res = monodromy(cfg.params, cfg.exc, ControlGains(ea.h1, ea.h2))
seen["monodromy"] = [0 if res.stats["nfev"] > 0 else 1, "scipy" in sys.modules]
seen["process pool"] = [0, "concurrent.futures.process" in sys.modules]
print(json.dumps(seen))
"""


def test_cli_and_solvers_never_load_scipy(tmp_path):
    """In a fresh interpreter, importing the CLI, running the default map,
    ellipses, resonance-chart, steady-state and simulate, and a DOP853
    monodromy all leave scipy unloaded: the package integrates with its
    own DOP853.  The default map is under two engine blocks, so it starts
    no process pool and never imports one."""
    src = Path(levstab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": [EXIT_OK, False],
        "map": [EXIT_OK, False],
        "ellipses": [EXIT_OK, False],
        "resonance-chart": [EXIT_OK, False],
        "steady-state": [EXIT_OK, False],
        "simulate": [EXIT_OK, False],
        "monodromy": [0, False],
        "process pool": [0, False],
    }
    meta = json.loads((tmp_path / "map" / "map_meta.json").read_text())
    assert meta["grid"]["nx"] == meta["grid"]["ny"] == 21
    assert meta["grid"]["fallback_cells"] == 0


def test_cli_steady_state(tmp_path, capsys):
    out = tmp_path / "ss"
    rc = main(["steady-state", "--out", str(out)])
    assert rc == EXIT_OK
    with open(out / "steady_state.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "gap1", "gap1_rate", "I1", "U1",
                       "gap2", "gap2_rate", "I2", "U2"]
    assert len(rows) == 202
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    # I = kappa*gap and U = R*I hold in the export
    kappa = math.sqrt(7650.0 * 9.81 / (2.0 * 0.05))
    np.testing.assert_allclose(data[:, 3], kappa * data[:, 1], rtol=1e-12)
    np.testing.assert_allclose(data[:, 4], 9.71 * data[:, 3], rtol=1e-12)
    doc = json.loads((out / "steady_state.json").read_text())
    assert len(doc["samples"]["t"]) == 201


def test_cli_steady_state_hybrid(tmp_path, capsys):
    """With a hybrid config the export holds the hybrid plant's steady
    currents, the ones simulate starts from, not the standard plant's."""
    from levstab import steady_vehicle_state

    cfgp = _write(tmp_path, {**B0_DOC, "hybrid": {"beta": 0.01}})
    out = tmp_path / "ss"
    assert main(["steady-state", "--config", cfgp, "--out", str(out)]) == EXIT_OK
    with open(out / "steady_state.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cfg = load_config(cfgp)
    start = steady_vehicle_state(cfg.params, cfg.exc, 0.0, cfg.hybrid)
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["I1"]) == start.I1
    assert float(rows[0]["I2"]) == start.I2
    assert float(rows[0]["U1"]) == pytest.approx(9.71 * start.I1, rel=1e-12)
    assert f"I1 = {start.I1:.6g} A" in capsys.readouterr().out


def test_cli_resonance_chart(tmp_path, capsys):
    out = tmp_path / "chart"
    rc = main(["resonance-chart", "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("at Kd = ") == 4
    assert "(kind a, in range)" in text
    doc = json.loads((out / "resonance_chart.json").read_text())
    assert len(doc["intersections"]) == 8
    observed = {r["kind"]: r["Kd"] for r in doc["intersections"] if r["observed"]}
    assert observed["a"] == pytest.approx(2354.859205056027, rel=1e-9)
    assert observed["b"] == pytest.approx(7064.577615168081, rel=1e-9)
    assert observed["b"] == pytest.approx(3.0 * observed["a"], rel=1e-12)
    assert observed["d"] == pytest.approx(52730.725187642092, rel=1e-9)
    # doubling Omega quadruples every intersection
    doc2_dir = tmp_path / "chart2"
    cfgp = _write(tmp_path, {**B0_DOC,
                             "excitation": {"A": 0.005, "Omega": 160.0}})
    rc = main(["resonance-chart", "--config", cfgp, "--kd", "0,1000000",
               "--out", str(doc2_dir)])
    assert rc == EXIT_OK
    doc2 = json.loads((doc2_dir / "resonance_chart.json").read_text())
    obs2 = {r["kind"]: r["Kd"] for r in doc2["intersections"] if r["observed"]}
    for kind in "abcd":
        assert obs2[kind] == pytest.approx(4.0 * observed[kind], rel=1e-12)


def test_cli_resonance_chart_empty_range(tmp_path):
    rc = main(["resonance-chart", "--kd", "50,50", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "resonance_chart.json").read_text())
    assert not any(r["in_range"] for r in doc["intersections"])


def test_cli_simulate_stable(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--kp", "10600", "--kd", "3000",
               "--periods", "10", "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,z,zdot,phi,phidot,I1,I2,gap1,gap2"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.max(np.abs(data[:, 1] - 0.015)) < 1e-8
    meta = json.loads((out / "trajectory_meta.json").read_text())
    assert meta["mode"] == "standard"
    assert not meta["aborted"]
    assert meta["gains"] == {"Kp": 10600.0, "Kd": 3000.0}


def test_cli_simulate_requires_gains(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    assert "gains required" in capsys.readouterr().err


def test_cli_simulate_gap_closure_abort(tmp_path, capsys):
    """In-tongue gains with a hard pitch kick close a gap: exit 3 plus the
    partial trajectory up to the reported time."""
    cfg = parse_config(B0_DOC)
    ea = all_ellipses(cfg.params, cfg.exc)["a"]
    doc = {**B0_DOC,
           "excitation": {"A": 0.005, "Omega": 80.0, "theta": 0.0},
           "gains": {"Kp": ea.h1, "Kd": ea.h2}}
    cfgp = _write(tmp_path, doc)
    out = tmp_path / "abort"
    rc = main(["simulate", "--config", cfgp, "--periods", "400",
               "--perturb", "0,2e-3", "--out", str(out)])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "gap closed at t =" in err and "partial trajectory written" in err
    meta = json.loads((out / "trajectory_meta.json").read_text())
    assert meta["aborted"] and meta["abort_time"] > 0.0
    rows = (out / "trajectory.csv").read_text().splitlines()
    last = [float(v) for v in rows[-1].split(",")]
    assert last[0] == pytest.approx(meta["abort_time"], rel=1e-9)
    assert min(last[7], last[8]) == pytest.approx(0.01 * 0.015, rel=1e-6)


@pytest.mark.parametrize("message", ["Unable to allocate 1.46 TiB for an array", ""])
def test_cli_out_of_memory_is_runtime_failure(tmp_path, monkeypatch, capsys, message):
    """Running out of memory is a runtime failure (exit 3) reported on one
    error line, never a traceback or exit 1 ("validation failed")."""
    import levstab.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "integrate", exhausted)
    rc = main(["simulate", "--kp", "10600", "--kd", "3000", "--out", str(tmp_path)])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == f"error: {message or 'MemoryError'}\n"


def test_cli_simulate_growth_rate_matches_multiplier(tmp_path):
    """Inside a principal tongue the fitted exponential growth rate of the
    pitch oscillation reproduces ln|mu_max|/T."""
    cfg = parse_config(B0_DOC)
    exc0 = {"A": 0.005, "Omega": 80.0, "theta": 0.0}
    ea = all_ellipses(cfg.params, parse_config(
        {**B0_DOC, "excitation": exc0}).exc)["a"]
    doc = {**B0_DOC, "excitation": exc0, "gains": {"Kp": ea.h1, "Kd": ea.h2}}
    cfgp = _write(tmp_path, doc)
    out = tmp_path / "growth"
    periods = 400
    rc = main(["simulate", "--config", cfgp, "--periods", str(periods),
               "--perturb", "0,1e-6", "--out", str(out)])
    assert rc == EXIT_OK
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    t, phi = data[:, 0], data[:, 3]
    run = parse_config(doc)
    res = monodromy(run.params, run.exc, ControlGains(ea.h1, ea.h2))
    T = run.exc.period
    rate_pred = math.log(res.max_modulus) / T
    # strobe at every 2T (the period-doubled cycle) and fit the log envelope
    # over the late window where slower transients have died out
    stride = 2 * 200  # simulate samples 200 points per period
    ks = np.arange(120, periods // 2 - 5)
    amp = np.abs(phi[ks * stride])
    assert np.all(amp > 0.0)
    slope = np.polyfit(t[ks * stride], np.log(amp), 1)[0]
    assert slope == pytest.approx(rate_pred, rel=0.05)


def test_cli_simulate_hybrid_mode(tmp_path):
    doc = {**B0_DOC, "gains": {"Kp": 10600.0, "Kd": 3000.0},
           "hybrid": {"beta": 0.01}}
    cfgp = _write(tmp_path, doc)
    out = tmp_path / "hyb"
    rc = main(["simulate", "--config", cfgp, "--periods", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    meta = json.loads((out / "trajectory_meta.json").read_text())
    assert meta["mode"] == "hybrid"
    assert meta["config"]["hybrid"] == {"beta": 0.01}
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    # the hybrid steady state rides at z0 like the standard one
    assert np.max(np.abs(data[:, 1] - 0.015)) < 1e-8


# config additions, periods and (dz, dphi) of simulate runs that stream
STREAM_CASES = {
    "standard": ({}, 25, (1e-4, 5e-5)),
    "hybrid": ({"hybrid": {"beta": 0.01}}, 25, (1e-4, 5e-5)),
    # closes a gap at t = 0.0106 s, so the closure row ends the stream
    "gap-closure": ({}, 25, (0.0, 5e-3)),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_cli_simulate_stream_matches_in_process_writer(tmp_path, monkeypatch, case):
    """From _STREAM_ROWS planned rows on, simulate streams trajectory.csv
    through one writer process, unless a gap closure ends the run before
    _SPAWN_ROWS rows; its bytes equal those of write_trajectory_csv on the
    same run, the closure row included."""
    from dataclasses import replace

    from levstab.output import _SPAWN_ROWS, _STREAM_ROWS
    from levstab.plant import integrate, steady_vehicle_state, write_trajectory_csv

    extra, periods, (dz, dphi) = STREAM_CASES[case]
    doc = {**B0_DOC, "gains": {"Kp": 10600.0, "Kd": 3000.0}, **extra}
    assert 200 * periods + 1 >= _STREAM_ROWS
    cfg = parse_config(doc)
    start = steady_vehicle_state(cfg.params, cfg.exc, 0.0, cfg.hybrid)
    start = replace(start, z=start.z + dz, phi=start.phi + dphi)
    mode = "standard" if cfg.hybrid is None else "hybrid"
    traj = integrate(start, (0.0, periods * cfg.exc.period), cfg.params, cfg.exc, cfg.gains,
                     mode=mode, hyb=cfg.hybrid)
    write_trajectory_csv(traj, tmp_path / "reference.csv")
    assert traj.aborted == (case == "gap-closure")

    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", _write(tmp_path, doc), "--periods", str(periods),
               f"--perturb={dz!r},{dphi!r}", "--out", str(out)])
    assert rc == (EXIT_RUNTIME if traj.aborted else EXIT_OK)
    assert len(started) == (0 if traj.t.size < _SPAWN_ROWS else 1)
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv", "trajectory_meta.json"]


@pytest.mark.parametrize(
    "writer,message",
    [
        ("import sys; sys.exit(7)", "exited with status 7"),
        # 200 kB is under the 25-period run's 360 kB of frames
        ("import os, sys; sys.stdin.buffer.read(200_000); os.kill(os.getpid(), 9)",
         "was killed by signal 9"),
        ("", "exited before it had read every row"),
        (None, "integration failed here"),
    ],
    ids=["writer-exits-7", "writer-killed-mid-stream", "writer-stops-reading", "integration-fails"],
)
def test_cli_simulate_stream_failure_leaves_nothing(tmp_path, monkeypatch, capsys, writer, message):
    """A writer process that fails, dies mid-stream or stops reading, and
    an integration that fails mid-stream, end simulate with exit 3 on one
    error line; no trajectory.csv, no temporary file and no child process
    is left behind."""
    import levstab.cli as cli
    from levstab import output

    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    if writer is None:
        real = cli.integrate

        def failing(*args, sink, **kwargs):
            def send(columns):
                sink(columns)
                if columns[0][0] > 0.0:  # after the first block went out
                    raise RuntimeError(message)

            return real(*args, sink=send, **kwargs)

        monkeypatch.setattr(cli, "integrate", failing)
    else:
        monkeypatch.setattr(output, "_WRITER", (sys.executable, "-c", writer))
    out = tmp_path / "out"
    rc = main(["simulate", *GAINS_ARGS, "--periods", "25", "--perturb", "1e-4,5e-5",
               "--out", str(out)])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert list(out.iterdir()) == []
    assert len(started) == 1
    assert started[0].returncode is not None
    with pytest.raises(ChildProcessError):
        os.waitpid(started[0].pid, os.WNOHANG)


def _simulate_without_process(tmp_path, monkeypatch, periods, dz, dphi):
    """Run simulate with subprocess.Popen unable to start anything; assert
    that its trajectory.csv has the bytes write_trajectory_csv gives the
    same run, and return that run and simulate's exit code."""
    from dataclasses import replace

    from levstab.plant import integrate, steady_vehicle_state, write_trajectory_csv

    doc = {**B0_DOC, "gains": {"Kp": 10600.0, "Kd": 3000.0}}
    cfg = parse_config(doc)
    start = steady_vehicle_state(cfg.params, cfg.exc, 0.0)
    start = replace(start, z=start.z + dz, phi=start.phi + dphi)
    traj = integrate(start, (0.0, periods * cfg.exc.period), cfg.params, cfg.exc, cfg.gains)
    write_trajectory_csv(traj, tmp_path / "reference.csv")

    def no_process(*args, **kwargs):
        raise AssertionError("simulate started a process")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", _write(tmp_path, doc), "--periods", str(periods),
               f"--perturb={dz!r},{dphi!r}", "--out", str(out)])
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv", "trajectory_meta.json"]
    return traj, rc


def test_cli_simulate_early_closure_formats_in_process(tmp_path, monkeypatch):
    """A run that a gap closure ends within its first block of samples
    delivers fewer rows than the writer process is started for: simulate
    formats them in-process into the bytes of write_trajectory_csv."""
    from levstab.output import _SPAWN_ROWS

    traj, rc = _simulate_without_process(tmp_path, monkeypatch, 25, 0.0, 5e-3)
    assert rc == EXIT_RUNTIME
    assert traj.aborted and traj.t.size < _SPAWN_ROWS


def test_cli_simulate_short_plan_formats_in_process(tmp_path, monkeypatch):
    """A run planned under _STREAM_ROWS rows starts no writer process,
    though it delivers more than the _SPAWN_ROWS rows that start one on a
    longer plan: 19 periods, 3,801 rows, are formatted in-process into the
    bytes of write_trajectory_csv."""
    from levstab.output import _SPAWN_ROWS, _STREAM_ROWS

    traj, rc = _simulate_without_process(tmp_path, monkeypatch, 19, 1e-4, 5e-5)
    assert rc == EXIT_OK
    assert _SPAWN_ROWS < traj.t.size == 3801 < _STREAM_ROWS


@pytest.mark.parametrize(
    "argv,product",
    [
        (["map", "--grid", "2,2", "--kp", "10000,12000", "--kd", "2000,2600"], "map.csv"),
        (["simulate", *GAINS_ARGS, "--periods", "1"], "trajectory.csv"),
        (["simulate", *GAINS_ARGS, "--periods", "25"], "trajectory.csv"),
        (["ellipses", "--format", "json"], "ellipses.json"),
    ],
    ids=["map", "simulate-1", "simulate-25", "ellipses-json"],
)
def test_cli_unwritable_product_exits_3(tmp_path, capsys, argv, product):
    """A product that cannot be written, here because its path is a
    directory, ends the command with exit 3 on one error line, with no
    traceback and no temporary file left behind."""
    out = tmp_path / "out"
    (out / product).mkdir(parents=True)
    rc = main([*argv, "--out", str(out)])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and product in err
    assert [p.name for p in out.iterdir()] == [product]


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--grid", "2,2", "--kp=-1e308,1e308", "--kd", "0,1"],
        ["resonance-chart", "--kd=-1e308,1e308"],
    ],
    ids=["map", "resonance-chart"],
)
def test_cli_overflowing_range_is_bad_input(tmp_path, capsys, argv):
    """A gain range whose width hi - lo overflows is bad input: exit 2 on
    one error line, and no product written."""
    rc = main([*argv, "--out", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "wider than a float can hold" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--grid", "3,3", "--kp", "1e300,1e301", "--kd", "0,1"],
        ["simulate", "--kp", "1e300", "--kd", "1e300", "--periods", "1"],
    ],
    ids=["map", "simulate"],
)
def test_cli_overflowing_gains_raise_no_runtime_warning(tmp_path, argv):
    """Gains of 1e300 overflow the solver's step selection, stage sums and
    error norms.  In a fresh interpreter that turns every RuntimeWarning
    into an error, the command still exits 3 on its one stderr line, and
    no map cell failed on a warning."""
    src = Path(levstab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "levstab.cli", *argv,
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == EXIT_RUNTIME
    assert proc.stderr.count("\n") == 1, proc.stderr
    if argv[0] == "map":
        meta = json.loads((tmp_path / "map_meta.json").read_text())
        assert len(meta["cell_errors"]) == 9
        assert not any("Warning" in msg for _, _, msg in meta["cell_errors"])


def test_cli_simulate_rejects_start_with_closed_gap(tmp_path, monkeypatch, capsys):
    """A perturbation that puts an airgap below the contact threshold at
    the start is bad input, reported before any integration: the closure
    event fires only on a falling crossing and would never see it."""
    import levstab.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("integrated a start with a closed gap")

    monkeypatch.setattr(cli, "integrate", never)
    rc = main(["simulate", "--kp", "11841.56", "--kd", "4709.7", "--perturb", "0,1e-2",
               "--out", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "gap2" in err and "CLOSURE_FRACTION * z0 = 0.00015 m" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["ellipses"], ["simulate", *GAINS_ARGS]])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_cli_out_not_a_directory_is_bad_input(tmp_path, capsys, command, below):
    """--out naming an existing file, or a path below one, is bad input:
    exit 2 on one error line naming the path, not a traceback."""
    target = tmp_path / "taken"
    target.write_text("")
    out = target / "x" if below else target
    rc = main([*command, "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(out) in err


def test_cli_validate_unexcited_skips(tmp_path, capsys):
    """A = 0 rules out the parametric criteria; they must skip with a reason
    and the command still succeeds."""
    doc = {**B0_DOC, "excitation": {"A": 0.0, "Omega": 80.0}}
    cfgp = _write(tmp_path, doc)
    rc = main(["validate", "--config", cfgp, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "validation.json").read_text())
    by_index = {c["index"]: c for c in report["criteria"]}
    assert len(by_index) == 13
    for idx in (4, 5, 6, 7, 12, 13):
        assert by_index[idx]["status"] == "skip", idx
        assert by_index[idx]["reason"]
    for idx in (1, 2, 3, 8, 9, 10, 11):
        assert by_index[idx]["status"] == "pass", idx
    out = capsys.readouterr().out
    assert "SKIP" in out and "skipped=6" in out
    assert report["passed"] is True
    assert parse_config(report["config"]) == parse_config(doc)
    assert report["version"] == levstab.__version__


def test_cli_validate_failure_exit(tmp_path, monkeypatch, capsys):
    import levstab.cli as cli
    from levstab.validation import CriterionResult, ValidationReport

    canned = ValidationReport(criteria=[
        CriterionResult(index=1, name="x", status="pass", tolerance=0.0),
        CriterionResult(index=2, name="y", status="fail", tolerance=1e-9,
                        reason="synthetic"),
    ])
    monkeypatch.setattr(cli, "run_battery", lambda params, exc: canned)
    rc = main(["validate", "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["passed"] is False
    assert "failed=1" in capsys.readouterr().out


def test_fault_injection_breaks_ratio_criterion(monkeypatch, b0, exc_quarter):
    """Sensitivity check of the harness: scaling one printed half-axis by 1%
    must trip the exact axis-ratio criterion."""
    import levstab.boundaries as boundaries
    from levstab import validation

    real = boundaries.all_ellipses

    def skewed(params, exc):
        from dataclasses import replace

        ells = real(params, exc)
        return {**ells, "a": replace(ells["a"], k1=1.01 * ells["a"].k1)}

    monkeypatch.setattr(boundaries, "all_ellipses", skewed)
    ok, measured, detail = validation._c4_axis_ratios(b0, exc_quarter)
    assert not ok
    assert measured["k1b_over_k1a"] == pytest.approx(3.0 / 1.01, rel=1e-9)


def test_cli_bad_config_exit(tmp_path):
    doc = {**B0_DOC, "excitation": {"A": 0.005, "Omega": 80.0, "v": 1.0, "d": 1.0}}
    cfgp = _write(tmp_path, doc)
    assert main(["ellipses", "--config", cfgp, "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    assert main(["ellipses", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["simulate", "--kp", "nan", "--kd", "3000"], None),
        (["simulate"], {**B0_DOC, "gains": {"Kp": math.nan, "Kd": 3000.0}}),
        (["ellipses"], {**B0_DOC, "hybrid": {"beta": math.inf}}),
        (["map", "--kp", "nan,1", "--kd", "1,2", "--grid", "2,2"], None),
        (["resonance-chart", "--kd", "0,inf"], None),
        (["simulate", *GAINS_ARGS, "--perturb", "0,nan"], None),
        (["ellipses", "--theta", "nan"], None),
        (["ellipses", "--theta=-inf"], None),
        (["simulate", *GAINS_ARGS, "--periods", "0"], None),
        (["simulate", *GAINS_ARGS, "--periods", "-1"], None),
        (["simulate", *GAINS_ARGS, "--periods", "inf"], None),
        (["simulate", *GAINS_ARGS, "--periods", "nan"], None),
        (["map", "--format", "csv"], None),
        (["validate", "--format", "json"], None),
        (["simulate", *GAINS_ARGS, "--format", "csv"], None),
    ],
    ids=[
        "kp-flag-nan",
        "config-kp-nan",
        "config-beta-inf",
        "map-range-nan",
        "chart-range-inf",
        "perturb-nan",
        "theta-nan",
        "theta-minus-inf",
        "periods-zero",
        "periods-negative",
        "periods-inf",
        "periods-nan",
        "map-format",
        "validate-format",
        "simulate-format",
    ],
)
def test_cli_rejects_nonfinite_input(tmp_path, capsys, argv, doc):
    """Non-finite numbers, a non-positive duration and --format on a command
    with a single output format are bad input at every entry point: exit 2
    with an error line, never a hang or a traceback."""
    if doc is not None:
        argv = [*argv, "--config", _write(tmp_path, doc)]
    try:
        rc = main([*argv, "--out", str(tmp_path / "out")])
    except SystemExit as stop:
        # argparse rejects an option the subcommand does not take, with its
        # own usage line ahead of the error line
        assert stop.code == EXIT_BAD_INPUT
        assert "error: unrecognized arguments: --format" in capsys.readouterr().err
        return
    assert rc == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def _write_csv_per_cell(path, header, columns):
    """The CSV writer as first written: one ``format(v, ".17g")`` per cell."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(v if isinstance(v, str) else format(v, ".17g") for v in row) + "\n")


def test_write_csv_matches_per_cell_format(tmp_path):
    """The row-template writer gives the bytes of per-cell formatting, for
    special and extreme floats, string columns as numpy, object and tuple
    columns, and more rows than one formatted block."""
    from levstab.output import _CSV_BLOCK, write_csv

    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.225e-308, 1e308, -1.7976931348623157e308, 0.1, 3]
    rng = np.random.default_rng(7)
    n = _CSV_BLOCK + 123
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    x[: len(special)] = special
    words = np.array(["stable", "marginal", "divergence"], dtype=object)[rng.integers(0, 3, n)]
    columns = [x, words, tuple(-x), np.array(words.tolist()), rng.integers(-5, 5, n)]
    write_csv(tmp_path / "new.csv", "x,cls,y,s,k", columns)
    _write_csv_per_cell(tmp_path / "old.csv", "x,cls,y,s,k", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    write_csv(tmp_path / "empty.csv", "a,b", [[], []])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


def test_csv_stream_matches_write_csv(tmp_path):
    """The writer process formats float columns into the bytes write_csv
    gives them, for special and extreme floats, blocks of any size, and no
    rows at all."""
    from levstab.output import csv_stream, write_csv

    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.225e-308, 1e308, -1.7976931348623157e308, 0.1, 3]
    rng = np.random.default_rng(11)
    n = 5000
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    x[: len(special)] = special
    columns = [x, -x[::-1], rng.standard_normal(n)]
    write_csv(tmp_path / "whole.csv", "a,b,c", columns)
    with csv_stream(tmp_path / "streamed.csv", "a,b,c", n) as send:
        for lo, hi in [(0, 1), (1, 1024), (1024, 4999), (4999, 5000)]:
            send([c[lo:hi] for c in columns])
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    with csv_stream(tmp_path / "empty.csv", "a,b", 0):
        pass
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.csv", "streamed.csv", "whole.csv"]
