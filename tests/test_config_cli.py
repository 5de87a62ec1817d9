"""Configuration parsing/round-trip and the command-line surface, including
exit codes and file products."""

import csv
import json
import math

import numpy as np
import pytest

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
    status, measured, detail, reason = validation._c4_axis_ratios(b0, exc_quarter)
    assert status == "fail"
    assert measured["k1b_over_k1a"] == pytest.approx(3.0 / 1.01, rel=1e-9)


def test_cli_bad_config_exit(tmp_path):
    doc = {**B0_DOC, "excitation": {"A": 0.005, "Omega": 80.0, "v": 1.0, "d": 1.0}}
    cfgp = _write(tmp_path, doc)
    assert main(["ellipses", "--config", cfgp, "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    assert main(["ellipses", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT


GAINS_ARGS = ["--kp", "10600", "--kd", "3000"]


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
    ],
)
def test_cli_rejects_nonfinite_input(tmp_path, capsys, argv, doc):
    """Non-finite numbers and a non-positive duration are bad input at every
    entry point: exit 2 with an error line, never a hang or a traceback."""
    if doc is not None:
        argv = [*argv, "--config", _write(tmp_path, doc)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")
