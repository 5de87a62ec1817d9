"""Configuration parsing/round-trip and the command-line surface, including
exit codes and file products."""

import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import levstab
from levstab import ControlGains, HybridParams, all_ellipses, monodromy
from levstab.cli import (
    DEFAULT_CONFIG,
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    main,
)
from levstab.config import ConfigError, RunConfig, dump_config, load_config, parse_config
from levstab.plant import MAX_SAMPLES, SAMPLES_PER_PERIOD


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


# configurations outside the physical range: (physical overrides of B0,
# the factor the error names)
OUT_OF_RANGE = {
    "m=1e-310": ({"m": 1e-310}, "kappa^2 = m g/(2C)"),
    "m=5e-324": ({"m": 5e-324}, "kappa^2 = m g/(2C)"),
    "m=1e-300,C=1e300": ({"m": 1e-300, "C": 1e300}, "kappa^2 = m g/(2C)"),
}


def _out_of_range_doc(case: str) -> dict:
    return {**B0_DOC, "physical": {**B0_DOC["physical"], **OUT_OF_RANGE[case][0]}}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_parse_rejects_parameters_outside_the_physical_range(case):
    factor = OUT_OF_RANGE[case][1]
    with pytest.raises(ConfigError, match=f"^{re.escape(factor)} = .* is not a normal float"):
        parse_config(_out_of_range_doc(case))


def test_parse_accepts_configurations_inside_the_physical_range(seed1, underflow_doc, monkeypatch):
    """B0, seed1, underflow_doc, the configurations of
    ``tools/compare_outputs.py`` inside the range, and the twelfth hybrid
    draw of the fuzz test, whose Liouville value underflows, all parse."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    from compare_outputs import CONFIGS
    from test_fuzz import CONFIGS as DRAWS, HYBRID_CONFIGS, SEED, _draw

    rng = np.random.default_rng(SEED)
    draws = [_draw(rng, hybrid=k >= DRAWS) for k in range(DRAWS + HYBRID_CONFIGS)]
    docs = {"B0": B0_DOC, "seed1": dump_config(RunConfig(*seed1)), "underflow_doc": underflow_doc}
    docs.update((name, doc) for name, doc in CONFIGS.items() if name != "out-of-range")
    docs["fuzz hybrid draw 12"] = draws[-1]
    assert len(docs) == 10 and "hybrid" in draws[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the kinematic caveat
        for doc in docs.values():
            parse_config(doc)


@pytest.mark.parametrize("case", OUT_OF_RANGE)
@pytest.mark.parametrize(
    "argv",
    [
        ["ellipses"],
        ["steady-state"],
        ["resonance-chart"],
        ["map", "--grid", "3,3"],
        ["simulate", *GAINS_ARGS, "--periods", "1"],
        ["validate"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_rejects_parameters_outside_the_physical_range(tmp_path, capsys, argv, case):
    """Every command refuses a configuration outside the physical range as
    bad input: exit 2, one ``error:`` line naming the factor, no numpy
    warning and no ``--out`` directory."""
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*argv, "--config", _write(tmp_path, _out_of_range_doc(case)), "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    printed = capsys.readouterr()
    assert printed.err.startswith(f"error: {OUT_OF_RANGE[case][1]} = ") and printed.err.count("\n") == 1
    assert printed.out == "" and caught == []
    assert not out.exists()


def test_parse_kinematic_form_warns_and_converts():
    doc = {**B0_DOC, "excitation": {"A": 0.005, "v": 38.197186342054884, "d": 0.75}}
    with pytest.warns(UserWarning, match="transposed"):
        cfg = parse_config(doc)
    assert cfg.exc.Omega == pytest.approx(80.0, rel=1e-12)
    assert cfg.exc.theta == pytest.approx(math.pi / 2, rel=1e-12)


def test_parse_hybrid_block():
    doc = {**B0_DOC, "hybrid": {"beta": 0.01}}
    cfg = parse_config(doc)
    assert cfg.hybrid == HybridParams(beta=0.01)
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
    import levstab.floquet as fl

    real = fl.sweep

    def broken_sweep(params, exc, kp_range, kd_range, nx, ny, **kwargs):
        smap = real(params, exc, kp_range, kd_range, nx, ny, **kwargs)
        smap.classes[0, 0] = "error"
        smap.errors.append((0, 0, "synthetic failure"))
        return smap

    monkeypatch.setattr(fl, "sweep", broken_sweep)
    rc = main(["map", "--kp", "10000,12000", "--kd", "2000,2600",
               "--grid", "2,2", "--out", str(tmp_path)])
    assert rc == EXIT_RUNTIME
    assert "cell(s) failed" in capsys.readouterr().err
    meta = json.loads((tmp_path / "map_meta.json").read_text())
    assert meta["cell_errors"] == [[0, 0, "synthetic failure"]]


def test_cli_map_worker_failure_exits_3(tmp_path, monkeypatch, capsys):
    """A forked sweep worker that exits nonzero makes the default map exit
    3 with one ``error:`` line naming its status and no traceback, and
    leaves no child behind."""
    import levstab.floquet as fl

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    engine, parent = fl._batched_cells, os.getpid()

    def child_exits_7(*args):
        return engine(*args) if os.getpid() == parent else os._exit(7)

    monkeypatch.setattr(fl, "_batched_cells", child_exits_7)
    assert main(["map", "--out", str(tmp_path)]) == EXIT_RUNTIME
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: a sweep worker (pid ") and err.endswith(") exited with status 7")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("value", ["-1", "two"])
@pytest.mark.parametrize("command", ["map", "validate", "simulate"])
def test_cli_bad_threads_variable_is_bad_input(tmp_path, monkeypatch, capsys, command, value):
    """A LEVSTAB_THREADS that is negative or no integer is bad input to the
    commands that may run a second process, the sweeps and simulate's CSV
    writer: exit 2 before any work, on one error line naming the variable,
    and no --out directory made."""
    monkeypatch.setenv("LEVSTAB_THREADS", value)
    gains = GAINS_ARGS if command == "simulate" else []
    assert main([command, *gains, "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: LEVSTAB_THREADS ") and err.count("\n") == 1, err
    assert repr(value) in err
    assert list(tmp_path.iterdir()) == []


def _child_runs_out(*args):
    raise MemoryError("child ran out")


def _no_fork():
    raise OSError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("fault,message", [
    ("child", "exited with status 1: MemoryError: child ran out"),
    ("fork", "cannot start a sweep worker: [Errno 11] Resource temporarily unavailable"),
], ids=["child-raises", "fork-fails"])
def test_cli_map_worker_fault_is_named(tmp_path, monkeypatch, capsys, fault, message):
    """A forked sweep worker whose engine raises makes the default map exit
    3 with one ``error:`` line that names what it raised; a worker that
    cannot be forked does so before any chunk has run.  Neither leaves a
    child behind."""
    import levstab.floquet as fl

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    engine, parent, ran = fl._batched_cells, os.getpid(), []

    def engine_here(*args):
        ran.append(args)
        return engine(*args) if os.getpid() == parent else _child_runs_out()

    monkeypatch.setattr(fl, "_batched_cells", engine_here)
    if fault == "fork":
        monkeypatch.setattr(os, "fork", _no_fork)
    assert main(["map", "--out", str(tmp_path)]) == EXIT_RUNTIME
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ") and err.endswith(message), err
    assert len(ran) == (fault == "child")
    _assert_no_child_left()


def _fresh_piped(argv, tmp_path):
    """Run a fresh process that sees two CPUs, prints a line and then runs
    ``levstab argv``, its standard output a pipe.  ``PYTHONUNBUFFERED`` is dropped, so that
    the line waits in the buffer that a forked child inherits.  Returns
    the process's stdout lines."""
    src = Path(levstab.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "print('before the command')\n"
        f"sys.argv = ['levstab', *{argv!r}, '--out', {str(tmp_path)!r}]\n"
        "from levstab.cli import entry\n"
        "entry()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**env, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc.stdout.splitlines()


def test_cli_map_piped_stdout_printed_once(tmp_path):
    """A fresh ``map`` process, its standard output a buffered pipe, prints
    each line once: the forked sweep worker leaves by ``os._exit``, so it
    does not flush the stdout buffer it inherits, here a line already
    printed."""
    lines = _fresh_piped(["map"], tmp_path)
    assert len(lines) == 2 and lines[0] == "before the command" and lines[1].startswith("map 21x21: ")
    assert json.loads((tmp_path / "map_meta.json").read_text())["grid"]["workers"] == 2


def test_cli_simulate_piped_stdout_printed_once(tmp_path):
    """A fresh ``simulate --periods 25`` process, its standard output a
    buffered pipe, prints each line once: its forked CSV writer leaves by
    ``os._exit`` and does not flush the line it inherits."""
    from levstab.output import _STREAM_ROWS

    assert 25 * SAMPLES_PER_PERIOD + 1 >= _STREAM_ROWS
    lines = _fresh_piped(["simulate", *GAINS_ARGS, "--periods", "25"], tmp_path)
    assert len(lines) == 2 and lines[0] == "before the command"
    assert lines[1].startswith("simulated 25.0 periods (standard)"), lines


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


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_cli_map_liouville_underflow_writes_strict_json(tmp_path, underflow_doc):
    """Where the Liouville value exp(-R z0 T / C) underflows to 0, a fresh
    ``map --grid 3,3`` exits 0 with nothing on stderr, and its
    ``map_meta.json`` parses with NaN and Infinity refused: the relative
    determinant errors are NaN, which ``det_rel_err_max`` passes over."""
    src = Path(levstab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "levstab.cli", "map", "--grid", "3,3",
         "--config", _write(tmp_path, underflow_doc), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    meta = json.loads((tmp_path / "out" / "map_meta.json").read_text(), parse_constant=_refuse_constant)
    assert meta["grid"]["fallback_cells"] == 9 and meta["cell_errors"] == []
    assert meta["grid"]["det_rel_err_max"] == 0.0


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

    def stable(params, exc, hyb, kp, kd, record):
        """Fill the record with cells all accepted at 50 steps, each with
        six multipliers of modulus 0.5."""
        record["mu"][:], record["steps"][:] = 0.5, 50
        record["richardson"][:] = record["det_rel_err"][:] = 0.0

    monkeypatch.setenv("LEVSTAB_THREADS", "1")
    monkeypatch.setattr(floquet, "_batched_cells", stable)
    assert main(["map", "--grid", "101,101", "--out", str(tmp_path)]) == EXIT_OK
    assert len((tmp_path / "map.csv").read_text().splitlines()) == 1 + 101 * 101


def test_cli_simulate_periods_over_sample_cap_rejected(tmp_path, capsys):
    """--periods beyond MAX_SAMPLES output samples is bad input: exit 2 on
    one error line naming the limit, before the output grid is built and
    before the --out directory is made."""
    rc = main(["simulate", "--kp", "10600", "--kd", "3000", "--periods", "1e9",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"MAX_SAMPLES = {MAX_SAMPLES}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("periods", [
    pytest.param("1e308", id="overflowing"),
    pytest.param(repr((MAX_SAMPLES + 1) / SAMPLES_PER_PERIOD), id="one-sample-over"),
    pytest.param(repr(MAX_SAMPLES / SAMPLES_PER_PERIOD), id="one-interval-over"),
])
def test_cli_simulate_sample_count_checked_before_rounding(tmp_path, capsys, periods):
    """A finite --periods whose sample count overflows to infinity, and
    those whose grid, both ends included, holds one or two samples over
    MAX_SAMPLES, are bad input: exit 2 on one error line naming the limit,
    not a failed conversion of the count to an integer, and no --out
    directory made."""
    rc = main(["simulate", *GAINS_ARGS, "--periods", periods, "--out", str(tmp_path / "out")])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"output samples exceed the limit of MAX_SAMPLES = {MAX_SAMPLES}" in err
    assert not (tmp_path / "out").exists()


def test_cli_simulate_periods_underflowing_to_no_time_rejected(tmp_path, capsys):
    """A --periods above 0 whose duration periods * T underflows to 0 s is
    bad input: exit 2 on one error line naming --periods, not the solver's
    complaint about its time span, and no product."""
    rc = main(["simulate", *GAINS_ARGS, "--periods", "5e-324", "--out", str(tmp_path / "out")])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: --periods 5e-324 ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["steady-state"], ["simulate", *GAINS_ARGS], ["map", "--grid", "2,2"], ["ellipses"],
])
def test_cli_rejects_omega_whose_period_overflows(tmp_path, capsys, command):
    """An Omega so small that 2 pi/Omega overflows is bad input: every
    command exits 2 on one error line naming Omega and writes nothing."""
    doc = {**B0_DOC, "excitation": {**B0_DOC["excitation"], "Omega": 5e-324}}
    out = tmp_path / "out"
    rc = main([*command, "--config", _write(tmp_path, doc), "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: Omega = 5e-324 ") and err.count("\n") == 1
    assert not out.exists()


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


def test_cli_simulate_non_finite_start_stops_at_rhs_budget(tmp_path):
    """With z0 = 1e300 the start's currents overflow and DOP853's first
    step is NaN, so every later stage time is NaN too.  The RHS budget
    still trips on the first of them: exit 3 at once on one error line
    saying the state became non-finite, where the solver alone would step
    for ever.  Run in a fresh interpreter with a timeout, so that a hang
    fails the test instead of stalling the suite."""
    doc = {**B0_DOC, "physical": {**B0_DOC["physical"], "z0": 1e300}}
    src = Path(levstab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "levstab.cli", "simulate", *GAINS_ARGS, "--periods", "1",
         "--config", _write(tmp_path, doc), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == EXIT_RUNTIME
    err = proc.stderr
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "the state or its derivative became non-finite" in err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


_NO_SCIPY_SCRIPT = """
import json, sys, types
from levstab.cli import DEFAULT_CONFIG, main

def loaded():
    # the levstab modules that have run: one that the package registered
    # but that has not run keeps its lazy type
    ran = [k for k, m in sys.modules.items() if k.startswith("levstab") and type(m) is types.ModuleType]
    return sorted(ran) + [k for k in ("numpy", "dataclasses", "inspect") if k in sys.modules]

out, commands = sys.argv[1], sys.argv[2:]
seen = {"import": [0, "scipy" in sys.modules]}
ran = {"import": loaded()}
try:
    main(["--version"])
except SystemExit as stop:
    ran["--version"] = [stop.code, *loaded()]
dop853 = ["levstab.dop853" in loaded()]
for cmd in commands:
    argv = [cmd, "--out", f"{out}/{cmd}"]
    if cmd == "simulate":
        argv += ["--kp", "10600", "--kd", "3000", "--periods", "1"]
    seen[cmd] = [main(argv), "scipy" in sys.modules]
    ran[cmd] = loaded()
    if cmd == "map":
        dop853.append("levstab.dop853" in loaded())
seen["dop853 after import, map"] = dop853
from levstab import ControlGains, all_ellipses, monodromy
from levstab.config import parse_config
cfg = parse_config(DEFAULT_CONFIG)
ea = all_ellipses(cfg.params, cfg.exc)["a"]
res = monodromy(cfg.params, cfg.exc, ControlGains(ea.h1, ea.h2))
seen["monodromy"] = [0 if res.stats["nfev"] > 0 else 1, "scipy" in sys.modules]
seen["process pool"] = [0, "concurrent.futures.process" in sys.modules]
print(json.dumps({"seen": seen, "ran": ran}))
"""


def _run_no_scipy_script(tmp_path, *commands) -> dict:
    """Run ``_NO_SCIPY_SCRIPT`` in a fresh interpreter: import the CLI, run
    ``--version`` and then ``commands`` in order, then a DOP853 monodromy.
    Return what each step left loaded."""
    src = Path(levstab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path), *commands],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# What importing the CLI and --version may run: no analysis module, and
# neither numpy nor the dataclasses and inspect modules
COLD_START = ["levstab", "levstab.cli"]


def test_cli_and_solvers_never_load_scipy(tmp_path):
    """In a fresh interpreter, importing the CLI, running the default map,
    ellipses, resonance-chart, steady-state and simulate, and a DOP853
    monodromy all leave scipy unloaded: the package integrates with its
    own DOP853.  The default map splits its cells between this process
    and a forked child where two CPUs are usable, and no process pool is
    imported.  It needs no DOP853 fallback, so neither the import nor the
    map runs ``levstab.dop853``, which the package registers lazily.

    The import and ``--version`` run only ``levstab`` and ``levstab.cli``,
    and the map does not run the validation battery's module."""
    result = _run_no_scipy_script(
        tmp_path, "map", "ellipses", "resonance-chart", "steady-state", "simulate"
    )
    assert result["seen"] == {
        "import": [EXIT_OK, False],
        "map": [EXIT_OK, False],
        "ellipses": [EXIT_OK, False],
        "resonance-chart": [EXIT_OK, False],
        "steady-state": [EXIT_OK, False],
        "simulate": [EXIT_OK, False],
        "monodromy": [0, False],
        "process pool": [0, False],
        "dop853 after import, map": [False, False],
    }
    ran = result["ran"]
    assert ran["import"] == COLD_START
    assert ran["--version"] == [EXIT_OK, *COLD_START]
    assert "levstab.floquet" in ran["map"]
    assert "levstab.validation" not in ran["map"]
    meta = json.loads((tmp_path / "map" / "map_meta.json").read_text())
    assert meta["grid"]["nx"] == meta["grid"]["ny"] == 21
    assert meta["grid"]["fallback_cells"] == 0


def test_cli_simulate_runs_no_analysis_module(tmp_path):
    """simulate, the first command of a fresh interpreter, runs the plant
    and none of the Floquet, linearization, boundary or validation
    modules."""
    result = _run_no_scipy_script(tmp_path, "simulate")
    assert result["seen"]["simulate"] == [EXIT_OK, False]
    assert result["ran"]["import"] == COLD_START
    ran = set(result["ran"]["simulate"])
    assert "levstab.plant" in ran
    assert not ran & {"levstab.floquet", "levstab.linearized", "levstab.boundaries", "levstab.validation"}


def test_cli_ellipses_and_resonance_chart_run_no_plant(tmp_path):
    """ellipses and then resonance-chart, the first commands of a fresh
    interpreter, run neither the plant nor the Floquet, linearization or
    validation modules: loading a configuration needs no plant.  Nor do
    map and steady-state, each the first command of a fresh interpreter:
    the exact steady state and the solver policy are the model's.  None of
    them runs the DOP853 solver."""
    no_plant = {"levstab.plant", "levstab.dop853"}
    ran = {}
    for commands in (("ellipses", "resonance-chart"), ("map",), ("steady-state",)):
        result = _run_no_scipy_script(tmp_path / commands[0], *commands)
        assert result["ran"]["import"] == COLD_START
        for cmd in commands:
            assert result["seen"][cmd] == [EXIT_OK, False], cmd
            ran[cmd] = set(result["ran"][cmd])
            assert "levstab.config" in ran[cmd] and not ran[cmd] & no_plant, (cmd, ran[cmd])
    for cmd in ("ellipses", "resonance-chart"):
        assert not ran[cmd] & {"levstab.floquet", "levstab.linearized", "levstab.validation"}
    assert {"levstab.floquet", "levstab.linearized"} <= ran["map"]
    assert not ran["steady-state"] & {"levstab.floquet", "levstab.linearized", "levstab.boundaries"}


# the package's dataclasses, each for a reason written where it is defined;
# every other record is a NamedTuple
DATACLASSES = {
    "levstab.model": {"PhysicalParams", "ExcitationParams", "ControlGains", "HybridParams"},
    "levstab.plant": {"VehicleState"},
}
RECORDS = {
    "levstab.config": {"RunConfig"},
    "levstab.boundaries": {"Ellipse", "BoundaryLines", "RelativeSize", "ResonanceChart"},
    "levstab.floquet": {"MonodromyResult", "StabilityMap"},
    "levstab.linearized": {"UnexcitedSpectrum"},
    "levstab.plant": {"Trajectory"},
    "levstab.validation": {"CriterionResult", "ValidationReport"},
}


def test_dataclasses_are_the_five_that_check_or_derive(tmp_path):
    """The package defines five dataclasses: the four parameter types of
    ``model`` and the plant's ``VehicleState``.  The records that check,
    normalize and derive nothing are NamedTuples.  The default map, the
    first command of a fresh interpreter, runs no levstab module that
    defines a dataclass but ``model``."""
    import dataclasses
    import importlib
    import pkgutil

    found = {}
    for info in pkgutil.iter_modules(levstab.__path__):
        module = importlib.import_module(f"levstab.{info.name}")
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        names = {c.__name__ for c in classes if dataclasses.is_dataclass(c)}
        if names:
            found[module.__name__] = names
        for name in RECORDS.get(module.__name__, ()):
            record = getattr(module, name)
            assert issubclass(record, tuple) and hasattr(record, "_fields"), record
    assert found == DATACLASSES
    ran = _run_no_scipy_script(tmp_path, "map")["ran"]["map"]
    assert "levstab.floquet" in ran
    assert {name for name in ran if name in found} == {"levstab.model"}


def test_package_exports_only_declared_names():
    """Every name the package re-exports is in its module's ``__all__``."""
    for module, names in levstab._EXPORTS.items():
        missing = set(names) - set(getattr(levstab, module).__all__)
        assert not missing, (module, missing)


def test_every_public_name_has_a_program_reader(monkeypatch):
    """Every name the package or a submodule exports is read somewhere in
    the program: loaded as a name or an attribute in levstab's sources, in
    ``tools/`` or in ``benchmarks/``.  A definition, an import or an export
    list is no reader.  The benchmark's tracer wraps the functions in
    ``spans.TRACED`` by name, so those count as read."""
    import ast
    import importlib

    src = Path(levstab.__file__).resolve().parent
    root = src.parents[1]
    monkeypatch.syspath_prepend(str(root / "benchmarks"))
    from spans import TRACED

    read = {part for _, attr in TRACED for part in attr.split(".")}
    for path in [*src.glob("*.py"), *(root / "tools").glob("*.py"), *(root / "benchmarks").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    exported = {(module, name) for module, names in levstab._EXPORTS.items() for name in names}
    for path in src.glob("*.py"):
        if path.stem != "__init__":
            names = getattr(importlib.import_module(f"levstab.{path.stem}"), "__all__", ())
            exported.update((path.stem, name) for name in names)
    unread = sorted(f"{module}.{name}" for module, name in exported if name not in read)
    assert not unread, unread


# a fresh-interpreter script that starts the CLI with ``levstab *ARGV --out
# OUT``, as TARGET says: its console-script entry point "module:function"
# or, for None, ``python -m levstab.cli``.  A profiler probes ``main`` as
# it is called and as it returns, where it prints what it saw as the last
# line of output: the command has run, and the entry point's exit follows
_LIFECYCLE_SCRIPT = """
import atexit, gc, json, os, runpy, sys
atexit.register(print, "teardown")
at_call, collections = [], []

def probe(frame, event, arg):
    code = frame.f_code
    if code.co_name != "main" or not code.co_filename.endswith("cli.py"):
        return
    if event == "call":
        gc.callbacks.append(lambda phase, info: collections.append(phase))
        at_call.extend([gc.isenabled(), os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules])
    elif event == "return":
        tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
        at_return = [gc.isenabled(), os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules, tasks]
        print(json.dumps({"call": at_call, "return": at_return, "collections": len(collections), "code": arg}))

sys.argv = ["levstab", *ARGV, "--out", OUT]
sys.setprofile(probe)
if TARGET is None:
    runpy.run_module("levstab.cli", run_name="__main__", alter_sys=True)
else:
    module, name = TARGET.split(":")
    getattr(__import__(module, fromlist=[name]), name)()
print("the entry point returned")
"""


def _fresh_cli(how, argv, tmp_path, env=None):
    """Run ``_LIFECYCLE_SCRIPT`` for ``levstab argv`` in a fresh interpreter
    that starts the CLI as ``how`` says: "python -m levstab.cli" or the
    "console script" named in pyproject.toml, with ``tmp_path`` as ``--out``.
    Returns the process's exit code, its stdout lines and the probe's
    record of ``main``."""
    import re

    src = Path(levstab.__file__).resolve().parents[1]
    target = None
    if how == "console script":
        pyproject = (src.parent / "pyproject.toml").read_text()
        target = re.search(r'^levstab = "([\w.:]+)"$', pyproject, re.M).group(1)
    head = f"TARGET = {target!r}\nARGV = {argv!r}\nOUT = {str(tmp_path)!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", head + _LIFECYCLE_SCRIPT], capture_output=True, text=True, timeout=120,
        env={**os.environ, **(env or {}), "PYTHONPATH": str(src)},
    )
    lines = proc.stdout.splitlines()
    assert lines and lines[-1].startswith("{"), proc.stderr
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.mark.parametrize("how", ["python -m levstab.cli", "console script"])
@pytest.mark.parametrize(
    "argv, code",
    [(["ellipses"], EXIT_OK), (["ellipses", "--theta", "nan"], EXIT_BAD_INPUT)],
    ids=["ellipses", "bad theta"],
)
def test_cli_entry_runs_no_collection_and_no_teardown(tmp_path, how, argv, code):
    """Both ways of starting the CLI, ``python -m levstab.cli`` and the
    ``levstab`` console script named in pyproject.toml, turn cyclic
    collection off before ``main`` runs, so that no collection runs during
    the command, numpy's import included, and exit with ``main``'s code by
    ``os._exit`` once ``main`` has returned: neither the code after the
    entry point nor an atexit handler runs, and what the command printed
    is flushed.  ``main`` itself, which the tests call in-process, leaves
    collection on (``test_cli_main_leaves_environment_unchanged``)."""
    rc, lines, seen = _fresh_cli(how, argv, tmp_path)
    assert seen["call"][0] is False and seen["return"][0] is False, seen
    assert seen["collections"] == 0, seen
    assert seen["code"] == code and rc == code, (rc, seen)
    assert "teardown" not in lines and "the entry point returned" not in lines, lines
    assert sum(line.startswith("kind ") for line in lines) == 4 * (code == EXIT_OK), lines


@pytest.mark.parametrize("how", ["python -m levstab.cli", "console script"])
@pytest.mark.parametrize("caller", [None, "2"])
def test_cli_entry_runs_blas_on_one_thread(tmp_path, monkeypatch, how, caller):
    """Both ways of starting the CLI set OPENBLAS_NUM_THREADS to 1 before
    any command has imported numpy, unless the caller set it, so that
    OpenBLAS starts no worker thread: when ``steady-state``'s ``main``
    returns, numpy loaded, the process still runs one thread (counted
    where /proc/self/task exists), and it exits with ``main``'s code.  A
    caller's value is kept."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    rc, _, seen = _fresh_cli(how, ["steady-state"], tmp_path, env)
    assert seen["call"][1:] == [caller or "1", False], seen
    _, value, numpy_loaded, tasks = seen["return"]
    assert numpy_loaded and value == (caller or "1")
    if caller is None and tasks is not None:
        assert tasks == 1
    assert seen["code"] == EXIT_OK and rc == EXIT_OK


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_closed_stdout_exits_3(tmp_path, unbuffered):
    """A command whose standard output is a pipe that nobody reads exits 3
    with one ``error:`` line, whether Python buffers stdout, when the
    failure shows at the entry point's final flush, or writes it through
    (``PYTHONUNBUFFERED``), when the command's own print fails."""
    src = Path(levstab.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "levstab.cli", "ellipses", "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**env, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_RUNTIME, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "Broken pipe" in line, line


def test_cli_main_leaves_environment_unchanged(tmp_path, monkeypatch):
    """``main``, which the tests and library callers run in-process, sets
    no thread policy and leaves cyclic collection on: only the CLI's entry
    point does either."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert gc.isenabled()
    assert main(["steady-state", "--out", str(tmp_path)]) == EXIT_OK
    assert dict(os.environ) == before
    assert gc.isenabled()


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
    from levstab import plant

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(plant, "integrate", exhausted)
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


def _two_cpus(monkeypatch):
    """Let ``resolve_workers`` allow two processes, with LEVSTAB_THREADS
    unset, whatever the machine: a long plan forks its writer."""
    monkeypatch.delenv("LEVSTAB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _record_forks(monkeypatch):
    """Record each child that ``csv_stream`` forks, on two CPUs
    (``_two_cpus``); returns the list that the children are appended to
    as they start."""
    from levstab import output

    _two_cpus(monkeypatch)
    started, real = [], output.fork

    def recorded(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(output, "fork", recorded)
    return started


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    through one forked writer, also when a gap closure ends the run within
    its first block; its bytes equal those of write_trajectory_csv on the
    same run, the closure row included."""
    from dataclasses import replace

    from levstab.output import _STREAM_ROWS
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

    started = _record_forks(monkeypatch)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", _write(tmp_path, doc), "--periods", str(periods),
               f"--perturb={dz!r},{dphi!r}", "--out", str(out)])
    assert rc == (EXIT_RUNTIME if traj.aborted else EXIT_OK)
    assert len(started) == 1
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv", "trajectory_meta.json"]
    _assert_no_child_left()


def _disk_full(src, dst, template):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "writer,message",
    [
        (lambda *args: os._exit(7), "exited with status 7"),
        # 200 kB is under the 25-period run's 360 kB of frames
        (lambda src, dst, template: (src.read(200_000), os.kill(os.getpid(), 9)),
         "was killed by signal 9"),
        (lambda *args: None, "exited before it had read every row"),
        (None, "integration failed here"),
        (_disk_full, "exited with status 1: OSError: [Errno 28] No space left on device"),
    ],
    ids=["writer-exits-7", "writer-killed-mid-stream", "writer-stops-reading", "integration-fails",
         "writer-raises"],
)
def test_cli_simulate_stream_failure_leaves_nothing(tmp_path, monkeypatch, capsys, writer, message):
    """A forked writer that fails, dies mid-stream, stops reading or
    raises, and an integration that fails mid-stream, end simulate with
    exit 3 on one error line, which names what the writer raised; no
    trajectory.csv, no temporary file and no child process is left
    behind."""
    from levstab import output, plant

    started = _record_forks(monkeypatch)
    if writer is None:
        real = plant.integrate

        def failing(*args, sink, **kwargs):
            def send(columns):
                sink(columns)
                if columns[0][0] > 0.0:  # after the first block went out
                    raise RuntimeError(message)

            return real(*args, sink=send, **kwargs)

        monkeypatch.setattr(plant, "integrate", failing)
    else:
        monkeypatch.setattr(output, "_serve", writer)
    out = tmp_path / "out"
    rc = main(["simulate", *GAINS_ARGS, "--periods", "25", "--perturb", "1e-4,5e-5",
               "--out", str(out)])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert list(out.iterdir()) == []
    assert len(started) == 1
    _assert_no_child_left()


def _simulate_without_process(tmp_path, monkeypatch, extra, periods, dz, dphi):
    """Run simulate on B0_DOC plus the config additions ``extra`` with
    ``output.fork`` unable to start anything; assert that its
    trajectory.csv has the bytes write_trajectory_csv gives the same run,
    and return that run and simulate's exit code."""
    from dataclasses import replace

    from levstab.plant import integrate, steady_vehicle_state, write_trajectory_csv

    doc = {**B0_DOC, "gains": {"Kp": 10600.0, "Kd": 3000.0}, **extra}
    cfg = parse_config(doc)
    start = steady_vehicle_state(cfg.params, cfg.exc, 0.0, cfg.hybrid)
    start = replace(start, z=start.z + dz, phi=start.phi + dphi)
    mode = "standard" if cfg.hybrid is None else "hybrid"
    traj = integrate(start, (0.0, periods * cfg.exc.period), cfg.params, cfg.exc, cfg.gains,
                     mode=mode, hyb=cfg.hybrid)
    write_trajectory_csv(traj, tmp_path / "reference.csv")

    from levstab import output

    def no_process(*args, **kwargs):
        raise AssertionError("simulate started a process")

    monkeypatch.setattr(output, "fork", no_process)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", _write(tmp_path, doc), "--periods", str(periods),
               f"--perturb={dz!r},{dphi!r}", "--out", str(out)])
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv", "trajectory_meta.json"]
    return traj, rc


def test_cli_simulate_short_plan_formats_in_process(tmp_path, monkeypatch):
    """A run planned under _STREAM_ROWS rows forks no writer: 10 periods,
    2,001 rows, are formatted in-process into the bytes of
    write_trajectory_csv."""
    from levstab.output import _STREAM_ROWS

    traj, rc = _simulate_without_process(tmp_path, monkeypatch, {}, 10, 1e-4, 5e-5)
    assert rc == EXIT_OK
    assert traj.t.size == 2001 < _STREAM_ROWS


@pytest.mark.parametrize("policy", ["threads-1", "one-cpu"])
def test_cli_simulate_one_process_policy_formats_in_process(tmp_path, monkeypatch, policy):
    """Where ``resolve_workers`` allows one process, under
    LEVSTAB_THREADS=1 or on one usable CPU, a run planned over
    _STREAM_ROWS rows forks no writer: for each of STREAM_CASES, the
    standard and the hybrid plant over 25 periods, 5,001 rows, and a gap
    closure that ends the run in its first block, trajectory.csv has the
    bytes of write_trajectory_csv, the closure row included."""
    from levstab.output import _STREAM_ROWS

    _two_cpus(monkeypatch)
    if policy == "threads-1":
        monkeypatch.setenv("LEVSTAB_THREADS", "1")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for case, (extra, periods, (dz, dphi)) in STREAM_CASES.items():
        assert 200 * periods + 1 >= _STREAM_ROWS
        (tmp_path / case).mkdir()
        traj, rc = _simulate_without_process(tmp_path / case, monkeypatch, extra, periods, dz, dphi)
        assert traj.aborted == (case == "gap-closure")
        assert rc == (EXIT_RUNTIME if traj.aborted else EXIT_OK)
        assert traj.aborted or traj.t.size == 200 * periods + 1


def test_cli_simulate_without_writer_writes_after_the_run(tmp_path, monkeypatch):
    """A simulate that forks no writer, under LEVSTAB_THREADS=1, passes no
    sink to integrate and writes trajectory.csv once, by
    write_trajectory_csv, after integrate has returned."""
    from levstab import plant

    calls, integrate, write = [], plant.integrate, plant.write_trajectory_csv

    def recorded_integrate(*args, sink, **kwargs):
        calls.append(("integrate", sink))
        return integrate(*args, sink=sink, **kwargs)

    def recorded_write(traj, path):
        calls.append(("write_trajectory_csv", os.path.basename(path)))
        write(traj, path)

    monkeypatch.setenv("LEVSTAB_THREADS", "1")
    monkeypatch.setattr(plant, "integrate", recorded_integrate)
    monkeypatch.setattr(plant, "write_trajectory_csv", recorded_write)
    out = tmp_path / "out"
    rc = main(["simulate", *GAINS_ARGS, "--periods", "25", "--out", str(out)])
    assert rc == EXIT_OK
    assert calls == [("integrate", None), ("write_trajectory_csv", "trajectory.csv")]
    assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv", "trajectory_meta.json"]


def test_cli_simulate_writer_that_cannot_start_exits_3(tmp_path, monkeypatch, capsys):
    """A writer that cannot be forked ends simulate with exit 3 on one
    error line as the stream opens, before the integration runs; no
    trajectory.csv, no temporary file and no child is left behind."""
    import errno

    from levstab import plant

    def no_process():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    integrated = []
    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(plant, "integrate", lambda *args, **kwargs: integrated.append(args))
    out = tmp_path / "out"
    rc = main(["simulate", *GAINS_ARGS, "--periods", "25", "--out", str(out)])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "cannot start the CSV writer" in err and "trajectory.csv" in err
    assert "Resource temporarily unavailable" in err
    assert integrated == []
    assert list(out.iterdir()) == []
    _assert_no_child_left()


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
    assert "Traceback" not in err and product in err and ".tmp" not in err
    assert [p.name for p in out.iterdir()] == [product]


@pytest.mark.parametrize("periods", ["1", "25"], ids=["in-process", "forked-writer"])
def test_cli_uncreatable_temporary_file_names_the_product(tmp_path, monkeypatch, capsys, periods):
    """When the temporary file of a streamed ``trajectory.csv`` cannot be
    created, here because ``open`` raises EROFS for it, ``simulate`` exits
    3 on one error line that names the product, not the temporary file,
    and leaves no file behind, with or without the forked writer."""
    import builtins
    import errno

    from levstab import output

    def read_only(file, *args, **kwargs):
        if str(file).endswith(".tmp"):
            raise OSError(errno.EROFS, os.strerror(errno.EROFS), file)
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(output, "open", read_only, raising=False)
    out = tmp_path / "out"
    assert main(["simulate", *GAINS_ARGS, "--periods", periods, "--out", str(out)]) == EXIT_RUNTIME
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"error: [Errno {errno.EROFS}] {os.strerror(errno.EROFS)}: {str(out / 'trajectory.csv')!r}"
    assert list(out.iterdir()) == []
    _assert_no_child_left()


def _fail_second_block(monkeypatch, error):
    """Make ``output._rows`` raise ``error`` on the second block of rows
    it formats, after the first went out whole."""
    from levstab import output

    real, calls = output._rows, []

    def rows(*args):
        calls.append(None)
        if len(calls) == 2:
            raise error
        return real(*args)

    monkeypatch.setattr(output, "_rows", rows)


@pytest.mark.parametrize("interrupt", [False, True], ids=["disk-full", "keyboard-interrupt"])
def test_cli_map_failing_mid_product_leaves_nothing(tmp_path, monkeypatch, capsys, interrupt):
    """A 101x101 map, 10,201 rows of map.csv, whose second block of 4,096
    rows fails to be written, here by ENOSPC or an interrupt, leaves
    --out empty: no part of map.csv, no temporary file and no later
    product.  ENOSPC ends the command with exit 3 on one error line; the
    interrupt propagates."""
    import errno

    _fail_second_block(
        monkeypatch, KeyboardInterrupt() if interrupt else OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    )
    out = tmp_path / "out"
    argv = ["map", "--grid", "101,101", "--out", str(out)]
    if interrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert os.strerror(errno.ENOSPC) in err
    assert list(out.iterdir()) == []
    _assert_no_child_left()


def test_cli_failed_rerun_keeps_earlier_product(tmp_path, monkeypatch, capsys):
    """ellipses run twice into one --out, the second time with json.dump
    writing 100 bytes of ellipses.json and then raising ENOSPC, ends that
    run with exit 3 on one error line and leaves the first run's
    ellipses.json byte for byte, with no temporary file beside it."""
    import errno

    out = tmp_path / "out"
    assert main(["ellipses", "--out", str(out)]) == EXIT_OK
    first = (out / "ellipses.json").read_bytes()
    names = sorted(p.name for p in out.iterdir())

    def disk_full(payload, fh, **kwargs):
        fh.write(json.dumps(payload, **kwargs)[:100])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(json, "dump", disk_full)
    capsys.readouterr()
    assert main(["ellipses", "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert (out / "ellipses.json").read_bytes() == first
    assert sorted(p.name for p in out.iterdir()) == names


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
    one error line, and no product written, nor the --out directory made."""
    rc = main([*argv, "--out", str(tmp_path / "out")])
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
    from levstab import dop853

    def never(*args, **kwargs):
        raise AssertionError("integrated a start with a closed gap")

    monkeypatch.setattr(dop853, "solve", never)
    rc = main(["simulate", "--kp", "11841.56", "--kd", "4709.7", "--perturb", "0,1e-2",
               "--out", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "gap2" in err and "CLOSURE_FRACTION * z0 = 0.00015 m" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_map_subnormal_mass_fails_at_once(tmp_path, monkeypatch, capsys):
    """At m = 1e-310 the acceleration weights of A(t) would not be finite:
    the map refuses the configuration as bad input, with one error line
    and exit 2, no numpy warning, no product and no cell sent to
    ``monodromy``."""
    from levstab import floquet

    calls = []
    real = floquet.monodromy
    monkeypatch.setattr(floquet, "monodromy", lambda *a, **k: calls.append(1) or real(*a, **k))
    doc = {**B0_DOC, "physical": {**B0_DOC["physical"], "m": 1e-310}}
    cfgp = _write(tmp_path, doc)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["map", "--grid", "3,3", "--config", cfgp, "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == (
        "error: kappa^2 = m g/(2C) = 9.809999999999965e-309 is not a normal float: "
        "the parameters lie outside the range the model's formulas can represent\n"
    )
    assert caught == [] and calls == []
    assert not out.exists()


def test_cli_prints_kinematic_caveat_as_one_warning_line(tmp_path, capsys):
    """A configuration given as v, d draws the kinematic caveat, which the
    CLI prints as one ``warning:`` line, with no path or source line."""
    doc = {**B0_DOC, "excitation": {"A": 0.005, "v": 38.197186342054884, "d": 0.75}}
    rc = main(["ellipses", "--config", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: kinematic_excitation uses Omega = 2*pi*v/L, theta = 2*pi*d/L as "
        "published; the roles of d and L are suspected transposed. "
        "Prefer supplying Omega and theta directly.\n"
    )


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
    from levstab import validation
    from levstab.validation import CriterionResult, ValidationReport

    canned = ValidationReport(criteria=[
        CriterionResult(index=1, name="x", status="pass", tolerance=0.0, measured={}),
        CriterionResult(index=2, name="y", status="fail", tolerance=1e-9, measured={},
                        reason="synthetic"),
    ])
    monkeypatch.setattr(validation, "run_battery", lambda params, exc: canned)
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
        ells = real(params, exc)
        return {**ells, "a": ells["a"]._replace(k1=1.01 * ells["a"].k1)}

    monkeypatch.setattr(boundaries, "all_ellipses", skewed)
    ok, measured, detail = validation._c4_axis_ratios(b0, exc_quarter)
    assert not ok
    assert measured["k1b_over_k1a"] == pytest.approx(3.0 / 1.01, rel=1e-9)


def test_fault_injection_breaks_frequency_criterion(monkeypatch, b0, exc_quarter):
    """Criterion 1 takes its frequencies from the unexcited spectrum, so a
    closed-form omega2 off by 1e-9 fails it while the spectrum's ratio
    still holds."""
    from levstab import validation

    real = validation.natural_frequencies

    def off(params, kd):
        w1, w2 = real(params, kd)
        return w1, w2 * (1.0 + 1e-9)

    monkeypatch.setattr(validation, "natural_frequencies", off)
    ok, measured, detail = validation._c1_frequency_ratio(b0, exc_quarter)
    assert not ok
    assert measured["max_closed_form_dev"] == pytest.approx(1e-9, rel=1e-2)
    assert measured["max_rel_err"] <= 1e-12


def test_fault_injection_factor_two_fails_tongue_criterion(monkeypatch, b0, exc_quarter):
    """Criterion 7 gates each half-width at 1 times k1: edges at h1 +- 2 k1,
    centred exactly, fail it."""
    from levstab import validation

    def wide(params, exc, ell):
        return ell.h1 - 2.0 * ell.k1, ell.h1 + 2.0 * ell.k1

    monkeypatch.setattr(validation, "tongue_edges", wide)
    ok, measured, detail = validation._c7_floquet_vs_analytic(b0, exc_quarter)
    assert not ok
    assert measured["max_factor_dev"] == pytest.approx(1.0)
    assert measured["max_center_err"] == pytest.approx(0.0, abs=1e-12)


def test_fault_injection_uncertified_test_function_skips_tongue_criterion(monkeypatch, b0, exc_quarter):
    """A combination test function whose sign cannot be certified at
    MAX_STEPS, here one that is zero everywhere, leaves tongue c's scan
    unresolved: criterion 7 is skipped with that reason, though the
    principal scans before it were certified, and never passes."""
    from levstab import validation

    monkeypatch.setattr(validation, "_psi_ns", lambda m: np.zeros(len(m)))
    monkeypatch.setattr(validation, "_CRITERIA", [c for c in validation._CRITERIA if c[0] == 7])
    (c7,) = validation.run_battery(b0, exc_quarter).criteria
    assert c7.status == "skip"
    assert c7.reason.startswith("tongue c at theta = 1.5708: the scan ((")
    assert c7.reason.endswith("is unresolved: its test function's signs are not certified at MAX_STEPS = 400 steps")


def test_criterion_7_scans_the_open_tongues_at_each_phase(monkeypatch, b0, exc_quarter):
    """Criterion 7 scans every tongue that is open at theta = 0, pi/2 and
    pi: the principal ones at 0, all four at pi/2, the combination ones at
    pi."""
    from levstab import validation

    calls = []

    def record(params, exc, ell):
        calls.append((exc.theta, ell.kind))
        return ell.h1 - ell.k1, ell.h1 + ell.k1

    monkeypatch.setattr(validation, "tongue_edges", record)
    ok, measured, _ = validation._c7_floquet_vs_analytic(b0, exc_quarter)
    assert ok
    half = math.pi / 2.0
    assert calls == [
        (0.0, "a"), (0.0, "b"),
        (half, "a"), (half, "b"), (half, "c"), (half, "d"),
        (math.pi, "c"), (math.pi, "d"),
    ]
    assert [(s["theta"], s["kind"]) for s in measured["scans"]] == calls


@pytest.mark.parametrize("theta", [0.0, math.pi])
def test_criterion_13_measures_closed_tongues_at_their_open_phase(monkeypatch, b0, theta):
    """At theta = 0 the combination tongues are closed and criterion 13
    measures them at pi; at pi it measures the principal ones at 0.  It
    evaluates the ellipses once per phase."""
    from levstab import ExcitationParams, boundaries, floquet, validation

    phases, measured_at = [], []
    all_ellipses, monodromy = boundaries.all_ellipses, floquet.monodromy
    monkeypatch.setattr(
        boundaries, "all_ellipses", lambda p, e: phases.append(e.theta) or all_ellipses(p, e)
    )
    monkeypatch.setattr(
        floquet, "monodromy", lambda p, e, g: measured_at.append(e.theta) or monodromy(p, e, g)
    )
    exc = ExcitationParams(A=0.005, Omega=80.0, theta=theta)
    ok, measured, _ = validation._c13_multiplier_signatures(b0, exc)
    assert ok
    assert phases == [theta, math.pi - theta]
    assert measured_at == [0.0, 0.0, math.pi, math.pi]
    assert sorted(measured) == ["dominant_a", "dominant_b", "dominant_c", "dominant_d"]


# configurations inside the physical range whose closed forms overflow:
# every ellipse centre and half-axis is inf and Kd NaN; every steady
# current kappa gap, with kappa = 2.2e150 A/m and gaps near 1e200 m, and
# every voltage is inf
HUGE_MASS = {
    "physical": {"m": 1e300, "C": 1e5, "R": 1e5, "z0": 1e5},
    "excitation": {"A": 0.005, "Omega": 1e5, "theta": math.pi / 2},
}
HUGE_GAP = {
    "physical": {"m": 1e300, "C": 1.0, "R": 9.71, "z0": 1e200},
    "excitation": {"A": 0.005, "Omega": 80.0, "theta": math.pi / 2},
}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["ellipses"], HUGE_MASS, "ellipse_a.csv: NaN or inf in column Kp"),
        (["ellipses", "--format", "json"], HUGE_MASS, "ellipses.json: NaN or inf in h1"),
        (["steady-state"], HUGE_GAP, "steady_state.csv: NaN or inf in column I1"),
    ],
    ids=["ellipses", "ellipses json", "steady-state"],
)
def test_cli_nonfinite_product_exits_3(tmp_path, argv, doc, message):
    """A closed-form command whose product would hold NaN or inf exits 3
    with one ``error:`` line naming the product and the column, places no
    product and prints nothing else: numpy's floating-point warnings stay
    off while it computes."""
    src = Path(levstab.__file__).resolve().parents[1]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "levstab.cli", *argv, "--config", _write(tmp_path, doc), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == EXIT_RUNTIME, proc.stderr
    assert proc.stderr == f"error: {message}; no product written\n" and proc.stdout == ""
    assert list(out.iterdir()) == []


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
    with an error line, never a hang or a traceback, and no --out directory
    made."""
    if doc is not None:
        argv = [*argv, "--config", _write(tmp_path, doc)]
    out = tmp_path / "out"
    try:
        rc = main([*argv, "--out", str(out)])
    except SystemExit as stop:
        # argparse rejects an option the subcommand does not take, with its
        # own usage line ahead of the error line
        assert stop.code == EXIT_BAD_INPUT
        assert "error: unrecognized arguments: --format" in capsys.readouterr().err
        assert not out.exists()
        return
    assert rc == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


BEYOND_FLOAT = 10**400  # an int that no float can hold


@pytest.mark.parametrize(
    "argv,doc,name",
    [
        (["ellipses"], {**B0_DOC, "excitation": {**B0_DOC["excitation"], "Omega": BEYOND_FLOAT}},
         "excitation.Omega"),
        (["map"], {**B0_DOC, "physical": {**B0_DOC["physical"], "m": BEYOND_FLOAT}}, "physical.m"),
        (["map", "--grid", f"{BEYOND_FLOAT},21"], None, "--grid"),
    ],
    ids=["config-omega", "config-mass", "grid"],
)
def test_cli_int_beyond_float_range_is_bad_input(tmp_path, capsys, argv, doc, name):
    """An integer too large for a float, in a config number or a --grid
    value, is bad input: exit 2 on one error line that names the key or
    the flag, and no --out directory made."""
    if doc is not None:
        argv = [*argv, "--config", _write(tmp_path, doc)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_BAD_INPUT
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {name} ")
    assert not out.exists()


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


def test_csv_stream_matches_write_csv(tmp_path, monkeypatch):
    """The forked writer formats float columns into the bytes write_csv
    gives them, for special and extreme floats and blocks of any size; a
    plan of no rows forks no writer, yields no sink and places no file."""
    from levstab.output import csv_stream, write_csv

    _two_cpus(monkeypatch)

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
    with csv_stream(tmp_path / "empty.csv", "a,b", 0) as send:
        assert send is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["streamed.csv", "whole.csv"]


@pytest.mark.parametrize("short", [True, False], ids=["short-plan", "long-plan-without-fork"])
def test_write_trajectory_csv_holds_one_block(tmp_path, short):
    """write_trajectory_csv, which writes the trajectory of a simulate
    that forks no writer (a plan of _STREAM_ROWS - 1 rows, or of ten times
    _STREAM_ROWS with one process allowed), formats _CSV_BLOCK rows at a
    time: tracemalloc's peak stays under 2.5 MB (about 2.0 MB measured at
    24,000 rows, 1.2 MB at 2,399), where the 24,000 rows' text alone is
    3.4 MB.  The bytes are those of write_csv."""
    import tracemalloc

    from levstab.output import _STREAM_ROWS, write_csv
    from levstab.plant import TRAJECTORY_CSV_HEADER, Trajectory, write_trajectory_csv

    rows = _STREAM_ROWS - 1 if short else 10 * _STREAM_ROWS
    columns = [np.arange(rows) / (j + 7.0) for j in range(9)]
    traj = Trajectory(columns[0], np.column_stack(columns[1:7]), columns[7], columns[8], {})
    write_csv(tmp_path / "whole.csv", TRAJECTORY_CSV_HEADER, columns)
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert peak < 2_500_000, peak


@pytest.mark.parametrize("short", [1, 0], ids=["short-plan", "long-plan"])
def test_csv_stream_decides_its_writer_when_it_opens(tmp_path, monkeypatch, short):
    """A plan of _STREAM_ROWS rows forks the writer when the stream opens,
    before the first block is sent, which gives the bytes of write_csv,
    and the writer has been reaped after exiting with status 0 (``reap``
    raises on any other end).  A plan of one row fewer forks none, yields
    no sink and places no file."""
    from levstab.output import _STREAM_ROWS, csv_stream, write_csv

    started = _record_forks(monkeypatch)
    rows = _STREAM_ROWS - short
    columns = [np.arange(rows) / 7.0, np.sqrt(np.arange(rows))]
    write_csv(tmp_path / "whole.csv", "a,b", columns)
    with csv_stream(tmp_path / "streamed.csv", "a,b", rows) as send:
        assert len(started) == 1 - short
        assert (send is None) == bool(short)
        for lo in range(0, rows if send else 0, 1024):
            send([c[lo : lo + 1024] for c in columns])
    assert len(started) == 1 - short
    _assert_no_child_left()
    if short:
        assert sorted(p.name for p in tmp_path.iterdir()) == ["whole.csv"]
    else:
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["streamed.csv", "whole.csv"]
