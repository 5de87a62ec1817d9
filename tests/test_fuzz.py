"""Seeded random configurations through the command line: no command hangs,
raises, leaks a traceback or a warning, or reports success on a product
that holds NaN or inf, whatever the physical values."""

import json
import math
import signal
import warnings

import numpy as np
import pytest

from levstab import floquet, plant
from levstab.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_RUNTIME, main

SEED = 31
CONFIGS = 50
# drawn after CONFIGS, so that those keep their values: configurations with
# a hybrid section.  The twelfth has R (z0 + beta) T / C = 901, so that its
# Liouville value exp(-R (z0 + beta) T / C) underflows to 0
HYBRID_CONFIGS = 12
# every value of a draw is log-uniform over these decades, or one of SPECIAL
DECADES = (-4.0, 5.0)
SPECIAL = (0.0, -1.0, 1e-300, 1e300, 5e-324)
SPECIAL_SHARE = 0.1
VALUES = [("physical", k) for k in ("m", "C", "R", "z0", "g", "L")] + [("excitation", k) for k in ("A", "Omega")]
COMMANDS = (
    ["ellipses"],
    ["steady-state"],
    ["resonance-chart"],
    ["map", "--grid", "3,3"],
    ["simulate", "--kp", "10600", "--kd", "3000", "--periods", "1"],
)
LIMIT_S = 5.0  # per run; the slowest legitimate run here takes about 0.07 s
# the closed-form commands, whose products are checked number by number
CLOSED_FORM = {"ellipses", "steady-state", "resonance-chart"}


class _Late(BaseException):
    """Raised by the alarm; no handler of ``main`` catches it."""


def _value(rng) -> float:
    if rng.random() < SPECIAL_SHARE:
        return SPECIAL[rng.integers(len(SPECIAL))]
    return float(10.0 ** rng.uniform(*DECADES))


def _draw(rng, hybrid=False) -> dict:
    doc = {"physical": {}, "excitation": {"theta": float(rng.uniform(0.0, 2.0 * math.pi))}}
    for section, key in VALUES:
        doc[section][key] = _value(rng)
    if hybrid:
        doc["hybrid"] = {"beta": _value(rng)}
    return doc


def _late(signum, frame):
    raise _Late


def _nonstrict_json(path) -> bool:
    """Whether the JSON file holds a constant that strict JSON refuses:
    NaN, Infinity or -Infinity."""
    constants = []
    json.loads(path.read_text(), parse_constant=constants.append)
    return bool(constants)


def _nonfinite_files(out) -> list:
    """The files in ``out`` that hold a NaN or infinite number: a CSV cell
    or a JSON constant (NaN, Infinity, -Infinity)."""
    found = []
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            bad = _nonstrict_json(path)
        else:
            cells = [cell for line in path.read_text().splitlines()[1:] for cell in line.split(",")]
            bad = not all(math.isfinite(float(cell)) for cell in cells)
        if bad:
            found.append(path.name)
    return found


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer for the time limit")
def test_cli_survives_seeded_random_configs(tmp_path, capsys, monkeypatch):
    """Fifty configurations drawn from one seed, and then twelve with a
    hybrid section, each through ellipses, steady-state, resonance-chart,
    a 3x3 map and a one-period simulate, in this process: every run
    returns 0, 2 or 3 within LIMIT_S, prints no traceback and warns of
    nothing.  A closed-form command that succeeds has written no NaN or
    inf, and one that fails has written nothing; every ``map_meta.json``
    is strict JSON.  The budgets of a monodromy and of a simulation are
    cut to a tenth, so that the many draws whose cells or runs exhaust
    them fail in milliseconds and the whole test takes about a second; a
    run that never reaches its budget is still caught by the limit.  The
    hybrid draws give monodromy its whole budget back: where the
    Liouville value underflows, DOP853's stability bound alone takes more
    than a tenth of it per cell (2,822 to 4,682 RHS evaluations on the
    twelfth draw's map), so a cut budget would fail every such cell
    before it reaches det M."""
    full_budget = floquet.MAX_NFEV
    monkeypatch.setattr(floquet, "MAX_NFEV", full_budget // 10)
    monkeypatch.setattr(plant, "MAX_NFEV_PER_PERIOD", plant.MAX_NFEV_PER_PERIOD // 10)
    previous = signal.signal(signal.SIGALRM, _late)
    rng = np.random.default_rng(SEED)
    path = tmp_path / "config.json"
    failures = []
    try:
        for draw in range(CONFIGS + HYBRID_CONFIGS):
            doc = _draw(rng, hybrid=draw >= CONFIGS)
            if draw == CONFIGS:
                monkeypatch.setattr(floquet, "MAX_NFEV", full_budget)
            path.write_text(json.dumps(doc))
            for command in COMMANDS:
                out = tmp_path / f"{draw}-{command[0]}"
                signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
                try:
                    with warnings.catch_warnings(record=True) as warned:
                        warnings.simplefilter("always")
                        rc = main([*command, "--config", str(path), "--out", str(out)])
                except _Late:
                    rc = f"still running after {LIMIT_S} s"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                printed = capsys.readouterr()
                if rc not in (EXIT_OK, EXIT_BAD_INPUT, EXIT_RUNTIME) or "Traceback" in printed.out + printed.err:
                    failures.append((command[0], rc, printed.err[-300:], doc))
                if warned:
                    failures.append((command[0], rc, [str(w.message) for w in warned], doc))
                if command[0] in CLOSED_FORM and out.is_dir():
                    placed = sorted(p.name for p in out.iterdir()) if rc != EXIT_OK else _nonfinite_files(out)
                    if placed:
                        failures.append((command[0], rc, placed, doc))
                meta = out / "map_meta.json"
                if command[0] == "map" and meta.is_file() and _nonstrict_json(meta):
                    failures.append((command[0], rc, meta.name, doc))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, failures
