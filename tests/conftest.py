"""Shared fixtures: the baseline parameter set used across the suite.

The baseline (B0) is a 7650 kg vehicle with C = 0.05 N m^2/A^2, R = 9.71 ohm,
nominal airgap 15 mm, excited at Omega = 80 rad/s with amplitude 5 mm.
"""

import math

import pytest

from levstab import ExcitationParams, PhysicalParams


@pytest.fixture(scope="session")
def b0():
    return PhysicalParams(m=7650.0, C=0.05, R=9.71, z0=0.015)


@pytest.fixture(scope="session")
def exc_inphase():
    """theta = 0: supports move together; principal resonances only."""
    return ExcitationParams(A=0.005, Omega=80.0, theta=0.0)


@pytest.fixture(scope="session")
def exc_quarter():
    """theta = pi/2: all four resonances active."""
    return ExcitationParams(A=0.005, Omega=80.0, theta=math.pi / 2)


@pytest.fixture(scope="session")
def exc_antiphase():
    """theta = pi: combination resonances only."""
    return ExcitationParams(A=0.005, Omega=80.0, theta=math.pi)


@pytest.fixture(scope="session")
def exc_still():
    """A = 0: no parametric forcing, constant coefficients."""
    return ExcitationParams(A=0.0, Omega=80.0, theta=0.0)


@pytest.fixture(scope="session")
def seed1():
    """(params, exc) of the second configuration that ``default_rng(1)``
    draws with ``validation._rng_params``, then Omega uniform in 30-300
    and A/z0 uniform in 0.05-0.5, at theta = pi/2.  Its R z0/(C Omega) is
    16 times the baseline's, and it fails criterion 7 on tongue a's
    centre."""
    params = PhysicalParams(
        m=1836.8152720892438, C=0.011353198378048266, R=30.387011238317456,
        z0=0.02429687264945546, g=8.605439180484566, L=6.5190009239988305,
    )
    return params, ExcitationParams(A=0.006173204842851471, Omega=111.86260390874415, theta=math.pi / 2)


@pytest.fixture(scope="session")
def battery_report(b0, exc_quarter):
    """Full cross-validation battery at B0, theta = pi/2 (runs once)."""
    from levstab.validation import run_battery

    return run_battery(b0, exc_quarter)


@pytest.fixture(scope="session")
def underflow_doc():
    """A configuration, with no hybrid section, whose Liouville value
    exp(-R z0 T / C) underflows to 0: R z0 T / C is about 4061, and the
    value reaches 0 above about 745."""
    return {
        "physical": {
            "m": 820.9115772147311, "C": 20354.368928840577, "R": 38.74012569727796,
            "z0": 565.3588946906601, "g": 0.020562485808009973, "L": 2.530606545028965,
        },
        "excitation": {"A": 0.9375398909578448, "Omega": 0.0016650625190529165, "theta": 0.8673176300861265},
    }
