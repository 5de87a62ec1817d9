"""Parameter containers, input validation, natural frequencies and the
kinematic excitation wrapper."""

import math
import re

import numpy as np
import pytest

from levstab import (
    ControlGains,
    ExcitationParams,
    PhysicalParams,
    default_inertia,
    has_uniform_bar_inertia,
    kinematic_excitation,
    natural_frequencies,
    validate,
)


def test_default_inertia_values():
    assert default_inertia(7650.0, 3.0) == pytest.approx(5737.5, rel=1e-15)
    assert default_inertia(1.0, 1.0) == pytest.approx(1.0 / 12.0, rel=1e-15)


def test_default_inertia_homogeneous_in_mass():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = float(rng.uniform(10.0, 1e4))
        L = float(rng.uniform(0.5, 8.0))
        k = float(rng.uniform(0.1, 50.0))
        assert default_inertia(k * m, L) == pytest.approx(
            k * default_inertia(m, L), rel=1e-12
        )


def test_inertia_defaulting_flag(b0):
    assert b0.J == pytest.approx(b0.m * b0.L**2 / 12.0, rel=0, abs=0)
    assert has_uniform_bar_inertia(b0)
    explicit = PhysicalParams(m=7650.0, C=0.05, R=9.71, z0=0.015, J=5000.0)
    assert explicit.J == 5000.0
    assert not has_uniform_bar_inertia(explicit)


def test_validate_accepts_baseline(b0, exc_inphase):
    assert validate(b0, exc_inphase) is None


def test_validate_rejects_gap_closing_amplitude(b0):
    # amplitude equal to the nominal gap closes the steady-state gap
    with pytest.raises(ValueError, match="A >= z0"):
        validate(b0, ExcitationParams(A=0.015, Omega=80.0, theta=0.0))


def test_validate_rejects_nonpositive_mass():
    bad = PhysicalParams(m=0.0, C=0.05, R=9.71, z0=0.015, L=3.0, J=1.0)
    with pytest.raises(ValueError, match="m must be positive"):
        validate(bad, ExcitationParams(A=0.001, Omega=80.0, theta=0.0))


# one configuration per factor of the physical range, each inside the
# range in every factor checked before it: (overrides of B0, hybrid beta,
# the factor named)
RANGE_CASES = {
    "kappa2": (dict(m=1e-300, C=1e300), None, "kappa^2 = m g/(2C)"),
    "R-kappa": (dict(R=1e306), None, "R kappa = R sqrt(m g/(2C))"),
    "2C": (dict(m=1e-298, g=1.0, C=1e-309), None, "2C"),
    "slope": (dict(z0=1e307), None, "R z0/(2C)"),
    "omega-scale": (dict(m=1e-200, C=1e-200), None, "2g/(mC)"),
    "Cgm": (dict(m=1e-5, C=1e-5, g=1e-300), None, "C g m"),
    "half-mass": (dict(m=3e-308, C=4.9), None, "m/2"),
    "rotational-inertia": (dict(m=1.0, C=1.0, J=1e-310), None, "2J/L^2"),
    "inertia-ratio": (dict(m=1e-200, C=1.0, L=1.0, J=1e110), None, "m L^2/(4J)"),
    "weights": (dict(m=1e308, C=0.5, g=1.0, L=1.0, J=5e307), None, "1/m + L^2/(4J)"),
    "hybrid-offset": ({}, 1e306, "kappa (z0 + beta)"),
}


@pytest.mark.parametrize("case", RANGE_CASES.values(), ids=RANGE_CASES.keys())
def test_validate_rejects_each_factor_outside_the_range(b0, exc_quarter, case):
    """Every factor of the physical range can be the first one out of it:
    a factor below the normal floats or overflowed raises ``ValueError``
    naming it."""
    from levstab import HybridParams

    overrides, beta, factor = case
    fields = {"m": b0.m, "C": b0.C, "R": b0.R, "z0": b0.z0, "g": b0.g, "L": b0.L, **overrides}
    params = PhysicalParams(**fields)
    hyb = None if beta is None else HybridParams(beta)
    with pytest.raises(ValueError, match=f"^{re.escape(factor)} = .* is not a normal float"):
        validate(params, exc_quarter, hyb)


def test_validate_rejects_negative_beta(b0, exc_quarter):
    """The hybrid gap offset beta >= 0 is a precondition of the model."""
    from levstab import HybridParams

    for beta in (-0.01, math.nan):
        with pytest.raises(ValueError, match="^hybrid.beta must be nonnegative$"):
            validate(b0, exc_quarter, HybridParams(beta))
    assert validate(b0, exc_quarter, HybridParams(0.0)) is None


def test_validate_rejects_negative_amplitude(b0):
    with pytest.raises(ValueError, match="A must be nonnegative"):
        validate(b0, ExcitationParams(A=-0.001, Omega=80.0, theta=0.0))


def test_theta_normalized_to_principal_range():
    e = ExcitationParams(A=0.001, Omega=10.0, theta=2.0 * math.pi + 0.25)
    assert 0.0 <= e.theta < 2.0 * math.pi
    assert e.theta == pytest.approx(0.25, rel=1e-12)
    wrap = ExcitationParams(A=0.001, Omega=10.0, theta=-math.pi / 2)
    assert wrap.theta == pytest.approx(3.0 * math.pi / 2, rel=1e-12)


def test_period_property():
    e = ExcitationParams(A=0.001, Omega=80.0, theta=0.0)
    assert e.period == pytest.approx(2.0 * math.pi / 80.0, rel=1e-15)


def test_natural_frequencies_baseline(b0):
    w1, w2 = natural_frequencies(b0, 1000.0)
    assert w1 == pytest.approx(15.049, rel=1e-4)
    assert w2 == pytest.approx(26.066, rel=1e-4)
    # frozen reference value
    assert w1 == pytest.approx(15.04932048547396, rel=1e-13)


def test_natural_frequencies_zero_gain(b0):
    assert natural_frequencies(b0, 0.0) == (0.0, 0.0)


def test_natural_frequencies_resonant_gain(b0):
    # Kd that puts the rotational frequency at Omega/2 for Omega = 80
    _, w2 = natural_frequencies(b0, 2354.8)
    assert w2 == pytest.approx(40.0, rel=1e-4)


def test_frequency_ratio_sqrt3_random_draws():
    """omega2/omega1 = sqrt(3) whenever J takes the uniform-bar default."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        p = PhysicalParams(
            m=float(10.0 ** rng.uniform(1.5, 4.5)),
            C=float(10.0 ** rng.uniform(-2.0, 0.0)),
            R=float(rng.uniform(1.0, 40.0)),
            z0=float(rng.uniform(0.005, 0.05)),
            g=float(rng.uniform(3.0, 20.0)),
            L=float(rng.uniform(0.5, 8.0)),
        )
        Kd = float(10.0 ** rng.uniform(1.0, 5.0))
        w1, w2 = natural_frequencies(p, Kd)
        assert abs(w2 / w1 - math.sqrt(3.0)) <= 1e-12 * math.sqrt(3.0)


def test_natural_frequencies_ignore_geometry_and_resistance(b0):
    """Only Kd, g, m, C enter; with the uniform-bar inertia, varying J, L, R
    and z0 leaves the output bit-identical."""
    ref = natural_frequencies(b0, 1500.0)
    for variant in (
        PhysicalParams(m=b0.m, C=b0.C, R=40.0, z0=0.03),
        PhysicalParams(m=b0.m, C=b0.C, R=b0.R, z0=b0.z0, L=7.0),
        PhysicalParams(m=b0.m, C=b0.C, R=b0.R, z0=b0.z0,
                       J=b0.m * b0.L**2 / 12.0),
    ):
        got = natural_frequencies(variant, 1500.0)
        assert got[0] == ref[0] and got[1] == ref[1]


def test_nondefault_inertia_changes_ratio(b0):
    heavy = PhysicalParams(m=b0.m, C=b0.C, R=b0.R, z0=b0.z0, J=2.0 * b0.J)
    w1, w2 = natural_frequencies(heavy, 1000.0)
    assert w2 / w1 == pytest.approx(math.sqrt(3.0 / 2.0), rel=1e-12)


def test_kinematic_excitation_baseline_recipe():
    with pytest.warns(UserWarning):
        e = kinematic_excitation(v=38.197186342054884, d=0.75, L=3.0, A=0.005)
    assert e.Omega == pytest.approx(80.0, rel=1e-12)
    assert e.theta == pytest.approx(math.pi / 2, rel=1e-12)
    assert e.v == pytest.approx(38.197186342054884)
    assert e.d == 0.75


def test_kinematic_excitation_phase_wrap():
    with pytest.warns(UserWarning):
        e = kinematic_excitation(v=10.0, d=3.0, L=3.0, A=0.001)
    assert e.theta == pytest.approx(0.0, abs=1e-12)


def test_kinematic_excitation_unit_frequency():
    L = 3.0
    with pytest.warns(UserWarning):
        e = kinematic_excitation(v=L / (2.0 * math.pi), d=1.0, L=L, A=0.001)
    assert e.Omega == pytest.approx(1.0, rel=1e-12)


def test_control_gains_allow_any_reals():
    g = ControlGains(Kp=-5.0, Kd=0.0)
    assert g.Kp == -5.0 and g.Kd == 0.0
