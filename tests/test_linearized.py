"""Linearized time-periodic system: coefficient assembly, the numerical
Jacobian cross-check, reduced third-order residuals, and the unexcited
eigenvalue analysis."""

import numpy as np
import pytest

from levstab import (
    ControlGains,
    HybridParams,
    PhysicalParams,
    fd_jacobian,
    hybrid_gamma,
    natural_frequencies,
    periodic_matrix,
    reduced_residual,
    unexcited_spectrum,
)
from levstab.boundaries import h0_gain, static_boundary_lines
from levstab.linearized import integrate_perturbation


GAINS = ControlGains(Kp=10600.0, Kd=3000.0)


def test_periodicity(b0, exc_quarter):
    pm = periodic_matrix(b0, exc_quarter, GAINS)
    T = exc_quarter.period
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 5.0 * T, 10):
        a0 = pm.at(t)
        a1 = pm.at(t + T)
        assert np.linalg.norm(a1 - a0) < 1e-12 * np.linalg.norm(a0)


def test_unexcited_matrix_constant(b0, exc_still):
    pm = periodic_matrix(b0, exc_still, GAINS)
    np.testing.assert_array_equal(pm.at(0.0), pm.at(0.777))


def test_unexcited_matrix_eigenvalues_match_spectrum(b0, exc_still):
    pm = periodic_matrix(b0, exc_still, GAINS)
    eig = np.sort_complex(np.linalg.eigvals(pm.at(0.0)))
    spec = np.sort_complex(unexcited_spectrum(b0, GAINS).all)
    np.testing.assert_allclose(eig, spec, rtol=1e-9, atol=1e-9)


def test_decoupling_in_aggregate_coordinates_at_theta_zero(b0, exc_inphase):
    """With in-phase excitation the mean-gap and differential-gap blocks do
    not talk to each other at any instant."""
    pm = periodic_matrix(b0, exc_inphase, GAINS)
    L = b0.L
    half = np.eye(3) * 0.5
    eye = np.eye(3)
    P = np.block([[half, half], [eye / L, -eye / L]])
    Pinv = np.linalg.inv(P)
    for t in np.linspace(0.0, exc_inphase.period, 7):
        a = pm.at(t)
        b = P @ a @ Pinv
        scale = np.max(np.abs(b))
        assert np.max(np.abs(b[:3, 3:])) < 1e-14 * scale
        assert np.max(np.abs(b[3:, :3])) < 1e-14 * scale


def test_jacobian_consistency_standard(b0, exc_quarter):
    """Analytic coefficients against a central-difference Jacobian of the
    nonlinear plant along the steady state: the master transcription guard."""
    pm = periodic_matrix(b0, exc_quarter, GAINS)
    T = exc_quarter.period
    worst = 0.0
    for t in np.linspace(0.0, T, 20, endpoint=False):
        an = pm.at(t)
        fd = fd_jacobian(b0, exc_quarter, GAINS, t)
        err = np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an)))
        worst = max(worst, err)
    assert worst < 1e-6


def test_jacobian_consistency_hybrid(b0, exc_quarter):
    beta = 0.01
    hyb = HybridParams(beta=beta, gamma=hybrid_gamma(b0, beta))
    pm = periodic_matrix(b0, exc_quarter, GAINS, hyb=hyb)
    for t in np.linspace(0.0, exc_quarter.period, 5, endpoint=False):
        an = pm.at(t)
        fd = fd_jacobian(b0, exc_quarter, GAINS, t, hyb=hyb)
        assert np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))) < 1e-6


def test_hybrid_linearization_equals_shifted_standard(b0, exc_quarter):
    """Linearizing the hybrid plant about its steady state is the standard
    linearization at the enlarged effective gap z0 + beta."""
    beta = 0.01
    hyb = HybridParams(beta=beta, gamma=hybrid_gamma(b0, beta))
    shifted = PhysicalParams(m=b0.m, C=b0.C, R=b0.R, z0=b0.z0 + beta)
    pm_h = periodic_matrix(b0, exc_quarter, GAINS, hyb=hyb)
    pm_s = periodic_matrix(shifted, exc_quarter, GAINS)
    for t in (0.0, 0.013, 0.05):
        np.testing.assert_allclose(pm_h.at(t), pm_s.at(t), rtol=1e-12, atol=1e-12)


def test_reduced_residual_zero_trajectory(b0, exc_quarter):
    t = np.linspace(0.0, exc_quarter.period, 30)
    X = np.zeros((30, 6))
    res = reduced_residual((t, X), b0, exc_quarter, GAINS)
    assert res.translation == 0.0
    assert res.rotation == 0.0
    assert res.max_scaled == 0.0


def test_reduced_residual_on_linearized_trajectory(b0, exc_quarter):
    """The six first-order equations collapse exactly onto the two reduced
    third-order ones, so any linearized trajectory satisfies them."""
    pm = periodic_matrix(b0, exc_quarter, GAINS)
    T = exc_quarter.period
    x0 = np.array([1e-4, 0.0, 0.0, -5e-5, 0.0, 0.0])
    t, X = integrate_perturbation(pm, x0, (0.0, 3.0 * T))
    res = reduced_residual((t, X), b0, exc_quarter, GAINS)
    assert res.max_scaled < 1e-6


def test_reduced_residual_pure_pitch_at_theta_zero(b0, exc_inphase):
    """At theta = 0 a pure differential (pitch) motion leaves the heave
    equation identically satisfied: its cross-coupling coefficient
    (gap1_ss - gap2_ss) vanishes."""
    pm = periodic_matrix(b0, exc_inphase, GAINS)
    T = exc_inphase.period
    x0 = np.array([1e-4, 0.0, 0.0, -1e-4, 0.0, 0.0])  # dtr1 = -dtr2
    t, X = integrate_perturbation(pm, x0, (0.0, 2.0 * T))
    # antisymmetry is preserved, so the mean gap stays zero
    assert np.max(np.abs(X[:, 0] + X[:, 3])) < 1e-12
    res = reduced_residual((t, X), b0, exc_inphase, GAINS)
    # the heave equation is satisfied at roundoff of the active pitch terms,
    # not merely at its own (vanishing) term scale
    assert res.translation < 1e-12 * res.rotation_scale
    assert res.rotation < 1e-6 * res.rotation_scale


def test_unexcited_spectrum_structure(b0):
    spec = unexcited_spectrum(b0, GAINS)
    assert spec.translation.shape == (3,)
    assert spec.rotation.shape == (3,)
    # conjugate pairing: each subsystem has one real root and one pair
    for block in (spec.translation, spec.rotation):
        real = block[np.abs(block.imag) < 1e-9]
        cplx = block[np.abs(block.imag) >= 1e-9]
        assert len(real) == 1 and len(cplx) == 2
        assert cplx[0].conjugate() == pytest.approx(cplx[1], rel=1e-10)


def test_hopf_boundary_spectrum(b0):
    """On the inclined line each subsystem shows one negative real eigenvalue
    plus a purely imaginary pair at its natural frequency."""
    lines = static_boundary_lines(b0)
    Kd = 2000.0
    g = ControlGains(Kp=lines.inclined(Kd), Kd=Kd)
    spec = unexcited_spectrum(b0, g)
    w1, w2 = natural_frequencies(b0, Kd)
    for block, w in ((spec.translation, w1), (spec.rotation, w2)):
        real = sorted(block, key=lambda z: abs(z.imag))[0]
        assert real.real < 0.0
        pair = sorted(block, key=lambda z: -abs(z.imag))[:2]
        assert abs(pair[0].real) < 1e-6 * abs(pair[0].imag)
        assert abs(pair[0].imag) == pytest.approx(w, rel=1e-9)


def test_divergence_left_of_vertical_line(b0):
    g = ControlGains(Kp=h0_gain(b0) - 100.0, Kd=2000.0)
    spec = unexcited_spectrum(b0, g)
    assert np.max(spec.all.real) > 0.0
    assert np.all(np.abs(spec.all[spec.all.real == np.max(spec.all.real)].imag) < 1e-9)


def test_static_stability_inside_wedge(b0):
    def max_re(kp, kd):
        return float(np.max(unexcited_spectrum(b0, ControlGains(kp, kd)).all.real))

    assert max_re(h0_gain(b0) + 2000.0, 2000.0) < 0.0
    assert max_re(h0_gain(b0) - 100.0, 2000.0) >= 0.0
    lines = static_boundary_lines(b0)
    Kd = 1500.0
    assert abs(max_re(lines.inclined(Kd), Kd)) < 1e-6
