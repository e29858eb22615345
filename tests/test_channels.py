"""Loss and dephasing channels: CPTP structure, covariance, noise spreads."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridsense import (
    NoiseParams,
    apply_dephasing,
    apply_loss,
    apply_momentum_diffusion,
    effective_sigmas,
    rotate_density,
)
from gridsense.channels import loss_kraus

from conftest import D, LOW_NOISE, ket_density


class TestNoiseParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(0.0, 0.05)
        with pytest.raises(ValueError):
            NoiseParams(1.2, 0.05)
        with pytest.raises(ValueError):
            NoiseParams(0.9, -0.01)

    def test_lossless_allowed(self):
        NoiseParams(1.0, 0.0)

    def test_gamma_capped(self):
        # the cap the CLI's --gamma has: both read one table
        NoiseParams(0.9, 0.5)
        with pytest.raises(ValueError, match=r"^gamma must be in \[0, 0\.5\]"):
            NoiseParams(0.9, math.nextafter(0.5, 1.0))
        with pytest.raises(ValueError, match="^gamma must be"):
            NoiseParams(0.9, np.array([0.1, 0.6]))


def test_log_factorials_match_gammaln():
    from scipy.special import gammaln

    from gridsense.channels import _log_factorials

    for dim in (2, 30, 171, 400):
        ref = gammaln(np.arange(dim) + 1.0)
        np.testing.assert_allclose(_log_factorials(dim), ref, rtol=1e-14,
                                   atol=0.0)
    with pytest.raises(ValueError):
        _log_factorials(30)[5] = 0.0


class TestLossChannel:
    def test_kraus_completeness(self):
        ops = loss_kraus(0.9, D)
        total = sum(K.conj().T @ K for K in ops)
        assert np.max(np.abs(total - np.eye(D))) < 1e-10

    def test_trace_preserving(self, codeword0):
        rho = ket_density(codeword0)
        out = apply_loss(rho, 0.8)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_eta_one_is_identity(self, codeword0):
        rho = ket_density(codeword0)
        assert np.array_equal(apply_loss(rho, 1.0), rho)

    def test_mean_photon_number_scales_by_eta(self, codeword0):
        # loss maps <n> to eta * <n>: exact for the truncated channel because
        # the codeword population lives strictly inside the cutoff
        rho = ket_density(codeword0)
        n_diag = np.arange(D)
        before = float(np.real(np.diag(rho)) @ n_diag)
        after = float(np.real(np.diag(apply_loss(rho, 0.8))) @ n_diag)
        assert abs(after - 0.8 * before) < 1e-10

    def test_rotation_covariant(self, codeword0):
        # loss is phase-insensitive, so it commutes with rotations
        rho = ket_density(codeword0)
        theta = math.radians(67.5)
        a = apply_loss(rotate_density(rho, theta), 0.9)
        b = rotate_density(apply_loss(rho, 0.9), theta)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            loss_kraus(0.0, D)
        with pytest.raises(ValueError):
            loss_kraus(1.0001, D)


class TestDephasing:
    def test_diagonal_untouched(self, codeword0):
        rho = ket_density(codeword0)
        out = apply_dephasing(rho, 0.3)
        assert np.allclose(np.diag(out), np.diag(rho))
        assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_coherence_damping_factor(self):
        rho = np.full((4, 4), 0.25, dtype=complex)
        out = apply_dephasing(rho, 0.1)
        # rho_03 picks up e^{-0.1 * 9 / 2}
        assert abs(out[0, 3] - 0.25 * math.exp(-0.45)) < 1e-15

    def test_gamma_zero_is_identity(self, codeword0):
        rho = ket_density(codeword0)
        assert np.allclose(apply_dephasing(rho, 0.0), rho)

    def test_rotation_covariant_to_roundoff(self, codeword0):
        # the number-basis map multiplies rho_mn elementwise and so does a
        # rotation; the factors commute, but float products do not
        # reassociate bit-exactly, so the residue is ulp-level, not zero
        rho = ket_density(codeword0)
        theta = 1.1
        a = apply_dephasing(rotate_density(rho, theta), 0.05)
        b = rotate_density(apply_dephasing(rho, 0.05), theta)
        assert np.max(np.abs(a - b)) < 1e-15

    def test_negative_gamma_rejected(self, codeword0):
        with pytest.raises(ValueError):
            apply_dephasing(ket_density(codeword0), -0.1)


class TestMomentumDiffusion:
    def test_cptp_basics(self, codeword0):
        rho = ket_density(codeword0)
        out = apply_momentum_diffusion(rho, 0.05)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-10
        evals = np.linalg.eigvalsh(out)
        assert evals.min() > -1e-10

    def test_not_rotation_covariant(self, codeword0):
        # diffusing p only is anisotropic: rotating before and after differ
        rho = ket_density(codeword0)
        theta = math.radians(45.0)
        a = apply_momentum_diffusion(rotate_density(rho, theta), 0.05)
        b = rotate_density(apply_momentum_diffusion(rho, 0.05), theta)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_differs_from_number_basis_map(self, codeword0):
        rho = ket_density(codeword0)
        a = apply_momentum_diffusion(rho, 0.05)
        b = apply_dephasing(rho, 0.05)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_cached_spectrum_is_read_only(self):
        # a write through the cache would corrupt every later call at D
        from numpy.polynomial.hermite import hermgauss

        from gridsense.states import _gauss_hermite, _hermite_functions

        x, s, phi = _gauss_hermite(6)
        for table in (x, s, phi):
            with pytest.raises(ValueError):
                table[0] = 99.0
        x_ref, w_ref = hermgauss(6)
        x2, s2, phi2 = _gauss_hermite(6)
        assert np.array_equal(x2, x_ref)
        assert np.array_equal(s2, w_ref * np.exp(x_ref * x_ref))
        assert np.array_equal(phi2, _hermite_functions(x_ref, 6).T)


CHANNELS = {
    "loss": lambda rho: apply_loss(rho, 0.85),
    "dephasing": lambda rho: apply_dephasing(rho, 0.1),
    "diffusion": lambda rho: apply_momentum_diffusion(rho, 0.1),
}


class TestChannelDtypes:
    """Each channel keeps its input's dtype: the noisy basis is real."""

    @pytest.mark.parametrize("name", CHANNELS)
    def test_a_real_input_gives_a_real_output(self, name):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 12))
        out = CHANNELS[name](X)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - CHANNELS[name](X.astype(complex)))) \
            <= 1e-15 * np.max(np.abs(out))

    def test_a_complex_input_meets_the_weights_as_complex(self):
        # the bits of the weights W_k stored complex, as a complex ρ meets
        # the real ones cast to w + 0j
        from gridsense.channels import _loss_amplitudes

        rng = np.random.default_rng(4)
        X = rng.normal(size=(2, 12, 12)) + 1j * rng.normal(size=(2, 12, 12))
        A = _loss_amplitudes(0.85, 12)
        ref = np.zeros_like(X)
        for k in range(12):
            W = np.outer(A[k, :12 - k], A[k, :12 - k]).astype(complex)
            ref[..., :12 - k, :12 - k] += W * X[..., k:, k:]
        assert apply_loss(X, 0.85).tobytes() == ref.tobytes()
        dn = np.arange(12)[:, None] - np.arange(12)[None, :]
        damping = np.exp(-0.5 * 0.1 * dn.astype(float) ** 2)
        assert apply_dephasing(X, 0.1).tobytes() == \
            (X * damping.astype(complex)).tobytes()


class TestEffectiveSigmas:
    def test_formulas_at_benchmark_point(self):
        # sigma_q^2 = (1-eta)/(2 eta) + gamma sin^2(theta), and p with cos^2
        theta = math.radians(67.5)
        sq, sp = effective_sigmas(LOW_NOISE, theta)
        base = 0.1 / 1.8
        assert abs(sq**2 - (base + 0.05 * math.sin(theta) ** 2)) < 1e-14
        assert abs(sp**2 - (base + 0.05 * math.cos(theta) ** 2)) < 1e-14

    def test_axis_aligned_limits(self):
        sq0, sp0 = effective_sigmas(LOW_NOISE, 0.0)
        sq90, sp90 = effective_sigmas(LOW_NOISE, math.pi / 2)
        # a quarter turn swaps which quadrature carries the dephasing term
        assert abs(sq0 - sp90) < 1e-14
        assert abs(sp0 - sq90) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(0.0, math.pi),
           eta=st.floats(0.5, 1.0, exclude_min=False),
           gamma=st.floats(0.0, 0.3))
    def test_total_spread_theta_independent(self, theta, eta, gamma):
        noise = NoiseParams(eta, gamma)
        sq, sp = effective_sigmas(noise, theta)
        total = sq**2 + sp**2
        expected = (1.0 - eta) / eta + gamma
        assert abs(total - expected) < 1e-12


@settings(max_examples=15, deadline=None)
@given(eta=st.floats(0.6, 0.99), gamma=st.floats(0.0, 0.2))
def test_channels_never_increase_purity(eta, gamma):
    from gridsense import prepare_codeword

    rho = ket_density(prepare_codeword(0, 0.063, D))
    purity_in = float(np.trace(rho @ rho).real)
    out = apply_dephasing(apply_loss(rho, eta), gamma)
    purity_out = float(np.trace(out @ out).real)
    assert purity_out <= purity_in + 1e-10


@pytest.mark.parametrize("dim", [10, 30, 60])
def test_loss_and_dephasing_commute(dim):
    # loss is phase-covariant and number dephasing is an average of R(φ),
    # so the order of the two channels does not matter
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    a = apply_dephasing(apply_loss(rho, 0.9), 0.05)
    b = apply_loss(apply_dephasing(rho, 0.05), 0.9)
    assert np.max(np.abs(a - b)) <= 1e-15
