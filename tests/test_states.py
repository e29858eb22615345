"""Codeword preparation, superpositions, and the squeeze/rotate gates."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gridsense import (
    TruncationError,
    annihilation,
    check_ket,
    expectation,
    logical_state,
    number_op,
    prepare_codeword,
    rotate,
    rotate_density,
    squeeze,
)
from gridsense.optimize import BOUNDS
from gridsense.states import (
    _hermite_functions,
    bloch_amplitudes,
    _squeeze_spectrum,
    comb_positions,
)

from conftest import D, EPS, ket_density


class TestCodewords:
    def test_normalized(self, codeword0, codeword1):
        assert abs(np.vdot(codeword0, codeword0) - 1.0) < 1e-14
        assert abs(np.vdot(codeword1, codeword1) - 1.0) < 1e-14

    def test_odd_amplitudes_exactly_zero(self, codeword0, codeword1):
        # both position combs are symmetric under q -> -q
        assert np.all(codeword0[1::2] == 0)
        assert np.all(codeword1[1::2] == 0)

    def test_amplitudes_real(self, codeword0):
        assert np.max(np.abs(codeword0.imag)) == 0.0

    def test_mean_photon_number(self, codeword0):
        n_mean = expectation(ket_density(codeword0), number_op(D)).real
        assert abs(n_mean - 6.549342) < 1e-5  # frozen from this implementation

    def test_codeword_overlap_small_but_nonzero(self, codeword0, codeword1):
        # finite-energy combs interleave, leaving a small residual overlap
        ov = abs(np.vdot(codeword0, codeword1))
        assert abs(ov - 8.796056e-3) < 1e-7
        assert ov < 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            prepare_codeword(2, EPS, D)
        with pytest.raises(ValueError):
            prepare_codeword(0, 0.0, D)
        with pytest.raises(ValueError):
            prepare_codeword(0, 1.5, D)
        with pytest.raises(ValueError):
            prepare_codeword(0, EPS, 5)

    def test_epsilon_domain_is_the_trainers_box(self):
        lo, hi = BOUNDS["epsilon"]
        for eps in (lo, hi):
            check_ket(prepare_codeword(0, eps, D))
        for eps in (math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)):
            with pytest.raises(ValueError, match="^epsilon must be in"):
                prepare_codeword(0, eps, D)

    def test_bloch_theta_domain_is_the_trainers_box(self):
        lo, hi = BOUNDS["bloch_theta"]
        assert bloch_amplitudes(lo, 0.3) == (1.0, 0j)
        assert bloch_amplitudes(hi, 0.3) == (0.0, 1 + 0j)
        for theta in (math.nextafter(lo, -1.0), math.nextafter(hi, 4.0)):
            with pytest.raises(ValueError, match="^bloch_theta must be in"):
                bloch_amplitudes(theta, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(eps=st.floats(0.02, 0.3))
    def test_envelope_shrinks_energy(self, eps):
        # a larger envelope parameter damps high-n weight harder
        n = number_op(D)
        lo = expectation(ket_density(prepare_codeword(0, eps, D)), n).real
        hi = expectation(ket_density(prepare_codeword(0, eps * 1.5, D)), n).real
        assert hi < lo


class TestCombPositions:
    def test_spacing_and_offset(self):
        p0 = comb_positions(0, EPS)
        p1 = comb_positions(1, EPS)
        spacing = math.sqrt(2 * math.pi)
        assert np.allclose(np.diff(p0), spacing)
        # the two combs are offset by half a period
        assert abs(p1[0] - p0[0] - spacing / 2) < 1e-12
        assert 0.0 in p0

    def test_symmetric_for_mu_zero(self):
        p0 = comb_positions(0, EPS)
        assert np.allclose(p0, -p0[::-1])

    def test_peak_count_covers_envelope(self):
        # S = ceil(6/sqrt(2*pi*eps)); at eps = 0.063 that is 10 per side,
        # and the outermost peak sits past 6 envelope widths (q = 6/sqrt(eps))
        p0 = comb_positions(0, EPS)
        assert p0.size == 21
        assert p0.max() >= 6.0 / math.sqrt(EPS) - 1e-9


class TestLogicalState:
    def test_poles_return_codewords(self, codeword0, codeword1):
        assert np.array_equal(logical_state(0.0, 0.0, EPS, D), codeword0)
        assert np.array_equal(logical_state(math.pi, 0.0, EPS, D), codeword1)

    def test_equator_is_balanced(self, codeword0, codeword1):
        ket = logical_state(math.pi / 2, 0.0, EPS, D)
        assert abs(np.vdot(ket, ket) - 1.0) < 1e-14
        # equal weight on both codewords up to the small non-orthogonality
        w0 = abs(np.vdot(codeword0, ket))
        w1 = abs(np.vdot(codeword1, ket))
        assert abs(w0 - w1) < 0.02

    def test_phi_enters_as_relative_phase(self, codeword0, codeword1):
        # Populations are NOT phi-invariant here: the codewords overlap on
        # even Fock levels, so the cross term carries phi. Check the
        # construction itself instead.
        a = logical_state(math.pi / 2, 0.0, EPS, D)
        b = logical_state(math.pi / 2, math.pi / 2, EPS, D)
        assert not np.allclose(a, b)
        for ket, phase in ((a, 1.0), (b, 1j)):
            ref = codeword0 + phase * codeword1
            ref = ref / np.linalg.norm(ref)
            assert np.allclose(ket, ref, atol=1e-12)

    def test_bloch_theta_range_checked(self):
        with pytest.raises(ValueError):
            logical_state(-0.1, 0.0, EPS, D)
        with pytest.raises(ValueError):
            logical_state(3.5, 0.0, EPS, D)


class TestSqueeze:
    def test_identity_at_zero(self, codeword0):
        out, leak = squeeze(codeword0, 0.0)
        assert np.array_equal(out, codeword0)
        assert leak == 0.0

    def test_vacuum_energy_ratio(self, vacuum):
        # S(ln r)|0> has energy (r^2 + r^-2)/2 times the vacuum energy;
        # this is the cleanest closed-form pin for the squeeze direction
        r = 1.092
        out, leak = squeeze(vacuum, math.log(r))
        e = expectation(ket_density(out), number_op(D)).real + 0.5
        assert abs(e / 0.5 - 0.5 * (r * r + 1.0 / (r * r))) < 1e-10
        assert abs(leak) < 1e-12

    def test_unitary_even_on_edge_states(self):
        # the truncated generator stays anti-Hermitian, so the gate is
        # exactly unitary and the leakage diagnostic sits at roundoff even
        # for a state parked on the cutoff boundary
        ket = np.zeros(12, dtype=complex)
        ket[-1] = 1.0
        out, leak = squeeze(ket, 0.5)
        assert abs(np.vdot(out, out) - 1.0) < 1e-12
        assert abs(leak) < 1e-12

    def test_inverse_round_trip(self, codeword0):
        fwd, _ = squeeze(codeword0, 0.05)
        back, _ = squeeze(fwd, -0.05)
        assert np.max(np.abs(back - codeword0)) < 1e-10

    def test_large_log_r_rejected(self, vacuum):
        with pytest.raises(ValueError):
            squeeze(vacuum, 1.5)

    def test_leakage_guard_is_wired(self, codeword0):
        # the guard only fires when the exponential itself breaks, which no
        # legal input provokes; force the threshold below roundoff to prove
        # the abort path works
        with pytest.raises(TruncationError):
            squeeze(codeword0, 0.5, max_leakage=-1.0)


def _expm_squeeze(psi, log_r):
    """Reference: the dense exponential of the squeeze generator, then the
    same per-column renormalization as `squeeze`."""
    a = annihilation(psi.shape[0])
    H = (a.conj().T @ a.conj().T - a @ a) / 2.0
    raw = scipy.linalg.expm(log_r * H) @ psi
    return raw / np.linalg.norm(raw, axis=0)


class TestSpectralSqueeze:
    LOG_RS = (-1.0, -0.6, -0.05, 0.0883, 0.35, 1.0)

    @pytest.mark.parametrize("dim", [20, 30, 40])
    def test_matches_expm_on_kets_and_stacks(self, dim):
        rng = np.random.default_rng(dim)
        stack = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        stack /= np.linalg.norm(stack, axis=0)
        stack[:, 0] = prepare_codeword(0, EPS, dim)
        for log_r in self.LOG_RS:
            out, _ = squeeze(stack, log_r)
            assert np.max(np.abs(out - _expm_squeeze(stack, log_r))) <= 1e-13
            for j in range(stack.shape[1]):
                ket, _ = squeeze(stack[:, j], log_r)
                ref = _expm_squeeze(stack[:, j], log_r)
                assert np.max(np.abs(ket - ref)) <= 1e-13

    def test_spectrum_is_cached_and_read_only(self):
        w, V = _squeeze_spectrum(D)
        assert _squeeze_spectrum(D)[1] is V
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            V[0, 0] = 0.0


class TestRotate:
    def test_rotation_is_number_phase(self, codeword0):
        out = rotate(codeword0, 0.7)
        n = np.arange(D)
        assert np.allclose(out, codeword0 * np.exp(-1j * n * 0.7))

    def test_populations_invariant(self, codeword0):
        out = rotate(codeword0, 1.234)
        assert np.allclose(np.abs(out) ** 2, np.abs(codeword0) ** 2)

    def test_density_rotation_matches_ket_rotation(self, codeword0):
        theta = math.radians(67.5)
        via_ket = ket_density(rotate(codeword0, theta))
        via_rho = rotate_density(ket_density(codeword0), theta)
        assert np.max(np.abs(via_ket - via_rho)) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(t1=st.floats(-6.0, 6.0), t2=st.floats(-6.0, 6.0))
    def test_rotations_compose(self, t1, t2):
        ket = prepare_codeword(0, EPS, D)
        a = rotate(rotate(ket, t1), t2)
        b = rotate(ket, t1 + t2)
        assert np.max(np.abs(a - b)) < 1e-12


def test_hermite_functions_are_orthonormal():
    # 40-point Gauss-Hermite quadrature is exact for e^{-x^2} times a
    # polynomial of degree <= 79, which covers every product of two of them
    x, w = np.polynomial.hermite.hermgauss(40)
    psi = _hermite_functions(x, 30)
    assert psi.shape == (30, 40)
    gram = (psi * (w * np.exp(x * x))) @ psi.T
    assert np.abs(gram - np.eye(30)).max() < 1e-12
