"""Fisher information (quantum and homodyne-classical), efficiency, capacity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from gridsense import (
    BOUNDS,
    NoiseParams,
    SensorSpec,
    apply_loss,
    capacity,
    cfi_homodyne,
    expectation,
    hermitian_eig,
    logical_state,
    measurement_efficiency,
    number_op,
    pipeline_qfi,
    qfi_mixed,
    qfi_pure,
    quadrature_op,
    rotate_density,
    squeeze,
)

from gridsense import metrology
from gridsense.channels import NOISE_DOMAINS
from gridsense.metrology import qfi_response
from gridsense.states import EPSILON_DOMAIN

from conftest import D, ket_density


def cfi_fd_check(rho_of_phi, psi_angle: float, *, step: float = 1e-4) -> float:
    """Finite-difference version of the CFI numerator derivative.

    `rho_of_phi` maps φ to the output density matrix; the result checks that
    the commutator derivative is exact for the phase-covariant pipeline.
    """
    rho_plus = rho_of_phi(step)
    rho_minus = rho_of_phi(-step)
    drho = (rho_plus - rho_minus) / (2.0 * step)
    x = quadrature_op(rho_plus.shape[0], psi_angle)
    return abs(complex(expectation(drho, x)))


def coherent_ket(alpha: complex, dim: int = D) -> np.ndarray:
    n = np.arange(dim)
    amp = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.exp(0.5 * gammaln(n + 1.0))
    ket = amp.astype(complex)
    return ket / np.linalg.norm(ket)


class TestQfiPure:
    def test_vacuum_zero(self, vacuum):
        assert qfi_pure(vacuum) == 0.0

    def test_fock_state_zero(self):
        ket = np.zeros(D, dtype=complex)
        ket[3] = 1.0
        assert abs(qfi_pure(ket)) < 1e-12

    def test_coherent_state_scores_four(self):
        # 4 Var(n) = 4|alpha|^2 for a coherent state
        assert abs(qfi_pure(coherent_ket(1.0)) - 4.0) < 1e-10

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            qfi_pure(np.ones(D, dtype=complex))


class TestQfiMixed:
    def test_reduces_to_pure_on_rank_one(self, codeword0):
        pure = qfi_pure(codeword0)
        mixed = qfi_mixed(ket_density(codeword0))
        assert abs(pure - mixed) < 1e-8 * max(pure, 1.0)

    def test_diagonal_state_zero(self):
        # [n, rho] = 0 when rho is diagonal in the number basis
        p = np.exp(-np.arange(D) / 3.0)
        rho = np.diag(p / p.sum()).astype(complex)
        assert abs(qfi_mixed(rho)) < 1e-12

    def test_noisy_benchmark_value(self, noisy_square):
        # frozen regression value for the untrained benchmark state after
        # loss 0.9 and dephasing 0.05
        assert abs(qfi_mixed(noisy_square) - 8.525519) < 1e-4

    def test_rotation_invariant(self, noisy_square):
        # the generator commutes with rotations, so QFI cannot depend on the
        # orientation angle
        base = qfi_mixed(noisy_square)
        for theta_deg in (45.0, 67.5, 90.0):
            rotated = rotate_density(noisy_square, math.radians(theta_deg))
            assert abs(qfi_mixed(rotated) - base) < 1e-8


def qfi_mixed_reference(rho, eig_tol=1e-12):
    """The one-state QFI as written before stacks were accepted."""
    w, V = hermitian_eig(rho)
    w = np.clip(w, 0.0, None)
    n_eig = V.conj().T @ (np.arange(V.shape[0])[:, None] * V)
    lam_sum = w[:, None] + w[None, :]
    lam_diff = w[:, None] - w[None, :]
    mask = lam_sum > eig_tol
    weights = np.zeros_like(lam_sum)
    weights[mask] = lam_diff[mask] ** 2 / lam_sum[mask]
    return float(2.0 * np.sum(weights * np.abs(n_eig) ** 2))


def _random_states(seed, count, rank, dim=D):
    rng = np.random.default_rng(seed)
    X = (rng.normal(size=(count, dim, rank))
         + 1j * rng.normal(size=(count, dim, rank)))
    rho = X @ np.swapaxes(X, -1, -2).conj()
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


class TestQfiMixedStates:
    @pytest.mark.parametrize("rank", [1, 3, D])
    def test_each_state_matches_the_reference_exactly(self, rank,
                                                      noisy_square):
        for rho in [*_random_states(rank, 6, rank), noisy_square]:
            qfi = qfi_mixed(rho)
            assert type(qfi) is float
            assert qfi == qfi_mixed_reference(rho)

    @pytest.mark.parametrize("solve", [qfi_mixed, qfi_response])
    def test_a_stack_is_rejected(self, solve):
        # two 2 x 2 states would otherwise broadcast to a wrong F_Q
        with pytest.raises(ValueError, match=r"one D x D matrix.*\(2, 2, 2\)"):
            solve(np.stack([np.eye(2, dtype=complex) / 2] * 2))

    def test_eig_tol_masks_per_state(self, monkeypatch):
        # spectra spanning 1 .. 1e-10, so the two masks drop different pairs
        rng = np.random.default_rng(5)
        p = 10.0 ** (-np.arange(D) / 3.0)
        p /= p.sum()
        rhos = []
        for _ in range(3):
            Q, _ = np.linalg.qr(rng.normal(size=(D, D))
                                + 1j * rng.normal(size=(D, D)))
            rhos.append((Q * p) @ Q.conj().T)
        strict = [qfi_mixed(rho) for rho in rhos]
        monkeypatch.setattr(metrology, "DEFAULT_EIG_TOL", 1e-3)
        loose = [qfi_mixed(rho) for rho in rhos]
        for rho, tight, wide in zip(rhos, strict, loose):
            assert tight != wide
            assert tight == qfi_mixed_reference(rho, 1e-12)
            assert wide == qfi_mixed_reference(rho, 1e-3)


class TestQfiResponse:
    """dF_Q = Tr(H·dρ) for the response operator H of `qfi_response`."""

    @pytest.mark.parametrize("rank", [3, D])
    def test_qfi_matches_qfi_mixed_exactly(self, rank, noisy_square):
        for rho in [*_random_states(rank, 3, rank), noisy_square]:
            qfi, H = qfi_response(rho)
            assert qfi == qfi_mixed(rho)
            assert H.shape == rho.shape
            assert np.max(np.abs(H - H.conj().T)) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_directional_derivative_matches_differences(self, seed):
        # a random trace-free Hermitian direction at a random full-rank
        # state, whose spectrum stays far from the eig_tol mask and from 0
        # (the pipeline's physical directions are checked in test_pipeline)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        direction = (X + X.conj().T) / 2.0
        direction -= np.trace(direction) / D * np.eye(D)
        direction /= np.linalg.norm(direction)
        for rho in _random_states(10 + seed, 2, D):
            qfi, H = qfi_response(rho)
            assert type(qfi) is float
            h = 1e-6
            diff = (qfi_mixed(rho + h * direction)
                    - qfi_mixed(rho - h * direction)) / (2 * h)
            assert np.sum(H.T * direction).real == pytest.approx(diff,
                                                                 rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_real_state_gives_what_its_complex_copy_gives(self, seed):
        # a real ρ has a real eigenbasis, but its SLD is imaginary
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(6, 6))
        rho = X @ X.T
        rho /= np.trace(rho)
        qfi, H = qfi_response(rho)
        ref_qfi, ref_H = qfi_response(rho.astype(complex))
        assert qfi == pytest.approx(ref_qfi, rel=1e-12)
        assert np.max(np.abs(H - ref_H)) <= 1e-12 * np.max(np.abs(ref_H))
        assert qfi_mixed(np.diag([0.5, 0.5, 0.0, 0.0])) == 0.0

    def test_pure_state_response(self):
        # on a pure state only the support is resolved: F_Q = 4 Var(n̂) is
        # linear in ρ along directions inside span{|ψ⟩}
        psi = coherent_ket(0.8 + 0.3j)
        qfi, H = qfi_response(ket_density(psi))
        assert qfi == pytest.approx(qfi_pure(psi), rel=1e-10)
        assert np.vdot(psi, H @ psi).real == pytest.approx(qfi, rel=1e-8)


def _interval(domain):
    """Floats in a `fock.in_domain` triple whose upper end is finite."""
    lo, hi, strict = domain
    return st.floats(lo, hi, exclude_min=strict, exclude_max=strict)


ROUNDOFF = 1e-13  # F_Q's relative roundoff, where a ceiling is reached


class TestCeilings:
    """Physical upper bounds on the pipeline's F_Q. Each channel commutes
    with e^{−iφn̂}, so F_Q cannot exceed the pure state's 4·Var(n̂); the
    dephasing is a Gaussian phase kick of variance γ, so F_Q ≤ 1/γ; and
    loss η on a state with n̄ photons caps it at 4ηn̄/(1−η) (Escher,
    de Matos Filho & Davidovich, Nat. Phys. 7, 406 (2011))."""

    @settings(max_examples=100, deadline=None)
    @given(eta=_interval(NOISE_DOMAINS["eta"]),
           gamma=_interval(NOISE_DOMAINS["gamma"]),
           epsilon=_interval(EPSILON_DOMAIN),
           r=st.floats(*BOUNDS["r"]),
           bloch_theta=st.floats(*BOUNDS["bloch_theta"]),
           bloch_phi=st.floats(-math.pi, math.pi),
           cutoff=st.sampled_from([30, 60]))
    def test_pipeline_qfi_is_below_each_ceiling(self, eta, gamma, epsilon, r,
                                                bloch_theta, bloch_phi,
                                                cutoff):
        qfi = pipeline_qfi(
            SensorSpec(theta=0.0, r=r, epsilon=epsilon,
                       bloch_theta=bloch_theta, bloch_phi=bloch_phi,
                       cutoff=cutoff),
            NoiseParams(eta, gamma))
        ket = squeeze(logical_state(bloch_theta, bloch_phi, epsilon, cutoff),
                      math.log(r))
        mean_n = float(np.sum(np.arange(cutoff) * np.abs(ket) ** 2))
        assert qfi <= qfi_pure(ket) * (1.0 + ROUNDOFF)
        assert qfi * gamma <= 1.0
        assert qfi * (1.0 - eta) <= 4.0 * eta * mean_n

    @pytest.mark.parametrize("eta", [0.3, 0.9, 0.999])
    def test_coherent_state_through_loss_scores_four_eta_n(self, eta):
        # loss keeps a coherent state pure and scales its n̄ by η, so F_Q is
        # 4ηn̄: the loss ceiling's constant, short of it by the factor 1 − η
        ket = coherent_ket(1.2 + 0.5j)
        mean_n = float(np.sum(np.arange(D) * np.abs(ket) ** 2))
        qfi = qfi_mixed(apply_loss(ket_density(ket), eta))
        assert qfi == pytest.approx(4.0 * eta * mean_n, rel=ROUNDOFF)
        assert qfi * (1.0 - eta) <= 4.0 * eta * mean_n


class TestCfiHomodyne:
    def test_coherent_state_angles(self):
        # F_C = 4 |alpha|^2 sin^2(psi) for a real-alpha coherent state
        rho = ket_density(coherent_ket(1.0))
        assert cfi_homodyne(rho, 0.0) < 1e-20
        assert abs(cfi_homodyne(rho, math.pi / 4) - 2.0) < 1e-10
        assert abs(cfi_homodyne(rho, math.pi / 2) - 4.0) < 1e-10

    def test_coherent_state_saturates_qfi(self):
        ket = coherent_ket(1.0)
        rho = ket_density(ket)
        best = max(cfi_homodyne(rho, psi)
                   for psi in np.linspace(0, math.pi, 181))
        assert abs(best - qfi_pure(ket)) < 1e-8

    def test_centered_state_scores_zero(self, noisy_square):
        # the mean-quadrature signal of an origin-centered state vanishes at
        # every LO angle, so this estimator extracts nothing from it
        for psi in (0.0, 0.7, math.pi / 2):
            assert cfi_homodyne(noisy_square, psi) < 1e-15

    def test_never_exceeds_qfi(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            ket = rng.normal(size=8) + 1j * rng.normal(size=8)
            ket /= np.linalg.norm(ket)
            rho = ket_density(ket)
            q = qfi_mixed(rho)
            for psi in np.linspace(0, math.pi, 19):
                assert cfi_homodyne(rho, psi) <= q + 1e-8

    def test_commutator_derivative_matches_finite_difference(self):
        # the signal numerator from -i[n, rho] equals the numeric derivative
        # of the rotated family, confirming the closed form
        rho = ket_density(coherent_ket(1.0))
        psi = 0.7
        N = number_op(D)
        x = quadrature_op(D, psi)
        analytic = abs(complex(expectation(-1j * (N @ rho - rho @ N), x)))
        fd = cfi_fd_check(lambda phi: rotate_density(rho, phi), psi)
        assert abs(analytic - fd) < 1e-7

    def test_variance_floor_guard(self, monkeypatch):
        rho = np.zeros((D, D), dtype=complex)
        rho[0, 0] = 1.0
        monkeypatch.setattr(metrology, "VAR_FLOOR", 10.0)
        with pytest.raises(ValueError):
            cfi_homodyne(rho, 0.0)


class TestEfficiencyAndCapacity:
    def test_efficiency_formula(self):
        assert measurement_efficiency(0.0) == 1.0
        assert measurement_efficiency(0.5) == 0.0
        assert abs(measurement_efficiency(0.25) - 0.25) < 1e-15

    def test_efficiency_symmetric(self):
        # a always-wrong channel is as informative as an always-right one
        assert abs(measurement_efficiency(0.1)
                   - measurement_efficiency(0.9)) < 1e-15

    def test_efficiency_range_checked(self):
        with pytest.raises(ValueError):
            measurement_efficiency(-0.1)
        with pytest.raises(ValueError):
            measurement_efficiency(1.1)

    def test_capacity_formula(self):
        assert abs(capacity(10.0, math.exp(-5.0)) - 50.0) < 1e-12

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            capacity(-1.0, 0.1)
        with pytest.raises(ValueError):
            capacity(1.0, -1e-300)
        with pytest.raises(ValueError):
            capacity(1.0, 1.0)
        with pytest.raises(ValueError):
            capacity(-1.0, 0.0)

    def test_capacity_is_undefined_without_errors(self):
        # −ln P_err is unbounded at P_err = 0
        assert math.isnan(capacity(1.0, 0.0))

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(1e-9, 0.4999))
    def test_capacity_rewards_lower_error(self, p):
        assert capacity(5.0, p) > capacity(5.0, p * 1.5 + 1e-10)
