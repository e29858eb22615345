"""Phase-space distribution: exact values, normalization, covariance."""

import math

import numpy as np
import pytest

from gridsense import (
    annihilation,
    ket_density,
    matrix_exp,
    rotate_density,
    wigner_grid,
    wigner_negativity,
    wigner_point,
)

from conftest import D


def displacement(alpha: complex, dim: int) -> np.ndarray:
    """Fock-truncated displacement D(α) = expm(α a† − α* a)."""
    a = annihilation(dim)
    return matrix_exp(alpha * a.conj().T - np.conj(alpha) * a)


class TestPointValues:
    def test_vacuum_peak(self, vacuum):
        rho = ket_density(vacuum)
        assert abs(wigner_point(rho, 0.0, 0.0) - 1.0 / math.pi) < 1e-12

    def test_vacuum_gaussian_profile(self, vacuum):
        # W(q, p) = e^{-(q^2+p^2)}/pi in the vacuum-variance-1/2 convention
        rho = ket_density(vacuum)
        assert abs(wigner_point(rho, 1.0, 0.0)
                   - math.exp(-1.0) / math.pi) < 1e-12
        assert abs(wigner_point(rho, 0.7, -0.4)
                   - math.exp(-0.65) / math.pi) < 1e-12

    def test_fock_one_negative_at_origin(self):
        ket = np.zeros(D, dtype=complex)
        ket[1] = 1.0
        assert abs(wigner_point(ket_density(ket), 0.0, 0.0)
                   + 1.0 / math.pi) < 1e-12

    def test_matches_truncated_displacement_on_compact_state(self):
        # the closed-form kernel must agree with the literal
        # displaced-parity trace wherever truncation cannot bite: a state
        # supported on n < 6 probed at small displacement
        rng = np.random.default_rng(3)
        ket = np.zeros(D, dtype=complex)
        ket[:6] = rng.normal(size=6) + 1j * rng.normal(size=6)
        ket /= np.linalg.norm(ket)
        rho = ket_density(ket)
        parity = np.diag((-1.0) ** np.arange(D)).astype(complex)
        for q, p in ((0.0, 0.0), (0.3, -0.2), (-0.5, 0.1)):
            beta = math.sqrt(2.0) * (q + 1j * p)
            Dop = displacement(beta, D)
            literal = float(np.trace(rho @ Dop @ parity).real) / math.pi
            assert abs(wigner_point(rho, q, p) - literal) < 1e-12


class TestGrid:
    def test_vacuum_normalization(self, vacuum):
        grid = wigner_grid(ket_density(vacuum))
        assert abs(grid.integral() - 1.0) < 1e-6

    def test_axes_and_shape(self, vacuum):
        grid = wigner_grid(ket_density(vacuum), q_range=(-2.0, 2.0),
                           p_range=(-3.0, 3.0), n_points=41)
        assert grid.values.shape == (41, 41)
        assert grid.q_axis[0] == -2.0 and grid.q_axis[-1] == 2.0
        assert grid.p_axis[0] == -3.0 and grid.p_axis[-1] == 3.0
        # rows index p: the value at (q=1, p=-3) lives in row 0
        iq = int(np.argmin(np.abs(grid.q_axis - 1.0)))
        assert abs(grid.values[0, iq]
                   - wigner_point(ket_density(vacuum), grid.q_axis[iq],
                                  -3.0)) < 1e-12

    def test_too_coarse_rejected(self, vacuum):
        with pytest.raises(ValueError):
            wigner_grid(ket_density(vacuum), n_points=16)

    def test_noisy_state_normalization_on_capture_window(self, noisy_square):
        # [-8, 8]^2 holds >99.99% of the benchmark state's mass; the default
        # [-6, 6]^2 figure window cuts the comb tails and captures ~98.4%
        big = wigner_grid(noisy_square, q_range=(-8.0, 8.0),
                          p_range=(-8.0, 8.0), n_points=201)
        assert abs(big.integral() - 1.0) < 1e-3
        default = wigner_grid(noisy_square)
        assert 0.975 < default.integral() < 0.995


class TestNegativity:
    def test_fock_one_negativity(self):
        ket = np.zeros(D, dtype=complex)
        ket[1] = 1.0
        grid = wigner_grid(ket_density(ket))
        assert abs(wigner_negativity(grid) - 0.213151) < 1e-4

    def test_vacuum_has_none(self, vacuum):
        grid = wigner_grid(ket_density(vacuum))
        assert wigner_negativity(grid) == 0.0

    def test_noisy_benchmark_negativity_survives(self, noisy_square):
        # loss 0.9 / dephasing 0.05 does not wash out the grid-state
        # negativity; frozen value on the default 201-point window
        grid = wigner_grid(noisy_square)
        assert grid.values.min() < 0.0
        assert abs(wigner_negativity(grid) - 0.167684) < 1e-4

    def test_negativity_rotation_invariant(self, noisy_states_by_theta):
        # rotations permute phase space, so the clipped integral cannot move
        # (up to grid-sampling error on a window that holds the state)
        negs = {}
        for theta_deg, rho in noisy_states_by_theta.items():
            grid = wigner_grid(rho, q_range=(-8.0, 8.0), p_range=(-8.0, 8.0),
                               n_points=201)
            negs[theta_deg] = wigner_negativity(grid)
        vals = list(negs.values())
        assert max(vals) - min(vals) < 2e-3 * max(vals)


class TestRotationCovariance:
    def test_point_covariance_exact(self):
        # W_{R(t) rho}(q, p) = W_rho(q cos t - p sin t, q sin t + p cos t)
        rng = np.random.default_rng(11)
        ket = np.zeros(D, dtype=complex)
        ket[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)
        ket /= np.linalg.norm(ket)
        rho = ket_density(ket)
        t = math.radians(67.5)
        ct, st_ = math.cos(t), math.sin(t)
        rotated = rotate_density(rho, t)
        for q, p in ((0.4, 0.0), (0.0, 0.6), (-0.3, 0.5), (1.0, -1.0)):
            lhs = wigner_point(rotated, q, p)
            rhs = wigner_point(rho, ct * q - st_ * p, st_ * q + ct * p)
            assert abs(lhs - rhs) < 1e-12
