"""Phase-space distribution: exact values, normalization, covariance."""

import math
import os

import numpy as np
import pytest

import blas_threads
from gridsense import (
    annihilation,
    rotate_density,
    wigner_grid,
    wigner_negativity,
    wigner_point,
)
from gridsense import sensor_state, wigner
from gridsense.cli import DEFAULT_CONFIG, build_noise, build_params
from gridsense.fock import matrix_exp

from conftest import D, ket_density


def displacement(alpha: complex, dim: int) -> np.ndarray:
    """Fock-truncated displacement D(α) = expm(α a† − α* a)."""
    a = annihilation(dim)
    return matrix_exp(alpha * a.conj().T - np.conj(alpha) * a)


# The term-by-term kernel this module used before the blocked one, kept
# verbatim as the reference the blocked kernel must reproduce.
def parity_kernel_reference(rho: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(1/π)·Tr[ρ D(2α) Π] for an array of phase-space points.

    q and p must have the same shape; returns W of that shape.
    """
    D = rho.shape[0]
    beta = math.sqrt(2.0) * (q + 1j * p)  # β = 2α
    x = beta.real**2 + beta.imag**2
    damp = np.exp(-0.5 * x)

    # g[n, k] = sqrt(n! / (n+k)!) via log-gamma, filled per diagonal below.
    lgamma = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, D) + 0.0))))

    acc = np.zeros(x.shape)
    beta_k = np.ones_like(beta)  # β^k, updated per diagonal
    for k in range(D):
        if k > 0:
            beta_k = beta_k * beta
        # Scaled Laguerre recurrence: Lt_n = e^{−x/2} L_n^{(k)}(x).
        l_prev = np.zeros(x.shape)
        l_cur = damp.copy()  # n = 0
        sign = 1.0
        for n in range(D - k):
            if k == 0:
                term = rho[n, n].real * l_cur
            else:
                c = rho[n, n + k]
                term = 2.0 * (c.real * beta_k.real - c.imag * beta_k.imag) * l_cur
            g = math.exp(0.5 * (lgamma[n] - lgamma[n + k]))
            acc += sign * g * term
            sign = -sign
            l_next = ((2 * n + 1 + k - x) * l_cur - (n + k) * l_prev) / (n + 1)
            l_prev, l_cur = l_cur, l_next
    return acc / math.pi


def random_mixed_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


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


class TestBlockedKernel:
    @pytest.mark.parametrize("dim", [8, 30, 40])
    def test_matches_reference_on_asymmetric_grid(self, dim):
        # 67² points: one full block and a partial one
        rho = random_mixed_state(dim, seed=dim)
        grid = wigner_grid(rho, q_range=(-7.0, 5.0), p_range=(-2.5, 6.5),
                           n_points=67)
        Q, P = np.meshgrid(grid.q_axis, grid.p_axis)
        ref = parity_kernel_reference(rho, Q, P)
        assert grid.values.shape == ref.shape == (67, 67)
        assert np.abs(grid.values - ref).max() < 1e-14

    @pytest.mark.parametrize("dim", [8, 30, 40])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_matches_reference_across_block_edges(self, dim, offset):
        # 1-D point counts just below, at and just above 4096, the block
        # size a blocked kernel would split at
        size = 4096 + offset
        rng = np.random.default_rng(1000 * dim + offset + 1)
        q = rng.uniform(-6.0, 6.0, size)
        p = rng.uniform(-6.0, 6.0, size)
        rho = random_mixed_state(dim, seed=7 * dim)
        out = wigner._parity_kernel(rho, q, p)
        assert out.shape == (size,)
        assert np.abs(out - parity_kernel_reference(rho, q, p)).max() < 1e-14

    def test_zero_d_input_keeps_its_shape(self):
        rho = random_mixed_state(D, seed=2)
        q, p = np.asarray(0.7), np.asarray(-1.3)
        out = wigner._parity_kernel(rho, q, p)
        assert out.shape == ()
        assert abs(float(out) - float(parity_kernel_reference(rho, q, p))) \
            < 1e-14

    def test_two_d_input_keeps_its_shape(self):
        rho = random_mixed_state(D, seed=4)
        rng = np.random.default_rng(4)
        q = rng.uniform(-5.0, 5.0, (3, 7))
        p = rng.uniform(-5.0, 5.0, (3, 7))
        out = wigner._parity_kernel(rho, q, p)
        assert out.shape == (3, 7)
        assert np.abs(out - parity_kernel_reference(rho, q, p)).max() < 1e-14


class TestWindowValidation:
    @pytest.mark.parametrize("bad", [(6.0, -6.0), (1.0, 1.0),
                                     (-math.inf, 6.0), (-6.0, math.inf),
                                     (math.nan, 6.0), (-6.0, math.nan)])
    @pytest.mark.parametrize("axis", ["q_range", "p_range"])
    def test_inverted_empty_or_nonfinite_range_rejected(self, vacuum, axis,
                                                        bad):
        with pytest.raises(ValueError, match=axis):
            wigner_grid(ket_density(vacuum), n_points=32, **{axis: bad})


class TestSeparableGrid:
    @pytest.mark.parametrize("dim", [8, 30, 40])
    def test_matches_reference_on_wide_window(self, dim):
        # ±12 reaches past every Gauss–Hermite node x/√2 of D = 40
        rho = random_mixed_state(dim, seed=100 + dim)
        grid = wigner_grid(rho, q_range=(-12.0, 12.0), p_range=(-12.0, 12.0),
                           n_points=97)
        Q, P = np.meshgrid(grid.q_axis, grid.p_axis)
        assert np.abs(grid.values
                      - parity_kernel_reference(rho, Q, P)).max() < 1e-14

    def test_padding_with_empty_levels_changes_nothing(self):
        rho = random_mixed_state(8, seed=5)
        padded = np.zeros((30, 30), dtype=complex)
        padded[:8, :8] = rho
        window = dict(q_range=(-7.0, 5.0), p_range=(-2.5, 6.5), n_points=67)
        np.testing.assert_array_equal(wigner_grid(padded, **window).values,
                                      wigner_grid(rho, **window).values)

    @pytest.mark.parametrize("support", [1, 2, 8])
    def test_kernel_sees_only_the_node_pairs(self, monkeypatch, support):
        rho = np.zeros((D, D), dtype=complex)
        rho[:support, :support] = random_mixed_state(support, seed=support)
        sizes = []
        kernel = wigner._parity_kernel

        def spy(rho, q, p):
            sizes.append(np.size(q))
            return kernel(rho, q, p)

        monkeypatch.setattr(wigner, "_parity_kernel", spy)
        wigner_grid(rho, n_points=301)
        assert sum(sizes) <= (2 * support - 1) ** 2


def test_grid_uses_the_codeword_hermite_recurrence():
    from gridsense import channels, states

    assert wigner._hermite_functions is states._hermite_functions
    assert wigner._gauss_hermite is states._gauss_hermite
    assert wigner._log_factorials is channels._log_factorials
    x, _, table = states._gauss_hermite(5)
    assert table.flags.c_contiguous
    assert np.array_equal(table, states._hermite_functions(x, 5).T)


@pytest.mark.parametrize("n_points", [101, 201])
def test_grid_bits_do_not_depend_on_blas_threads(n_points):
    # the grid product once rounded differently when OpenBLAS split it
    # across two threads, so `wigner.csv` depended on the thread count
    controls = blas_threads.controls()
    if controls is None:
        pytest.skip("no mapped OpenBLAS exports a thread count")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("one CPU: OpenBLAS cannot split the product")
    get, set_ = controls
    rho = sensor_state(build_params(DEFAULT_CONFIG).sensor_spec(D),
                       build_noise(DEFAULT_CONFIG))
    before = get()
    grids = {}
    try:
        for threads in (1, 2):
            set_(threads)
            if get() != threads:
                pytest.skip("this OpenBLAS runs on one thread only")
            grids[threads] = wigner_grid(rho, n_points=n_points).values
    finally:
        set_(before)
    np.testing.assert_array_equal(grids[1], grids[2])
