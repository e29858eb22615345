"""Operator algebra and numeric-kernel contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridsense import channels, fock, states
from gridsense import (
    InvalidDimensionError,
    NumericError,
    annihilation,
    check_density,
    check_ket,
    expectation,
    hermitian_eig,
    number_op,
    position_op,
    qfi_mixed,
    quadrature_op,
)
from gridsense.fock import matrix_exp

from conftest import ket_density


def test_commutator_is_identity_up_to_truncation():
    # [a, a†] = 1 everywhere except the last diagonal entry, where the
    # truncated a† cannot raise |D-1>.
    D = 12
    a = annihilation(D)
    a_dag = a.conj().T
    comm = a @ a_dag - a_dag @ a
    expected = np.eye(D)
    expected[-1, -1] = -(D - 1)  # truncation artifact, exact value
    assert np.allclose(comm, expected, atol=1e-12)


def test_number_op_is_a_dagger_a():
    D = 9
    a = annihilation(D)
    assert np.allclose(number_op(D), a.conj().T @ a, atol=1e-12)


def test_quadrature_psi_zero_is_position():
    D = 8
    assert np.allclose(quadrature_op(D, 0.0), position_op(D), atol=1e-15)


def test_quadrature_is_hermitian():
    for psi in (0.0, 0.3, math.pi / 2, 2.0):
        x = quadrature_op(10, psi)
        assert np.max(np.abs(x - x.conj().T)) < 1e-15


@pytest.mark.parametrize("D", [0, 1])
def test_tiny_cutoff_rejected(D):
    with pytest.raises(InvalidDimensionError):
        annihilation(D)
    with pytest.raises(InvalidDimensionError):
        number_op(D)


def test_matrix_exp_matches_taylor():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    M *= 0.8 / np.linalg.norm(M, 2)
    # term-by-term Taylor as the independent oracle
    term = np.eye(6, dtype=complex)
    total = term.copy()
    for k in range(1, 40):
        term = term @ M / k
        total += term
    assert np.max(np.abs(matrix_exp(M) - total)) < 1e-12


def test_matrix_exp_rejects_nan():
    M = np.zeros((3, 3))
    M[1, 1] = np.nan
    with pytest.raises(NumericError):
        matrix_exp(M)


def test_matrix_exp_unitary_for_antihermitian_generator():
    D = 20
    a = annihilation(D)
    G = 0.7j * (a + a.conj().T)  # anti-Hermitian
    U = matrix_exp(G)
    assert np.max(np.abs(U @ U.conj().T - np.eye(D))) < 1e-12


def test_hermitian_eig_contract():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
    H = (M + M.conj().T) / 2
    w, V = hermitian_eig(H)
    assert np.all(np.diff(w) >= -1e-12)  # ascending
    assert np.max(np.abs(H @ V - V @ np.diag(w))) < 1e-10
    with pytest.raises(ValueError):
        hermitian_eig(M)  # not Hermitian


def test_expectation_and_density_helpers(codeword0):
    rho = ket_density(codeword0)
    check_density(rho)
    check_ket(codeword0)
    n_mean = expectation(rho, number_op(30)).real
    # same number from the ket directly
    direct = float(np.sum(np.arange(30) * np.abs(codeword0) ** 2))
    assert abs(n_mean - direct) < 1e-12


def test_expectation_shape_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(3), np.eye(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_loss_free_expm_of_zero(D):
    assert np.allclose(matrix_exp(np.zeros((D, D))), np.eye(D))


def _hermitian_stack(seed, count, dim):
    rng = np.random.default_rng(seed)
    M = (rng.normal(size=(count, dim, dim))
         + 1j * rng.normal(size=(count, dim, dim)))
    return (M + np.swapaxes(M, -1, -2).conj()) / 2


def test_hermitian_eig_stack_matches_each_matrix_exactly():
    H = _hermitian_stack(12, 7, 30)
    w, V = hermitian_eig(H)
    assert w.shape == (7, 30) and V.shape == (7, 30, 30)
    for i, M in enumerate(H):
        w_i, V_i = hermitian_eig(M)
        assert np.array_equal(w[i], w_i) and np.array_equal(V[i], V_i)


def test_hermitian_eig_rejects_one_bad_matrix_in_a_stack():
    H = _hermitian_stack(13, 4, 6)
    H[2, 0, 1] += 1e-6
    with pytest.raises(ValueError,
                       match=r"matrix is not Hermitian \(defect 1\.000e-06"):
        hermitian_eig(H)
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        hermitian_eig(H[2])


# inf − inf on the diagonal warns before the check fails
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (0, 2)],
                         ids=["diagonal", "off_diagonal"])
def test_non_finite_entry_is_a_numeric_error(entry, bad):
    # NaN fails every comparison, so a `defect > tol` test let a NaN
    # through: on the diagonal qfi_mixed returned 0.0, off it eigh raised
    # numpy's LinAlgError
    rho = np.eye(4, dtype=complex) / 4
    rho[entry] = bad
    for solve in (hermitian_eig, qfi_mixed, check_density):
        with pytest.raises(NumericError, match="non-finite entries"):
            solve(rho)
    stack = np.stack([np.eye(4, dtype=complex) / 4, rho])
    with pytest.raises(NumericError, match="non-finite entries"):
        hermitian_eig(stack)


class TestSerialBlas:
    """`serial_blas` pins the mapped OpenBLAS libraries to one thread."""

    @staticmethod
    def threads(setter):
        # openblas_set_num_threads_local returns the count it replaces
        count = setter(1)
        setter(count)
        return count

    @pytest.fixture
    def setter(self):
        setters = fock._openblas_thread_setters()
        if not setters:
            pytest.skip("no mapped OpenBLAS exports "
                        "openblas_set_num_threads_local")
        before = setters[0](2)
        yield setters[0]
        setters[0](before)

    def test_one_thread_inside_and_restored_after(self, setter):
        with fock.serial_blas():
            assert self.threads(setter) == 1
            with fock.serial_blas():
                assert self.threads(setter) == 1
            assert self.threads(setter) == 1
        assert self.threads(setter) == 2

    def test_restored_after_a_raise(self, setter):
        with pytest.raises(KeyError):
            with fock.serial_blas():
                assert self.threads(setter) == 1
                raise KeyError("boom")
        assert self.threads(setter) == 2

    def test_solves_run_on_one_thread(self, setter, monkeypatch):
        seen = []
        real_eigh = np.linalg.eigh

        def spy(M):
            seen.append(self.threads(setter))
            return real_eigh(M)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        hermitian_eig(_hermitian_stack(14, 3, 5))
        assert seen == [1]
        assert self.threads(setter) == 2

    def test_cached_spectra_solve_on_one_thread(self, setter, monkeypatch):
        # the cached spectra of the squeeze generator and the position
        # operator are solved through hermitian_eig, under its guard
        seen = []
        real_eigh = np.linalg.eigh

        def spy(M):
            seen.append(self.threads(setter))
            return real_eigh(M)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        for solve in (states._squeeze_spectrum, channels._position_eigenbasis):
            solve.cache_clear()
            try:
                solve(9)
            finally:
                solve.cache_clear()
        assert seen == [1, 1]
        assert self.threads(setter) == 2

    def test_no_library_found_is_a_no_op(self, monkeypatch):
        real = fock._openblas_thread_setters()
        monkeypatch.setattr(fock, "_openblas_thread_setters", lambda: ())
        counts = [self.threads(s) for s in real]
        with fock.serial_blas():
            assert [self.threads(s) for s in real] == counts
            w, _ = hermitian_eig(np.diag([2.0, 1.0]).astype(complex))
        assert np.array_equal(w, [1.0, 2.0])
