"""Operator algebra and numeric-kernel contracts."""

import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridsense import states
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

import blas_threads
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


def test_real_operators_are_real_arrays():
    # complex numbers enter only through a phase, as in x_ψ
    for op in (annihilation(9), number_op(9), position_op(9)):
        assert op.dtype == np.float64
    assert quadrature_op(9, 0.3).dtype == np.complex128


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


def _hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (M + M.T.conj()) / 2


@pytest.mark.parametrize("shape", [(7, 30, 30), (1, 6, 6), (6,), (6, 5),
                                   ()])
def test_hermitian_eig_takes_one_square_matrix(shape):
    # no caller solves a stack, so a stack is rejected like any other shape,
    # as qfi_mixed rejects it
    M = np.zeros(shape, dtype=complex)
    with pytest.raises(ValueError,
                       match=rf"one D x D matrix, got shape {re.escape(str(shape))}"):
        hermitian_eig(M)


def test_hermitian_eig_rejects_a_non_hermitian_matrix():
    H = _hermitian(13, 6)
    H[0, 1] += 1e-6
    with pytest.raises(ValueError,
                       match=r"matrix is not Hermitian \(defect 1\.000e-06"):
        hermitian_eig(H)


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


class TestBlasThreads:
    """The solves run on the caller's OpenBLAS thread count and leave it as
    they found it: the package sets no count of its own."""

    @pytest.fixture
    def threads(self):
        controls = blas_threads.controls()
        if controls is None:
            pytest.skip("no mapped OpenBLAS exports a thread count")
        get, set_ = controls
        before = get()
        set_(2)
        if get() != 2:
            set_(before)
            pytest.skip("this OpenBLAS runs on one thread only")
        yield get
        set_(before)

    @staticmethod
    def spy_eigh(monkeypatch, threads):
        seen = []
        real_eigh = np.linalg.eigh

        def spy(M):
            seen.append(threads())
            return real_eigh(M)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return seen

    def test_solve_runs_on_the_callers_count(self, threads, monkeypatch):
        seen = self.spy_eigh(monkeypatch, threads)
        hermitian_eig(_hermitian(14, 5))
        assert seen == [2]
        assert threads() == 2

    def test_cached_spectra_run_on_the_callers_count(self, threads,
                                                     monkeypatch):
        # the squeeze generator is solved once per cutoff through
        # hermitian_eig
        seen = self.spy_eigh(monkeypatch, threads)
        states._squeeze_spectrum.cache_clear()
        try:
            states._squeeze_spectrum(9)
        finally:
            states._squeeze_spectrum.cache_clear()
        assert seen == [2]
        assert threads() == 2

    def test_concurrent_solves_leave_the_count(self, threads):
        # two library threads solving at once; a save-and-restore of the
        # process-wide count around each solve could interleave and leave
        # the process on a count neither thread chose
        H = _hermitian(14, 5)
        reference, _ = hermitian_eig(H)
        mismatches = []

        def work():
            for _ in range(2000):
                w, _ = hermitian_eig(H)
                if not np.allclose(w, reference, rtol=0, atol=1e-12):
                    mismatches.append(w)

        workers = [threading.Thread(target=work) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert mismatches == []
        assert threads() == 2
