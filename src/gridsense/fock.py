"""Dense complex linear algebra in the truncated photon-number basis.

Conventions used throughout the package:

* kets are 1-D complex arrays of length D (cutoff dimension),
* operators and density matrices are D x D complex arrays,
* quadratures are q = (a + a†)/√2, p = i(a† − a)/√2, so the vacuum has
  variance 1/2 in each.

Everything is a plain numpy array; the helpers below build the standard
operators and enforce the numerical contracts (hermiticity, trace, residuals)
that the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "annihilation",
    "creation",
    "number_op",
    "position_op",
    "quadrature_op",
    "matrix_exp",
    "hermitian_eig",
    "expectation",
    "ket_density",
    "check_ket",
    "check_density",
    "InvalidDimensionError",
    "NumericError",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


class InvalidDimensionError(ValueError):
    """Raised when a cutoff dimension is too small to be meaningful."""


class NumericError(ArithmeticError):
    """Raised when a numerical contract (finiteness, residual bound) fails."""


def annihilation(D: int) -> np.ndarray:
    """Annihilation operator a with a[n-1, n] = sqrt(n), for cutoff D >= 2."""
    if D < 2:
        raise InvalidDimensionError(f"cutoff must be >= 2, got {D}")
    a = np.zeros((D, D), dtype=complex)
    n = np.arange(1, D)
    a[n - 1, n] = np.sqrt(n)
    return a


def creation(D: int) -> np.ndarray:
    return annihilation(D).conj().T


def number_op(D: int) -> np.ndarray:
    """n̂ = a†a, diagonal (0, 1, ..., D-1)."""
    if D < 2:
        raise InvalidDimensionError(f"cutoff must be >= 2, got {D}")
    return np.diag(np.arange(D, dtype=float)).astype(complex)


def position_op(D: int) -> np.ndarray:
    """q = (a + a†)/√2."""
    a = annihilation(D)
    return (a + a.conj().T) / np.sqrt(2.0)


def quadrature_op(D: int, psi: float) -> np.ndarray:
    """Rotated quadrature x_ψ = (a e^{iψ} + a† e^{-iψ})/√2.

    ψ = 0 gives q; ψ = π/2 gives -p in the convention p = i(a† - a)/√2. The
    homodyne CFI only uses x_ψ through |∂⟨x_ψ⟩|² and Var(x_ψ), both invariant
    under x → -x, so the overall sign is immaterial.
    """
    a = annihilation(D)
    return (a * np.exp(1j * psi) + a.conj().T * np.exp(-1j * psi)) / np.sqrt(2.0)


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential e^M (scaling-and-squaring with a Padé core).

    Raises NumericError on non-finite input; the relative-accuracy contract
    (<1e-10 for ‖M‖ ≤ 10) is covered by the test suite against term-by-term
    Taylor summation. The package itself does not call it (`states.squeeze`
    diagonalizes its generator instead), so scipy.linalg is imported here,
    on first use, and never by the CLI.
    """
    import scipy.linalg

    M = np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(M)):
        raise NumericError("matrix_exp: input has non-finite entries")
    return scipy.linalg.expm(M)


def hermitian_eig(M: np.ndarray, *, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). The input must
    be Hermitian within `tol` (max-abs entrywise); it is symmetrized before
    the solve so the output is exactly consistent with a Hermitian operator.
    """
    M = np.asarray(M)
    herm_defect = np.max(np.abs(M - M.conj().T))
    if herm_defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e} > {tol:.1e})")
    w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    return w, V


def expectation(rho: np.ndarray, M: np.ndarray) -> complex:
    """Tr(ρM). Real within 1e-10 when M is Hermitian (not enforced here)."""
    rho = np.asarray(rho)
    M = np.asarray(M)
    if rho.shape != M.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, M {M.shape}")
    # Tr(rho @ M) without forming the product
    return complex(np.sum(rho.T * M))


def ket_density(psi: np.ndarray) -> np.ndarray:
    """|ψ⟩⟨ψ| as a density matrix."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def check_ket(psi: np.ndarray, *, tol: float = 1e-12) -> None:
    """Assert the ket normalization contract (2-norm 1 within tol)."""
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"ket is not normalized: ||psi|| = {nrm!r}")


def check_density(rho: np.ndarray, *, herm_tol: float = HERMITICITY_TOL,
                  trace_tol: float = TRACE_TOL,
                  eig_floor: float = EIGENVALUE_FLOOR) -> None:
    """Assert the density-matrix contract: Hermitian, unit trace, PSD.

    Hermiticity within 1e-12 entrywise, trace within 1e-10 of 1, eigenvalues
    above -1e-10 (defaults; all overridable).
    """
    rho = np.asarray(rho)
    defect = np.max(np.abs(rho - rho.conj().T))
    if defect > herm_tol:
        raise ValueError(f"density not Hermitian: defect {defect:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density trace {tr!r} != 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w.min() < eig_floor:
        raise ValueError(f"density has eigenvalue {w.min():.3e} below floor")
