"""Dense linear algebra in the truncated photon-number basis.

Conventions used throughout the package:

* kets are 1-D arrays of length D (cutoff dimension), operators and density
  matrices D x D arrays: float64 where real (a, n̂, q, the codewords, the
  squeeze generator, the noisy basis), complex only where a phase enters
  (the Bloch azimuth e^{iφ}, the rotation R(θ), x_ψ's e^{iψ}),
* quadratures are q = (a + a†)/√2, p = i(a† − a)/√2, so the vacuum has
  variance 1/2 in each.

Everything is a plain numpy array; the helpers below build the standard
operators and enforce the numerical contracts (hermiticity, trace, residuals)
that the rest of the package relies on. No code here picks a BLAS thread
count: `gridsense.cli` pins its own process to one OpenBLAS thread, and a
library caller that wants the same sets `OPENBLAS_NUM_THREADS=1` before it
imports numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "annihilation",
    "number_op",
    "position_op",
    "quadrature_op",
    "hermitian_eig",
    "expectation",
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
    """Annihilation operator a with a[n-1, n] = sqrt(n), for cutoff D >= 2;
    real, so a† = a.T."""
    if D < 2:
        raise InvalidDimensionError(f"cutoff must be >= 2, got {D}")
    a = np.zeros((D, D))
    n = np.arange(1, D)
    a[n - 1, n] = np.sqrt(n)
    return a


def number_op(D: int) -> np.ndarray:
    """n̂ = a†a, the real diagonal (0, 1, ..., D-1)."""
    if D < 2:
        raise InvalidDimensionError(f"cutoff must be >= 2, got {D}")
    return np.diag(np.arange(D, dtype=float))


def position_op(D: int) -> np.ndarray:
    """q = (a + a†)/√2."""
    a = annihilation(D)
    return (a + a.T) / np.sqrt(2.0)


def quadrature_op(D: int, psi: float) -> np.ndarray:
    """Rotated quadrature x_ψ = (a e^{iψ} + a† e^{-iψ})/√2.

    ψ = 0 gives q; ψ = π/2 gives -p in the convention p = i(a† - a)/√2.
    `cfi_homodyne` uses x_ψ only through |∂⟨x_ψ⟩|² and Var(x_ψ), both
    invariant under x → -x, so the overall sign is immaterial.
    """
    a = annihilation(D)
    return (a * np.exp(1j * psi) + a.T * np.exp(-1j * psi)) / np.sqrt(2.0)


# Not exported and not called by the package (`states.squeeze` diagonalizes
# its generator instead): kept only because bench/tracer.py spans it by name.
# It moves to the tests with ROADMAP item 1, which lets the tracer skip it.
def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential e^M (scaling-and-squaring with a Padé core), the
    tests' reference for displacement operators.

    Raises NumericError on non-finite input; the relative-accuracy contract
    (<1e-10 for ‖M‖ ≤ 10) is covered by the test suite against term-by-term
    Taylor summation. scipy is a test-only dependency, imported here on
    first use and never by the CLI.
    """
    import scipy.linalg

    M = np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(M)):
        raise NumericError("matrix_exp: input has non-finite entries")
    return scipy.linalg.expm(M)


def in_domain(value, domain):
    """Whether `value` is in `domain` = (lo, hi, strict): above lo (or at it
    unless strict), at most hi (None: no bound). Elementwise; ints exact."""
    lo, hi, strict = domain
    inside = value > lo if strict else value >= lo
    return inside if hi is None else inside & (value <= hi)


def domain_text(domain) -> str:
    """A domain triple as messages print it: "in (0, 1]" or ">= 1"."""
    lo, hi, strict = domain
    if hi is None:
        return f"{'>' if strict else '>='} {lo:.12g}"
    return f"in {'(' if strict else '['}{lo:.12g}, {hi:.12g}]"


def check_domain(name: str, value, domain) -> None:
    """ValueError naming `name` unless all of `value` is in `domain`."""
    if not np.all(in_domain(value, domain)):
        raise ValueError(f"{name} must be {domain_text(domain)}, got {value}")


def hermitian_eig(M: np.ndarray, *, tol: float = 1e-10):
    """Eigendecomposition of one Hermitian D×D matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). The matrix
    must be Hermitian within `tol` (max-abs entrywise); it is symmetrized
    before the solve so the output is exactly consistent with a Hermitian
    operator. A non-finite entry raises NumericError, and any other shape,
    a stack of matrices included, ValueError.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected one D x D matrix, got shape {M.shape}")
    M_h = M.T.conj()
    # A non-finite entry makes the defect NaN or inf (inf − inf on the
    # diagonal, unwarned), which fails this test.
    with np.errstate(invalid="ignore"):
        herm_defect = np.max(np.abs(M - M_h))
    if not herm_defect <= tol:
        if not np.all(np.isfinite(M)):
            raise NumericError("hermitian_eig: input has non-finite entries")
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e} > {tol:.1e})")
    w, V = np.linalg.eigh((M + M_h) / 2.0)
    return w, V


def expectation(rho: np.ndarray, M: np.ndarray) -> complex:
    """Tr(ρM). Real within 1e-10 when M is Hermitian (not enforced here)."""
    rho = np.asarray(rho)
    M = np.asarray(M)
    if rho.shape != M.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, M {M.shape}")
    # Tr(rho @ M) without forming the product
    return complex(np.sum(rho.T * M))


def check_ket(psi: np.ndarray, *, tol: float = 1e-12) -> None:
    """Assert the ket normalization contract (2-norm 1 within tol)."""
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"ket is not normalized: ||psi|| = {nrm!r}")


def check_density(rho: np.ndarray) -> None:
    """Assert the density-matrix contract: Hermitian, unit trace, PSD.

    Hermiticity within 1e-12 entrywise (checked by `hermitian_eig`), trace
    within 1e-10 of 1, eigenvalues above -1e-10 (the module constants).
    """
    w, _ = hermitian_eig(rho, tol=HERMITICITY_TOL)
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density trace {tr!r} != 1")
    if w.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"density has eigenvalue {w.min():.3e} below floor")
