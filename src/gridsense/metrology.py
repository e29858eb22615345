"""Quantum and classical Fisher information, measurement efficiency, and the
joint sensitivity–fault-tolerance capacity figure.

The phase parameter φ enters through U(φ) = e^{-iφ n̂}; since the generator
commutes with both noise channels the state derivative at the channel output
is exactly ∂_φ ρ = -i[n̂, ρ], which is what `cfi_homodyne` uses.
"""

from __future__ import annotations

import numpy as np

from .fock import expectation, hermitian_eig, number_op, quadrature_op

__all__ = [
    "qfi_pure",
    "qfi_mixed",
    "cfi_homodyne",
    "measurement_efficiency",
    "capacity",
]

DEFAULT_EIG_TOL = 1e-12


def qfi_pure(psi: np.ndarray) -> float:
    """Pure-state quantum Fisher information 4·Var_ψ(n̂)."""
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"qfi_pure needs a normalized ket, got norm {nrm!r}")
    npsi = np.arange(psi.shape[0]) * psi
    mean = np.vdot(psi, npsi).real
    second = np.vdot(npsi, npsi).real
    return 4.0 * (second - mean * mean)


def qfi_mixed(rho: np.ndarray, *,
              eig_tol: float = DEFAULT_EIG_TOL) -> float | np.ndarray:
    """Mixed-state QFI for the generator n̂, via the eigenbasis of ρ:

        F_Q = 2 Σ_{jk} (λ_j - λ_k)²/(λ_j + λ_k) · |⟨j|n̂|k⟩|²,

    summing only pairs with λ_j + λ_k > eig_tol. Reduces to `qfi_pure` on
    rank-1 inputs. A (..., D, D) stack of states is solved in one
    `hermitian_eig` call and gives an array of F_Q; one D x D state gives a
    float.
    """
    w, V = hermitian_eig(rho)
    w = np.clip(w, 0.0, None)
    n = np.arange(V.shape[-1])
    n_eig = np.swapaxes(V, -1, -2).conj() @ (n[:, None] * V)
    lam_sum = w[..., :, None] + w[..., None, :]
    lam_diff = w[..., :, None] - w[..., None, :]
    weights = np.divide(lam_diff ** 2, lam_sum, out=np.zeros_like(lam_sum),
                        where=lam_sum > eig_tol)
    terms = weights * np.abs(n_eig) ** 2
    # One contiguous D² sum per state: the summation order of a single state.
    qfi = 2.0 * np.sum(terms.reshape(*terms.shape[:-2], -1), axis=-1)
    return float(qfi) if qfi.ndim == 0 else qfi


def cfi_homodyne(rho: np.ndarray, psi_angle: float, *,
                 var_floor: float = 1e-14) -> float:
    """Classical Fisher information of homodyne detection at LO angle ψ:

        F_C = |∂_φ ⟨x_ψ⟩|² / Var(x_ψ),  x_ψ = (a e^{iψ} + a† e^{-iψ})/√2,

    with ∂_φ ρ = -i[n̂, ρ] (exact; see module docstring).
    """
    rho = np.asarray(rho, dtype=complex)
    D = rho.shape[0]
    x = quadrature_op(D, psi_angle)
    n = number_op(D)
    drho = -1j * (n @ rho - rho @ n)
    signal = abs(complex(expectation(drho, x)))
    x_mean = expectation(rho, x).real
    x2_mean = expectation(rho, x @ x).real
    var = x2_mean - x_mean * x_mean
    if var < var_floor:
        raise ValueError(f"homodyne variance {var:.3e} below floor {var_floor:.1e}")
    return signal * signal / var


def measurement_efficiency(p_err: float) -> float:
    """Binary-channel measurement efficiency 1 − 4p(1−p)."""
    if not 0.0 <= p_err <= 1.0:
        raise ValueError(f"p_err must lie in [0, 1], got {p_err}")
    return 1.0 - 4.0 * p_err * (1.0 - p_err)


def capacity(qfi: float, p_err: float) -> float:
    """Metrological capacity C = F_Q · (−ln P_err)."""
    if qfi < 0.0:
        raise ValueError(f"qfi must be >= 0, got {qfi}")
    if not 0.0 < p_err < 1.0:
        raise ValueError(f"p_err must lie in (0, 1), got {p_err}")
    return qfi * -np.log(p_err)
