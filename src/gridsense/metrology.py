"""Quantum and classical Fisher information, measurement efficiency, and the
joint sensitivity–fault-tolerance capacity figure.

The phase parameter φ enters through U(φ) = e^{-iφ n̂}; since the generator
commutes with both noise channels the state derivative at the channel output
is exactly ∂_φ ρ = -i[n̂, ρ], which is what `cfi_homodyne` uses.

The mixed-state F_Q has one solve, `qfi_response`, which also gives its
response to ρ; `qfi_mixed` is that F_Q.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import (check_domain, check_ket, expectation, hermitian_eig,
                   number_op, quadrature_op)

__all__ = [
    "qfi_pure",
    "qfi_mixed",
    "qfi_response",
    "cfi_homodyne",
    "measurement_efficiency",
    "capacity",
]

DEFAULT_EIG_TOL = 1e-12  # the smallest λ_j + λ_k that F_Q sums over
VAR_FLOOR = 1e-14  # the smallest Var(x_ψ) that `cfi_homodyne` accepts


def qfi_pure(psi: np.ndarray) -> float:
    """Pure-state quantum Fisher information 4·Var_ψ(n̂)."""
    psi = np.asarray(psi, dtype=complex)
    check_ket(psi, tol=1e-10)
    npsi = np.arange(psi.shape[0]) * psi
    mean = np.vdot(psi, npsi).real
    second = np.vdot(npsi, npsi).real
    return 4.0 * (second - mean * mean)


def qfi_mixed(rho: np.ndarray) -> float:
    """Mixed-state QFI for the generator n̂, via the eigenbasis of ρ:

        F_Q = 2 Σ_{jk} (λ_j - λ_k)²/(λ_j + λ_k) · |⟨j|n̂|k⟩|²,

    summing only pairs with λ_j + λ_k > DEFAULT_EIG_TOL: `qfi_response`'s F_Q,
    bit for bit. Reduces to `qfi_pure` on rank-1 inputs.
    """
    return qfi_response(rho)[0]


def qfi_response(rho: np.ndarray):
    """F_Q as `qfi_mixed` gives it, and the Hermitian H with
    dF_Q = Tr(H·dρ) for any Hermitian perturbation dρ, from one solve.

    The eigenvalues λ of ρ are clipped at 0. With the symmetric logarithmic
    derivative of ∂_φρ = −i[n̂, ρ], in the eigenbasis of ρ and summed over
    λ_j + λ_k > DEFAULT_EIG_TOL only,

        L_jk = 2i(λ_j − λ_k)·⟨j|n̂|k⟩/(λ_j + λ_k),  H = −2i[L, n̂] − L²

    (Liu, Yuan, Lu & Wang, J. Phys. A 53, 023001 (2020)). H is returned in
    the number basis. `hermitian_eig` rejects anything but one D×D state.
    """
    w, V = hermitian_eig(rho)
    w = np.clip(w, 0.0, None)
    n = np.arange(V.shape[0])
    n_eig = V.conj().T @ (n[:, None] * V)
    lam_sum = w[:, None] + w[None, :]
    lam_diff = w[:, None] - w[None, :]
    mask = lam_sum > DEFAULT_EIG_TOL
    weights = np.divide(lam_diff ** 2, lam_sum, out=np.zeros_like(lam_sum),
                        where=mask)
    qfi = float(2.0 * np.sum(weights * np.abs(n_eig) ** 2))
    sld = np.divide(2j * lam_diff * n_eig, lam_sum,
                    out=np.zeros_like(n_eig), where=mask)
    h_eig = -2j * (sld @ n_eig - n_eig @ sld) - sld @ sld
    return qfi, V @ h_eig @ V.conj().T


def cfi_homodyne(rho: np.ndarray, psi_angle: float) -> float:
    """Error-propagation figure of homodyne detection at LO angle ψ:

        |∂_φ ⟨x_ψ⟩|² / Var(x_ψ),  x_ψ = (a e^{iψ} + a† e^{-iψ})/√2,

    with ∂_φ ρ = -i[n̂, ρ] (exact; see module docstring). The homodyne
    classical Fisher information only for Gaussian states, it is ≤ 7e-34 on
    every parity-symmetric state the pipeline builds, where ⟨x_ψ⟩ ≡ 0.
    ValueError when Var(x_ψ) is below VAR_FLOOR.
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
    if var < VAR_FLOOR:
        raise ValueError(f"homodyne variance {var:.3e} below floor {VAR_FLOOR:.1e}")
    return signal * signal / var


def measurement_efficiency(p_err: float) -> float:
    """Binary-channel measurement efficiency 1 − 4p(1−p)."""
    check_domain("p_err", p_err, (0.0, 1.0, False))
    return 1.0 - 4.0 * p_err * (1.0 - p_err)


def capacity(qfi: float, p_err: float) -> float:
    """Metrological capacity C = F_Q · (−ln P_err); NaN at P_err = 0, where
    −ln P_err is unbounded."""
    check_domain("qfi", qfi, (0.0, None, False))
    if not 0.0 <= p_err < 1.0:
        raise ValueError(f"p_err must lie in [0, 1), got {p_err}")
    return qfi * -np.log(p_err) if p_err > 0.0 else math.nan
