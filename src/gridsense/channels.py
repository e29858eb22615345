"""Photon-loss and dephasing channels in the number basis, plus the
closed-form per-quadrature noise spreads used by the analytic error model.

Two dephasing maps are provided on purpose:

* `apply_dephasing` — the elementwise number-basis map
  ρ_mn → ρ_mn·e^{-γ(m-n)²/2}. This is what the simulation pipeline applies
  (after loss). Being a Hadamard multiplication it commutes exactly with
  phase-space rotations.
* `apply_momentum_diffusion` — Gaussian diffusion of p with variance γ,
  i.e. ρ(q, q′) → ρ(q, q′)·e^{-γ(q-q′)²/2}, discretized on the D-point
  Gauss–Hermite grid (`states._gauss_hermite`). This channel is
  anisotropic (it singles out the p axis) and is NOT rotation-covariant; it
  is the channel whose rotated-frame spreads are the σ_q(θ), σ_p(θ)
  formulas below.

The two maps agree only approximately; both are kept so each claim about
"dephasing" can be tested against the map it is actually true of. The
Wigner kernel reads the loss amplitudes' ln(n!) table, `_log_factorials`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import check_domain
from .states import _gauss_hermite

__all__ = [
    "NoiseParams",
    "apply_loss",
    "apply_dephasing",
    "apply_momentum_diffusion",
    "effective_sigmas",
]


# (lo, hi, strict) triples, as `fock.in_domain` reads them.
NOISE_DOMAINS = {"eta": (0.0, 1.0, True), "gamma": (0.0, 0.5, False)}


@dataclass(frozen=True)
class NoiseParams:
    """Transmissivity η and dephasing rate γ, in `NOISE_DOMAINS`.

    Either field may also be an array of cells (the two broadcast together);
    the closed-form model functions then return arrays of the same shape.
    """

    eta: float
    gamma: float

    def __post_init__(self):
        for name, domain in NOISE_DOMAINS.items():
            check_domain(name, np.asarray(getattr(self, name)), domain)


@lru_cache(maxsize=32)
def _log_factorials(D: int) -> np.ndarray:
    """Read-only ln(n!) for n = 0..D-1."""
    out = np.array([math.lgamma(n + 1.0) for n in range(D)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _loss_amplitudes(eta: float, D: int) -> np.ndarray:
    """Read-only A[k, m] = √(C(m+k, k) (1-η)^k η^m) for m + k < D, zero
    elsewhere; cached per (η, D).

    Row k holds the one nonzero diagonal of the k-photon Kraus operator,
    K_k[m, m+k] = A[k, m]. Computed in log space so large-n binomials stay
    finite. Callers handle η = 1 (the identity channel) themselves.
    """
    check_domain("eta", eta, NOISE_DOMAINS["eta"])
    lgamma = _log_factorials(D)
    log_eta = math.log(eta)
    log_one_minus = math.log1p(-eta)
    A = np.zeros((D, D))
    for k in range(D):
        m = np.arange(D - k)
        log_w = (lgamma[m + k] - lgamma[k] - lgamma[m]
                 + k * log_one_minus + m * log_eta)
        A[k, :D - k] = np.exp(0.5 * log_w)
    A.setflags(write=False)
    return A


# Not exported and not called by the package: kept only because
# bench/tracer.py spans it by name. It moves to the tests with ROADMAP item 1,
# which lets the tracer skip it.
def loss_kraus(eta: float, D: int) -> list[np.ndarray]:
    """Kraus operators of the photon-loss channel with transmissivity η.

    K_k[n-k, n] = sqrt(C(n,k) (1-η)^k η^{n-k}), k = 0..D-1. Σ K†K = I exactly
    within the truncated space. Kept as the dense reference for `apply_loss`.
    """
    if eta == 1.0:
        return [np.eye(D)]
    A = _loss_amplitudes(eta, D)
    ops = []
    for k in range(D):
        m = np.arange(D - k)
        K = np.zeros((D, D))
        K[m, m + k] = A[k, :D - k]
        ops.append(K)
    return ops


def apply_loss(rho: np.ndarray, eta: float) -> np.ndarray:
    """Loss channel Σ_k K_k ρ K_k†; trace-preserving within the cutoff.

    K_k has one nonzero diagonal a_k (row k of `_loss_amplitudes`), so
    (K_k ρ K_k†)[a, b] is W_k[a, b]·ρ[a+k, b+k] with W_k = a_k·a_kᵀ: each
    term is an elementwise product on a shifted block, with no dense Kraus
    matrix and no matrix product. Linear in ρ, so it also maps non-Hermitian
    operators such as |i⟩⟨j|. A (..., D, D) stack is mapped matrix by matrix
    in the one loop over k; a real input gives a real output.
    """
    rho = np.asarray(rho)
    if eta == 1.0:
        return rho.copy()
    D = rho.shape[-1]
    out = np.zeros(rho.shape, np.result_type(rho, float))
    for k, a_k in enumerate(_loss_amplitudes(eta, D)):
        a_k = a_k[:D - k]
        out[..., :D - k, :D - k] += np.outer(a_k, a_k) * rho[..., k:, k:]
    return out


def apply_dephasing(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Number-basis dephasing ρ_mn → ρ_mn·e^{-γ(m-n)²/2}, matrix by matrix
    on a (..., D, D) stack.

    Diagonal (and hence trace) is untouched for any γ.
    """
    check_domain("gamma", gamma, NOISE_DOMAINS["gamma"])
    rho = np.asarray(rho)
    n = np.arange(rho.shape[-1])
    dn = n[:, None] - n[None, :]
    return rho * np.exp(-0.5 * gamma * dn.astype(float) ** 2)


def apply_momentum_diffusion(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian diffusion of the p quadrature with variance γ, as a
    discrete-variable approximation on the D-point Gauss–Hermite grid.

    Its nodes q_i are the spectrum of the truncated q̂, whose real
    orthonormal eigenbasis is V = Φᵀ·diag(√s) (`states._gauss_hermite`);
    the map is ρ(q_i, q_j) → ρ(q_i, q_j)·e^{-γ(q_i-q_j)²/2}. Completely
    positive and trace preserving; anisotropic, hence not rotation-covariant.
    """
    check_domain("gamma", gamma, NOISE_DOMAINS["gamma"])
    rho = np.asarray(rho)
    x, s, phi = _gauss_hermite(rho.shape[0])
    V = phi.T * np.sqrt(s)
    rho_q = V.T @ rho @ V
    dq = x[:, None] - x[None, :]
    rho_q *= np.exp(-0.5 * gamma * dq**2)
    return V @ rho_q @ V.T


def effective_sigmas(noise: NoiseParams, theta):
    """Per-quadrature displacement spreads of the rotated-frame error model.

    σ_q²(θ) = (1-η)/(2η) + γ sin²θ,  σ_p²(θ) = (1-η)/(2η) + γ cos²θ.

    The loss term is isotropic; the dephasing term is the p-axis diffusion
    seen from a frame rotated by θ. Their sum σ_q² + σ_p² = (1-η)/η + γ is
    θ-independent. θ and the noise fields broadcast together.
    """
    base = (1.0 - noise.eta) / (2.0 * noise.eta)
    s, c = np.sin(theta), np.cos(theta)
    sigma_q = np.sqrt(base + noise.gamma * s * s)
    sigma_p = np.sqrt(base + noise.gamma * c * c)
    return sigma_q, sigma_p
