"""The end-to-end sensor-state pipeline: codeword → geometry gates → noise.

The physical composition is fixed: squeeze by ln r, then loss, then
number-basis dephasing (dephasing AFTER loss; the channels do not commute and
the composition order is part of the contract), with the lattice rotation
R(θ) = e^{-iθn̂} applied last because it commutes with both channels.

Both channels are linear, so for a Bloch state c0|0_ε⟩ + c1|1_ε⟩

    ρ = R(θ)·[c0²M00 + |c1|²M11 + c0c1*M01 + h.c.]/tr·R(θ)†,
    M_ij = dephasing(loss(S|i_ε⟩⟨j_ε|S†)),  M10 = M01†.

`noisy_basis` builds (M00, M01, M11) and their slopes in r and ε once per
(ε, r, η, γ, D) and caches them; every other input only recombines them.
The Bloch poles θ_B ∈ {0, π} return M00 / M11 exactly, following
`logical_state`. Because R(θ) commutes with n̂, F_Q does not depend on θ and
`pipeline_qfi` never rotates. A sequence of specs (the probes of the
central-difference oracle) is recombined as one stack and solved in one
eigendecomposition; `sensor_state` and `pipeline_qfi` are its one-spec
views. A training step solves its one spec and takes ∂F_Q from the same
solve (`metrology.qfi_response`): the Bloch angles move only the
coefficients of the bilinear form, and r and ε only its matrices, whose
slopes come with the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import NoiseParams, apply_dephasing, apply_loss
from .metrology import qfi_mixed, qfi_response
from .states import (bloch_amplitudes, prepare_codeword, rotate_density,
                     squeeze, squeeze_gate, squeeze_generator)

__all__ = ["SensorSpec", "noisy_basis", "sensor_state", "pipeline_qfi"]


@dataclass(frozen=True)
class SensorSpec:
    """Everything that determines the pre-channel sensor state."""

    theta: float  # lattice rotation, radians
    r: float  # aspect ratio; squeeze parameter is ln r
    epsilon: float = 0.063
    bloch_theta: float = 0.0
    bloch_phi: float = 0.0
    cutoff: int = 30


@lru_cache(maxsize=16)
def noisy_basis(epsilon: float, r: float, eta: float, gamma: float,
                cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (M, ∂_r M, ∂_ε M), each the (3, D, D) stack over
    (i, j) = (0, 0), (0, 1), (1, 1) of M_ij = dephasing(loss(S|i_ε⟩⟨j_ε|S†))
    or of its slope.

    Both codewords share one squeeze. S = exp(−i·ln r·K) gives
    ∂_r(S·O·S†) = −i[K, S·O·S†]/r (`states.squeeze_generator`). While the
    comb's peak count stays fixed, ∂_ε|μ_ε⟩ = −(n̂ − ⟨n̂⟩_μ)|μ_ε⟩, which the
    gate maps without renormalizing (`states.squeeze_gate`). Both channels
    are linear, so the nine matrices go through them as one stack. Cached:
    during training with ε and r frozen this runs once, and each pipeline
    run costs a few elementwise operations and one eigendecomposition.
    """
    codewords = np.stack([prepare_codeword(0, epsilon, cutoff),
                          prepare_codeword(1, epsilon, cutoff)], axis=1)
    n = np.arange(cutoff)[:, None]
    mean_n = np.sum(n * np.abs(codewords) ** 2, axis=0)  # ⟨n̂⟩_μ
    log_r = math.log(r)
    kets, _ = squeeze(codewords, log_r)
    d_kets = squeeze_gate((mean_n - n) * codewords, log_r)
    pairs = ((0, 0), (0, 1), (1, 1))
    outer = np.stack([np.outer(kets[:, i], kets[:, j].conj())
                      for i, j in pairs])
    K = squeeze_generator(cutoff)
    d_r = (-1j / r) * (K @ outer - outer @ K)
    d_epsilon = np.stack([np.outer(d_kets[:, i], kets[:, j].conj())
                          + np.outer(kets[:, i], d_kets[:, j].conj())
                          for i, j in pairs])
    basis = apply_dephasing(
        apply_loss(np.concatenate([outer, d_r, d_epsilon]), eta), gamma)
    basis.setflags(write=False)
    return basis[:3], basis[3:6], basis[6:]


def _coefficients(c0, c1) -> tuple:
    """The bilinear form's (c00, c01, c11) = (c0², c0·c1*, |c1|²)."""
    return c0 * c0, c0 * np.conj(c1), abs(c1) ** 2


def _unrotated_states(specs, noise: NoiseParams) -> np.ndarray:
    """The noisy states at θ = 0 of a sequence of specs, as a fresh
    (len(specs), D, D) stack: the bilinear form broadcast over the specs,
    with each spec's coefficients computed as for a single state."""
    amplitudes = [bloch_amplitudes(spec.bloch_theta, spec.bloch_phi)
                  for spec in specs]
    M00, M01, M11 = np.stack([noisy_basis(spec.epsilon, spec.r, noise.eta,
                                          noise.gamma, spec.cutoff)[0]
                              for spec in specs], axis=1)
    coeffs = [_coefficients(c0, c1) for c0, c1 in amplitudes]
    c00, c01, c11 = (np.array(column)[:, None, None] for column in zip(*coeffs))
    cross = c01 * M01
    rho = c00 * M00 + c11 * M11 + cross + np.swapaxes(cross, -1, -2).conj()
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    for i, (c0, c1) in enumerate(amplitudes):
        if c1 == 0.0:
            rho[i] = M00[i]
        elif c0 == 0.0:
            rho[i] = M11[i]
    return rho


def _qfis(specs, noise: NoiseParams) -> np.ndarray:
    """F_Q of each spec's noisy state: one stacked eigendecomposition.

    Evaluated at θ = 0: R(θ) commutes with n̂, so F_Q is the same at any θ.
    """
    return qfi_mixed(_unrotated_states(specs, noise))


def _paired(coeffs, traces) -> float:
    """Tr(X·N) for the bilinear form N = c00·M00 + c11·M11 + c01·M01 + h.c.,
    from coeffs (c00, c01, c11) and traces Tr(X·M_ij); X Hermitian."""
    c00, c01, c11 = coeffs
    x00, x01, x11 = traces
    return float((c00 * x00 + c11 * x11 + 2.0 * c01 * x01).real)


def _qfi_gradient(spec: SensorSpec,
                  noise: NoiseParams) -> tuple[float, np.ndarray]:
    """F_Q of the spec's noisy state, as `pipeline_qfi` gives it, and
    ∂F_Q/∂(bloch_theta, bloch_phi, r, epsilon) from the same
    eigendecomposition.

    dF_Q = Tr(H·dρ) (`qfi_response`), and ρ = N/Tr N for the bilinear form
    N, so dρ = (dN − ρ·Tr dN)/Tr N. The Bloch angles move only the
    coefficients of N; r and ε move only its matrices (`noisy_basis`).
    """
    qfis, H = qfi_response(_unrotated_states([spec], noise))
    H = H[0]
    coeffs = _coefficients(*bloch_amplitudes(spec.bloch_theta,
                                             spec.bloch_phi))
    sin, cos = math.sin(spec.bloch_theta), math.cos(spec.bloch_theta)
    phase = np.exp(-1j * spec.bloch_phi)

    def pairings(stack) -> tuple:
        """(Tr(H·X_ij), Tr X_ij) over a (3, D, D) stack X."""
        return (np.sum(H.T * stack, axis=(-2, -1)),
                np.trace(stack, axis1=-2, axis2=-1))

    (h, traces), d_r, d_epsilon = (pairings(stack) for stack in noisy_basis(
        spec.epsilon, spec.r, noise.eta, noise.gamma, spec.cutoff))
    norm = _paired(coeffs, traces)
    mean_h = _paired(coeffs, h) / norm  # Tr(H·ρ)

    def along(d_coeffs, h, traces) -> float:
        """Tr(H·dρ) where dN has coefficients d_coeffs over matrices with
        Tr(H·M_ij) = h and Tr M_ij = traces."""
        return (_paired(d_coeffs, h)
                - mean_h * _paired(d_coeffs, traces)) / norm

    return float(qfis[0]), np.array([
        along((-0.5 * sin, 0.5 * cos * phase, 0.5 * sin), h, traces),
        along((0.0, -1j * coeffs[1], 0.0), h, traces),
        along(coeffs, *d_r),
        along(coeffs, *d_epsilon)])


def sensor_state(spec: SensorSpec, noise: NoiseParams) -> np.ndarray:
    """Noisy sensor state R(θ)·ρ₀·R(θ)†; a fresh array the caller may modify."""
    return rotate_density(_unrotated_states([spec], noise)[0], spec.theta)


def pipeline_qfi(spec: SensorSpec, noise: NoiseParams) -> float:
    """Mixed-state QFI of the noisy sensor state with generator n̂; the
    one-spec view of the stacked solve (`_qfis`)."""
    return float(_qfis([spec], noise)[0])
