"""The end-to-end sensor-state pipeline: codeword → geometry gates → noise.

The physical composition is fixed: squeeze by ln r, then loss, then
number-basis dephasing (dephasing AFTER loss; the channels do not commute and
the composition order is part of the contract), with the lattice rotation
R(θ) = e^{-iθn̂} applied last because it commutes with both channels.

Both channels are linear, so for a Bloch state c0|0_ε⟩ + c1|1_ε⟩

    ρ = R(θ)·[c0²M00 + |c1|²M11 + c0c1*M01 + h.c.]/tr·R(θ)†,
    M_ij = dephasing(loss(S|i_ε⟩⟨j_ε|S†)),  M10 = M01†.

`noisy_basis` builds (M00, M01, M11) once per (ε, r, η, γ, D) and caches
them; every other input only recombines them. The Bloch poles θ_B ∈ {0, π}
return M00 / M11 exactly, following `logical_state`. Because R(θ) commutes
with n̂, F_Q does not depend on θ and `pipeline_qfi` never rotates.

`sensor_ket` is the direct route (codeword → squeeze → rotate) that the
tests compose with `apply_loss` and `apply_dephasing` as the reference for
`sensor_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import NoiseParams, apply_dephasing, apply_loss
from .fock import number_op
from .metrology import qfi_mixed
from .states import (bloch_amplitudes, logical_state, prepare_codeword,
                     rotate, rotate_density, squeeze)

__all__ = ["SensorSpec", "noisy_basis", "sensor_ket", "sensor_state",
           "pipeline_qfi"]


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
    """Read-only (M00, M01, M11) with M_ij = dephasing(loss(S|i_ε⟩⟨j_ε|S†)).

    Both codewords share one squeeze exponential. Cached: during training
    with ε and r frozen this runs once, and each pipeline run costs a few
    elementwise operations and one eigendecomposition.
    """
    codewords = np.stack([prepare_codeword(0, epsilon, cutoff),
                          prepare_codeword(1, epsilon, cutoff)], axis=1)
    squeezed, _ = squeeze(codewords, math.log(r))
    k0, k1 = squeezed.T
    basis = tuple(apply_dephasing(apply_loss(np.outer(a, b.conj()), eta), gamma)
                  for a, b in ((k0, k0), (k0, k1), (k1, k1)))
    for M in basis:
        M.setflags(write=False)
    return basis


def sensor_ket(spec: SensorSpec) -> tuple[np.ndarray, float]:
    """Pure sensor state before the noise channels; returns (ket, leakage)."""
    psi = logical_state(spec.bloch_theta, spec.bloch_phi, spec.epsilon,
                        spec.cutoff)
    psi, leakage = squeeze(psi, math.log(spec.r))
    psi = rotate(psi, spec.theta)
    return psi, leakage


def _unrotated_state(spec: SensorSpec, noise: NoiseParams) -> np.ndarray:
    """The noisy state at θ = 0; may be a read-only cached basis matrix."""
    c0, c1 = bloch_amplitudes(spec.bloch_theta, spec.bloch_phi)
    M00, M01, M11 = noisy_basis(spec.epsilon, spec.r, noise.eta, noise.gamma,
                                spec.cutoff)
    if c1 == 0.0:
        return M00
    if c0 == 0.0:
        return M11
    cross = (c0 * np.conj(c1)) * M01
    rho = c0 * c0 * M00 + abs(c1) ** 2 * M11 + cross + cross.conj().T
    return rho / np.trace(rho).real


def sensor_state(spec: SensorSpec, noise: NoiseParams) -> np.ndarray:
    """Noisy sensor state R(θ)·ρ₀·R(θ)†; a fresh array the caller may modify."""
    return rotate_density(_unrotated_state(spec, noise), spec.theta)


def pipeline_qfi(spec: SensorSpec, noise: NoiseParams) -> float:
    """Mixed-state QFI of the noisy sensor state with generator n̂.

    Evaluated at θ = 0: R(θ) commutes with n̂, so F_Q is the same at any θ.
    """
    return qfi_mixed(_unrotated_state(spec, noise), number_op(spec.cutoff))
