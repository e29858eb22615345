"""The end-to-end sensor-state pipeline: codeword → geometry gates → noise.

The physical composition is fixed: squeeze by ln r, then loss, then
number-basis dephasing, with the lattice rotation R(θ) = e^{-iθn̂} applied
last because it commutes with both channels. Loss and dephasing commute as
well: loss is phase-covariant, and number dephasing is an average of R(φ).

Loss takes a ket to its loss columns U, with loss(|x⟩⟨y|) = U_x·U_y† and U
linear in the ket (`channels.loss_columns`). So for the Bloch ket
c0|k0⟩ + c1|k1⟩, |k_μ⟩ = S|μ_ε⟩, and E dephasing's elementwise factor,

    ρ = R(θ)·[E⊙(U·U†)/Tr]·R(θ)†,  U = c0·W0 + c1·W1.

`loss_basis` caches the loss columns W of k0, k1 and of their r and ε
slopes per (ε, r, η, D); every other input only recombines them. Because
R(θ) commutes with n̂, F_Q does not depend on θ and `pipeline_qfi` never
rotates. A training step solves its one state and takes ∂F_Q from the same
solve (`metrology.qfi_response`), paired with the six columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import NoiseParams, _dephasing_factor, loss_columns
from .lattice import check_aspect_ratio
from .metrology import qfi_mixed, qfi_response
from .states import (bloch_amplitudes, prepare_codeword, rotate_density,
                     squeeze, squeeze_generator)

__all__ = ["SensorSpec", "loss_basis", "sensor_state", "pipeline_qfi"]


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
def loss_basis(epsilon: float, r: float, eta: float,
               cutoff: int) -> np.ndarray:
    """The read-only float64 (6, D, D) loss columns W (`loss_columns`) of
    the kets k0, k1, ∂_r k0, ∂_r k1, ∂_ε k0, ∂_ε k1, |k_μ⟩ = S|μ_ε⟩.

    S = exp(ln r·G) squeezes both codewords, so ∂_r|k_μ⟩ = G|k_μ⟩/r
    (`states.squeeze_generator`). While the comb's peak count stays fixed,
    ∂_ε|μ_ε⟩ = −(n̂ − ⟨n̂⟩_μ)|μ_ε⟩, and ∂_ε|k_μ⟩ is S of that: one `squeeze`
    maps the codewords and their ε slopes as four columns; S is real, so
    their real part drops only roundoff. Cached per (ε, r, η, D), so
    training builds it once while ε and r are frozen.
    """
    check_aspect_ratio(r)
    codewords = np.stack([prepare_codeword(0, epsilon, cutoff),
                          prepare_codeword(1, epsilon, cutoff)], axis=1)
    n = np.arange(cutoff)[:, None]
    mean_n = np.sum(n * codewords ** 2, axis=0)  # ⟨n̂⟩_μ
    columns = squeeze(np.hstack([codewords, (mean_n - n) * codewords]),
                      math.log(r)).real
    kets = columns[:, :2]
    basis = loss_columns(np.hstack(
        [kets, squeeze_generator(cutoff) @ kets / r, columns[:, 2:]]), eta)
    basis.setflags(write=False)
    return basis


def _unrotated_state(spec: SensorSpec, noise: NoiseParams) -> np.ndarray:
    """The spec's noisy state at θ = 0 (`_state`)."""
    return _state(*bloch_amplitudes(spec.bloch_theta, spec.bloch_phi),
                  loss_basis(spec.epsilon, spec.r, noise.eta, spec.cutoff),
                  _dephasing_factor(noise.gamma, spec.cutoff))[1]


def _state(c0, c1, W, E) -> tuple[np.ndarray, np.ndarray]:
    """U = c0·W0 + c1·W1, the loss columns of the Bloch ket, and the noisy
    state ρ = E⊙(U·U†)/Tr at θ = 0, both fresh complex (D, D) arrays.

    At a Bloch pole, 1.0·W0 + 0j·W1 is W0 exactly (and 0.0·W0 + 1·W1 is W1).
    """
    U = c0 * W[0] + c1 * W[1]
    rho = E * (U @ U.conj().T)
    rho /= np.trace(rho).real
    return U, rho


def _qfi_gradient(spec: SensorSpec,
                  noise: NoiseParams) -> tuple[float, np.ndarray]:
    """F_Q of the spec's noisy state, as `pipeline_qfi` gives it, and
    ∂F_Q/∂(bloch_theta, bloch_phi, r, epsilon) from the same solve.

    dF_Q = Tr(H·dρ) (`qfi_response`) with ρ = N/Tr N, N = E⊙(U·U†). E is
    real, symmetric and 1 on its diagonal, so with G = (E⊙H)·U and
    ⟨X, Y⟩ = Tr(X†Y), dF_Q = 2 Re⟨G − Tr(Hρ)·U, dU⟩/Tr N. Each slope of
    the ket is dU = Σ_j C_dj·W_j over the six columns (`loss_basis`). The
    θ_B slope is taken in the ket's own phase, which `bloch_amplitudes`
    drops at θ_B = π: (−e^{−iφ}c1·|k0⟩ + e^{iφ}c0·|k1⟩)/2.
    """
    c0, c1 = bloch_amplitudes(spec.bloch_theta, spec.bloch_phi)
    W = loss_basis(spec.epsilon, spec.r, noise.eta, spec.cutoff)
    E = _dephasing_factor(noise.gamma, spec.cutoff)
    U, rho = _state(c0, c1, W, E)
    qfi, H = qfi_response(rho)
    norm = np.vdot(U, U).real  # Tr N
    G = (E * H) @ U
    G -= np.vdot(U, G).real / norm * U  # Tr(Hρ) = ⟨U, G⟩/Tr N
    phase = np.exp(1j * spec.bloch_phi)
    C = np.zeros((4, 6), complex)
    C[0, :2] = -c1 / phase / 2.0, phase * c0 / 2.0
    C[1, 1] = 1j * c1
    C[2, 2:4] = C[3, 4:] = c0, c1
    # (Re, Im) of ⟨W_j, G⟩ over j, W being real, so that with C's (Re, Im)
    # interleaved the one product is Re Σ_j C_dj·⟨G, W_j⟩
    pairs = W.reshape(len(W), -1) @ G.view(float).reshape(-1, 2)
    return qfi, 2.0 * (C.view(float) @ pairs.ravel()) / norm


def sensor_state(spec: SensorSpec, noise: NoiseParams) -> np.ndarray:
    """Noisy sensor state R(θ)·ρ₀·R(θ)†; a fresh array the caller may modify."""
    return rotate_density(_unrotated_state(spec, noise), spec.theta)


def pipeline_qfi(spec: SensorSpec, noise: NoiseParams) -> float:
    """Mixed-state QFI of the noisy sensor state with generator n̂.

    Evaluated at θ = 0: R(θ) commutes with n̂, so F_Q is the same at any θ.
    """
    return qfi_mixed(_unrotated_state(spec, noise))
