"""The end-to-end sensor-state pipeline: codeword → geometry gates → noise.

The physical composition is fixed: squeeze by ln r, then loss, then
number-basis dephasing, with the lattice rotation R(θ) = e^{-iθn̂} applied
last because it commutes with both channels. Loss and dephasing commute as
well: loss is phase-covariant, and number dephasing is an average of R(φ).

Both channels are linear, so for a Bloch state c0|0_ε⟩ + c1|1_ε⟩

    ρ = R(θ)·[c0²M00 + |c1|²M11 + c0c1*M01 + h.c.]/tr·R(θ)†,
    M_ij = dephasing(loss(S|i_ε⟩⟨j_ε|S†)),  M10 = M01†.

`noisy_basis` builds (M00, M01, M11) and their slopes in r and ε once per
(ε, r, η, γ, D) as one real, read-only (9, D, D) stack, M at offset 0, ∂_r M
at 3 and ∂_ε M at 6, and caches it; every other input only recombines it.
The Bloch poles θ_B ∈ {0, π} return M00 / M11 exactly, following
`logical_state`. Because R(θ) commutes with n̂, F_Q does not depend on θ and
`pipeline_qfi` never rotates. A training step solves its one state and
takes ∂F_Q from the same solve (`metrology.qfi_response`): the Bloch angles
move only the coefficients of the bilinear form, and r and ε only its
matrices, built with their slopes from six kets (`noisy_basis`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import NoiseParams, apply_dephasing, apply_loss
from .metrology import qfi_mixed, qfi_response
from .states import (bloch_amplitudes, prepare_codeword, rotate_density,
                     squeeze, squeeze_generator)

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
                cutoff: int) -> np.ndarray:
    """The read-only float64 (9, D, D) stack M00, M01, M11, then their ∂_r,
    then their ∂_ε, of M_ij = dephasing(loss(|k_i⟩⟨k_j|)), |k_μ⟩ = S|μ_ε⟩;
    a slope is the channels of |dk_i⟩⟨k_j| + |k_i⟩⟨dk_j|.

    S = exp(ln r·G) squeezes both codewords, so ∂_r|k_μ⟩ = G|k_μ⟩/r
    (`states.squeeze_generator`). While the comb's peak count stays fixed,
    ∂_ε|μ_ε⟩ = −(n̂ − ⟨n̂⟩_μ)|μ_ε⟩, and ∂_ε|k_μ⟩ is S of that: one `squeeze`
    maps the codewords and their ε slopes as four columns; S is real, so
    their real part drops only roundoff. The channels are linear, so the
    nine matrices go through them as one stack, built once while training
    holds ε and r frozen.
    """
    codewords = np.stack([prepare_codeword(0, epsilon, cutoff),
                          prepare_codeword(1, epsilon, cutoff)], axis=1)
    n = np.arange(cutoff)[:, None]
    mean_n = np.sum(n * codewords ** 2, axis=0)  # ⟨n̂⟩_μ
    columns = squeeze(np.hstack([codewords, (mean_n - n) * codewords]),
                      math.log(r)).real
    kets, d_epsilon = columns[:, :2], columns[:, 2:]

    def rank1(x, y) -> np.ndarray:
        """|x_i⟩⟨y_j| over (i, j) = (0, 0), (0, 1), (1, 1) of ket columns."""
        return x.T[[0, 0, 1], :, None] * y.T[[0, 1, 1], None, :]

    slopes = [squeeze_generator(cutoff) @ kets / r, d_epsilon]
    basis = apply_dephasing(apply_loss(np.concatenate(
        [rank1(kets, kets)]
        + [rank1(dk, kets) + rank1(kets, dk) for dk in slopes]), eta), gamma)
    basis.setflags(write=False)
    return basis


def _coefficients(c0, c1) -> tuple:
    """The bilinear form's (c00, c01, c11) = (c0², c0·c1*, |c1|²)."""
    return c0 * c0, c0 * np.conj(c1), abs(c1) ** 2


def _unrotated_state(spec: SensorSpec, noise: NoiseParams) -> np.ndarray:
    """The spec's noisy state at θ = 0 (`_state`)."""
    return _state(*bloch_amplitudes(spec.bloch_theta, spec.bloch_phi),
                  noisy_basis(spec.epsilon, spec.r, noise.eta, noise.gamma,
                              spec.cutoff)[:3])


def _state(c0, c1, M) -> np.ndarray:
    """The noisy state at θ = 0 as a fresh complex (D, D) array from the
    Bloch amplitudes and the real M = (M00, M01, M11): the bilinear form,
    or a complex copy of M00 / M11 at the Bloch poles."""
    M00, M01, M11 = M
    if c1 == 0.0:
        return M00.astype(complex)
    if c0 == 0.0:
        return M11.astype(complex)
    c00, c01, c11 = _coefficients(c0, c1)
    cross = c01 * M01
    rho = c00 * M00 + c11 * M11 + cross + cross.T.conj()
    rho /= np.trace(rho).real
    return rho


def _paired(coeffs, traces) -> float:
    """Tr(X·N) for the bilinear form N = c00·M00 + c11·M11 + c01·M01 + h.c.,
    from coeffs (c00, c01, c11) and traces Tr(X·M_ij); X Hermitian."""
    (c00, c01, c11), (x00, x01, x11) = coeffs, traces
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
    c0, c1 = bloch_amplitudes(spec.bloch_theta, spec.bloch_phi)
    basis = noisy_basis(spec.epsilon, spec.r, noise.eta, noise.gamma,
                        spec.cutoff)
    qfi, H = qfi_response(_state(c0, c1, basis[:3]))
    coeffs = _coefficients(c0, c1)
    sin, cos = math.sin(spec.bloch_theta), math.cos(spec.bloch_theta)
    phase = np.exp(-1j * spec.bloch_phi)
    h = np.sum(H.T * basis, axis=(-2, -1))  # Tr(H·X) over the stack
    traces = np.trace(basis, axis1=-2, axis2=-1)
    norm = _paired(coeffs, traces[:3])
    mean_h = _paired(coeffs, h[:3]) / norm  # Tr(H·ρ)

    def along(d_coeffs, at) -> float:
        """Tr(H·dρ) for dN = d_coeffs over the stack's block at `at`."""
        return (_paired(d_coeffs, h[at:at + 3])
                - mean_h * _paired(d_coeffs, traces[at:at + 3])) / norm

    return qfi, np.array([
        along((-0.5 * sin, 0.5 * cos * phase, 0.5 * sin), 0),
        along((0.0, -1j * coeffs[1], 0.0), 0),
        along(coeffs, 3),
        along(coeffs, 6)])


def sensor_state(spec: SensorSpec, noise: NoiseParams) -> np.ndarray:
    """Noisy sensor state R(θ)·ρ₀·R(θ)†; a fresh array the caller may modify."""
    return rotate_density(_unrotated_state(spec, noise), spec.theta)


def pipeline_qfi(spec: SensorSpec, noise: NoiseParams) -> float:
    """Mixed-state QFI of the noisy sensor state with generator n̂.

    Evaluated at θ = 0: R(θ) commutes with n̂, so F_Q is the same at any θ.
    """
    return qfi_mixed(_unrotated_state(spec, noise))
