"""Finite-energy grid-code codewords in the number basis, and the two
geometry gates (squeeze, rotate).

Codeword construction
---------------------
The ideal codeword |μ⟩ (μ = 0, 1) is a comb of position eigenstates at
q_s = (s + μ/2)·√(2π), s ∈ ℤ. The finite-energy version applies the envelope
e^{-ε n̂}, which in the number basis is simply a factor e^{-εn} on each
amplitude:

    ⟨n|μ_ε⟩ ∝ e^{-εn} · Σ_s ψ_n((s + μ/2)·√(2π)),

with ψ_n the real harmonic-oscillator eigenfunctions in the q = (a+a†)/√2
convention (vacuum variance 1/2). ψ_n is evaluated by the stable two-term
recurrence

    ψ_{n+1}(q) = √(2/(n+1)) · q · ψ_n(q) − √(n/(n+1)) · ψ_{n-1}(q),

seeded with ψ_0 = π^{-1/4} e^{-q²/2}. Both combs are symmetric under
q → −q, so the odd-n amplitudes vanish identically and the amplitudes are
real. The comb is truncated at S = ceil(6/√(2πε)) peaks per side, which puts
the omitted weight below 1e-14 for any ε in `EPSILON_DOMAIN`.

Squeeze
-------
S(s) = exp(s·(a†² − a²)/2) = exp(−isK) with K = i·(a†² − a²)/2 Hermitian, so
with K = V·diag(w)·V† the gate is S(s)ψ = V·e^{−isw}·V†ψ. The eigenvector
route is well conditioned for a normal generator (Moler & Van Loan, SIAM Rev.
45, 2003), and the decomposition depends on D only, so it is taken once per
cutoff and every squeeze after that costs two matrix-vector products.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fock import NumericError, annihilation, check_domain, hermitian_eig

__all__ = [
    "prepare_codeword",
    "bloch_amplitudes",
    "logical_state",
    "squeeze",
    "squeeze_generator",
    "rotate",
    "rotate_density",
    "comb_positions",
    "TruncationError",
]

_SPACING = math.sqrt(2.0 * math.pi)

# Domains (`fock.in_domain`) of the cutoff D, ε and θ_B.
CUTOFF_DOMAIN = (10, None, False)
EPSILON_DOMAIN = (0.005 + 1e-12, 0.5 - 1e-12, False)
BLOCH_THETA_DOMAIN = (0.0, math.pi, False)


class TruncationError(NumericError):
    """The squeeze exponential lost norm, i.e. the numerics broke down."""


def _hermite_functions(points: np.ndarray, n_max: int) -> np.ndarray:
    """ψ_n(q) for n = 0..n_max-1 at each point; shape (n_max, len(points)).

    Rows are contiguous: numpy rounds a sum along a strided axis differently.
    """
    points = np.asarray(points, dtype=float)
    psi = np.zeros((n_max, points.size))
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * points**2)
    if n_max > 1:
        psi[1] = np.sqrt(2.0) * points * psi[0]
    for n in range(1, n_max - 1):
        psi[n + 1] = (np.sqrt(2.0 / (n + 1)) * points * psi[n]
                      - np.sqrt(n / (n + 1.0)) * psi[n - 1])
    return psi


def comb_positions(mu: int, epsilon: float) -> np.ndarray:
    """Peak positions (s + μ/2)·√(2π) for s = -S..S, S = ceil(6/√(2πε))."""
    S = math.ceil(6.0 / math.sqrt(2.0 * math.pi * epsilon))
    s = np.arange(-S, S + 1, dtype=float)
    return (s + 0.5 * mu) * _SPACING


@lru_cache(maxsize=32)
def prepare_codeword(mu: int, epsilon: float, D: int) -> np.ndarray:
    """Normalized finite-energy codeword |μ_ε⟩ at cutoff D.

    mu must be 0 or 1; ε and D in their domains. The returned amplitudes
    are real (stored complex) with all odd-n entries exactly zero. Cached
    per (μ, ε, D) and returned read-only; copy before writing to it.
    """
    if mu not in (0, 1):
        raise ValueError(f"mu must be 0 or 1, got {mu}")
    check_domain("epsilon", epsilon, EPSILON_DOMAIN)
    check_domain("cutoff", D, CUTOFF_DOMAIN)

    points = comb_positions(mu, epsilon)
    psi_n = _hermite_functions(points, D)  # (D, n_peaks)
    amplitudes = np.exp(-epsilon * np.arange(D)) * psi_n.sum(axis=1)
    # The comb is q -> -q symmetric, so odd amplitudes are already ~1e-17;
    # zero them exactly so downstream parity checks are clean.
    amplitudes[1::2] = 0.0
    ket = amplitudes.astype(complex)
    ket /= np.linalg.norm(ket)
    ket.setflags(write=False)
    return ket


def bloch_amplitudes(bloch_theta: float,
                     bloch_phi: float) -> tuple[float, complex]:
    """(c0, c1) = (cos(θ_B/2), e^{iφ_B} sin(θ_B/2)) for θ_B ∈ [0, π].

    The poles θ_B ∈ {0, π} give exactly (1, 0) and (0, 1): the azimuth is a
    global phase there, and cos(π/2) is ~6e-17 in floats, so this has to
    key on the input.
    """
    check_domain("bloch_theta", bloch_theta, BLOCH_THETA_DOMAIN)
    if bloch_theta == 0.0:
        return 1.0, 0j
    if bloch_theta == math.pi:
        return 0.0, 1 + 0j
    return (math.cos(bloch_theta / 2.0),
            math.sin(bloch_theta / 2.0) * np.exp(1j * bloch_phi))


def logical_state(bloch_theta: float, bloch_phi: float, epsilon: float,
                  D: int) -> np.ndarray:
    """cos(θ_B/2)|0_ε⟩ + e^{iφ_B} sin(θ_B/2)|1_ε⟩, renormalized.

    Finite-ε codewords are not exactly orthogonal, so the superposition is
    renormalized rather than assumed unit-norm. The poles θ_B ∈ {0, π}
    return the codewords exactly (see `bloch_amplitudes`).
    """
    c0, c1 = bloch_amplitudes(bloch_theta, bloch_phi)
    if c1 == 0.0:
        return prepare_codeword(0, epsilon, D)
    if c0 == 0.0:
        return prepare_codeword(1, epsilon, D)
    ket = c0 * prepare_codeword(0, epsilon, D) + c1 * prepare_codeword(1, epsilon, D)
    return ket / np.linalg.norm(ket)


def squeeze_generator(D: int) -> np.ndarray:
    """K = i·(a†² − a²)/2 at cutoff D, so that S(s) = exp(−isK) and
    ∂_s(S·O·S†) = −i[K, S·O·S†]."""
    a = annihilation(D)
    return 0.5j * (a.conj().T @ a.conj().T - a @ a)


@lru_cache(maxsize=8)
def _squeeze_spectrum(D: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (w, V) with K = V·diag(w)·V† at cutoff D (see
    `squeeze_generator`)."""
    w, V = hermitian_eig(squeeze_generator(D))
    w.setflags(write=False)
    V.setflags(write=False)
    return w, V


def squeeze(psi: np.ndarray, log_r: float, *,
            max_leakage: float = 1e-3) -> tuple[np.ndarray, float]:
    """Apply S(log_r) = exp(log_r·(a†² − a²)/2); returns (ket, leakage).

    `psi` is one ket, or a (D, k) array of kets as columns that all share
    the one gate; each column is renormalized and `leakage` is the largest
    over the columns. The gate is V·e^{−i·log_r·w}·V† from the cached
    spectrum of the Hermitian generator (see the module docstring).

    The truncated generator is still anti-Hermitian, so the gate is unitary
    on the truncated space and leakage = 1 − ‖raw‖² sits at roundoff
    (~1e-16) for any input. It is kept as a numerics tripwire: a value above
    `max_leakage` means the exponential itself broke down, and the call
    aborts (TruncationError) rather than return garbage. Whether the cutoff
    is big enough for the *physics* is a state-preparation question, not
    something this gate can detect.
    """
    if abs(log_r) > 1.0:
        raise ValueError(f"|log_r| must be <= 1 (desk-scale guard), got {log_r}")
    psi = np.asarray(psi, dtype=complex)
    if log_r == 0.0:
        return psi.copy(), 0.0
    D = psi.shape[0]
    w, V = _squeeze_spectrum(D)
    raw = (V * np.exp(-1j * log_r * w)) @ (V.conj().T @ psi)
    norm_sq = np.sum(raw.real**2 + raw.imag**2, axis=0)
    leakage = float(np.max(1.0 - norm_sq))
    if leakage > max_leakage:
        raise TruncationError(
            f"squeeze leakage {leakage:.3e} exceeds {max_leakage:.1e} "
            f"(log_r={log_r}, D={D})")
    return raw / np.sqrt(norm_sq), leakage


def rotate(psi: np.ndarray, theta: float) -> np.ndarray:
    """Phase-space rotation R(θ) = diag(e^{-inθ}) on a ket."""
    psi = np.asarray(psi, dtype=complex)
    n = np.arange(psi.size)
    return psi * np.exp(-1j * n * theta)


def rotate_density(rho: np.ndarray, theta: float) -> np.ndarray:
    """R(θ) ρ R(θ)†: ρ_mn ← ρ_mn e^{-i(m-n)θ}."""
    rho = np.asarray(rho, dtype=complex)
    n = np.arange(rho.shape[0])
    phase = np.exp(-1j * n * theta)
    return rho * np.outer(phase, phase.conj())
