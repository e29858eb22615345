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
S(s) = exp(sG) with the real antisymmetric G = (a†² − a²)/2, so with the
Hermitian iG = V·diag(w)·V† the gate is S(s)ψ = V·e^{−isw}·V†ψ, a complex
array that is real to roundoff on a real ket. The eigenvector route is well
conditioned for a normal generator (Moler & Van Loan, SIAM Rev. 45, 2003),
and the decomposition depends on D only, so it is taken once per cutoff and
every squeeze after that costs two matrix-vector products. The truncated G
is still antisymmetric, so the gate is unitary on the truncated space and
keeps a ket's norm to roundoff; whether the cutoff is big enough for the
*physics* is a state-preparation question the gate cannot detect.

Gauss–Hermite rule
------------------
`_gauss_hermite(n)` is the one n-point rule: nodes x, s = w·e^{x²} and
Φ[i, j] = ψ_j(x_i). The nodes are the spectrum of q̂ at cutoff n, with
eigenvectors the columns of Φᵀ·diag(√s) (Golub & Welsch, Math. Comp. 23,
221 (1969)); the Wigner grid and the momentum diffusion read it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fock import annihilation, check_domain, hermitian_eig
from .lattice import A_LATTICE

__all__ = [
    "prepare_codeword",
    "bloch_amplitudes",
    "logical_state",
    "squeeze",
    "squeeze_generator",
    "rotate",
    "rotate_density",
    "comb_positions",
]

# Domains (`fock.in_domain`) of the cutoff D, ε and θ_B.
CUTOFF_DOMAIN = (10, None, False)
EPSILON_DOMAIN = (0.005 + 1e-12, 0.5 - 1e-12, False)
BLOCH_THETA_DOMAIN = (0.0, math.pi, False)


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


@lru_cache(maxsize=16)
def _gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (x, s, Φ) of the n-point Gauss–Hermite rule (see the
    module docstring), Φ in C order: a product rounds differently on a
    transposed view. numpy.polynomial loads on the first call only."""
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(n)
    s = w * np.exp(x * x)
    phi = np.ascontiguousarray(_hermite_functions(x, n).T)
    for table in (x, s, phi):
        table.setflags(write=False)
    return x, s, phi


def comb_positions(mu: int, epsilon: float) -> np.ndarray:
    """Peak positions (s + μ/2)·√(2π) for s = -S..S, S = ceil(6/√(2πε))."""
    S = math.ceil(6.0 / math.sqrt(2.0 * math.pi * epsilon))
    s = np.arange(-S, S + 1, dtype=float)
    return (s + 0.5 * mu) * A_LATTICE


@lru_cache(maxsize=32)
def prepare_codeword(mu: int, epsilon: float, D: int) -> np.ndarray:
    """Normalized finite-energy codeword |μ_ε⟩ at cutoff D.

    mu must be 0 or 1; ε and D in their domains. The returned amplitudes
    are float64 with all odd-n entries exactly zero. Cached per (μ, ε, D)
    and returned read-only; copy before writing to it.
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
    amplitudes /= np.linalg.norm(amplitudes)
    amplitudes.setflags(write=False)
    return amplitudes


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


@lru_cache(maxsize=8)
def squeeze_generator(D: int) -> np.ndarray:
    """The real G = (a†² − a²)/2 at cutoff D, so that S(s) = exp(sG) and
    ∂_s(S|ψ⟩) = G·S|ψ⟩; cached per cutoff and read-only."""
    a = annihilation(D)
    G = 0.5 * (a.T @ a.T - a @ a)
    G.setflags(write=False)
    return G


@lru_cache(maxsize=8)
def _squeeze_spectrum(D: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (w, V) with iG = V·diag(w)·V† at cutoff D (see
    `squeeze_generator`)."""
    w, V = hermitian_eig(1j * squeeze_generator(D))
    w.setflags(write=False)
    V.setflags(write=False)
    return w, V


def squeeze(psi: np.ndarray, log_r: float) -> np.ndarray:
    """S(log_r)·psi = exp(log_r·(a†² − a²)/2)·psi = V·e^{−i·log_r·w}·V†·psi
    from the cached spectrum of the generator (see the module docstring).

    `psi` is one ket, or a (D, k) array of kets as columns that all share
    the one gate. The gate is linear, so it also maps derivatives of kets.
    log_r = 0 returns an exact copy.
    """
    if abs(log_r) > 1.0:
        raise ValueError(f"|log_r| must be <= 1 (desk-scale guard), got {log_r}")
    psi = np.asarray(psi, dtype=complex)
    if log_r == 0.0:
        return psi.copy()
    w, V = _squeeze_spectrum(psi.shape[0])
    return (V * np.exp(-1j * log_r * w)) @ (V.conj().T @ psi)


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
