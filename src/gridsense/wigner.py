"""Wigner function on a phase-space grid via the displaced-parity formula,
and the negativity integral.

W(q, p) = (1/π)·Tr[ρ D(α) Π D†(α)],  α = (q + ip)/√2,  Π = diag((−1)ⁿ),

normalized so that ∫ W dq dp = 1 and the vacuum peaks at +1/π.

Because Π D†(α) Π = D(α), the trace collapses to Tr[ρ D(2α) Π], and the
untruncated displacement has closed-form Fock matrix elements

    ⟨m|D(β)|n⟩ = √(n!/m!) β^{m−n} e^{−|β|²/2} L_n^{(m−n)}(|β|²),   m ≥ n,

with L the associated Laguerre polynomials. Evaluating the trace through
these (rather than through expm of the D-truncated generator) makes the
grid the Wigner function of ρ itself: a truncated displacement matrix stops
being unitary once |α|² approaches the cutoff, which corrupts every value
in the outer part of a [−6, 6]² window at D = 30. With the exact elements
the Riemann sum recovers Tr ρ up to the state's mass outside the window.

The Laguerre values are built by the three-term recurrence in the degree,
pre-scaled by e^{−|β|²/2} so no intermediate grows like e^{+|β|²/2}; every
summand is then bounded by the unitarity bound |⟨m|D|n⟩| ≤ 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WignerGrid", "wigner_grid", "wigner_negativity",
           "wigner_point"]


@dataclass(frozen=True, eq=False)
class WignerGrid:
    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray  # shape (len(p_axis), len(q_axis)); rows index p

    @property
    def dq(self) -> float:
        return float(self.q_axis[1] - self.q_axis[0])

    @property
    def dp(self) -> float:
        return float(self.p_axis[1] - self.p_axis[0])

    def integral(self) -> float:
        return float(self.values.sum() * self.dq * self.dp)


def _parity_kernel(rho: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(1/π)·Tr[ρ D(2α) Π] for an array of phase-space points.

    q and p must have the same shape; returns W of that shape.
    """
    D = rho.shape[0]
    beta = math.sqrt(2.0) * (q + 1j * p)  # β = 2α
    x = beta.real**2 + beta.imag**2
    damp = np.exp(-0.5 * x)

    # g[n, k] = sqrt(n! / (n+k)!) via log-gamma, filled per diagonal below.
    lgamma = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, D) + 0.0))))

    acc = np.zeros(x.shape)
    beta_k = np.ones_like(beta)  # β^k, updated per diagonal
    for k in range(D):
        if k > 0:
            beta_k = beta_k * beta
        # Scaled Laguerre recurrence: Lt_n = e^{−x/2} L_n^{(k)}(x).
        l_prev = np.zeros(x.shape)
        l_cur = damp.copy()  # n = 0
        sign = 1.0
        for n in range(D - k):
            if k == 0:
                term = rho[n, n].real * l_cur
            else:
                c = rho[n, n + k]
                term = 2.0 * (c.real * beta_k.real - c.imag * beta_k.imag) * l_cur
            g = math.exp(0.5 * (lgamma[n] - lgamma[n + k]))
            acc += sign * g * term
            sign = -sign
            l_next = ((2 * n + 1 + k - x) * l_cur - (n + k) * l_prev) / (n + 1)
            l_prev, l_cur = l_cur, l_next
    return acc / math.pi


def wigner_point(rho: np.ndarray, q: float, p: float) -> float:
    """Single-point Wigner value W(q, p)."""
    rho = np.asarray(rho, dtype=complex)
    out = _parity_kernel(rho, np.asarray(float(q)), np.asarray(float(p)))
    return float(out)


def wigner_grid(rho: np.ndarray, q_range=(-6.0, 6.0), p_range=(-6.0, 6.0),
                n_points: int = 201) -> WignerGrid:
    """Evaluate W(q, p) on a regular n_points × n_points grid."""
    if n_points < 32:
        raise ValueError(f"n_points must be >= 32, got {n_points}")
    rho = np.asarray(rho, dtype=complex)
    q_axis = np.linspace(q_range[0], q_range[1], n_points)
    p_axis = np.linspace(p_range[0], p_range[1], n_points)
    Q, P = np.meshgrid(q_axis, p_axis)
    W = _parity_kernel(rho, Q, P)
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=W)


def wigner_negativity(grid: WignerGrid) -> float:
    """∫ max(0, −W) dq dp over the grid (Riemann sum)."""
    neg = np.clip(-grid.values, 0.0, None)
    return float(neg.sum() * grid.dq * grid.dp)
