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

The kernel walks the points in fixed blocks of _BLOCK, so the working set
of one block stays in cache. Per block it forms x = |β|², e^{−x/2} and the
rows x/(n+1) once. Per diagonal k it fills a (D−k, block) table of the
scaled Laguerre values in place and contracts it in one matrix product with
the real (2, D−k) coefficient matrix [Re c; −Im c], where
c_n = ρ[n, n+k]·(−1)ⁿ·√(n!/(n+k)!) (doubled for k > 0, which also counts the
conjugate diagonal), and adds Re(β^k·Σ_n c_n Lt_n) to the block, with
Lt_n = e^{−x/2} L_n^{(k)}(x). This is the same sum as term by term; only
the order of summation differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WignerGrid", "wigner_grid", "wigner_negativity",
           "wigner_point"]

# Points per kernel block: a (D, _BLOCK) Laguerre table at D = 30 is about
# 1 MB, small enough to stay in cache while every diagonal reuses it.
_BLOCK = 4096


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


def _diagonal_coefficients(rho: np.ndarray) -> list:
    """Per diagonal k, the real (2, D−k) matrix [Re c; −Im c] with
    c_n = ρ[n, n+k]·(−1)ⁿ·√(n!/(n+k)!), doubled for k > 0 (the k < 0
    diagonal is the conjugate). On k = 0 only Re ρ[n, n] enters."""
    D = rho.shape[0]
    lgamma = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, D) + 0.0))))
    coefs = []
    for k in range(D):
        n = np.arange(D - k)
        c = np.diagonal(rho, k) * ((-1.0) ** n
                                   * np.exp(0.5 * (lgamma[n] - lgamma[n + k])))
        if k > 0:
            c = 2.0 * c
        coefs.append(np.stack((c.real, -c.imag)))
    return coefs


def _parity_kernel(rho: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(1/π)·Tr[ρ D(2α) Π] for an array of phase-space points.

    q and p must have the same shape; returns W of that shape.
    """
    D = rho.shape[0]
    coefs = _diagonal_coefficients(rho)
    q_flat = np.ravel(q)
    p_flat = np.ravel(p)
    size = q_flat.size
    out = np.empty(size)
    width = min(_BLOCK, size)
    lag = np.empty((D, width))  # scaled Laguerre table of one diagonal
    tmp = np.empty(width)
    degrees = np.arange(1.0, D + 1)[:, None]  # n + 1
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        m = hi - lo
        br = math.sqrt(2.0) * q_flat[lo:hi]  # β = 2α
        bi = math.sqrt(2.0) * p_flat[lo:hi]
        x = br * br + bi * bi
        damp = np.exp(-0.5 * x)
        x_over = x / degrees  # row n holds x/(n+1)
        acc = np.zeros(m)
        bkr, bki = np.ones(m), np.zeros(m)  # β^k, updated per diagonal
        t = tmp[:m]
        for k in range(D):
            if k > 0:
                bkr, bki = bkr * br - bki * bi, bkr * bi + bki * br
            # Lt_n = e^{−x/2} L_n^{(k)}(x), with the 1/(n+1) of the
            # recurrence folded into the scalars and the x/(n+1) rows:
            # Lt_{n+1} = ((2n+1+k)/(n+1) − x/(n+1))·Lt_n − (n+k)/(n+1)·Lt_{n−1}
            table = lag[:D - k, :m]
            table[0] = damp
            for n in range(D - k - 1):
                np.subtract((2 * n + 1 + k) / (n + 1), x_over[n], out=t)
                np.multiply(t, table[n], out=table[n + 1])
                if n > 0:
                    np.multiply(table[n - 1], (n + k) / (n + 1), out=t)
                    np.subtract(table[n + 1], t, out=table[n + 1])
            s = coefs[k] @ table  # rows Re S and −Im S, S = Σ_n c_n Lt_n
            acc += bkr * s[0]
            acc += bki * s[1]
        out[lo:hi] = acc
    return (out / math.pi).reshape(np.shape(q))


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
    for name, (lo, hi) in (("q_range", q_range), ("p_range", p_range)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"{name} must be finite with lo < hi, "
                             f"got ({lo}, {hi})")
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
