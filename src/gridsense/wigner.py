"""Wigner function on a phase-space grid via the displaced-parity formula,
and the negativity integral.

W(q, p) = (1/π)·Tr[ρ D(α) Π D†(α)],  α = (q + ip)/√2,  Π = diag((−1)ⁿ),

normalized so that ∫ W dq dp = 1 and the vacuum peaks at +1/π.

Point kernel
------------
Because Π D†(α) Π = D(α), the trace collapses to Tr[ρ D(2α) Π], and the
untruncated displacement has closed-form Fock matrix elements

    ⟨m|D(β)|n⟩ = √(n!/m!) β^{m−n} e^{−|β|²/2} L_n^{(m−n)}(|β|²),   m ≥ n,

with L the associated Laguerre polynomials. Evaluating the trace through
these (rather than through expm of the D-truncated generator) makes W the
Wigner function of ρ itself: a truncated displacement matrix stops being
unitary once |α|² approaches the cutoff, which corrupts every value in the
outer part of a [−6, 6]² window at D = 30.

The Laguerre values are built by the three-term recurrence in the degree,
pre-scaled by e^{−|β|²/2} so no intermediate grows like e^{+|β|²/2}; every
summand is then bounded by the unitarity bound |⟨m|D|n⟩| ≤ 1. The kernel
takes every point in one pass, and per diagonal k contracts the
(D−k, points) Laguerre table in one matrix product with the real (2, D−k)
matrix [Re c; −Im c], where
c_n = ρ[n, n+k]·(−1)ⁿ·√(n!/(n+k)!) (doubled for k > 0, which also counts the
conjugate diagonal), with ln(n!) from the loss channel's table
(`channels._log_factorials`).

Separable grid
--------------
Let D be the support of ρ: one past the last Fock level with a nonzero row
or column. Every matrix element ⟨m|D(2α)Π|n⟩ is e^{−(q²+p²)} times a
polynomial of total degree m + n ≤ 2D − 2 in (q, p), so e^{q²+p²}·W has
degree ≤ 2D − 2 in q and, separately, in p. With φ_j the orthonormal
Hermite functions and N = 2D − 1, the functions φ_j(√2·q), j < N, span
exactly e^{−q²} times the polynomials of degree < N, hence

    W(q, p) = Σ_{a,b} C[a, b]·φ_a(√2·p)·φ_b(√2·q),   i.e.  W = Φ_p·C·Φ_qᵀ

on a grid, with Φ[i, j] = φ_j(√2·axis[i]). The N×N matrix C is the
projection of W onto that basis. In u = √2·q, v = √2·p each integrand
W·φ_a(v)·φ_b(u) is e^{−u²} (and e^{−v²}) times a polynomial of degree
≤ 4D − 4 per variable, and N-point Gauss–Hermite quadrature (nodes x,
weights w) integrates e^{−x²}·poly exactly up to degree 2N − 1 = 4D − 3.
So, exactly in exact arithmetic,

    C = (Vᵀ·S)·W_nodes·(S·V),   V[i, j] = φ_j(x_i),   S = diag(w·e^{x²}),

where W_nodes[i, j] = W(x_j/√2, x_i/√2) comes from the point kernel at the
N² node pairs; x, w·e^{x²} and V come cached from `states._gauss_hermite`.
A grid of any size then costs one N²-point kernel call and two small
matrix products instead of a kernel call per grid point.

ρ is trimmed to its support first. That changes nothing mathematically,
but a padded ρ would raise N, and the roundoff of the larger C would then
reach the e^{−q²−p²} tails of the grid: the vacuum in a D = 30 space would
show a negativity of ~1e-19 instead of exactly 0. Trimmed, the vacuum is
the single positive product e^{−q²}·e^{−p²}/π.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import _log_factorials
from .fock import check_domain
from .states import _gauss_hermite, _hermite_functions

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


def _diagonal_coefficients(rho: np.ndarray) -> list:
    """Per diagonal k, the real (2, D−k) matrix [Re c; −Im c] with
    c_n = ρ[n, n+k]·(−1)ⁿ·√(n!/(n+k)!), doubled for k > 0 (the k < 0
    diagonal is the conjugate). On k = 0 only Re ρ[n, n] enters."""
    D = rho.shape[0]
    lgamma = _log_factorials(D)
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
    br = math.sqrt(2.0) * np.ravel(q)  # β = 2α
    bi = math.sqrt(2.0) * np.ravel(p)
    x = br * br + bi * bi
    damp = np.exp(-0.5 * x)
    x_over = x / np.arange(1.0, D + 1)[:, None]  # row n holds x/(n+1)
    acc = np.zeros(x.size)
    bkr, bki = np.ones(x.size), np.zeros(x.size)  # β^k, updated per diagonal
    for k in range(D):
        if k > 0:
            bkr, bki = bkr * br - bki * bi, bkr * bi + bki * br
        # Lt_n = e^{−x/2} L_n^{(k)}(x), with the 1/(n+1) of the recurrence
        # folded into the scalars and the x/(n+1) rows:
        # Lt_{n+1} = ((2n+1+k)/(n+1) − x/(n+1))·Lt_n − (n+k)/(n+1)·Lt_{n−1}
        table = np.empty((D - k, x.size))
        table[0] = damp
        for n in range(D - k - 1):
            table[n + 1] = ((2 * n + 1 + k) / (n + 1) - x_over[n]) * table[n]
            if n > 0:
                table[n + 1] -= table[n - 1] * ((n + k) / (n + 1))
        s = coefs[k] @ table  # rows Re S and −Im S, S = Σ_n c_n Lt_n
        acc += bkr * s[0]
        acc += bki * s[1]
    return (acc / math.pi).reshape(np.shape(q))


def wigner_point(rho: np.ndarray, q: float, p: float) -> float:
    """Single-point Wigner value W(q, p)."""
    rho = np.asarray(rho, dtype=complex)
    out = _parity_kernel(rho, np.asarray(float(q)), np.asarray(float(p)))
    return float(out)


def _support(rho: np.ndarray) -> int:
    """One past the last Fock level with a nonzero row or column (≥ 1)."""
    used = np.flatnonzero(np.any(rho != 0, axis=0) | np.any(rho != 0, axis=1))
    return int(used[-1]) + 1 if used.size else 1


def check_grid(q_range, p_range, n_points: int) -> None:
    """ValueError unless `wigner_grid` takes this grid: n_points in its
    domain and each range finite with lo < hi. Needs no state."""
    check_domain("n_points", n_points, (32, None, False))
    for name, (lo, hi) in (("q_range", q_range), ("p_range", p_range)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"{name} must be finite with lo < hi, "
                             f"got ({lo}, {hi})")


_WINDOW, _N_POINTS = (-6.0, 6.0), 201  # default grid, also the CLI's


def wigner_grid(rho: np.ndarray, q_range=_WINDOW, p_range=_WINDOW,
                n_points: int = _N_POINTS) -> WignerGrid:
    """Evaluate W(q, p) on a regular n_points × n_points grid (`check_grid`).

    Separable and exact (see the module docstring): the point kernel runs
    on the (2D − 1)² Gauss–Hermite node pairs of ρ's support D only.
    """
    check_grid(q_range, p_range, n_points)
    rho = np.asarray(rho, dtype=complex)
    d = _support(rho)
    rho = rho[:d, :d]
    n = 2 * d - 1
    x, s, phi = _gauss_hermite(n)
    sv = s[:, None] * phi
    node = x / math.sqrt(2.0)
    w_nodes = _parity_kernel(rho, *np.meshgrid(node, node))  # rows index p
    coef = sv.T @ w_nodes @ sv
    q_axis = np.linspace(q_range[0], q_range[1], n_points)
    p_axis = np.linspace(p_range[0], p_range[1], n_points)
    phi_q, phi_p = (np.ascontiguousarray(  # C order, as `_gauss_hermite`
        _hermite_functions(math.sqrt(2.0) * axis, n).T)
        for axis in (q_axis, p_axis))
    # einsum, not a GEMM: OpenBLAS cannot split it, so no thread count moves W
    W = np.einsum("pb,qb->pq", phi_p @ coef, phi_q)
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=W)


def wigner_negativity(grid: WignerGrid) -> float:
    """∫ max(0, −W) dq dp over the grid (Riemann sum)."""
    neg = np.clip(-grid.values, 0.0, None)
    return float(neg.sum() * grid.dq * grid.dp)
