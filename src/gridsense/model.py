"""Closed-form logical-error model, the balance equation and its optimum,
sensitivity/fit/tolerance analyses, and the Monte-Carlo decoding oracle.

Model
-----
After loss and dephasing the residual displacement noise, seen in the frame
of a lattice rotated by θ with aspect ratio r, is Gaussian with per-quadrature
spreads σ_q(θ), σ_p(θ) (see `channels.effective_sigmas`). A displacement is
decoded to the nearest stabilizer-cell center; it flips the logical qubit in a
quadrature when it lands beyond half the cell half-width, giving

    P_q = 2Q(u_q),  u_q = a r/(2σ_q),      P_p = 2Q(u_p),  u_p = (a/r)/(2σ_p),
    P_err = P_q + P_p − P_q·P_p,

with Q the standard normal tail. The optimal rotation θ* solves the
transcendental balance equation

    B(θ) = r²·φ(u_q)/σ_q³ − φ(u_p)/σ_p³ = 0,

which trades q-spread growth against p-spread shrinkage as θ increases. It is
solved on the log of the ratio of B's two terms, which has B's sign, does not
underflow, and is monotone on at most three pieces of (0, π/2) found in
closed form (`_solve_cells`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import NoiseParams, effective_sigmas
from .fock import check_domain
from .lattice import A_LATTICE, check_aspect_ratio

__all__ = [
    "PerrBreakdown",
    "ThetaStarResult",
    "NoRootError",
    "gaussian_tail",
    "perr_analytic",
    "perr_gradient",
    "balance",
    "theta_star",
    "theta_star_grid",
    "theta_fit",
    "mc_perr",
    "tolerance_curve",
]


class NoRootError(RuntimeError):
    """The balance function has no sign change on (0, π/2)."""


@dataclass(frozen=True)
class PerrBreakdown:
    p_q: float
    p_p: float
    p_total: float
    coupling_bound: float


@dataclass(frozen=True)
class ThetaStarResult:
    theta_star: float  # radians
    p_err_at_star: float
    bracket: tuple[float, float]
    residual: float
    dtheta_deta_deg: float  # ∂θ*/∂η, degrees per unit (`_theta_slope`)
    dtheta_dgamma_deg: float  # ∂θ*/∂γ; both NaN where B is flat at θ*


def gaussian_tail(x):
    """Standard normal upper tail Q(x) = erfc(x/√2)/2.

    `math.erfc` on each element, so a scalar and an array holding it give
    the same bits. A scalar gives a numpy float, an array an array.
    """
    z = np.divide(x, math.sqrt(2.0))
    tail = np.fromiter(map(math.erfc, z.flat), dtype=float, count=z.size)
    return 0.5 * tail.reshape(z.shape)


def _phi(x):
    """Standard normal density. Past |x| ≈ 1.3e154 x² overflows to inf, and
    the density is 0, its right value."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _margins(theta, r, noise: NoiseParams):
    """Rotated-frame spreads and decoding margins (σ_q, σ_p, u_q, u_p).

    The one formula behind `perr_analytic`, `perr_gradient` and `balance`;
    θ, r and the noise fields broadcast together, and r must be positive.
    """
    check_aspect_ratio(r)
    sigma_q, sigma_p = effective_sigmas(noise, theta)
    u_q = A_LATTICE * r / (2.0 * sigma_q)
    u_p = (A_LATTICE / r) / (2.0 * sigma_p)
    return sigma_q, sigma_p, u_q, u_p


def perr_analytic(theta, r, noise: NoiseParams) -> PerrBreakdown:
    """Per-quadrature and combined logical error probabilities at (θ, r).

    The coupling_bound field is the worst-case correction from correlated
    q–p errors, 2·P_q·P_p·|sin 2θ| — zero on the lattice axes, maximal at 45°.
    θ, r and the noise fields may be arrays that broadcast together; they
    give array fields, each element equal to the scalar call's bits. A zero
    spread (η = 1, γ = 0) has an infinite margin and so zero error.
    """
    with np.errstate(divide="ignore"):
        _, _, u_q, u_p = _margins(theta, r, noise)
    p_q, p_p = 2.0 * gaussian_tail((u_q, u_p))
    p_total = p_q + p_p - p_q * p_p
    coupling = 2.0 * p_q * p_p * np.abs(np.sin(2.0 * theta))
    return PerrBreakdown(p_q, p_p, p_total, coupling)


def perr_gradient(theta, r, noise: NoiseParams):
    """(∂P_err/∂θ, ∂P_err/∂r) of `perr_analytic`'s p_total, in closed form.

    P_err = P_q + P_p − P_q·P_p with P = 2Q(u), so ∂P = −2φ(u)·∂u, where
    ∂u_q/∂r = u_q/r, ∂u_p/∂r = −u_p/r, ∂u_q/∂θ = −u_q·γ sinθ cosθ/σ_q² and
    ∂u_p/∂θ = u_p·γ sinθ cosθ/σ_p². A quadrature with a zero spread has an
    infinite margin and contributes 0. θ, r and the noise fields broadcast.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_q, sigma_p, u_q, u_p = _margins(theta, r, noise)
        tilt = noise.gamma * np.sin(theta) * np.cos(theta)
        slopes = []  # (∂P/∂θ, ∂P/∂r) of P_q, then of P_p
        for u, sigma, sign in ((u_q, sigma_q, 1.0), (u_p, sigma_p, -1.0)):
            du = -2.0 * _phi(u) * u  # u·∂P/∂u
            flat = np.isinf(u)
            slopes.append((np.where(flat, 0.0, -sign * du * tilt / sigma**2),
                           np.where(flat, 0.0, sign * du / r)))
    (d_theta_q, d_r_q), (d_theta_p, d_r_p) = slopes
    p_q, p_p = 2.0 * gaussian_tail((u_q, u_p))
    return ((1.0 - p_p) * d_theta_q + (1.0 - p_q) * d_theta_p,
            (1.0 - p_p) * d_r_q + (1.0 - p_q) * d_r_p)


def balance(theta, r: float, noise: NoiseParams):
    """Balance function B(θ) = r²·φ(u_q)/σ_q³ − φ(u_p)/σ_p³.

    B < 0 means the p quadrature dominates the error budget (rotate further);
    B > 0 means q dominates. θ and the noise fields broadcast together. B is
    NaN where a spread is zero (η = 1 with γ = 0, or η = 1 on an axis).

    θ* is solved on the log of the ratio of B's two terms (`_solve_cells`),
    which has B's sign wherever both are positive and does not underflow.
    With S = σ_q² + σ_p² = (1 − η)/η + γ, which does not depend on θ, that
    log is strictly increasing on (0, π/2) wherever γ > 0 and S ≤ π/3.
    """
    sigma_q, sigma_p, u_q, u_p = _margins(theta, r, noise)
    # np.power, not **: on numpy scalars ** takes another pow than the
    # array loop, and a one-cell B would then differ from a grid's by an ulp.
    return (r**2 * _phi(u_q) / np.power(sigma_q, 3)
            - _phi(u_p) / np.power(sigma_p, 3))


ROOT_TOL = 1e-10


def _log_balance(theta, r: float, tilt, spread):
    """The log-balance L at θ, for cells with γ/S = `tilt` and S = `spread`
    (see `_solve_cells`).

    In terms of w = (x − y)/(2S) = −(γ/2S)·cos 2θ, x = S·(1/2 + w) and
    y = S·(1/2 − w), so L = 2 ln r − c_q/(2x) + c_p/(2y) − (3/2)·ln(x/y) is

        L = 2 ln r − ((c_q − c_p)/2 − (c_q + c_p)·w)/(2S·(1/4 − w²))
            − 3·artanh(2w).

    Where x or y is 0 (η = 1 on an axis) L takes its limit, −∞ at θ = 0 and
    +∞ at π/2.
    """
    w = -0.5 * tilt * np.cos(2.0 * theta)
    xy = 0.25 - w * w  # x·y/S²
    c_q, c_p = math.pi * r * r / 2.0, math.pi / (2.0 * r * r)
    log_balance = (2.0 * math.log(r)
                   - (0.5 * (c_q - c_p) - (c_q + c_p) * w) / (2.0 * spread * xy)
                   - 3.0 * np.arctanh(2.0 * w))
    return np.where(xy > 0.0, log_balance, np.copysign(np.inf, w))


def _solve_cells(r: float, eta: np.ndarray, gamma: np.ndarray):
    """θ* for 1-D arrays of noise cells, on the pieces of (0, π/2) where the
    log-balance L is monotone.

    With x = σ_q², y = σ_p², c_q = πr²/2 and c_p = π/(2r²), u_q² = c_q/x and
    u_p² = c_p/y, so L = ln(r²·φ(u_q)/σ_q³) − ln(φ(u_p)/σ_p³)
    = 2 ln r − c_q/(2x) + c_p/(2y) − (3/2)·ln(x/y) has B's sign wherever
    both terms are positive, and it never underflows (`_log_balance`). The
    sum x + y = S = (1 − η)/η + γ does not depend on θ, so with
    w = (x − y)/(2S) = −(γ/2S)·cos 2θ, which rises with θ, dL/dθ has the
    sign of the quadratic

        (c_q + c_p + 3S)·w² + (c_p − c_q)·w + (c_q + c_p − 3S)/4,

    whose discriminant 9S² − π² does not depend on r. Where S ≤ π/3 and
    γ > 0, L is strictly increasing on (0, π/2); elsewhere the quadratic's
    roots with |w| < γ/(2S) split (0, π/2) into at most three pieces. Each
    piece whose end values of L differ strictly in sign holds one root, and
    all of them are bisected in lock step until their width is at most
    ROOT_TOL rad. At γ = 0, L is constant and there is no root.

    Returns (root, p_err, lo, hi, n_roots) per cell: the root with the
    lowest P_err (the first on a tie), P_err there, the ends (lo, hi) of
    its piece and the number of roots. A cell without a root gets NaN root
    and P_err.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        spread = (1.0 - eta) / eta + gamma
        tilt = gamma / spread
        c_q, c_p = math.pi * r * r / 2.0, math.pi / (2.0 * r * r)
        # the quadratic's roots, in the form that does not cancel, and with
        # a discriminant that does not overflow; NaN where 9S² < π²
        a = c_q + c_p + 3.0 * spread
        half = -0.5 * (c_p - c_q + np.copysign(
            np.sqrt(3.0 * spread - math.pi) * np.sqrt(3.0 * spread + math.pi),
            c_p - c_q))
        w = np.stack([half / a, (c_q + c_p - 3.0 * spread) / 4.0 / half],
                     axis=1)
        # the piece ends in θ; a root outside (0, π/2) leaves an empty
        # piece at π/2
        cos_2theta = -2.0 * w / tilt[:, None]
        edges = np.empty((eta.size, 4))
        edges[:, 0] = 0.0
        edges[:, 1:3] = np.where(np.abs(cos_2theta) < 1.0,
                                 0.5 * np.arccos(cos_2theta), math.pi / 2.0)
        edges[:, 3] = math.pi / 2.0
        edges.sort(axis=1)
        ends = _log_balance(edges, r, tilt[:, None], spread[:, None])
        lo_negative = ends[:, :-1] < 0.0
        pieces = (lo_negative & (ends[:, 1:] > 0.0)) | (
            (ends[:, :-1] > 0.0) & (ends[:, 1:] < 0.0))

        # Bisect every piece with a root in lock step. lo only moves to a
        # point where L has the sign it has at lo.
        cell, j = np.nonzero(pieces)
        lo, hi = edges[cell, j], edges[cell, j + 1]
        lo_negative = lo_negative[cell, j]
        args = r, tilt[cell], spread[cell]
        live = hi - lo > ROOT_TOL
        while live.any():
            mid = 0.5 * (lo + hi)
            up = (_log_balance(mid, *args) < 0.0) == lo_negative
            lo = np.where(live & up, mid, lo)
            hi = np.where(live & ~up, mid, hi)
            live &= hi - lo > ROOT_TOL
    roots = np.full(pieces.shape, np.nan)
    roots[cell, j] = 0.5 * (lo + hi)
    p_err = np.full(pieces.shape, np.inf)
    p_err[cell, j] = perr_analytic(roots[cell, j], r,
                                   NoiseParams(eta[cell], gamma[cell])).p_total
    best = np.argmin(p_err, axis=1)  # the first on a tie
    at = np.arange(eta.size)
    n_roots = np.count_nonzero(pieces, axis=1)
    return (roots[at, best], np.where(n_roots > 0, p_err[at, best], np.nan),
            edges[at, best], edges[at, best + 1], n_roots)


def theta_star_grid(r: float, eta, gamma) -> tuple[np.ndarray, np.ndarray]:
    """θ* and P_err(θ*) for every (η, γ) cell at once.

    `eta` and `gamma` broadcast to the cell shape; the result has that
    shape. Every cell is solved by `_solve_cells` together, so each gets
    the root `theta_star` would return for it, bit for bit. Cells with no
    root get NaN. One warning counts the cells whose balance function has
    several sign changes.
    """
    eta, gamma = np.broadcast_arrays(np.asarray(eta, dtype=float),
                                     np.asarray(gamma, dtype=float))
    root, p_err, _, _, n_roots = _solve_cells(r, eta.ravel(), gamma.ravel())
    n_multi = int(np.count_nonzero(n_roots > 1))
    if n_multi:
        warnings.warn(f"balance equation has several sign changes in "
                      f"{n_multi} of {n_roots.size} cells; taking the "
                      "lowest-error root in each", stacklevel=2)
    return root.reshape(eta.shape), p_err.reshape(eta.shape)


def theta_star(r: float, noise: NoiseParams) -> ThetaStarResult:
    """Root of the balance equation on (0, π/2), with its sensitivities to
    η and γ (`_theta_slope`) at that root.

    The root is bisected on a piece of (0, π/2) where the log-balance is
    monotone (`_solve_cells`), until the piece's bracket is at most ROOT_TOL
    rad wide (|B| is not checked; it is reported as the residual), and
    `bracket` is that piece: (0, π/2) wherever S = (1 − η)/η + γ ≤ π/3. If
    several pieces hold a root, the one with the smallest P_err is taken and
    a warning is emitted. NoRootError if no piece changes sign, as at γ = 0.
    """
    root, p_err, lo, hi, n_roots = _solve_cells(
        r, np.array([noise.eta], dtype=float),
        np.array([noise.gamma], dtype=float))
    if not n_roots[0]:
        raise NoRootError(
            f"no sign change of B on (0, pi/2) at r={r}, eta={noise.eta}, "
            f"gamma={noise.gamma}")
    if n_roots[0] > 1:
        warnings.warn(f"balance equation has {n_roots[0]} sign changes; "
                      "taking the lowest-error root", stacklevel=2)
    theta = float(root[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # B and its slopes are NaN where a spread underflows to 0
        residual = float(abs(balance(theta, r, noise)))
        slopes = _theta_slope(theta, r, noise)
    return ThetaStarResult(theta, float(p_err[0]), (float(lo[0]), float(hi[0])),
                           residual, *slopes)


def _theta_slope(theta: float, r: float,
                 noise: NoiseParams) -> tuple[float, float]:
    """(∂θ*/∂η, ∂θ*/∂γ) in degrees per unit at a root θ* = `theta` (rad) of
    B, in closed form.

    θ* is a root of B(θ; η, γ), so by the implicit function theorem
    ∂θ*/∂x = −(∂B/∂x)/(∂B/∂θ). A term c·φ(u)/σ³ of B, with u ∝ 1/σ, has
    the slope T′ = c·φ(u)·(u² − 3)/σ⁴ in σ; with σ_q² = b + γ sin²θ,
    σ_p² = b + γ cos²θ and b = (1 − η)/(2η),

        ∂B/∂θ = γ·sinθ·cosθ·(T_q′/σ_q + T_p′/σ_p),
        ∂B/∂η = −(T_q′/σ_q − T_p′/σ_p)/(4η²),
        ∂B/∂γ = (sin²θ·T_q′/σ_q − cos²θ·T_p′/σ_p)/2.

    Both are NaN where ∂B/∂θ is 0 or NaN at θ*: both terms of B underflow
    there (η = 1 with faint γ), and B gives θ* no derivative.
    """
    sigma_q, sigma_p, u_q, u_p = _margins(theta, r, noise)
    # T′/σ of each term of B
    slope_q = r**2 * _phi(u_q) * (u_q * u_q - 3.0) / sigma_q**5
    slope_p = _phi(u_p) * (u_p * u_p - 3.0) / sigma_p**5
    sin, cos = math.sin(theta), math.cos(theta)
    d_theta = noise.gamma * sin * cos * (slope_q + slope_p)
    if d_theta == 0.0:
        return math.nan, math.nan
    d_eta = -(slope_q - slope_p) / (4.0 * noise.eta**2)
    d_gamma = (sin * sin * slope_q - cos * cos * slope_p) / 2.0
    return math.degrees(-d_eta / d_theta), math.degrees(-d_gamma / d_theta)


def theta_fit(noise: NoiseParams) -> float:
    """Quadratic-regression shortcut for θ*, in degrees:

        θ*_fit = 64.8 + 162.8·(1−η) − 253.2·γ.

    Good to <5° against the exact root over η ∈ [0.75, 0.99],
    γ ∈ [0.01, 0.20]. (At (0.9, 0.05) the formula gives 68.42°; a quoted
    value of 67.4° floating around for the same point does not follow from
    these coefficients.)
    """
    return 64.8 + 162.8 * (1.0 - noise.eta) - 253.2 * noise.gamma


MC_CHUNK = 1 << 22
MC_SAMPLES_DOMAIN = (10_000, None, False)  # of n_samples (`fock.in_domain`)
_MC_BLOCK = 1 << 16


def mc_perr(theta: float, r: float, noise: NoiseParams, n_samples: int,
            seed: int) -> tuple[float, float]:
    """Monte-Carlo logical error rate with the nearest-cell decoder.

    Draws δ_q ~ N(0, σ_q²), δ_p ~ N(0, σ_p²) independently (the rotated-frame
    spreads of the analytic model), decodes each quadrature to the nearest
    integer multiple of its stabilizer spacing (d_q = ar, d_p = a/r), and
    counts a logical error when either nearest index is odd. Returns
    (estimate, binomial standard error). Deterministic for a fixed seed
    (counter-based Philox stream). Each chunk of MC_CHUNK samples draws all
    its δ_q, then all its δ_p, in blocks of _MC_BLOCK and ORs their parities
    into one bool array, drawing each block into one reused buffer, so
    memory stays flat; a zero spread draws nothing.
    """
    check_domain("n_samples", n_samples, MC_SAMPLES_DOMAIN)
    sigma_q, sigma_p = effective_sigmas(noise, theta)
    d_q = A_LATTICE * r
    d_p = A_LATTICE / r
    rng = np.random.Generator(np.random.Philox(seed))
    buf = np.empty(min(_MC_BLOCK, n_samples))
    errors = 0
    remaining = n_samples
    while remaining > 0:
        m = min(MC_CHUNK, remaining)
        flips = np.zeros(m, dtype=bool)
        for sigma, spacing in ((sigma_q, d_q), (sigma_p, d_p)):
            if not sigma > 0:
                continue
            for start in range(0, m, _MC_BLOCK):
                block = flips[start:start + _MC_BLOCK]
                # δ/d = (σ·z)/d in place, the bits of normal(0, σ)/d
                x = buf[:block.size]
                rng.standard_normal(out=x)
                x *= sigma
                x /= spacing
                block |= (np.rint(x, out=x).astype(np.int64) & 1) != 0
        errors += int(np.count_nonzero(flips))
        remaining -= m
    p_hat = errors / n_samples
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_samples)
    return p_hat, stderr


def _improvement(p_base, p):
    """P_err(0, r)/P_err(θ, r) elementwise: the ratio where p > 0, inf where
    0 = p < p_base, NaN where both are 0 or p is NaN."""
    p = np.asarray(p, dtype=float)
    return np.divide(p_base, p, where=p > 0,
                     out=np.where(p < p_base, np.inf, np.nan))


def tolerance_curve(delta_thetas_deg, base_theta: float, r: float,
                    noise: NoiseParams) -> list[dict]:
    """P_err degradation under a calibration offset δθ from `base_theta`.

    For each δθ (degrees) reports P_err(base+δ), the improvement P_base/P(δ)
    over the θ=0 square lattice at the same r (inf where only it errs, NaN
    where neither does), and the fraction of the baseline-to-optimum
    advantage retained, (P_base − P(δ)) / (P_base − P(0)).
    """
    deltas = [float(delta_deg) for delta_deg in delta_thetas_deg]
    thetas = [base_theta + math.radians(delta_deg) for delta_deg in deltas]
    p_base, p_at_zero, *p_errs = perr_analytic(
        np.array([0.0, base_theta, *thetas]), r, noise).p_total.tolist()
    denom = p_base - p_at_zero
    return [{"delta_deg": delta_deg, "theta_deg": math.degrees(theta),
             "p_err": p, "improvement": improvement,
             "retained": (p_base - p) / denom if denom != 0 else math.nan}
            for delta_deg, theta, p, improvement in zip(
                deltas, thetas, p_errs, _improvement(p_base, p_errs).tolist())]
