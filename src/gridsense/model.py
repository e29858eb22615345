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

which trades q-spread growth against p-spread shrinkage as θ increases.
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

    Monotonicity: 1/σ = 2u/(a·r) for q and 2u·r/a for p, so
    B = (8/a³)·[g(u_q)/r − r³·g(u_p)] with g(u) = u³φ(u), and
    g'(u) = u²(3 − u²)φ(u) < 0 for u > √3. With γ > 0, σ_q grows and σ_p
    shrinks strictly as θ runs over (0, π/2), so u_q falls and u_p rises,
    and B is strictly increasing wherever both margins stay above √3. They
    are smallest at the widest spread σ² = (1−η)/(2η) + γ (u_q at θ = π/2,
    u_p at θ = 0), so the per-cell test is γ > 0 and a·r/(2σ) > √3 and
    (a/r)/(2σ) > √3 at that σ. It holds in the whole fault-tolerant regime,
    and θ* then takes a binary search instead of the full scan.
    """
    b_q, b_p = _balance_terms(theta, r, noise)
    return b_q - b_p


def _balance_terms(theta, r: float, noise: NoiseParams):
    """The two terms of B: (r²·φ(u_q)/σ_q³, φ(u_p)/σ_p³)."""
    sigma_q, sigma_p, u_q, u_p = _margins(theta, r, noise)
    # np.power, not **: on numpy scalars ** takes another pow than the
    # array loop, and a one-cell B would then differ from a grid's by an ulp.
    return (r**2 * _phi(u_q) / np.power(sigma_q, 3),
            _phi(u_p) / np.power(sigma_p, 3))


N_SCAN = 64
ROOT_TOL = 1e-10
_SQRT3 = math.sqrt(3.0)


def _scan_grid() -> np.ndarray:
    """The N_SCAN interior scan angles on (0, π/2)."""
    return np.linspace(0.0, math.pi / 2.0, N_SCAN + 2)[1:-1]


def _increasing(r: float, eta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Cells where B is provably strictly increasing on (0, π/2): γ > 0 and
    both margins exceed √3 at the widest spread (see `balance`)."""
    noise = NoiseParams(eta, gamma)
    u_q = _margins(math.pi / 2.0, r, noise)[2]  # sin(π/2) and cos(0) are 1.0
    u_p = _margins(0.0, r, noise)[3]
    return (gamma > 0.0) & (u_q > _SQRT3) & (u_p > _SQRT3)


def _search_brackets(r: float, eta: np.ndarray, gamma: np.ndarray):
    """Brackets of cells whose B is increasing, by a binary search of the
    scan grid for the first angle with B ≥ 0: 7 calls of `balance` instead
    of N_SCAN.

    Returns (cell, k, unsure): the cells with a bracket (grid[k],
    grid[k+1]), which is the only sign change the scan would find, and the
    cells where a probe read 0 or NaN, for the scan to decide. The other
    cells keep one sign of B and have no root.
    """
    grid = _scan_grid()
    noise = NoiseParams(eta, gamma)
    # B < 0 at grid[lo] and B > 0 at grid[hi]; -1 and N_SCAN are unprobed
    lo = np.full(eta.size, -1)
    hi = np.full(eta.size, N_SCAN)
    unsure = np.zeros(eta.size, dtype=bool)
    live = hi - lo > 1
    while live.any():
        mid = (lo + hi) // 2
        # only a finished cell can have mid = -1
        b = balance(grid[np.clip(mid, 0, N_SCAN - 1)], r, noise)
        below, above = live & (b < 0.0), live & (b > 0.0)
        unsure |= live & ~below & ~above  # B is 0 or NaN
        lo = np.where(below, mid, lo)
        hi = np.where(above, mid, hi)
        live &= ~unsure & (hi - lo > 1)
    found = ~unsure & (lo >= 0) & (hi < N_SCAN)
    return np.flatnonzero(found), lo[found], np.flatnonzero(unsure)


def _scan_brackets(r: float, eta: np.ndarray, gamma: np.ndarray):
    """Every bracket of B over the N_SCAN scan angles, as (cell, k) ordered
    by cell, then k: a sign change over (grid[k], grid[k+1]) or
    B(grid[k]) == 0. A cell where both terms of B are 0 at every angle gets
    none."""
    noise = NoiseParams(eta, gamma)
    grid = _scan_grid()
    # Scan one angle at a time over every cell, which keeps memory at a few
    # cell vectors.
    change = np.empty((eta.size, N_SCAN - 1), dtype=bool)
    prev = balance(grid[0], r, noise)
    flat = prev == 0.0
    for k in range(N_SCAN - 1):
        nxt = balance(grid[k + 1], r, noise)
        change[:, k] = (prev == 0.0) | ((prev < 0.0) != (nxt < 0.0))
        flat &= nxt == 0.0
        prev = nxt
    # Where B == 0 at every angle its terms are equal; if they are 0 as
    # well, B ≡ 0 only by underflow and the cell gets no bracket.
    if flat.any():
        at = np.flatnonzero(flat)
        b_q, _ = _balance_terms(grid[:, None], r,
                                NoiseParams(eta[at], gamma[at]))
        change[at[np.all(b_q == 0.0, axis=0)]] = False
    return np.nonzero(change)


def _solve_cells(r: float, eta: np.ndarray, gamma: np.ndarray):
    """Scan + bisection of B on (0, π/2) for 1-D arrays of noise cells.

    Returns (root, p_err, k, n_changes) per cell: the chosen root, P_err
    there, the index of its scan bracket (grid[k], grid[k+1]) and the number
    of sign changes the scan found. A cell without a sign change gets NaN
    root and P_err, k = -1 and n_changes = 0. So does a cell where both
    terms of B are exactly 0 at every scan angle (both φ underflow, e.g.
    η = 1 with γ ≲ 0.002): that B ≡ 0 locates no root. A B ≡ 0 whose terms
    cancel (r = 1, γ = 0) means P_err is flat in θ, and its first bracket
    is kept.

    Where B is provably increasing (`_increasing`) a binary search finds
    the scan's one bracket; every other cell, and every cell the search is
    unsure of, is scanned at all N_SCAN angles.
    """
    grid = _scan_grid()
    with np.errstate(divide="ignore", invalid="ignore"):
        increasing = _increasing(r, eta, gamma)
        searched = np.flatnonzero(increasing)
        at, k, unsure = _search_brackets(r, eta[searched], gamma[searched])
        cell = searched[at]
        scan = ~increasing  # not np.union1d, whose np.unique loads np.ma
        scan[searched[unsure]] = True
        scanned = np.flatnonzero(scan)
        if scanned.size:
            at, k_scan = _scan_brackets(r, eta[scanned], gamma[scanned])
            cell = np.concatenate([cell, scanned[at]])
            k = np.concatenate([k, k_scan])
            order = np.argsort(cell, kind="stable")  # by cell, then k
            cell, k = cell[order], k[order]

        # Bisect every bracket in lock step until its width is at most
        # ROOT_TOL; f_mid == 0 collapses the bracket onto mid. lo only moves
        # to a point where B has the sign it had at lo, so that sign is
        # fixed per bracket.
        bracket_noise = NoiseParams(eta[cell], gamma[cell])
        lo, hi = grid[k], grid[k + 1]
        lo_negative = balance(lo, r, bracket_noise) < 0.0
        live = hi - lo > ROOT_TOL
        while live.any():
            mid = 0.5 * (lo + hi)
            f_mid = balance(mid, r, bracket_noise)
            zero = live & (f_mid == 0.0)
            up = live & ~zero & ((f_mid < 0.0) == lo_negative)
            lo = np.where(zero | up, mid, lo)
            hi = np.where(live & ~up, mid, hi)
            live &= hi - lo > ROOT_TOL
    roots = 0.5 * (lo + hi)
    p_roots = perr_analytic(roots, r, bracket_noise).p_total

    # Per cell, keep the first bracket unless a later one has strictly lower
    # P_err, as a sequential scan with `<` would.
    n_changes = np.bincount(cell, minlength=eta.size)
    rank = np.arange(cell.size) - (np.cumsum(n_changes) - n_changes)[cell]
    root = np.full(eta.size, np.nan)
    p_err = np.full(eta.size, np.nan)
    best_k = np.full(eta.size, -1)
    for j in range(int(n_changes.max(initial=0))):
        at = np.flatnonzero(rank == j)
        if j:
            at = at[p_roots[at] < p_err[cell[at]]]
        root[cell[at]] = roots[at]
        p_err[cell[at]] = p_roots[at]
        best_k[cell[at]] = k[at]
    return root, p_err, best_k, n_changes


def theta_star_grid(r: float, eta, gamma) -> tuple[np.ndarray, np.ndarray]:
    """θ* and P_err(θ*) for every (η, γ) cell at once.

    `eta` and `gamma` broadcast to the cell shape; the result has that
    shape. The scan and bisection are those of `theta_star`, run on all
    cells together, so each cell gets the root `theta_star` would return.
    Cells with no root get NaN. One warning counts the cells whose balance
    function has several sign changes.
    """
    eta, gamma = np.broadcast_arrays(np.asarray(eta, dtype=float),
                                     np.asarray(gamma, dtype=float))
    root, p_err, _, n_changes = _solve_cells(r, eta.ravel(), gamma.ravel())
    n_multi = int(np.count_nonzero(n_changes > 1))
    if n_multi:
        warnings.warn(f"balance equation has several sign changes in "
                      f"{n_multi} of {n_changes.size} cells; taking the "
                      "lowest-error root in each", stacklevel=2)
    return root.reshape(eta.shape), p_err.reshape(eta.shape)


def theta_star(r: float, noise: NoiseParams) -> ThetaStarResult:
    """Root of the balance equation on (0, π/2) by scan + bisection, with
    its sensitivities to η and γ (`_theta_slope`) at that root.

    A 64-point scan locates sign changes; bisection then halves each bracket
    until its width is at most ROOT_TOL rad (|B| is not checked; it is
    reported as the residual). If several sign changes exist (possible only
    outside the u > √3 regime) the one with the smallest P_err is taken and
    a warning is emitted. NoRootError if there is no sign change, or if both
    terms of B underflow to 0 at every scan angle.
    """
    root, p_err, k, n_changes = _solve_cells(
        r, np.array([noise.eta], dtype=float),
        np.array([noise.gamma], dtype=float))
    if not n_changes[0]:
        raise NoRootError(
            f"no sign change of B on (0, pi/2) at r={r}, eta={noise.eta}, "
            f"gamma={noise.gamma}")
    if n_changes[0] > 1:
        warnings.warn(f"balance equation has {n_changes[0]} sign changes; "
                      "taking the lowest-error root", stacklevel=2)
    grid = _scan_grid()
    theta = float(root[0])
    return ThetaStarResult(
        theta, float(p_err[0]), (float(grid[k[0]]), float(grid[k[0] + 1])),
        float(abs(balance(theta, r, noise))), *_theta_slope(theta, r, noise))


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

    Both are NaN where ∂B/∂θ = 0 at θ*: B is flat there (r = 1, γ = 0), θ*
    is no isolated root and has no derivative.
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
