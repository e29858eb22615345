"""Analytic error model: tail probabilities, the balance root, MC decoder."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridsense import (
    NoiseParams,
    balance,
    gaussian_tail,
    mc_perr,
    perr_analytic,
    theta_fit,
    theta_star,
    theta_star_grid,
    tolerance_curve,
)
from gridsense import model
from gridsense.model import ROOT_TOL, NoRootError

from conftest import (HIGH_NOISE, LOW_NOISE, R_HIGH, R_LOW,
                      joint_optimum_reference)


class TestGaussianTail:
    def test_center(self):
        assert gaussian_tail(0.0) == 0.5

    def test_known_point(self):
        # Q(1.96) ~ 0.025, the two-sided 5% quantile
        assert abs(gaussian_tail(1.959964) - 0.025) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-8.0, 8.0))
    def test_reflection(self, x):
        assert abs(gaussian_tail(-x) - (1.0 - gaussian_tail(x))) < 1e-14

    def test_monotone_decreasing(self):
        xs = np.linspace(-5, 5, 101)
        qs = [gaussian_tail(x) for x in xs]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_matches_scipy_erfc(self):
        from scipy.special import erfc

        xs = np.linspace(0.0, 37.0, 20001)
        ref = 0.5 * erfc(xs / math.sqrt(2.0))
        assert np.max(np.abs(gaussian_tail(xs) - ref) / ref) <= 1e-13
        deep = np.array([39.0, 40.0, 60.0, np.inf])
        assert np.all(0.5 * erfc(deep / math.sqrt(2.0)) == 0.0)
        assert np.all(gaussian_tail(deep) == 0.0)

    def test_density_of_a_huge_margin_is_zero_without_a_warning(self):
        # x * x overflows past |x| ~ 1.3e154; the density there is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (2e154, -2e154, 1e308, np.inf):
                assert model._phi(np.float64(x)) == 0.0
            assert (model._phi(np.array([2e154, 1e300])) == 0.0).all()

    def test_scalar_and_array_calls_agree_bitwise(self):
        xs = np.concatenate([np.linspace(-8.0, 37.0, 4001), [np.inf]])
        tails = gaussian_tail(xs.reshape(-1, 1)).ravel()
        assert all(gaussian_tail(float(x)) == t for x, t in zip(xs, tails))
        assert all(gaussian_tail(x) == t for x, t in zip(xs, tails))
        assert isinstance(gaussian_tail(1.0), np.float64)


class TestPerrAnalytic:
    # regression pins frozen from this implementation at the two benchmark
    # noise points (loss 0.9/dephasing 0.05 with r=1.092; 0.8/0.10 with 1.082)
    LOW_PINS = {
        0.0: 4.114720e-4,
        45.0: 5.401261e-5,
        60.0: 1.808783e-5,
        67.5: 1.732886e-5,
        90.0: 2.637315e-5,
    }

    @pytest.mark.parametrize("theta_deg", sorted(LOW_PINS))
    def test_low_noise_pins(self, theta_deg):
        p = perr_analytic(math.radians(theta_deg), R_LOW, LOW_NOISE).p_total
        assert abs(p / self.LOW_PINS[theta_deg] - 1.0) < 1e-5

    def test_high_noise_pin(self):
        p = perr_analytic(0.0, R_HIGH, HIGH_NOISE).p_total
        assert abs(p / 1.473054e-2 - 1.0) < 1e-5

    def test_union_bound_structure(self):
        b = perr_analytic(math.radians(30.0), R_LOW, LOW_NOISE)
        assert abs(b.p_total - (b.p_q + b.p_p - b.p_q * b.p_p)) < 1e-18
        assert 0.0 < b.p_q < 1.0 and 0.0 < b.p_p < 1.0

    def test_coupling_bound_vanishes_on_axes(self):
        assert perr_analytic(0.0, R_LOW, LOW_NOISE).coupling_bound == 0.0
        assert perr_analytic(math.pi / 2, R_LOW,
                             LOW_NOISE).coupling_bound < 1e-15
        assert perr_analytic(math.pi / 4, R_LOW,
                             LOW_NOISE).coupling_bound > 0.0

    def test_rotation_beats_square_axis(self):
        # the whole point of twisting: aligning the long cell axis with the
        # dephasing-broadened quadrature cuts the error by > 20x here
        p0 = perr_analytic(0.0, R_LOW, LOW_NOISE).p_total
        p_twist = perr_analytic(math.radians(67.5), R_LOW, LOW_NOISE).p_total
        assert p0 / p_twist > 20.0

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            perr_analytic(0.0, -1.0, LOW_NOISE)

    def test_noiseless_limit_is_zero(self):
        b = perr_analytic(0.3, 1.0, NoiseParams(1.0, 0.0))
        assert b.p_total == 0.0


class TestThetaStar:
    def test_low_noise_root(self):
        res = theta_star(R_LOW, LOW_NOISE)
        assert abs(math.degrees(res.theta_star) - 64.38924) < 1e-3
        assert res.residual < 1e-9
        assert res.bracket[0] < res.theta_star < res.bracket[1]

    def test_high_noise_root(self):
        res = theta_star(R_HIGH, HIGH_NOISE)
        assert abs(math.degrees(res.theta_star) - 68.0235) < 1e-2

    def test_root_is_local_minimum_of_perr(self):
        res = theta_star(R_LOW, LOW_NOISE)
        p_star = perr_analytic(res.theta_star, R_LOW, LOW_NOISE).p_total
        assert abs(p_star - res.p_err_at_star) < 1e-18
        for d in (-0.01, 0.01):
            p_near = perr_analytic(res.theta_star + d, R_LOW,
                                   LOW_NOISE).p_total
            assert p_near > p_star

    def test_balance_sign_structure(self):
        # below the root the p quadrature dominates (B < 0), above it q does
        res = theta_star(R_LOW, LOW_NOISE)
        assert balance(res.theta_star - 0.1, R_LOW, LOW_NOISE) < 0.0
        assert balance(res.theta_star + 0.1, R_LOW, LOW_NOISE) > 0.0

    def test_no_root_cases_raise(self):
        # weak dephasing: rotating never pays, the minimum sits on the
        # boundary and the balance function keeps one sign
        with pytest.raises(NoRootError):
            theta_star(R_LOW, NoiseParams(0.9, 0.01))
        with pytest.raises(NoRootError):
            theta_star(R_LOW, NoiseParams(0.8, 0.05))

    def test_underflowed_balance_has_a_root(self):
        # lossless with faint dephasing: both phi terms of B underflow, but
        # the log-balance L does not, and it changes sign once
        noise = NoiseParams(1.0, 1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = theta_star(R_LOW, noise)
        assert res.p_err_at_star == 0.0
        assert abs(res.theta_star - reference_star(R_LOW, 1.0, 1e-4)[0]) <= 1e-9

    def test_three_root_cell(self):
        # L has roots at 1.27, 45 and 88.73 deg; the edge roots have the
        # higher P_err (0.2003896 against 0.1980830 at 45 deg)
        noise = NoiseParams(0.591, 0.5)
        roots = reference_roots(1.0, 0.591, 0.5)
        assert [round(math.degrees(t), 2) for t in roots] == [1.27, 45.0, 88.73]
        p = perr_analytic(np.array(roots), 1.0, noise).p_total
        assert abs(p[0] - 0.2003896) < 1e-7 and abs(p[2] - 0.2003896) < 1e-7
        with pytest.warns(UserWarning, match="3 sign changes") as rec:
            res = theta_star(1.0, noise)
        assert len(rec) == 1
        assert abs(math.degrees(res.theta_star) - 45.0) < 1e-8
        assert abs(res.p_err_at_star - 0.1980830) < 1e-7

    def test_edge_root_of_the_default_window(self):
        # the 64-angle scan spanned only [1.385, 88.615] deg and missed it
        res = theta_star(R_LOW, NoiseParams(0.8204, 0.0596))
        assert abs(math.degrees(res.theta_star) - 88.9416) < 1e-4
        assert abs(res.p_err_at_star - 1.394611e-3) < 1e-9
        assert res.p_err_at_star <= perr_analytic(
            math.pi / 2, R_LOW, NoiseParams(0.8204, 0.0596)).p_total

    def test_root_ordering_across_noise_grid(self):
        # at fixed loss the root descends as dephasing grows (the isotropic
        # picture reasserts itself); at fixed dephasing it climbs as loss
        # grows. Both sequences are strictly monotone on the benchmark grid.
        t_gammas = [math.degrees(theta_star(R_LOW,
                                            NoiseParams(0.9, g)).theta_star)
                    for g in (0.05, 0.10, 0.15, 0.20)]
        assert all(a > b for a, b in zip(t_gammas, t_gammas[1:]))
        t_etas = [math.degrees(theta_star(R_LOW,
                                          NoiseParams(e, 0.05)).theta_star)
                  for e in (0.99, 0.95, 0.90, 0.85)]
        assert all(a < b for a, b in zip(t_etas, t_etas[1:]))


    def test_result_fields_are_plain_floats(self):
        res = theta_star(R_LOW, LOW_NOISE)
        assert type(res.theta_star) is float
        assert type(res.p_err_at_star) is float
        assert type(res.residual) is float
        assert all(type(b) is float for b in res.bracket)


N_REF = 20_001


def log_balance(theta, r, eta, gamma):
    """L = 2 ln r − (u_q² − u_p²)/2 − 3 ln(σ_q/σ_p), the log of the ratio of
    B's two terms, from the spreads: it has B's sign and does not underflow
    while the spreads are positive. NaN where a spread is 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sigma_q, sigma_p = model.effective_sigmas(NoiseParams(eta, gamma),
                                                  theta)
        u_q = model.A_LATTICE * r / (2.0 * sigma_q)
        u_p = model.A_LATTICE / r / (2.0 * sigma_p)
        return (2.0 * math.log(r) - (u_q * u_q - u_p * u_p) / 2.0
                - 3.0 * np.log(sigma_q / sigma_p))


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2.0), eta=st.floats(0.0, 1.0,
                                                          exclude_min=True),
       gamma=st.floats(0.0, 0.5), r=st.floats(0.5, 2.0))
@example(theta=0.0, eta=1.0, gamma=0.1, r=R_LOW)
@example(theta=math.pi / 2.0, eta=1.0, gamma=0.1, r=R_LOW)
def test_log_balance_is_the_log_of_the_balance_ratio(theta, eta, gamma, r):
    # the solver's L (w form) against ln(b_q/b_p) of B's own two terms
    eta, gamma = np.float64(eta), np.float64(gamma)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        spread = (1.0 - eta) / eta + gamma
        value = float(model._log_balance(theta, r, gamma / spread, spread))
        sigma_q, sigma_p, u_q, u_p = model._margins(theta, r,
                                                    NoiseParams(eta, gamma))
        b_q = r * r * model._phi(u_q) / sigma_q**3
        b_p = model._phi(u_p) / sigma_p**3
    tiny = np.finfo(float).tiny
    if b_q > tiny and b_p > tiny:
        log_q, log_p = math.log(b_q), math.log(b_p)
        assert abs(value - (log_q - log_p)) <= 1e-12 * (
            1.0 + abs(log_q) + abs(log_p))
    elif sigma_q == 0.0 or sigma_p == 0.0:
        # η = 1 on an axis: the limit, −∞ at θ = 0 and +∞ at π/2
        assert value == (-math.inf if sigma_q == 0.0 else math.inf)


def reference_roots(r, eta, gamma):
    """Every root of L on [0, π/2]: a sign change between neighbouring
    nonzero values of an N_REF-angle scan, bisected to ROOT_TOL. A NaN
    (a zero spread, at an end) has no sign."""
    grid = np.linspace(0.0, math.pi / 2.0, N_REF)
    values = log_balance(grid, r, eta, gamma)
    signed = np.flatnonzero((values < 0.0) | (values > 0.0))
    negative = values[signed] < 0.0
    roots = []
    for k in np.flatnonzero(negative[:-1] != negative[1:]):
        lo, hi = float(grid[signed[k]]), float(grid[signed[k + 1]])
        while hi - lo > ROOT_TOL:
            mid = 0.5 * (lo + hi)
            if (log_balance(mid, r, eta, gamma) < 0.0) == negative[k]:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def reference_star(r, eta, gamma):
    """(θ*, P_err(θ*), number of roots) of the reference: the root with the
    lowest P_err, the first on a tie; NaN without a root."""
    roots = reference_roots(r, eta, gamma)
    if not roots:
        return math.nan, math.nan, 0
    p = perr_analytic(np.array(roots), r, NoiseParams(eta, gamma)).p_total
    best = int(np.argmin(p))
    return roots[best], float(p[best]), len(roots)


def counting_user_warnings(fn, *args):
    """fn(*args) and the number of UserWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sum(issubclass(w.category, UserWarning) for w in caught)


class TestThetaStarGrid:
    @pytest.mark.parametrize("r", [0.8, R_LOW, 1.5])
    def test_matches_reference_on_seeded_grid(self, r):
        rng = np.random.default_rng(41)
        eta = rng.uniform(0.75, 0.99, (41, 41))
        gamma = rng.uniform(0.01, 0.25, (41, 41))
        (theta, p_err), n_warnings = counting_user_warnings(
            theta_star_grid, r, eta, gamma)
        n_multi = 0
        for idx in np.ndindex(eta.shape):
            ref, _, n = reference_star(r, eta[idx], gamma[idx])
            n_multi += n > 1
            if n == 0:
                assert np.isnan(theta[idx]) and np.isnan(p_err[idx])
            else:
                assert abs(theta[idx] - ref) <= 1e-9
        roots = np.isfinite(theta)
        np.testing.assert_array_equal(
            p_err[roots], perr_analytic(theta[roots], r, NoiseParams(
                eta[roots], gamma[roots])).p_total)
        assert n_warnings == min(n_multi, 1)
        # the window holds cells with and without a root
        assert np.isnan(theta).any() and np.isfinite(theta).any()

    def test_constant_balance_has_no_root_and_no_warning(self):
        # gamma = 0 makes L constant in θ (0 at r = 1), so no cell has a
        # root and none warns
        eta = np.array([0.9, 0.9, 0.8, 0.9])
        gamma = np.array([0.0, 0.05, 0.0, 0.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, p_err = theta_star_grid(1.0, eta, gamma)
            with pytest.raises(NoRootError):
                theta_star(1.0, NoiseParams(0.9, 0.0))
        assert np.isnan(theta[[0, 2]]).all() and np.isnan(p_err[[0, 2]]).all()
        assert theta[1] == theta_star(1.0, NoiseParams(0.9, 0.05)).theta_star

    def test_rows_without_roots(self):
        eta = np.linspace(0.75, 0.95, 7)[:, None] * np.ones((1, 3))
        gamma = np.array([[0.0, 0.002, 0.005]]) * np.ones((7, 1))
        theta, p_err = theta_star_grid(R_LOW, eta, gamma)
        assert theta.shape == (7, 3) and np.isnan(theta).all()
        assert np.isnan(p_err).all()
        assert all(reference_roots(R_LOW, e, g) == []
                   for e, g in zip(eta.ravel(), gamma.ravel()))

    def test_underflowed_balance_cell_has_its_root(self):
        eta = np.array([1.0, 0.9, 1.0])
        gamma = np.array([1e-4, 0.05, 0.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, p_err = theta_star_grid(R_LOW, eta, gamma)
        assert theta[0] == theta_star(R_LOW, NoiseParams(1.0, 1e-4)).theta_star
        assert p_err[0] == 0.0
        # the cells next to it keep their roots
        assert theta[1] == theta_star(R_LOW, LOW_NOISE).theta_star
        assert theta[2] == theta_star(R_LOW, NoiseParams(1.0, 0.01)).theta_star

    def test_single_cell(self):
        ref = theta_star(R_LOW, LOW_NOISE)
        theta, p_err = theta_star_grid(R_LOW, 0.9, 0.05)
        assert theta.shape == p_err.shape == ()
        assert theta == ref.theta_star and p_err == ref.p_err_at_star
        assert abs(theta - reference_star(R_LOW, 0.9, 0.05)[0]) <= 1e-9
        theta, p_err = theta_star_grid(R_LOW, [0.9], [0.05])
        assert theta.shape == (1,) and theta[0] == ref.theta_star

    def test_cells_broadcast(self):
        eta = np.array([[0.8], [0.9]])
        gamma = np.array([0.05, 0.1, 0.2])
        theta, _ = theta_star_grid(R_LOW, eta, gamma)
        assert theta.shape == (2, 3)
        assert theta[1, 0] == theta_star(R_LOW, LOW_NOISE).theta_star

    def test_invalid_cell_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            theta_star_grid(R_LOW, [0.9, 1.2], 0.05)
        with pytest.raises(ValueError, match="gamma"):
            theta_star_grid(R_LOW, 0.9, [0.05, -0.1])


def test_every_root_is_a_sign_change_near_the_lossless_edge():
    r = 1.092
    eta, gamma = np.meshgrid(np.linspace(0.995, 0.9999, 6),
                             np.linspace(0.0005, 0.004, 6), indexing="ij")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "balance equation has several",
                                UserWarning)
        theta, _ = theta_star_grid(r, eta, gamma)
    roots = np.isfinite(theta)
    assert roots.any()
    not_roots = [
        math.degrees(t) for t, e, g in zip(theta[roots], eta[roots],
                                           gamma[roots])
        if not (log_balance(t - 1e-6, r, e, g)
                * log_balance(t + 1e-6, r, e, g) < 0.0)]
    assert not_roots == []


# The 8 cells of the default `phase_diagram --n 151` window whose root lies
# in (88.7, 89.8) deg, outside the span of the 64-angle scan θ* once took.
EDGE_CELLS = [(0.7548, 0.10759999999999999), (0.7564, 0.10599999999999998),
              (0.758, 0.10439999999999999), (0.7724, 0.09159999999999999),
              (0.7804, 0.08519999999999998), (0.7867999999999999,
                                                0.08039999999999999),
              (0.8012, 0.07079999999999999), (0.8204, 0.0596)]


def test_edge_cells_are_the_window_grid():
    eta = np.linspace(0.75, 0.99, 151)
    gamma = np.linspace(0.01, 0.25, 151)
    assert all(e in eta and g in gamma for e, g in EDGE_CELLS)
    theta, _ = theta_star_grid(R_LOW, [e for e, _ in EDGE_CELLS],
                               [g for _, g in EDGE_CELLS])
    assert (np.degrees(theta) > 88.7).all() and (np.degrees(theta) < 89.8).all()


def _with_edge_cells(test):
    for eta, gamma in EDGE_CELLS:
        test = example(eta=eta, gamma=gamma, r=R_LOW)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(0.0, 1.0, exclude_min=True), gamma=st.floats(0.0, 0.5),
       r=st.floats(0.5, 2.0))
@_with_edge_cells
def test_solvers_match_reference(eta, gamma, r):
    noise = NoiseParams(eta, gamma)
    (theta, p_err), grid_warnings = counting_user_warnings(
        theta_star_grid, r, eta, gamma)
    try:
        res, star_warnings = counting_user_warnings(theta_star, r, noise)
    except NoRootError:
        assert np.isnan(theta) and np.isnan(p_err)
    else:
        assert star_warnings == grid_warnings
        assert res.theta_star == theta and res.p_err_at_star == p_err
        assert res.bracket[0] < theta < res.bracket[1]
    spread = (1.0 - eta) / eta + gamma
    interior = np.linspace(0.0, math.pi / 2.0, N_REF)[1:-1]
    if not gamma > 1e-6 * spread or np.isnan(
            log_balance(interior, r, eta, gamma)).any():
        # L varies with θ by about γ/S of its terms, which the σ form rounds
        # to ~1e-16, and where S is near the smallest normal float the
        # spreads underflow: in either case the reference cannot place a
        # root. The solver's own L, tied to B by
        # test_log_balance_is_the_log_of_the_balance_ratio, still changes
        # sign there, down to a γ/S whose θ-dependence is a subnormal.
        if np.isfinite(theta) and gamma / spread >= np.finfo(float).tiny:
            with np.errstate(divide="ignore"):
                ends = model._log_balance(
                    np.array([theta - 1e-6, theta + 1e-6]), r,
                    gamma / spread, spread)
            assert np.sign(ends).prod() == -1.0
        return
    ref, _, n_ref = reference_star(r, eta, gamma)
    assert grid_warnings == (n_ref > 1)
    if n_ref == 0:
        assert np.isnan(theta)
        return
    assert abs(theta - ref) <= 1e-9
    assert np.sign(log_balance(theta - 1e-6, r, eta, gamma)) * np.sign(
        log_balance(theta + 1e-6, r, eta, gamma)) == -1.0


class TestVectorisedModel:
    """Array arguments give, element by element, the scalar results."""

    def test_balance_elementwise(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(0.0, math.pi / 2, 200)
        eta = rng.uniform(0.75, 1.0, 200)
        gamma = rng.uniform(0.0, 0.5, 200)
        b = balance(theta, 1.2, NoiseParams(eta, gamma))
        assert b.shape == (200,)
        assert all(b[i] == balance(float(theta[i]), 1.2,
                                   NoiseParams(float(eta[i]),
                                               float(gamma[i])))
                   for i in range(200))

    def test_perr_elementwise(self):
        theta = np.linspace(0.0, math.pi / 2, 9)
        b = perr_analytic(theta, R_LOW, LOW_NOISE)
        for i, t in enumerate(theta):
            one = perr_analytic(float(t), R_LOW, LOW_NOISE)
            assert b.p_total[i] == one.p_total
            assert b.coupling_bound[i] == one.coupling_bound

    def test_perr_broadcast_with_array_r(self):
        rng = np.random.default_rng(12)
        theta = rng.uniform(0.0, math.pi / 2, (4, 1, 1))
        r = rng.uniform(0.5, 2.0, (1, 3, 1))
        eta = rng.uniform(0.75, 1.0, (1, 1, 5))
        gamma = rng.uniform(0.0, 0.5, (1, 3, 5))
        b = perr_analytic(theta, r, NoiseParams(eta, gamma))
        cells = np.broadcast_arrays(theta, r, eta, gamma)
        assert b.p_total.shape == cells[0].shape == (4, 3, 5)
        for i in range(cells[0].size):
            t, rr, e, g = (float(cell.flat[i]) for cell in cells)
            one = perr_analytic(t, rr, NoiseParams(e, g))
            for name in ("p_q", "p_p", "p_total", "coupling_bound"):
                assert getattr(b, name).flat[i] == getattr(one, name)

    def test_array_r_with_a_non_positive_entry_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="aspect ratio must be "
                                                 "positive"):
                perr_analytic(0.3, np.array([1.0, bad, 1.2]), LOW_NOISE)

    def test_zero_spread_cell(self):
        # eta = 1, gamma = 0: no noise, zero error, and B has no root
        p = perr_analytic(np.array([0.0, 0.3]), 1.0, NoiseParams(1.0, 0.0))
        assert (p.p_total == 0.0).all()
        theta, p_err = theta_star_grid(1.0, [1.0, 0.9], [0.0, 0.05])
        assert np.isnan(theta[0]) and np.isnan(p_err[0])
        assert np.isfinite(theta[1])


class TestSensitivityAndFit:
    def test_sensitivities_at_benchmark(self):
        star = theta_star(R_LOW, LOW_NOISE)
        d_eta, d_gamma = star.dtheta_deta_deg, star.dtheta_dgamma_deg
        assert abs(d_eta - (-197.705)) < 0.1
        assert abs(d_gamma - (-300.176)) < 0.1

    @pytest.mark.parametrize("r,eta,gamma", [
        (R_LOW, 0.9, 0.05),  # the benchmark point
        (R_LOW, 1.0, 0.05),  # η at its cap: backward in η
        (R_LOW, 1.0 - 5e-5, 0.05),
        (R_LOW, 0.9, 0.5),  # γ at its cap: backward in γ
        (R_LOW, 0.999, 0.005),
        (R_LOW, 0.9, 0.02631906943556492),  # next to the root region's edge
        (R_LOW, 0.85, 0.05),
        (1.0, 0.9, 0.05),  # several sign changes
        (0.846, 0.952, 0.0260),  # θ* ≈ 3.8°, growing with the noise
    ])
    def test_matches_a_difference_of_theta_star(self, r, eta, gamma):
        # a 1e-6 step, one-sided toward the inside of the noise domain
        step = 1e-6

        def solve(eta, gamma):
            return theta_star(r, NoiseParams(eta, gamma)).theta_star

        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "balance equation has",
                                    UserWarning)
            star = theta_star(r, NoiseParams(eta, gamma))
            d_eta, d_gamma = star.dtheta_deta_deg, star.dtheta_dgamma_deg
            centre = solve(eta, gamma)
            if eta + step < 1.0:
                diff_eta = (solve(eta + step, gamma)
                            - solve(eta - step, gamma)) / (2.0 * step)
            else:
                diff_eta = (centre - solve(eta - step, gamma)) / step
            if gamma + step <= 0.5:
                diff_gamma = (solve(eta, gamma + step)
                              - solve(eta, gamma - step)) / (2.0 * step)
            else:
                diff_gamma = (centre - solve(eta, gamma - step)) / step
        for got, diff in ((d_eta, diff_eta), (d_gamma, diff_gamma)):
            diff = math.degrees(diff)
            assert abs(got - diff) <= 1e-3 * abs(diff) + 0.01

    def test_centre_without_a_root_raises(self):
        with pytest.raises(NoRootError):
            theta_star(R_LOW, NoiseParams(0.9, 0.0262))
        # the root region's edge: its root lies past the 88.615 deg that
        # the 64-angle scan reached
        star = theta_star(R_LOW, NoiseParams(0.9, 0.02626896943556492))
        assert 88.615 < math.degrees(star.theta_star) < 88.62

    def test_fit_formula_value(self):
        assert abs(theta_fit(LOW_NOISE) - 68.42) < 1e-10

    def test_fit_is_affine(self):
        base = theta_fit(NoiseParams(1.0, 0.0))
        assert abs(base - 64.8) < 1e-12
        assert abs(theta_fit(NoiseParams(0.9, 0.0)) - base - 16.28) < 1e-10
        assert abs(theta_fit(NoiseParams(1.0, 0.1)) - base + 25.32) < 1e-10


class TestJointOptimum:
    @pytest.mark.parametrize("eta,gamma", [
        (0.75, 0.2), (0.9, 0.05), (0.99, 0.0), (0.95, 0.01), (1.0, 0.05)])
    def test_matches_the_scalar_scan(self, eta, gamma):
        """One broadcast `perr_analytic` call over the reference's (θ, r)
        grid equals its scalar scan cell for cell, bit for bit, and its
        first argmin is the scan's first-best cell."""
        noise = NoiseParams(eta, gamma)
        thetas = np.linspace(0.0, math.pi / 2.0, 48 + 2)[1:-1]
        rs = np.linspace(0.8, 1.5, 48)
        grid = perr_analytic(thetas[:, None], rs[None, :], noise).p_total
        scalar = np.array([[perr_analytic(t, rr, noise).p_total for rr in rs]
                           for t in thetas])
        assert grid.tobytes() == scalar.tobytes()
        i, j = np.unravel_index(np.argmin(grid), grid.shape)
        best = min(((t, rr) for t in thetas for rr in rs),
                   key=lambda x: perr_analytic(*x, noise).p_total)
        assert (thetas[i], rs[j]) == best

    def test_low_noise_optimum(self):
        t, r, p = joint_optimum_reference(LOW_NOISE)
        assert abs(math.degrees(t) - 90.0) < 1e-3
        assert abs(r - 1.174055) < 1e-4
        assert abs(p / 1.184947e-5 - 1.0) < 1e-4

    def test_beats_every_fixed_theta_pin(self):
        _, _, p = joint_optimum_reference(LOW_NOISE)
        assert p < min(TestPerrAnalytic.LOW_PINS.values())


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        a = mc_perr(0.0, R_LOW, LOW_NOISE, 100_000, seed=11)
        b = mc_perr(0.0, R_LOW, LOW_NOISE, 100_000, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        a = mc_perr(0.0, R_LOW, LOW_NOISE, 100_000, seed=11)
        b = mc_perr(0.0, R_LOW, LOW_NOISE, 100_000, seed=12)
        assert a != b

    def test_agrees_with_analytic_model(self):
        p_hat, stderr = mc_perr(0.0, R_LOW, LOW_NOISE, 1_000_000,
                                seed=20240817)
        p_ana = perr_analytic(0.0, R_LOW, LOW_NOISE).p_total
        assert abs(p_hat - p_ana) < 4.0 * stderr

    def test_high_noise_agreement(self):
        p_hat, stderr = mc_perr(0.0, R_HIGH, HIGH_NOISE, 1_000_000,
                                seed=20240817)
        p_ana = perr_analytic(0.0, R_HIGH, HIGH_NOISE).p_total
        assert abs(p_hat - p_ana) < 4.0 * stderr

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_perr(0.0, R_LOW, LOW_NOISE, 100, seed=1)

    def test_chunking_boundary_consistency(self):
        # answers must not depend on how the stream is chunked, only on the
        # seed and total count; 100k fits in one chunk so this checks the
        # accumulation path end to end
        p, s = mc_perr(0.0, R_HIGH, HIGH_NOISE, 50_000, seed=5)
        assert 0.0 <= p <= 1.0
        assert s > 0.0


def mc_perr_reference(theta, r, noise, n_samples, seed, chunk):
    """The decoder as it was before blocks: whole-chunk draws and parities."""
    sigma_q, sigma_p = model.effective_sigmas(noise, theta)
    d_q = model.A_LATTICE * r
    d_p = model.A_LATTICE / r
    rng = np.random.Generator(np.random.Philox(seed))
    errors = 0
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        dq = rng.normal(0.0, sigma_q, size=m) if sigma_q > 0 else np.zeros(m)
        dp = rng.normal(0.0, sigma_p, size=m) if sigma_p > 0 else np.zeros(m)
        k_q = np.rint(dq / d_q).astype(np.int64)
        k_p = np.rint(dp / d_p).astype(np.int64)
        flips = ((k_q & 1) | (k_p & 1)).astype(bool)
        errors += int(np.count_nonzero(flips))
        remaining -= m
    p_hat = errors / n_samples
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_samples)
    return p_hat, stderr


class TestMonteCarloBlocks:
    """Blocked draws reproduce the whole-chunk decoder bit for bit."""

    BLOCK = model._MC_BLOCK
    CHUNK = 2 * model._MC_BLOCK + 12_345  # a short chunk, so tests stay small

    @pytest.mark.parametrize("n_samples", [
        10_000, BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, CHUNK, CHUNK + 1,
        2 * CHUNK + BLOCK + 7])
    @pytest.mark.parametrize("theta,r,noise", [
        (0.0, R_HIGH, NoiseParams(0.6, 0.2)),
        (1.1, 1.3, HIGH_NOISE),
        (0.0, 1.0, NoiseParams(1.0, 0.3)),  # σ_q = 0: only p is drawn
        (math.pi / 2, 1.0, NoiseParams(1.0, 0.3)),  # σ_p = 0
        (0.4, 1.0, NoiseParams(1.0, 0.0)),  # nothing is drawn
    ])
    def test_matches_the_whole_chunk_decoder(self, n_samples, theta, r,
                                             noise, monkeypatch):
        monkeypatch.setattr(model, "MC_CHUNK", self.CHUNK)
        got = mc_perr(theta, r, noise, n_samples, seed=17)
        assert got == mc_perr_reference(theta, r, noise, n_samples, 17,
                                        self.CHUNK)

    def test_default_chunk_matches(self):
        n = 3 * self.BLOCK + 5
        assert mc_perr(0.3, R_LOW, HIGH_NOISE, n, seed=4) == \
            mc_perr_reference(0.3, R_LOW, HIGH_NOISE, n, 4, model.MC_CHUNK)


class TestToleranceCurve:
    def test_reference_row_values(self):
        res = theta_star(R_LOW, LOW_NOISE)
        rows = tolerance_curve([0.0, 3.0, 20.0], res.theta_star, R_LOW,
                               LOW_NOISE)
        assert abs(rows[0]["improvement"] - 24.4108) < 1e-3
        assert rows[0]["retained"] == 1.0
        assert abs(rows[1]["improvement"] - 23.7877) < 1e-3
        assert abs(rows[2]["retained"] - 0.9782) < 1e-3

    def test_centered_on_oam_angle(self):
        rows = tolerance_curve([0.0], math.radians(67.5), R_LOW, LOW_NOISE)
        assert abs(rows[0]["theta_deg"] - 67.5) < 1e-12
        assert abs(rows[0]["improvement"] - 4.114720e-4 / 1.732886e-5) < 1e-3

    def test_improvement_degrades_with_offset(self):
        rows = tolerance_curve([0.0, 5.0, 10.0, 15.0, 20.0],
                               math.radians(67.5), R_LOW, LOW_NOISE)
        imps = [r["improvement"] for r in rows]
        assert all(a > b for a, b in zip(imps, imps[1:]))
        assert imps[-1] > 10.0  # still an order of magnitude at 20 degrees

    def test_no_error_at_either_angle_is_no_improvement(self):
        # without noise neither lattice errs: 0/0 is NaN, not inf
        rows = tolerance_curve([0.0, 5.0], math.radians(30.0), R_LOW,
                               NoiseParams(1.0, 0.0))
        for row in rows:
            assert row["p_err"] == 0.0
            assert math.isnan(row["improvement"])


@pytest.mark.parametrize("p_base,p,expected", [
    (2e-3, 1e-3, 2.0),  # the ratio where p > 0
    (1e-3, 0.0, math.inf),  # only the square lattice errs
    (0.0, 0.0, math.nan),  # neither errs
    (1e-3, math.nan, math.nan),  # p undefined
])
def test_improvement_rule(p_base, p, expected):
    got = float(model._improvement(p_base, p))
    assert got == expected or (math.isnan(got) and math.isnan(expected))


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), r=st.floats(0.9, 1.3))
def test_perr_bounded_and_symmetric_under_half_turn(theta, r):
    b = perr_analytic(theta, r, LOW_NOISE)
    assert 0.0 <= b.p_total <= 1.0
    # sigma formulas depend on sin^2/cos^2, so theta and theta+pi coincide
    b2 = perr_analytic(theta + math.pi, r, LOW_NOISE)
    assert abs(b.p_total - b2.p_total) < 1e-15
