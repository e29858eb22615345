"""Constrained Adam trainer, schedules, and the sweep/Pareto helpers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridsense import (
    BOUNDS,
    PARAM_ORDER,
    TrainConfig,
    TrainableParams,
    combined_loss,
    fractional_sweep,
    gradient,
    lr_schedule,
    pareto_filter,
    pareto_sweep,
    train,
)

from conftest import LOW_NOISE


def short_cfg(**over):
    base = dict(noise=LOW_NOISE, steps=3)
    base.update(over)
    return TrainConfig(**base)


R_FREE = frozenset({"ell", "epsilon"})

OAM_INIT = TrainableParams(bloch_theta=math.pi / 2, bloch_phi=math.pi / 2,
                           ell=1.5)


class TestTrainableParams:
    def test_theta_property(self):
        assert abs(OAM_INIT.theta - math.radians(67.5)) < 1e-15
        assert TrainableParams(ell=2.0, ell_max=4).theta == math.pi / 2

    def test_vector_round_trip(self):
        x = OAM_INIT.vector()
        assert x.shape == (len(PARAM_ORDER),)
        again = OAM_INIT.with_vector(x)
        assert again == OAM_INIT

    def test_with_vector_replaces_in_order(self):
        x = OAM_INIT.vector()
        x[PARAM_ORDER.index("r")] = 1.3
        assert OAM_INIT.with_vector(x).r == 1.3

    def test_projection_clamps_bounded_coordinates(self):
        wild = TrainableParams(bloch_theta=7.0, r=9.0, epsilon=0.9)
        proj = wild.projected()
        assert proj.bloch_theta == BOUNDS["bloch_theta"][1]
        assert proj.r == BOUNDS["r"][1]
        assert proj.epsilon == BOUNDS["epsilon"][1]
        # unconstrained coordinates pass through untouched
        assert wild.bloch_phi == proj.bloch_phi

    def test_projection_is_identity_inside_box(self):
        assert OAM_INIT.projected() is OAM_INIT

    def test_as_dict_contains_derived_angle(self):
        d = OAM_INIT.as_dict()
        assert abs(d["theta_deg"] - 67.5) < 1e-12
        assert d["ell_max"] == 4
        for k in PARAM_ORDER:
            assert k in d


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(noise=LOW_NOISE, steps=0)
        with pytest.raises(ValueError):
            TrainConfig(noise=LOW_NOISE, lr_init=0.0)
        with pytest.raises(ValueError):
            TrainConfig(noise=LOW_NOISE, freeze={"no_such_param"})

    def test_freeze_normalized_to_frozenset(self):
        cfg = TrainConfig(noise=LOW_NOISE, freeze={"ell", "r"})
        assert isinstance(cfg.freeze, frozenset)


class TestLrSchedule:
    def test_endpoints(self):
        cfg = short_cfg(steps=100)
        assert abs(lr_schedule(cfg, 0) - cfg.lr_init) < 1e-18
        assert abs(lr_schedule(cfg, 100) - cfg.lr_final) < 1e-18

    def test_midpoint_is_mean(self):
        cfg = short_cfg(steps=100)
        mid = lr_schedule(cfg, 50)
        assert abs(mid - 0.5 * (cfg.lr_init + cfg.lr_final)) < 1e-12

    def test_monotone_decreasing(self):
        cfg = short_cfg(steps=50)
        lrs = [lr_schedule(cfg, t) for t in range(51)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))


class TestLossAndGradient:
    def test_hinge_inactive_below_threshold(self):
        # at the benchmark point P_err = 1.7e-5 < P_th = 1e-3, so the penalty
        # term contributes exactly zero and loss == -qfi
        loss, qfi, p_err = combined_loss(OAM_INIT, short_cfg())
        assert p_err < 1e-3
        assert loss == -qfi

    def test_hinge_active_above_threshold(self):
        cfg = short_cfg(p_th=1e-6, penalty=100.0)
        loss, qfi, p_err = combined_loss(OAM_INIT, cfg)
        assert loss == pytest.approx(-qfi + 100.0 * (p_err - 1e-6))

    def test_frozen_coordinates_get_zero_gradient(self):
        cfg = short_cfg()  # default freeze: ell, r, epsilon
        g = gradient(OAM_INIT, cfg)
        for name in ("ell", "r", "epsilon"):
            assert g[PARAM_ORDER.index(name)] == 0.0

    def test_psi_is_not_a_coordinate(self):
        # the homodyne LO angle never entered the loss, so it is not trained
        assert "psi" not in PARAM_ORDER
        with pytest.raises(ValueError, match="psi"):
            TrainConfig(noise=LOW_NOISE, freeze={"psi"})


class TestTrain:
    def test_deterministic_bit_for_bit(self):
        cfg = short_cfg(steps=5)
        p1, t1 = train(cfg, OAM_INIT)
        p2, t2 = train(cfg, OAM_INIT)
        assert p1 == p2
        assert [s.loss for s in t1] == [s.loss for s in t2]
        assert np.array_equal(t1[-1].params.vector(), t2[-1].params.vector())

    def test_trace_shape_and_clipping(self):
        cfg = short_cfg(steps=4, clip_norm=0.5)
        _, trace = train(cfg, OAM_INIT)
        assert len(trace) == 4
        assert [s.step for s in trace] == [0, 1, 2, 3]
        for s in trace:
            assert s.grad_norm <= 0.5 + 1e-12
            assert s.lr <= cfg.lr_init

    def test_loss_decreases_from_cold_start(self):
        # 40 steps of Adam from a tilted Bloch start must make progress
        cfg = short_cfg(steps=40)
        init = TrainableParams(bloch_theta=1.0, bloch_phi=0.5, ell=1.5)
        _, trace = train(cfg, init)
        assert trace[-1].loss < trace[0].loss

    def test_result_stays_in_box(self):
        cfg = short_cfg(steps=10, freeze=frozenset({"ell"}))
        final, _ = train(cfg, OAM_INIT)
        for name, (lo, hi) in BOUNDS.items():
            assert lo <= getattr(final, name) <= hi


class TestParetoFilter:
    def test_hand_built_case(self):
        rows = [
            {"qfi": 10.0, "p_err": 1e-4},   # kept
            {"qfi": 9.0, "p_err": 1e-5},    # kept (better error)
            {"qfi": 8.0, "p_err": 1e-4},    # dominated by the first
            {"qfi": math.nan, "p_err": 1e-6},  # dropped: not finite
        ]
        kept = pareto_filter(rows)
        assert rows[0] in kept and rows[1] in kept
        assert rows[2] not in kept and rows[3] not in kept

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(1e-6, 1e-2)),
                    min_size=1, max_size=12))
    def test_kept_rows_are_mutually_nondominating(self, pairs):
        rows = [{"qfi": q, "p_err": p} for q, p in pairs]
        kept = pareto_filter(rows)
        assert kept  # a finite nonempty set always has a nondominated row
        for a in kept:
            for b in kept:
                if a is b:
                    continue
                strictly_better = (b["qfi"] >= a["qfi"]
                                   and b["p_err"] <= a["p_err"]
                                   and (b["qfi"] > a["qfi"]
                                        or b["p_err"] < a["p_err"]))
                assert not strictly_better

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(1e-6, 1e-2)),
                    min_size=1, max_size=12))
    def test_dropped_rows_are_dominated(self, pairs):
        rows = [{"qfi": q, "p_err": p} for q, p in pairs]
        kept = pareto_filter(rows)
        for row in rows:
            if row in kept:
                continue
            assert any(other["qfi"] >= row["qfi"]
                       and other["p_err"] <= row["p_err"]
                       and (other["qfi"] > row["qfi"]
                            or other["p_err"] < row["p_err"])
                       for other in rows if other is not row)


class TestSweeps:
    def test_pareto_sweep_rows(self):
        rows = pareto_sweep([1.0, 100.0], short_cfg(steps=2), OAM_INIT)
        assert [r["lam"] for r in rows] == [1.0, 100.0]
        assert all(r["error"] == "" for r in rows)
        assert all(math.isfinite(r["qfi"]) for r in rows)

    def test_pareto_sweep_rejects_empty(self):
        with pytest.raises(ValueError):
            pareto_sweep([], short_cfg(), OAM_INIT)

    def test_pareto_sweep_accepts_generator(self):
        lambdas = (lam for lam in (100.0, 1.0))
        rows = pareto_sweep(lambdas, short_cfg(steps=2, freeze=R_FREE),
                            OAM_INIT)
        assert [r["lam"] for r in rows] == [1.0, 100.0]

    def test_pareto_sweep_warns_when_lambda_is_inert(self):
        # default freeze holds ell and r, so P_err and every row are fixed
        with pytest.warns(UserWarning, match="lambda cannot move"):
            rows = pareto_sweep([1.0, 100.0], short_cfg(steps=2), OAM_INIT)
        assert len(rows) == 2
        assert rows[0]["p_err"] == rows[1]["p_err"]

    def test_pareto_sweep_quiet_when_r_is_free(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pareto_sweep([1.0, 100.0], short_cfg(steps=2, freeze=R_FREE),
                         OAM_INIT)
        assert not [w for w in caught
                    if "lambda cannot move" in str(w.message)]

    def test_fractional_sweep_columns_and_symmetry(self):
        rows = fractional_sweep([0.0, 1.0, 3.0], short_cfg(steps=2),
                                OAM_INIT)
        assert [r["ell"] for r in rows] == [0.0, 1.0, 3.0]
        assert abs(rows[0]["theta_deg"]) < 1e-12
        assert abs(rows[1]["theta_deg"] - 45.0) < 1e-12
        # baseline row improves on itself by exactly 1
        assert abs(rows[0]["improvement"] - 1.0) < 1e-12
        # sigma formulas are pi-periodic in 2*theta: ell and ell_max - ell
        # give mirror lattices with identical analytic error
        assert abs(rows[1]["p_err"] - rows[2]["p_err"]) < 1e-12
        assert all(math.isfinite(r["capacity"]) for r in rows)
