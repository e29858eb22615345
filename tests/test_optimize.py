"""Constrained Adam trainer, schedules, and the sweep/Pareto helpers."""

import itertools
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import gridsense.optimize as optimize
import gridsense.pipeline as pipeline
import gridsense.states as states
from gridsense import (
    BOUNDS,
    PARAM_ORDER,
    NoiseParams,
    TrainConfig,
    TrainableParams,
    combined_loss,
    fractional_sweep,
    gradient,
    lr_schedule,
    pareto_sweep,
    perr_analytic,
    pipeline_qfi,
    theta_star,
    train,
)
from gridsense.fock import NumericError
from gridsense.model import perr_gradient
from gridsense.optimize import analytic_gradient

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

    @pytest.mark.parametrize("ell_max", [0, -2])
    def test_ell_max_below_one_rejected(self, ell_max):
        with pytest.raises(ValueError, match="ell_max must be >= 1"):
            replace(OAM_INIT, ell_max=ell_max)
        with pytest.raises(ValueError, match="ell_max must be >= 1"):
            TrainableParams(ell=1.0, ell_max=ell_max)

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
        with pytest.raises(ValueError, match=r"^steps must be >= 1, got 0$"):
            TrainConfig(noise=LOW_NOISE, steps=0)
        with pytest.raises(ValueError,
                           match=r"^lr_init must be > 0, got 0\.0$"):
            TrainConfig(noise=LOW_NOISE, lr_init=0.0)
        with pytest.raises(ValueError, match="unknown freeze entries"):
            TrainConfig(noise=LOW_NOISE, freeze={"no_such_param"})

    @pytest.mark.parametrize("field, rule, outside, end", [
        ("steps", ">= 1", 0, 1),
        ("lr_init", "> 0", 0.0, 5e-324),
        ("lr_final", ">= 0", -1.0, 0.0),
        ("clip_norm", "> 0", -1.0, 5e-324),
        ("penalty", ">= 0", -1.0, 0.0),
        ("p_th", ">= 0", -1e-300, 0.0),
    ])
    def test_limit(self, field, rule, outside, end):
        # a negative clip_norm flips every gradient, a negative lr_final
        # climbs the loss at the end of the schedule, and a negative
        # penalty rewards logical errors
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, "):
            TrainConfig(noise=LOW_NOISE, **{field: outside})
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, "):
            TrainConfig(noise=LOW_NOISE, **{field: math.nan})
        assert getattr(TrainConfig(noise=LOW_NOISE, **{field: end}),
                       field) == end

    def test_limits_cover_the_numeric_knobs(self):
        assert set(optimize.TRAIN_LIMITS) == {
            "steps", "lr_init", "lr_final", "clip_norm", "penalty", "p_th"}

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

    @pytest.mark.parametrize("freeze", [
        frozenset({"ell", "r", "epsilon"}), frozenset({"ell"}), frozenset()],
        ids=["ell,epsilon,r", "ell", "none"])
    def test_each_row_describes_its_params(self, freeze):
        # the row's loss, qfi and p_err are those of the point it holds,
        # with the hinge active so p_err enters the loss
        cfg = short_cfg(steps=4, freeze=freeze, p_th=1e-6)
        _, trace = train(cfg, OAM_INIT)
        assert trace[0].params == OAM_INIT
        for row in trace:
            assert row.p_err > cfg.p_th
            assert combined_loss(row.params, cfg) == (row.loss, row.qfi,
                                                      row.p_err)


class TestSweeps:
    def test_pareto_sweep_rows(self):
        with pytest.warns(UserWarning, match="lambda cannot move"):
            rows = pareto_sweep([1.0, 100.0], short_cfg(steps=2), OAM_INIT)
        assert [r["lam"] for r in rows] == [1.0, 100.0]
        assert all(r["error"] == "" for r in rows)
        assert all(math.isfinite(r["qfi"]) for r in rows)

    def test_pareto_sweep_rejects_empty(self):
        with pytest.raises(ValueError):
            pareto_sweep([], short_cfg(), OAM_INIT)

    def test_pareto_sweep_accepts_generator(self):
        lambdas = (lam for lam in (100.0, 1.0))
        with pytest.warns(UserWarning, match="lambda cannot move"):
            rows = pareto_sweep(lambdas, short_cfg(steps=2, freeze=R_FREE),
                                OAM_INIT)
        assert [r["lam"] for r in rows] == [1.0, 100.0]

    def test_pareto_sweep_warns_when_lambda_is_inert(self):
        # default freeze holds ell and r, so P_err and every row are fixed
        with pytest.warns(UserWarning, match="lambda cannot move"):
            rows = pareto_sweep([1.0, 100.0], short_cfg(steps=2), OAM_INIT)
        assert len(rows) == 2
        assert rows[0]["p_err"] == rows[1]["p_err"]

    @staticmethod
    def count_trainings(monkeypatch):
        penalties = []
        real_train = optimize.train

        def counting_train(cfg, init):
            penalties.append(cfg.penalty)
            return real_train(cfg, init)

        monkeypatch.setattr(optimize, "train", counting_train)
        return penalties

    # ℓ is the only coordinate of the hinge's slope left free
    THETA_ONLY = frozenset({"r", "epsilon"})

    @pytest.mark.parametrize("freeze, ell, hinge_on", [
        # r is free, but p_err stays below p_th at every step
        (R_FREE, 1.5, False),
        # the hinge is active, but its slope lies along ℓ and r only
        (frozenset({"ell", "r"}), 1.5, True),
        # the hinge is active and ℓ free, but ℓ = 0 is θ = 0, where
        # ∂P_err/∂θ ∝ sin 2θ is exactly 0, and r is frozen
        (THETA_ONLY, 0.0, True),
    ], ids=["hinge_off", "ell_and_r_frozen", "stationary_theta"])
    def test_pareto_sweep_trains_once_when_lambda_cannot_move(
            self, freeze, ell, hinge_on, monkeypatch):
        # every λ takes the smallest λ's steps: each row is a copy of that
        # run and equals the row of its own λ trained alone
        cfg = short_cfg(steps=3, freeze=freeze,
                        p_th=1e-6 if hinge_on else 1e-3)
        init = replace(OAM_INIT, ell=ell)
        alone = []
        for lam in (0.0, 1.0, 1e4):
            final, trace = train(replace(cfg, penalty=lam), init)
            assert [step.p_err > cfg.p_th for step in trace] == [hinge_on] * 3
            _, qfi, p_err = combined_loss(final, cfg)
            alone.append({"lam": lam, "qfi": qfi, "p_err": p_err,
                          "error": ""})
        penalties = self.count_trainings(monkeypatch)
        with pytest.warns(UserWarning, match=(
                r"^lambda cannot move this sweep: the penalty's slope reached "
                r"no free coordinate at any of the 3 steps of the lambda = 0 "
                r"run, so every row is the same training run$")):
            rows = pareto_sweep([1e4, 0.0, 1.0], cfg, init)
        assert penalties == [0.0]
        assert rows == alone  # float equality: all 17 digits

    @pytest.mark.parametrize("freeze, ell", [
        (R_FREE, 1.5),
        # ℓ free off the stationary θ = 0; at ℓ = 2 (θ = π/2) the θ slope is
        # about 1e-17 but not 0, and no threshold may take it for 0
        (THETA_ONLY, 0.5), (THETA_ONLY, 2.0),
    ], ids=["r_free", "ell_free_at_0.5", "ell_free_at_2"])
    def test_pareto_sweep_trains_every_lambda_when_the_hinge_is_active(
            self, freeze, ell, monkeypatch):
        init = replace(OAM_INIT, ell=ell)
        if ell == 2.0:
            d_theta, _ = perr_gradient(init.theta, init.r, LOW_NOISE)
            assert 0 < abs(d_theta) < 1e-15
        penalties = self.count_trainings(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = pareto_sweep([1.0, 1e4], short_cfg(
                steps=3, freeze=freeze, p_th=1e-6), init)
        assert caught == []
        assert penalties == [1.0, 1e4]
        assert rows[0]["p_err"] != rows[1]["p_err"]
        if "r" not in freeze:  # F_Q moves with r, not with θ
            assert rows[0]["qfi"] != rows[1]["qfi"]

    def test_pareto_sweep_trains_each_distinct_lambda_once(self, monkeypatch):
        # the hinge is active, so every distinct λ trains; a repeat copies
        cfg = short_cfg(steps=3, freeze=R_FREE, p_th=1e-6)
        penalties = self.count_trainings(monkeypatch)
        rows = pareto_sweep([10.0, 1.0, 10.0, 1.0], cfg, OAM_INIT)
        assert penalties == [1.0, 10.0]
        assert [row["lam"] for row in rows] == [1.0, 1.0, 10.0, 10.0]
        assert rows[0] == rows[1] and rows[2] == rows[3]
        assert rows[0]["p_err"] != rows[2]["p_err"]
        assert rows[0] is not rows[1]

    def test_pareto_rows_are_at_the_returned_parameters(self):
        # r is free and the hinge active, so every λ trains its own run; a
        # row holds F_Q and P_err where that run ends, not at its last step
        cfg = short_cfg(steps=3, freeze=R_FREE, p_th=1e-6)
        rows = pareto_sweep([1.0, 1e4], cfg, OAM_INIT)
        for row in rows:
            final, trace = train(replace(cfg, penalty=row["lam"]), OAM_INIT)
            _, qfi, p_err = combined_loss(final, cfg)
            assert (row["qfi"], row["p_err"], row["error"]) == (qfi, p_err, "")
            assert (row["qfi"], row["p_err"]) != (trace[-1].qfi,
                                                  trace[-1].p_err)

    def test_pareto_sweep_trains_an_infinite_lambda(self):
        # inf·0 is NaN, so an infinite penalty is not a copy even with the
        # hinge off: its loss is NaN from the first step
        rows = pareto_sweep([1.0, math.inf], short_cfg(steps=2), OAM_INIT)
        assert rows[0]["error"] == ""
        assert rows[1]["error"] == "loss became non-finite at step 0"

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

    def test_fractional_sweep_trains_once(self, monkeypatch):
        calls = []
        real_train = optimize.train

        def counting_train(cfg, init):
            calls.append(init.ell)
            return real_train(cfg, init)

        monkeypatch.setattr(optimize, "train", counting_train)
        rows = fractional_sweep([1.0, 0.0, 2.5], short_cfg(steps=2),
                                OAM_INIT)
        assert calls == [1.0]  # one training, at the first charge
        assert len(rows) == 3

    def test_fractional_sweep_rows_are_closed_form(self):
        cfg = short_cfg(steps=2)
        ells = [0.5, 1.5, 3.0]
        rows = fractional_sweep(ells, cfg, OAM_INIT)
        baseline = perr_analytic(0.0, OAM_INIT.r, cfg.noise).p_total
        for ell, row in zip(ells, rows):
            theta = ell * math.pi / OAM_INIT.ell_max
            p_err = perr_analytic(theta, OAM_INIT.r, cfg.noise).p_total
            assert row["ell"] == ell
            assert row["theta_deg"] == math.degrees(theta)
            assert row["p_err"] == p_err
            assert row["improvement"] == baseline / p_err
            assert row["error"] == ""
        # F_Q does not depend on theta: one training gives every row's qfi
        assert len({row["qfi"] for row in rows}) == 1

    def test_fractional_qfi_is_at_the_returned_parameters(self):
        cfg = short_cfg(steps=2)
        rows = fractional_sweep([0.5, 3.0], cfg, OAM_INIT)
        final, trace = train(cfg, replace(OAM_INIT, ell=0.5))
        qfi = combined_loss(final, cfg)[1]
        assert [row["qfi"] for row in rows] == [qfi, qfi]
        assert qfi != trace[-1].qfi

    @pytest.mark.parametrize("sweep", [fractional_sweep, pareto_sweep])
    def test_a_failed_solve_at_the_returned_parameters_fills_the_rows(
            self, sweep, monkeypatch):
        def failing(params, cfg):
            raise NumericError("no F_Q here")

        monkeypatch.setattr(optimize, "combined_loss", failing)
        rows = sweep([0.0, 1.0], short_cfg(steps=1), OAM_INIT)
        assert [row["error"] for row in rows] == ["no F_Q here"] * 2
        assert all(math.isnan(row["qfi"]) and math.isnan(row["p_err"])
                   for row in rows)

    def test_fractional_sweep_holds_free_r(self):
        cfg = short_cfg(steps=2, freeze=R_FREE)
        with pytest.warns(UserWarning, match="holds r at its configured"):
            rows = fractional_sweep([0.0, 2.0], cfg, OAM_INIT)
        p_err = perr_analytic(math.pi / 2, OAM_INIT.r, cfg.noise).p_total
        assert rows[1]["p_err"] == p_err

    def test_fractional_sweep_quiet_at_default_freeze(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fractional_sweep([0.0, 2.0], short_cfg(steps=2), OAM_INIT)

    def test_fractional_sweep_divergence_fills_every_row(self, monkeypatch):
        def diverging_train(cfg, init):
            raise optimize.TrainDiverged("loss became non-finite at step 0",
                                         [])

        monkeypatch.setattr(optimize, "train", diverging_train)
        rows = fractional_sweep([0.0, 1.0, 2.0], short_cfg(), OAM_INIT)
        assert [r["ell"] for r in rows] == [0.0, 1.0, 2.0]
        for row in rows:
            assert row["error"] == "loss became non-finite at step 0"
            for key in ("theta_deg", "qfi", "p_err", "improvement",
                        "capacity"):
                assert math.isnan(row[key])

    def test_fractional_sweep_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one charge"):
            fractional_sweep([], short_cfg(), OAM_INIT)


class TestTrainedAngle:
    def test_the_hinge_alone_trains_theta_to_theta_star(self):
        # With P_th = 0 and r frozen the hinge is λ·P_err(θ), whose minimizer
        # is θ*: the trainer, `perr_gradient` and the root solver must agree.
        # F_Q does not depend on θ, so only ℓ is free and cutoff 10 serves.
        # 400 steps at lr 0.05 is the cheapest schedule measured to reach the
        # end point that the default lr reaches in 1500 steps, about 4e-7 rad
        # from θ*; 1e-6 rad is about the sixth digit of θ* = 64.3892°.
        cfg = TrainConfig(noise=LOW_NOISE, steps=400, lr_init=0.05, p_th=0.0,
                          penalty=1e4, cutoff=10,
                          freeze=frozenset(PARAM_ORDER) - {"ell"})
        final, _ = train(cfg, TrainableParams(ell=0.5))
        star = theta_star(final.r, cfg.noise)
        assert abs(final.theta - star.theta_star) < 1e-6
        assert combined_loss(final, cfg)[2] == pytest.approx(
            star.p_err_at_star, rel=1e-10)

    def test_a_large_step_stays_in_one_period(self):
        # lr 0.2 used to carry θ past π/2, to 180° − θ* = 115.61°. Folded,
        # with its momentum, the run is that run's mirror and ends at θ*.
        cfg = TrainConfig(noise=LOW_NOISE, steps=400, lr_init=0.2, p_th=0.0,
                          penalty=1e4, cutoff=10,
                          freeze=frozenset(PARAM_ORDER) - {"ell"})
        final, trace = train(cfg, TrainableParams(ell=0.5))
        assert all(0.0 <= step.params.ell <= 2.0 for step in trace)
        star = theta_star(final.r, cfg.noise)
        assert abs(final.theta - star.theta_star) < 1e-6

    def test_a_start_past_pi_over_2_is_folded(self):
        cfg = TrainConfig(noise=LOW_NOISE, steps=20, p_th=0.0, penalty=1e4,
                          cutoff=10, freeze=frozenset(PARAM_ORDER) - {"ell"})
        final, _ = train(cfg, TrainableParams(ell=3.0))
        assert final.theta == train(cfg, TrainableParams(ell=1.0))[0].theta


# ------------------------------------------------- per-point reference trainer
# One pipeline_qfi and one perr_analytic per point, with the gradient passed
# in: `reference_gradient` evaluates the central-difference probes one at a
# time, and `train` must equal the reference fed `analytic_gradient`.

def reference_combined_loss(params, cfg):
    qfi = pipeline_qfi(params.sensor_spec(cfg.cutoff), cfg.noise)
    p_err = optimize.perr_analytic(params.theta, params.r, cfg.noise).p_total
    hinge = max(p_err - cfg.p_th, 0.0)
    return -qfi + cfg.penalty * hinge, qfi, p_err


def reference_gradient(params, cfg):
    x = params.vector()
    g = np.zeros_like(x)
    for i, name in enumerate(PARAM_ORDER):
        if name in cfg.freeze:
            continue
        h = optimize.GRAD_STEP * max(1.0, abs(x[i]))
        for sign in (+1.0, -1.0):
            xs = x.copy()
            xs[i] += sign * h
            loss, _, _ = reference_combined_loss(
                params.with_vector(xs).projected(), cfg)
            g[i] += sign * loss
        g[i] /= 2.0 * h
        if not math.isfinite(g[i]):
            raise NumericError(f"non-finite gradient in '{name}' at "
                               f"{x[i]!r}")
    return g


def reference_reach(params, p_err, cfg):
    """Whether λ enters the step at `params`: the hinge is on and its
    λ-free slope is nonzero on a free coordinate."""
    if p_err <= cfg.p_th:
        return False
    slopes = perr_gradient(params.theta, params.r, cfg.noise)
    return any(name not in cfg.freeze and slope != 0
               for name, slope in zip(("ell", "r"), slopes))


def reference_train(cfg, init, grad):
    """The per-point trainer; `grad(params, cfg)` gives each step's
    gradient."""
    params = init.projected()
    m = np.zeros(len(PARAM_ORDER))
    v = np.zeros(len(PARAM_ORDER))
    trace = []
    for t in range(cfg.steps):
        try:
            loss, qfi, p_err = reference_combined_loss(params, cfg)
            if not math.isfinite(loss):
                raise NumericError(f"loss became non-finite at step {t}")
            g = grad(params, cfg)
        except NumericError as exc:
            raise optimize.TrainDiverged(str(exc), trace) from exc
        zero = frozenset(name for name, component in zip(PARAM_ORDER, g)
                         if name not in cfg.freeze and component == 0)
        norm = float(np.linalg.norm(g))
        if norm > cfg.clip_norm:
            g = g * (cfg.clip_norm / norm)
            norm = cfg.clip_norm
        lr = lr_schedule(cfg, t)
        trace.append(optimize.TraceStep(
            step=t, loss=loss, qfi=qfi, p_err=p_err, grad_norm=norm, lr=lr,
            penalty_reach=reference_reach(params, p_err, cfg),
            zero_gradient=zero, params=params))
        m = optimize.ADAM_BETA1 * m + (1.0 - optimize.ADAM_BETA1) * g
        v = optimize.ADAM_BETA2 * v + (1.0 - optimize.ADAM_BETA2) * g * g
        m_hat = m / (1.0 - optimize.ADAM_BETA1 ** (t + 1))
        v_hat = v / (1.0 - optimize.ADAM_BETA2 ** (t + 1))
        x = params.vector() - lr * m_hat / (np.sqrt(v_hat) + optimize.ADAM_EPS)
        params = params.with_vector(x).projected()
    return params, trace


FREEZE_SETS = [frozenset(c) for k in range(len(PARAM_ORDER) + 1)
               for c in itertools.combinations(PARAM_ORDER, k)]
# Every bounded coordinate on its bound: the probes that leave the box clip
# back onto it, so the − probe of bloch_theta is the centre itself.
ON_BOUND = TrainableParams(bloch_theta=0.0, bloch_phi=0.3, ell=1.0,
                           r=BOUNDS["r"][1], epsilon=BOUNDS["epsilon"][0])


class TestTrainingStep:
    """`train` evaluates a step from one eigendecomposition; it must
    reproduce the per-point reference fed the analytic gradient bit for bit,
    and `gradient` the per-point `reference_gradient`."""

    @pytest.mark.parametrize("init", [OAM_INIT, ON_BOUND],
                             ids=["interior", "on_bound"])
    @pytest.mark.parametrize("freeze", FREEZE_SETS,
                             ids=lambda f: ",".join(sorted(f)) or "none")
    def test_matches_the_per_point_reference(self, freeze, init):
        cfg = short_cfg(steps=3, freeze=freeze, p_th=1e-5)
        final, trace = train(cfg, init)
        ref_final, ref_trace = reference_train(cfg, init, analytic_gradient)
        assert final == ref_final
        assert trace == ref_trace
        assert combined_loss(final, cfg) == reference_combined_loss(final, cfg)
        assert np.array_equal(gradient(final, cfg),
                              reference_gradient(final, cfg))

    def test_perr_analytic_once_per_step(self, monkeypatch):
        seen = []
        real = optimize.perr_analytic

        def spy(theta, r, noise):
            seen.append((theta, r))
            return real(theta, r, noise)

        monkeypatch.setattr(optimize, "perr_analytic", spy)
        cfg = short_cfg(steps=2, freeze=frozenset({"epsilon"}))
        _, trace = train(cfg, OAM_INIT)
        # one call per step, at the centre only: no coordinate is probed
        assert seen == [(centre.theta, centre.r)
                        for centre in (trace[0].params, trace[1].params)]

    @pytest.mark.parametrize("freeze", FREEZE_SETS,
                             ids=lambda f: ",".join(sorted(f)) or "none")
    def test_one_solve_per_step(self, freeze, monkeypatch):
        # no coordinate is probed: each step solves its centre alone
        shapes = []
        real = pipeline.qfi_response

        def spy(rho):
            shapes.append(rho.shape)
            return real(rho)

        monkeypatch.setattr(pipeline, "qfi_response", spy)
        train(short_cfg(steps=3, freeze=freeze), OAM_INIT)
        assert shapes == [(30, 30)] * 3

    @pytest.mark.parametrize("freeze, calls", [
        (frozenset({"ell", "r", "epsilon"}), 0), (R_FREE, 3)],
        ids=["ell_r_frozen", "r_free"])
    def test_hinge_slope_only_where_it_can_move(self, freeze, calls,
                                                monkeypatch):
        # with ℓ and r frozen the slope of the active hinge would be zeroed
        seen = []
        real = optimize.perr_gradient

        def spy(theta, r, noise):
            seen.append((theta, r))
            return real(theta, r, noise)

        monkeypatch.setattr(optimize, "perr_gradient", spy)
        cfg = short_cfg(steps=3, freeze=freeze, p_th=1e-6)
        _, trace = train(cfg, OAM_INIT)
        assert all(step.p_err > cfg.p_th for step in trace)
        assert len(seen) == calls

    @staticmethod
    def diverge_both(cfg, init):
        with pytest.raises(optimize.TrainDiverged) as ref:
            reference_train(cfg, init, analytic_gradient)
        with pytest.raises(optimize.TrainDiverged) as got:
            train(cfg, init)
        assert str(got.value) == str(ref.value)
        assert got.value.trace == ref.value.trace
        assert type(got.value.__cause__) is type(ref.value.__cause__)
        return str(got.value), got.value.trace

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("init, expected", [
        # NaN state: the solve refuses it before any F_Q is formed
        (replace(OAM_INIT, bloch_phi=math.inf),
         "hermitian_eig: input has non-finite entries"),
        # θ = inf, NaN P_err
        (replace(OAM_INIT, ell=sys.float_info.max),
         "loss became non-finite at step 0"),
    ], ids=["nan_state", "infinite_theta"])
    def test_non_finite_centre(self, init, expected):
        message, trace = self.diverge_both(short_cfg(freeze=R_FREE), init)
        assert message == expected
        assert trace == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_oracle_names_a_non_finite_probe(self):
        # θ = ℓπ/4 is finite at the centre and overflows at ℓ + h only: the
        # oracle's ℓ probe fails, while training never probes ℓ
        init = replace(OAM_INIT, ell=sys.float_info.max / math.pi * (1 - 1e-5))
        cfg = short_cfg(freeze=frozenset({"r", "epsilon"}))
        with pytest.raises(NumericError,
                           match=r"^non-finite gradient in 'ell' at "):
            gradient(init, cfg)
        final, trace = train(cfg, init)
        assert len(trace) == cfg.steps
        # the start is folded into one period (ℓ_max = 4 divides so large
        # an ℓ), and the inactive hinge leaves it there: ∂L/∂ℓ = 0
        assert final.ell == init.ell % 4 == 0.0

    def test_non_finite_centre_at_a_later_step(self, monkeypatch):
        cfg = short_cfg(steps=4, freeze=frozenset({"epsilon"}), p_th=1e-6)
        _, clean = reference_train(cfg, OAM_INIT, analytic_gradient)
        target = clean[2].params.theta  # the centre of step 2
        real = optimize.perr_analytic

        def nan_at_target(theta, r, noise):
            out = real(theta, r, noise)
            p_total = np.where(np.equal(theta, target), math.nan, out.p_total)
            return replace(out, p_total=p_total[()])

        monkeypatch.setattr(optimize, "perr_analytic", nan_at_target)
        message, trace = self.diverge_both(cfg, OAM_INIT)
        assert trace == clean[:2]
        assert message == "loss became non-finite at step 2"

    @pytest.mark.parametrize("name", PARAM_ORDER)
    def test_non_finite_gradient_names_its_coordinate(self, name,
                                                      monkeypatch):
        # every coordinate free and the hinge active, so each one has a
        # gradient source: the QFI response (Bloch angles, r, ε) or the
        # closed-form P_err slope (ℓ)
        cfg = short_cfg(steps=4, freeze=frozenset(), p_th=1e-6)
        _, clean = train(cfg, OAM_INIT)
        centre = clean[2].params  # the centre of step 2
        real_qfi, real_perr = optimize._qfi_gradient, optimize.perr_gradient

        def poisoned_qfi(spec, noise):
            qfi, d_qfi = real_qfi(spec, noise)
            if spec == centre.sensor_spec(cfg.cutoff) and name != "ell":
                d_qfi[("bloch_theta", "bloch_phi", "r",
                       "epsilon").index(name)] = math.nan
            return qfi, d_qfi

        def poisoned_perr(theta, r, noise):
            d_theta, d_r = real_perr(theta, r, noise)
            if name == "ell" and theta == centre.theta:
                d_theta = math.nan
            return d_theta, d_r

        monkeypatch.setattr(optimize, "_qfi_gradient", poisoned_qfi)
        monkeypatch.setattr(optimize, "perr_gradient", poisoned_perr)
        message, trace = self.diverge_both(cfg, OAM_INIT)
        assert trace == clean[:2]
        assert message == (f"non-finite gradient in '{name}' at "
                           f"{getattr(centre, name)!r}")


def interior_point(seed):
    """A seeded point well inside the box, away from the Bloch poles."""
    rng = np.random.default_rng(seed)
    return TrainableParams(bloch_theta=rng.uniform(0.4, math.pi - 0.4),
                           bloch_phi=rng.uniform(0.0, 2.0 * math.pi),
                           ell=rng.uniform(0.2, 3.8), r=rng.uniform(0.9, 1.3),
                           epsilon=rng.uniform(0.04, 0.1))


class TestAnalyticGradient:
    """`analytic_gradient` against the central-difference oracle."""

    # p_err at these points lies in [1e-6, 1e-2]: a threshold of 1e-9 keeps
    # the hinge active at every probe, 1.0 keeps it off
    @pytest.mark.parametrize("p_th", [1e-9, 1.0], ids=["active", "inactive"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("freeze", FREEZE_SETS,
                             ids=lambda f: ",".join(sorted(f)) or "none")
    def test_matches_the_oracle(self, freeze, seed, p_th, monkeypatch):
        # At the default step the oracle's own truncation error in r reaches
        # 1.4e-6 (r = 1.28); a 10x smaller step makes it 100x smaller.
        monkeypatch.setattr(optimize, "GRAD_STEP", optimize.GRAD_STEP / 10)
        params = interior_point(seed)
        cfg = short_cfg(freeze=freeze, p_th=p_th)
        assert 1e-6 < combined_loss(params, cfg)[2] < 1e-2
        got, want = analytic_gradient(params, cfg), gradient(params, cfg)
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
        for i, name in enumerate(PARAM_ORDER):
            if name in freeze:
                assert got[i] == 0.0

    def test_inactive_hinge_leaves_ell_at_zero(self):
        cfg = short_cfg(freeze=frozenset(), p_th=1.0)
        assert analytic_gradient(interior_point(0), cfg)[
            PARAM_ORDER.index("ell")] == 0.0

    def test_on_the_bounds(self, monkeypatch):
        # On a bound the oracle's outer probe clips onto the centre. The
        # analytic value is the derivative of the unprojected loss: checked
        # against central differences through the bound, with θ_B = −h taken
        # as θ_B = h at φ_B + π (the same state). ε's bound is the codeword
        # domain's edge, so the domain is widened for its − probe; the comb
        # keeps its peak count S = 34 across the step.
        cfg = short_cfg(freeze=frozenset(), p_th=1e-9)
        got = analytic_gradient(ON_BOUND, cfg)
        oracle = gradient(ON_BOUND, cfg)
        h = 1e-5

        def loss(**over):
            return combined_loss(replace(ON_BOUND, **over), cfg)[0]

        d_theta = (loss(bloch_theta=h)
                   - loss(bloch_theta=h, bloch_phi=ON_BOUND.bloch_phi
                          + math.pi)) / (2 * h)
        d_r = (loss(r=ON_BOUND.r + h) - loss(r=ON_BOUND.r - h)) / (2 * h)
        monkeypatch.setattr(states, "EPSILON_DOMAIN", (0.0, 0.5, False))
        d_epsilon = (loss(epsilon=ON_BOUND.epsilon + h)
                     - loss(epsilon=ON_BOUND.epsilon - h)) / (2 * h)
        # drop the out-of-domain codeword and basis from their caches
        states.prepare_codeword.cache_clear()
        pipeline.loss_basis.cache_clear()
        index = PARAM_ORDER.index
        assert got[index("bloch_theta")] == pytest.approx(d_theta, rel=1e-6)
        assert got[index("r")] == pytest.approx(d_r, rel=1e-6)
        assert got[index("epsilon")] == pytest.approx(d_epsilon, rel=1e-6)
        # the azimuth is a global phase at the pole
        assert got[index("bloch_phi")] == oracle[index("bloch_phi")] == 0.0
        assert got[index("ell")] == pytest.approx(oracle[index("ell")],
                                                  rel=1e-6)

    @pytest.mark.parametrize("noise", [NoiseParams(eta=0.9, gamma=0.05),
                                       NoiseParams(eta=0.8, gamma=0.1)])
    @pytest.mark.parametrize("r", [1.0, 1.092, 1.5])
    def test_the_poles_are_stationary_on_the_default_meridian(self, r, noise):
        # The noisy basis is real, so F_Q is even in φ_B, and on φ_B = π/2
        # θ_B = ±δ are the same F_Q: each pole is a stationary point there,
        # whose slope is roundoff. A run that starts on a pole stays on it.
        cfg = short_cfg(noise=noise)

        def slope(bloch_theta):
            params = TrainableParams(bloch_theta=bloch_theta,
                                     bloch_phi=math.pi / 2, r=r)
            return abs(analytic_gradient(params, cfg)[0])

        for pole, inward in ((0.0, 1.0), (math.pi, -1.0)):
            assert slope(pole) <= 1e-12
            assert slope(pole + inward * 1e-3) >= 1e-4


class TestPerrGradient:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_differences_of_perr_analytic(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, math.pi, size=6)
        r = rng.uniform(0.8, 1.5, size=6)
        noise = NoiseParams(rng.uniform(0.75, 0.99, size=6),
                            rng.uniform(0.0, 0.25, size=6))
        d_theta, d_r = perr_gradient(theta, r, noise)
        h = 1e-6

        def p(theta, r):
            return perr_analytic(theta, r, noise).p_total

        np.testing.assert_allclose(
            d_theta, (p(theta + h, r) - p(theta - h, r)) / (2 * h),
            rtol=1e-6)
        np.testing.assert_allclose(
            d_r, (p(theta, r + h) - p(theta, r - h)) / (2 * h), rtol=1e-6)

    @pytest.mark.parametrize("theta, noise", [
        (0.3, NoiseParams(1.0, 0.0)),  # no spread at all
        (0.0, NoiseParams(1.0, 0.1)),  # no q spread on the axis
    ])
    def test_zero_spread_contributes_nothing(self, theta, noise):
        d_theta, d_r = perr_gradient(theta, 1.1, noise)
        assert math.isfinite(d_theta) and math.isfinite(d_r)
        if noise.gamma == 0.0:
            assert d_theta == d_r == 0.0
        else:  # the p quadrature still moves with r
            assert d_theta == 0.0
            h = 1e-6
            assert d_r == pytest.approx(
                (perr_analytic(theta, 1.1 + h, noise).p_total
                 - perr_analytic(theta, 1.1 - h, noise).p_total) / (2 * h),
                rel=1e-6)

    def test_rejects_a_non_positive_ratio(self):
        with pytest.raises(ValueError, match="aspect ratio"):
            perr_gradient(0.1, np.array([1.0, 0.0]), LOW_NOISE)
