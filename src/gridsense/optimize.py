"""Constrained Adam optimization of the sensor parameters against the
combined sensitivity–fault-tolerance loss, plus the Pareto and fractional-ℓ
sweeps.

Loss (per configuration, deterministic):

    L(ξ) = −F_Q(ξ) + λ·[P_err(θ_ℓ, r) − P_th]₊

with F_Q from the full number-basis pipeline (codeword → squeeze → rotate →
loss → dephasing → mixed-state QFI, generator n̂) and P_err from the analytic
model — the Monte-Carlo decoder stays a validation oracle and never enters
the loss. Gradients are central finite differences over the free
coordinates. A step evaluates the centre and its 2k probes (k ≤ 5 free
coordinates) together: the 1 + 2k states go through one stacked
eigendecomposition, and P_err is evaluated once per distinct (θ, r).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import NoiseParams
from .fock import NumericError
from .metrology import capacity
from .model import perr_analytic
from .pipeline import SensorSpec, _qfis
from .pipeline import pipeline_qfi  # noqa: F401  (bench tests wrap this copy)

__all__ = [
    "TrainableParams",
    "TrainConfig",
    "TraceStep",
    "TrainDiverged",
    "PARAM_ORDER",
    "BOUNDS",
    "combined_loss",
    "gradient",
    "lr_schedule",
    "train",
    "pareto_sweep",
    "fractional_sweep",
    "pareto_filter",
]

PARAM_ORDER = ("bloch_theta", "bloch_phi", "ell", "r", "epsilon")

# Box constraints enforced by projection after every step; the CLI rejects
# start values outside them. Entries absent here (the angles) are free.
BOUNDS = {
    "r": (0.5, 2.0),
    "epsilon": (0.005 + 1e-12, 0.5 - 1e-12),
    "bloch_theta": (0.0, math.pi),
}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_STEP = 1e-4


@dataclass(frozen=True)
class TrainableParams:
    bloch_theta: float = 0.0
    bloch_phi: float = 0.0
    ell: float = 0.0
    ell_max: int = 4
    r: float = 1.092
    epsilon: float = 0.063

    @property
    def theta(self) -> float:
        """Lattice rotation θ_ℓ = ℓπ/ℓ_max implied by the charge."""
        return self.ell * math.pi / self.ell_max

    def sensor_spec(self, cutoff: int) -> SensorSpec:
        """The pipeline input these parameters describe at Fock cutoff D."""
        return SensorSpec(theta=self.theta, r=self.r, epsilon=self.epsilon,
                          bloch_theta=self.bloch_theta,
                          bloch_phi=self.bloch_phi, cutoff=cutoff)

    def vector(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in PARAM_ORDER])

    def with_vector(self, x: np.ndarray) -> "TrainableParams":
        return replace(self, **{k: float(v) for k, v in zip(PARAM_ORDER, x)})

    def projected(self) -> "TrainableParams":
        updates = {}
        for name, (lo, hi) in BOUNDS.items():
            v = getattr(self, name)
            clipped = min(max(v, lo), hi)
            if clipped != v:
                updates[name] = clipped
        return replace(self, **updates) if updates else self

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in PARAM_ORDER} | {
            "ell_max": self.ell_max, "theta_deg": math.degrees(self.theta)}


@dataclass(frozen=True)
class TrainConfig:
    noise: NoiseParams
    steps: int = 500
    lr_init: float = 5e-3
    lr_final: float = 1e-5
    clip_norm: float = 1.0
    penalty: float = 100.0  # the Lagrange multiplier λ
    p_th: float = 1e-3
    cutoff: int = 30
    seed: int = 0
    freeze: frozenset = frozenset({"ell", "r", "epsilon"})

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.lr_init <= 0:
            raise ValueError(f"lr_init must be > 0, got {self.lr_init}")
        unknown = set(self.freeze) - set(PARAM_ORDER)
        if unknown:
            raise ValueError(f"unknown freeze entries: {sorted(unknown)}")
        object.__setattr__(self, "freeze", frozenset(self.freeze))


@dataclass(frozen=True)
class TraceStep:
    step: int
    loss: float
    qfi: float
    p_err: float
    grad_norm: float
    lr: float
    params: TrainableParams = field(repr=False)


class TrainDiverged(NumericError):
    """Non-finite loss during training; carries the partial trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def _evaluate(points, cfg: TrainConfig) -> list[tuple[float, float, float]]:
    """(loss, qfi, p_err) at each point: one stacked F_Q solve, and one
    `perr_analytic` per distinct (θ, r)."""
    if not points:
        return []
    qfis = _qfis([point.sensor_spec(cfg.cutoff) for point in points],
                 cfg.noise).tolist()
    p_errs = {}
    out = []
    for point, qfi in zip(points, qfis):
        key = (point.theta, point.r)
        if key not in p_errs:
            p_errs[key] = perr_analytic(point.theta, point.r,
                                        cfg.noise).p_total
        p_err = p_errs[key]
        hinge = max(p_err - cfg.p_th, 0.0)
        out.append((-qfi + cfg.penalty * hinge, qfi, p_err))
    return out


def _probes(params: TrainableParams, cfg: TrainConfig) -> list[tuple]:
    """The central-difference probes over PARAM_ORDER, frozen coordinates
    skipped, + before −: (index, sign, step h, shifted coordinate, projected
    point). See `gradient` for the step.
    """
    x = params.vector()
    probes = []
    for i, name in enumerate(PARAM_ORDER):
        if name in cfg.freeze:
            continue
        h = GRAD_STEP * max(1.0, abs(x[i]))
        for sign in (+1.0, -1.0):
            xs = x.copy()
            xs[i] += sign * h
            probes.append((i, sign, h, xs[i],
                           params.with_vector(xs).projected()))
    return probes


def _gradient(probes: list[tuple], losses: list[float]) -> np.ndarray:
    """Central differences from the probe losses; NumericError names the
    first probe whose loss is not finite."""
    g = np.zeros(len(PARAM_ORDER))
    for (i, sign, h, shifted, _), loss in zip(probes, losses):
        if not math.isfinite(loss):
            raise NumericError(
                f"non-finite loss while differentiating '{PARAM_ORDER[i]}' "
                f"at {shifted!r}")
        g[i] += sign * loss
        if sign < 0.0:
            g[i] /= 2.0 * h
    return g


def combined_loss(params: TrainableParams,
                  cfg: TrainConfig) -> tuple[float, float, float]:
    """Evaluate (loss, qfi, p_err) at the given parameters."""
    return _evaluate([params], cfg)[0]


def gradient(params: TrainableParams, cfg: TrainConfig) -> np.ndarray:
    """Central-difference gradient over PARAM_ORDER; frozen coordinates get 0.

    The per-coordinate step is GRAD_STEP scaled by the coordinate magnitude
    (floored at 1 so angles near zero keep a sane step).
    """
    probes = _probes(params, cfg)
    at_probes = _evaluate([point for *_, point in probes], cfg)
    return _gradient(probes, [at[0] for at in at_probes])


def lr_schedule(cfg: TrainConfig, t: int) -> float:
    """Cosine annealing: lr(t) = lr_final + (lr_init−lr_final)(1+cos(πt/steps))/2."""
    return cfg.lr_final + 0.5 * (cfg.lr_init - cfg.lr_final) * (
        1.0 + math.cos(math.pi * t / cfg.steps))


def train(cfg: TrainConfig,
          init: TrainableParams) -> tuple[TrainableParams, list[TraceStep]]:
    """Adam descent with cosine-annealed lr, global-norm clipping, and box
    projection. Fully deterministic; identical (cfg, init) reproduce the
    trace bit for bit.

    Raises TrainDiverged (with the partial trace attached) if the loss goes
    non-finite.
    """
    params = init.projected()
    m = np.zeros(len(PARAM_ORDER))
    v = np.zeros(len(PARAM_ORDER))
    trace: list[TraceStep] = []
    for t in range(cfg.steps):
        try:
            probes = _probes(params, cfg)
            (loss, qfi, p_err), *at_probes = _evaluate(
                [params] + [point for *_, point in probes], cfg)
            if not math.isfinite(loss):
                raise NumericError(f"loss became non-finite at step {t}")
            g = _gradient(probes, [at[0] for at in at_probes])
        except NumericError as exc:
            raise TrainDiverged(str(exc), trace) from exc

        norm = float(np.linalg.norm(g))
        if norm > cfg.clip_norm:
            g = g * (cfg.clip_norm / norm)
            norm = cfg.clip_norm
        lr = lr_schedule(cfg, t)

        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** (t + 1))
        v_hat = v / (1.0 - ADAM_BETA2 ** (t + 1))
        x = params.vector() - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        params = params.with_vector(x).projected()

        trace.append(TraceStep(step=t, loss=loss, qfi=qfi, p_err=p_err,
                               grad_norm=norm, lr=lr, params=params))
    return params, trace


def pareto_sweep(lambdas, cfg: TrainConfig, init: TrainableParams):
    """One train per λ; returns rows sorted by λ.

    Each row is a dict with keys (lam, qfi, p_err, error). The documented
    monotone trend (p_err non-increasing in λ) is checked and warned about,
    not asserted — trace noise can locally violate it. So is a sweep with `ell`
    and `r` frozen: P_err depends only on (θ, r), so λ cannot move any row.
    """
    lams = sorted(float(lam) for lam in lambdas)
    if not lams:
        raise ValueError("pareto_sweep needs at least one lambda")
    if {"ell", "r"} <= cfg.freeze:
        warnings.warn(
            "lambda cannot move this sweep: 'ell' and 'r' are both frozen, "
            "so p_err is fixed and every row is the same training run",
            stacklevel=2)
    rows = []
    for lam in lams:
        run_cfg = replace(cfg, penalty=lam)
        try:
            _, trace = train(run_cfg, init)
            last = trace[-1]
            rows.append({"lam": lam, "qfi": last.qfi,
                         "p_err": last.p_err, "error": ""})
        except TrainDiverged as exc:
            rows.append({"lam": lam, "qfi": math.nan,
                         "p_err": math.nan, "error": str(exc)})
    finite = [row for row in rows if math.isfinite(row["p_err"])]
    for lo, hi in zip(finite, finite[1:]):
        if hi["p_err"] > 2.0 * max(lo["p_err"], 1e-300):
            warnings.warn(
                f"p_err not monotone in lambda beyond trace noise: "
                f"{lo['lam']} -> {hi['lam']}", stacklevel=2)
    return rows


def pareto_filter(rows):
    """Non-dominated subset of (qfi maximized, p_err minimized) rows."""
    keep = []
    for row in rows:
        if not (math.isfinite(row["qfi"]) and math.isfinite(row["p_err"])):
            continue
        dominated = any(
            other["qfi"] >= row["qfi"] and other["p_err"] <= row["p_err"]
            and (other["qfi"] > row["qfi"] or other["p_err"] < row["p_err"])
            for other in rows if other is not row
            and math.isfinite(other["qfi"]) and math.isfinite(other["p_err"]))
        if not dominated:
            keep.append(row)
    return keep


def fractional_sweep(ells, cfg: TrainConfig, init: TrainableParams):
    """Train once (ℓ and r frozen), then fill each charge in closed form, as
    F_Q does not depend on θ and P_err depends only on (θ, r).

    Rows: ell, theta_deg, qfi, p_err = P_err(θ_ℓ, r), improvement =
    P_err(0, r) / p_err, capacity, error. A free r is held, with a warning;
    a diverged training gives all-NaN rows that carry its message.
    """
    ells = [float(ell) for ell in ells]
    if not ells:
        raise ValueError("fractional_sweep needs at least one charge")
    if "r" not in cfg.freeze:
        warnings.warn("fractional_sweep holds r at its configured value: "
                      "one training serves every charge", stacklevel=2)
    run_cfg = replace(cfg, freeze=frozenset(cfg.freeze | {"ell", "r"}))
    try:
        final, trace = train(run_cfg, replace(init, ell=ells[0]))
    except TrainDiverged as exc:
        nan = dict.fromkeys(("theta_deg", "qfi", "p_err", "improvement",
                             "capacity"), math.nan)
        return [{"ell": ell, **nan, "error": str(exc)} for ell in ells]
    qfi = trace[-1].qfi
    baseline = perr_analytic(0.0, final.r, cfg.noise).p_total
    rows = []
    for ell in ells:
        theta = replace(final, ell=ell).theta
        p_err = perr_analytic(theta, final.r, cfg.noise).p_total
        ok = p_err > 0  # also False for NaN
        rows.append({"ell": ell, "theta_deg": math.degrees(theta), "qfi": qfi,
                     "p_err": p_err, "error": "",
                     "improvement": baseline / p_err if ok else math.nan,
                     "capacity": capacity(qfi, p_err) if ok else math.nan})
    return rows
