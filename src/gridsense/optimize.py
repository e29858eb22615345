"""Constrained Adam optimization of the sensor parameters against the
combined sensitivity–fault-tolerance loss, plus the Pareto and fractional-ℓ
sweeps.

Loss (per configuration, deterministic):

    L(ξ) = −F_Q(ξ) + λ·[P_err(θ_ℓ, r) − P_th]₊

with F_Q from the full number-basis pipeline (codeword → squeeze → rotate →
loss → dephasing → mixed-state QFI, generator n̂) and P_err from the analytic
model — the Monte-Carlo decoder stays a validation oracle and never enters
the loss. Gradients are central finite differences (≤ 5 coordinates; 10
pipeline evaluations per step are cheap at D=30 and keep the whole thing
dependency-free).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import NoiseParams
from .fock import NumericError
from .model import perr_analytic
from .pipeline import SensorSpec, pipeline_qfi

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
    grad_step: float = 1e-4
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


def combined_loss(params: TrainableParams,
                  cfg: TrainConfig) -> tuple[float, float, float]:
    """Evaluate (loss, qfi, p_err) at the given parameters."""
    qfi = pipeline_qfi(params.sensor_spec(cfg.cutoff), cfg.noise)
    p_err = perr_analytic(params.theta, params.r, cfg.noise).p_total
    hinge = max(p_err - cfg.p_th, 0.0)
    return -qfi + cfg.penalty * hinge, qfi, p_err


def gradient(params: TrainableParams, cfg: TrainConfig) -> np.ndarray:
    """Central-difference gradient over PARAM_ORDER; frozen coordinates get 0.

    The per-coordinate step is grad_step scaled by the coordinate magnitude
    (floored at 1 so angles near zero keep a sane step).
    """
    x = params.vector()
    g = np.zeros_like(x)
    for i, name in enumerate(PARAM_ORDER):
        if name in cfg.freeze:
            continue
        h = cfg.grad_step * max(1.0, abs(x[i]))
        for sign in (+1.0, -1.0):
            xs = x.copy()
            xs[i] += sign * h
            loss, _, _ = combined_loss(params.with_vector(xs).projected(), cfg)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss while differentiating '{name}' at "
                    f"{xs[i]!r}")
            g[i] += sign * loss
        g[i] /= 2.0 * h
    return g


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
            loss, qfi, p_err = combined_loss(params, cfg)
            if not math.isfinite(loss):
                raise NumericError(f"loss became non-finite at step {t}")
            g = gradient(params, cfg)
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
    """Train once per ℓ (ℓ frozen) and tabulate the geometry figures.

    Returns rows (ell, theta_deg, p_err, improvement, capacity) where the
    improvement is against the ℓ=0 entry of the same sweep (or the analytic
    θ=0 value at the same r when ℓ=0 is not part of the grid).
    """
    from .metrology import capacity as _capacity

    run_cfg = replace(cfg, freeze=frozenset(cfg.freeze | {"ell"}))
    rows = []
    for ell in ells:
        run_init = replace(init, ell=float(ell))
        try:
            final, trace = train(run_cfg, run_init)
            last = trace[-1]
            rows.append({"ell": float(ell),
                         "theta_deg": math.degrees(final.theta),
                         "p_err": last.p_err, "qfi": last.qfi, "error": ""})
        except TrainDiverged as exc:
            rows.append({"ell": float(ell), "theta_deg": math.nan,
                         "p_err": math.nan, "qfi": math.nan,
                         "error": str(exc)})
    baseline = next((row["p_err"] for row in rows if row["ell"] == 0.0),
                    perr_analytic(0.0, init.r, cfg.noise).p_total)
    for row in rows:
        if math.isfinite(row["p_err"]) and row["p_err"] > 0:
            row["improvement"] = baseline / row["p_err"]
            row["capacity"] = _capacity(row["qfi"], row["p_err"])
        else:
            row["improvement"] = math.nan
            row["capacity"] = math.nan
    return rows
