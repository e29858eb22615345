"""Constrained Adam optimization of the sensor parameters against the
combined sensitivity–fault-tolerance loss, plus the Pareto and fractional-ℓ
sweeps.

Loss (per configuration, deterministic):

    L(ξ) = −F_Q(ξ) + λ·[P_err(θ_ℓ, r) − P_th]₊

with F_Q from the full number-basis pipeline (codeword → squeeze → rotate →
loss → dephasing → mixed-state QFI, generator n̂) and P_err from the analytic
model — the Monte-Carlo decoder stays a validation oracle and never enters
the loss. A training step takes F_Q and its gradient over the Bloch angles,
r and ε from one eigendecomposition, through the symmetric logarithmic
derivative, and the hinge's gradient in closed form; it never probes.
`gradient` keeps the central differences over every free coordinate as the
oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import NoiseParams
from .fock import NumericError, check_domain
from .lattice import ELL_MAX_DOMAIN
from .metrology import capacity
from .model import _improvement, perr_analytic, perr_gradient
from .pipeline import SensorSpec, _qfi_gradient, pipeline_qfi
from .states import BLOCH_THETA_DOMAIN, EPSILON_DOMAIN

__all__ = [
    "TrainableParams",
    "TrainConfig",
    "TraceStep",
    "TrainDiverged",
    "PARAM_ORDER",
    "BOUNDS",
    "combined_loss",
    "gradient",
    "analytic_gradient",
    "lr_schedule",
    "train",
    "pareto_sweep",
    "fractional_sweep",
]

PARAM_ORDER = ("bloch_theta", "bloch_phi", "ell", "r", "epsilon")

# Box constraints enforced by projection after every step; the CLI rejects
# start values outside them. Entries absent here (the angles) are free.
BOUNDS = {
    "r": (0.5, 2.0),
    "epsilon": EPSILON_DOMAIN[:2],
    "bloch_theta": BLOCH_THETA_DOMAIN[:2],
}

# Domains of the training knobs (`fock.in_domain`), all unbounded above;
# TrainConfig and the CLI's train.* keys are checked against these rows.
TRAIN_LIMITS = {
    "steps": (1, None, False),
    "lr_init": (0, None, True),
    "lr_final": (0, None, False),
    "clip_norm": (0, None, True),
    "penalty": (0, None, False),
    "p_th": (0, None, False),
}

_ELL, _R = PARAM_ORDER.index("ell"), PARAM_ORDER.index("r")
# The coordinates of F_Q's gradient (`pipeline._qfi_gradient`).
_QFI_AXES = [PARAM_ORDER.index(name)
             for name in ("bloch_theta", "bloch_phi", "r", "epsilon")]

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
    epsilon: float = SensorSpec.epsilon

    def __post_init__(self):
        check_domain("ell_max", self.ell_max, ELL_MAX_DOMAIN)

    @property
    def theta(self) -> float:
        """Lattice rotation θ_ℓ = ℓπ/ℓ_max of the OAM charge ℓ, radians."""
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
    cutoff: int = SensorSpec.cutoff
    freeze: frozenset = frozenset({"ell", "r", "epsilon"})

    def __post_init__(self):
        for name, domain in TRAIN_LIMITS.items():
            check_domain(name, getattr(self, name), domain)
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
    penalty_reach: bool  # λ entered this step's gradient
    zero_gradient: frozenset  # free coordinates whose gradient is exactly 0
    params: TrainableParams = field(repr=False)  # where each figure is taken


class TrainDiverged(NumericError):
    """Non-finite loss during training; carries the partial trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def _hinge(p_err: float, cfg: TrainConfig) -> float:
    """The penalty term λ·[P_err − P_th]₊ of the loss."""
    return cfg.penalty * max(p_err - cfg.p_th, 0.0)


def _check_gradient(g: np.ndarray, params: TrainableParams) -> np.ndarray:
    """`g`, or NumericError naming the first coordinate that is not finite."""
    for name, component in zip(PARAM_ORDER, g):
        if not math.isfinite(component):
            raise NumericError(f"non-finite gradient in '{name}' at "
                               f"{getattr(params, name)!r}")
    return g


def combined_loss(params: TrainableParams,
                  cfg: TrainConfig) -> tuple[float, float, float]:
    """Evaluate (loss, qfi, p_err) at the given parameters."""
    qfi = pipeline_qfi(params.sensor_spec(cfg.cutoff), cfg.noise)
    p_err = float(perr_analytic(params.theta, params.r, cfg.noise).p_total)
    return -qfi + _hinge(p_err, cfg), qfi, p_err


def gradient(params: TrainableParams, cfg: TrainConfig) -> np.ndarray:
    """Central-difference gradient over PARAM_ORDER; frozen coordinates get 0.

    The per-coordinate step is GRAD_STEP scaled by the coordinate magnitude
    (floored at 1 so angles near zero keep a sane step). A probe that leaves
    the box is projected back onto it, so on a bound this is half the
    one-sided difference. The oracle for `analytic_gradient`; training does
    not use it.
    """
    x = params.vector()

    def probe(i: int, step: float) -> float:
        xs = x.copy()
        xs[i] += step
        return combined_loss(params.with_vector(xs).projected(), cfg)[0]

    g = np.zeros(len(PARAM_ORDER))
    for i, name in enumerate(PARAM_ORDER):
        if name not in cfg.freeze:
            h = GRAD_STEP * max(1.0, abs(x[i]))
            g[i] = (probe(i, h) - probe(i, -h)) / (2.0 * h)
    return _check_gradient(g, params)


def _loss_and_gradient(params: TrainableParams, cfg: TrainConfig):
    """(loss, qfi, p_err, gradient, penalty_reach) at `params` from one
    eigendecomposition.

    F_Q's gradient over the Bloch angles, r and ε is analytic
    (`pipeline._qfi_gradient`); F_Q does not depend on θ, so ℓ moves only
    the hinge. The hinge's gradient is λ·∂P_err (`perr_gradient`) where
    p_err > p_th and 0 where p_err ≤ p_th, the kink included; it is not
    taken when ℓ and r are both frozen, which would zero it. The gradient
    is not checked for finiteness here.

    Only this code decides where λ enters: `penalty_reach` is whether the
    λ-free slope (∂P_err/∂θ on a free ℓ, ∂P_err/∂r on a free r) was taken
    and is not exactly 0. Where it is False the gradient is the same for
    every finite λ, as with r frozen at θ = 0, where ∂P_err/∂θ ∝ sin 2θ is 0.
    """
    qfi, d_qfi = _qfi_gradient(params.sensor_spec(cfg.cutoff), cfg.noise)
    p_err = float(perr_analytic(params.theta, params.r, cfg.noise).p_total)
    g = np.zeros(len(PARAM_ORDER))
    g[_QFI_AXES] -= d_qfi
    reach = False
    if p_err > cfg.p_th and not {"ell", "r"} <= cfg.freeze:
        d_theta, d_r = map(float, perr_gradient(params.theta, params.r,
                                                cfg.noise))
        reach = (("ell" not in cfg.freeze and d_theta != 0.0)
                 or ("r" not in cfg.freeze and d_r != 0.0))
        g[_ELL] += cfg.penalty * d_theta * math.pi / params.ell_max
        g[_R] += cfg.penalty * d_r
    for i, name in enumerate(PARAM_ORDER):
        if name in cfg.freeze:
            g[i] = 0.0
    return -qfi + _hinge(p_err, cfg), qfi, p_err, g, reach


def analytic_gradient(params: TrainableParams,
                      cfg: TrainConfig) -> np.ndarray:
    """The gradient `train` steps along, over PARAM_ORDER; frozen
    coordinates get 0. On a bound it is the derivative of the unprojected
    loss, where `gradient` gives half the one-sided difference. NumericError
    names the first coordinate that is not finite."""
    return _check_gradient(_loss_and_gradient(params, cfg)[3], params)


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
    non-finite. Each step records the free coordinates whose gradient was
    exactly 0 there (`TraceStep.zero_gradient`); one that is in every step's
    set never moved.
    """
    params = init.projected()
    m = np.zeros(len(PARAM_ORDER))
    v = np.zeros(len(PARAM_ORDER))
    trace: list[TraceStep] = []
    for t in range(cfg.steps):
        try:
            loss, qfi, p_err, g, reach = _loss_and_gradient(params, cfg)
            if not math.isfinite(loss):
                raise NumericError(f"loss became non-finite at step {t}")
            _check_gradient(g, params)
        except NumericError as exc:
            raise TrainDiverged(str(exc), trace) from exc
        zero = frozenset(name for name, component in zip(PARAM_ORDER, g)
                         if component == 0.0 and name not in cfg.freeze)

        norm = float(np.linalg.norm(g))
        if norm > cfg.clip_norm:
            g = g * (cfg.clip_norm / norm)
            norm = cfg.clip_norm
        lr = lr_schedule(cfg, t)
        trace.append(TraceStep(step=t, loss=loss, qfi=qfi, p_err=p_err,
                               grad_norm=norm, lr=lr, penalty_reach=reach,
                               zero_gradient=zero, params=params))

        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** (t + 1))
        v_hat = v / (1.0 - ADAM_BETA2 ** (t + 1))
        x = params.vector() - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        params = params.with_vector(x).projected()
    return params, trace


def pareto_sweep(lambdas, cfg: TrainConfig, init: TrainableParams):
    """One train per distinct λ; returns rows sorted by λ, a repeated λ's
    rows copies of one run.

    Each row is a dict with keys (lam, qfi, p_err, error), qfi and p_err
    `combined_loss`'s at the parameters training returns. The smallest λ
    trains first. Each of its steps records whether λ entered the gradient
    (`TraceStep.penalty_reach`, decided by `_loss_and_gradient`). If that run
    completes and no step recorded a reach, then by induction over the steps
    every finite λ takes the same steps bit for bit: the other rows are
    copies of that run, and a warning says so. That covers a hinge that never
    turns on, ℓ and r both frozen, and a stationary θ (ℓ = 0 with r frozen).
    The documented monotone trend (p_err non-increasing in λ) is checked and
    warned about, not asserted: training noise can break it.
    """
    lams = sorted(float(lam) for lam in lambdas)
    if not lams:
        raise ValueError("pareto_sweep needs at least one lambda")

    def run(lam: float) -> tuple[dict, list]:
        try:
            final, trace = train(replace(cfg, penalty=lam), init)
            _, qfi, p_err = combined_loss(final, cfg)
        except NumericError as exc:  # TrainDiverged included
            return {"lam": lam, "qfi": math.nan, "p_err": math.nan,
                    "error": str(exc)}, []
        return {"lam": lam, "qfi": qfi, "p_err": p_err, "error": ""}, trace

    first, trace = run(lams[0])
    if (trace and all(map(math.isfinite, lams))
            and not any(step.penalty_reach for step in trace)):
        warnings.warn(f"lambda cannot move this sweep: the penalty's slope "
                      f"reached no free coordinate at any of the {len(trace)} "
                      f"steps of the lambda = {lams[0]:g} run, so every row "
                      f"is the same training run", stacklevel=2)
        return [first | {"lam": lam} for lam in lams]
    runs = {lams[0]: first}  # one training per distinct λ
    for lam in lams[1:]:
        if lam not in runs:
            runs[lam] = run(lam)[0]
    rows = [runs[lam] | {"lam": lam} for lam in lams]
    finite = [row for row in rows if math.isfinite(row["p_err"])]
    for lo, hi in zip(finite, finite[1:]):
        if hi["p_err"] > 2.0 * max(lo["p_err"], 1e-300):
            warnings.warn(
                f"p_err not monotone in lambda beyond trace noise: "
                f"{lo['lam']} -> {hi['lam']}", stacklevel=2)
    return rows


def fractional_sweep(ells, cfg: TrainConfig, init: TrainableParams):
    """Train once (ℓ and r frozen), then fill each charge in closed form, as
    F_Q does not depend on θ and P_err depends only on (θ, r).

    Rows: ell, theta_deg, qfi (`combined_loss`'s at the parameters training
    returns), p_err = P_err(θ_ℓ, r), improvement = P_err(0, r)/p_err (inf
    where only P_err(0, r) > 0, NaN where neither is), capacity, error. A
    free r is held, with a warning; a diverged training gives all-NaN rows
    that carry its message.
    """
    ells = [float(ell) for ell in ells]
    if not ells:
        raise ValueError("fractional_sweep needs at least one charge")
    if "r" not in cfg.freeze:
        warnings.warn("fractional_sweep holds r at its configured value: "
                      "one training serves every charge", stacklevel=2)
    run_cfg = replace(cfg, freeze=frozenset(cfg.freeze | {"ell", "r"}))
    try:
        final, _ = train(run_cfg, replace(init, ell=ells[0]))
        _, qfi, _ = combined_loss(final, run_cfg)
    except NumericError as exc:  # TrainDiverged included
        nan = dict.fromkeys(("theta_deg", "qfi", "p_err", "improvement",
                             "capacity"), math.nan)
        return [{"ell": ell, **nan, "error": str(exc)} for ell in ells]
    thetas = [replace(final, ell=ell).theta for ell in ells]
    baseline, *p_errs = perr_analytic(np.array([0.0, *thetas]), final.r,
                                      cfg.noise).p_total.tolist()
    return [{"ell": ell, "theta_deg": math.degrees(theta), "qfi": qfi,
             "p_err": p_err, "error": "", "improvement": improvement,
             "capacity": capacity(qfi, p_err)}
            for ell, theta, p_err, improvement in zip(
                ells, thetas, p_errs, _improvement(baseline, p_errs).tolist())]
