"""Command-line driver: one JSON config, seven subcommands, file outputs.

Configuration is a single JSON document (all keys optional, defaults below):

    {"noise":   {"eta": 0.9, "gamma": 0.05},
     "lattice": {"ell": 0.0, "ell_max": 4, "r": 1.092, "theta_deg": null},
     "state":   {"epsilon": 0.063,
                 "bloch_theta": 1.5707963267948966, "bloch_phi": 1.5707963267948966},
     "train":   {"steps": 500, "lr_init": 5e-3, "lr_final": 1e-5,
                 "clip_norm": 1.0, "lambda": 100.0, "p_th": 1e-3,
                 "seed": 0, "freeze": ["ell", "r", "epsilon"]},
     "cutoff": 30,
     "n_mc": 1000000}

Flags override file values and are named after the leaf keys (--eta, --lambda,
--ell-max, ...). Angles are degrees at the CLI boundary and radians inside,
except the Bloch angles which are radians everywhere (they are not lattice
angles). lattice.theta_deg, when set, overrides ell via ell =
theta_deg/180 * ell_max.

Exit codes: 0 success; 2 config error (also argparse's own usage errors);
3 numeric failure; 4 the requested optimum/root does not exist.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .channels import NoiseParams
from .fock import NumericError
from .lattice import twisted_lattice
from .metrology import capacity, measurement_efficiency
from .model import (
    NoRootError,
    mc_perr,
    perr_analytic,
    theta_fit,
    theta_sensitivity,
    theta_star,
    theta_star_grid,
    tolerance_curve,
)
from .optimize import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BOUNDS,
    PARAM_ORDER,
    TrainConfig,
    TrainableParams,
    combined_loss,
    fractional_sweep,
    pareto_sweep,
    train,
)
from .pipeline import sensor_state
from .report import RunReport, dumps_json, format_float, write_csv
from .wigner import wigner_grid, wigner_negativity

__all__ = ["main", "ConfigError", "DEFAULT_CONFIG", "load_config"]


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "noise": {"eta": 0.9, "gamma": 0.05},
    "lattice": {"ell": 0.0, "ell_max": 4, "r": 1.092, "theta_deg": None},
    # Bloch init pi/2, pi/2: an equatorial start keeps the trainer away from
    # the bloch_theta in {0, pi} boundary, where the gradient points out of
    # the feasible box and projected Adam stalls on the corner.
    "state": {"epsilon": 0.063, "bloch_theta": math.pi / 2,
              "bloch_phi": math.pi / 2},
    "train": {"steps": 500, "lr_init": 5e-3, "lr_final": 1e-5,
              "clip_norm": 1.0, "lambda": 100.0, "p_th": 1e-3,
              "seed": 0, "freeze": ["ell", "r", "epsilon"]},
    "cutoff": 30,
    "n_mc": 1_000_000,
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the JSON file at `path` (if any)."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config root must be an object, got "
                          f"{type(loaded).__name__}")
    return _merge(cfg, loaded)


_FLAG_PATHS = {
    "eta": ("noise", "eta"), "gamma": ("noise", "gamma"),
    "ell": ("lattice", "ell"), "ell_max": ("lattice", "ell_max"),
    "r": ("lattice", "r"), "theta_deg": ("lattice", "theta_deg"),
    "epsilon": ("state", "epsilon"),
    "bloch_theta": ("state", "bloch_theta"),
    "bloch_phi": ("state", "bloch_phi"),
    "steps": ("train", "steps"), "lr_init": ("train", "lr_init"),
    "lr_final": ("train", "lr_final"), "clip_norm": ("train", "clip_norm"),
    "lam": ("train", "lambda"), "p_th": ("train", "p_th"),
    "seed": ("train", "seed"), "freeze": ("train", "freeze"),
    "cutoff": ("cutoff",), "n_mc": ("n_mc",),
}


def _apply_flags(cfg: dict, args: argparse.Namespace) -> dict:
    for dest, keys in _FLAG_PATHS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return cfg


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(cfg: dict, *keys) -> float:
    node = cfg
    for key in keys:
        node = node[key]
    path = ".".join(keys)
    _require(isinstance(node, (int, float)) and not isinstance(node, bool),
             f"{path} must be a number, got {node!r}")
    _require(math.isfinite(node), f"{path} must be finite, got {node!r}")
    return float(node)


def validate_config(cfg: dict) -> dict:
    eta = _number(cfg, "noise", "eta")
    _require(0.0 < eta <= 1.0, f"noise.eta must be in (0, 1], got {eta}")
    gamma = _number(cfg, "noise", "gamma")
    _require(0.0 <= gamma <= 0.5,
             f"noise.gamma must be in [0, 0.5], got {gamma}")

    _number(cfg, "lattice", "ell")
    ell_max = cfg["lattice"]["ell_max"]
    _require(isinstance(ell_max, int) and ell_max >= 1,
             f"lattice.ell_max must be an integer >= 1, got {ell_max!r}")
    if cfg["lattice"]["theta_deg"] is not None:
        _number(cfg, "lattice", "theta_deg")
    # Trainable coordinates start inside the box projection keeps them in.
    for section, name in (("lattice", "r"), ("state", "epsilon"),
                          ("state", "bloch_theta")):
        value = _number(cfg, section, name)
        lo, hi = BOUNDS[name]
        _require(lo <= value <= hi, f"{section}.{name} must be in "
                 f"[{lo:.12g}, {hi:.12g}], got {value}")
    _number(cfg, "state", "bloch_phi")

    tr = cfg["train"]
    _require(isinstance(tr["steps"], int) and tr["steps"] >= 1,
             f"train.steps must be an integer >= 1, got {tr['steps']!r}")
    _require(_number(cfg, "train", "lr_init") > 0, "train.lr_init must be > 0")
    _require(_number(cfg, "train", "lr_final") >= 0,
             "train.lr_final must be >= 0")
    _require(_number(cfg, "train", "clip_norm") > 0,
             "train.clip_norm must be > 0")
    _require(_number(cfg, "train", "lambda") >= 0, "train.lambda must be >= 0")
    _require(_number(cfg, "train", "p_th") >= 0, "train.p_th must be >= 0")
    _require(isinstance(tr["seed"], int) and tr["seed"] >= 0,
             f"train.seed must be a nonnegative integer, got {tr['seed']!r}")
    _require(isinstance(tr["freeze"], list), "train.freeze must be a list")
    for name in tr["freeze"]:
        _require(name in PARAM_ORDER,
                 f"train.freeze entry {name!r} is not one of {PARAM_ORDER}")

    _require(isinstance(cfg["cutoff"], int) and cfg["cutoff"] >= 10,
             f"cutoff must be an integer >= 10, got {cfg['cutoff']!r}")
    _require(isinstance(cfg["n_mc"], int) and cfg["n_mc"] >= 10_000,
             f"n_mc must be an integer >= 10000, got {cfg['n_mc']!r}")
    return cfg


def resolve_config(args: argparse.Namespace) -> dict:
    return validate_config(_apply_flags(load_config(args.config), args))


def build_noise(cfg: dict) -> NoiseParams:
    return NoiseParams(eta=cfg["noise"]["eta"], gamma=cfg["noise"]["gamma"])


def build_params(cfg: dict) -> TrainableParams:
    lat, st = cfg["lattice"], cfg["state"]
    ell = float(lat["ell"])
    if lat["theta_deg"] is not None:
        ell = float(lat["theta_deg"]) / 180.0 * lat["ell_max"]
    return TrainableParams(
        bloch_theta=float(st["bloch_theta"]), bloch_phi=float(st["bloch_phi"]),
        ell=ell, ell_max=lat["ell_max"], r=float(lat["r"]),
        epsilon=float(st["epsilon"]))


def build_train_config(cfg: dict) -> TrainConfig:
    tr = cfg["train"]
    return TrainConfig(
        noise=build_noise(cfg), steps=tr["steps"],
        lr_init=float(tr["lr_init"]), lr_final=float(tr["lr_final"]),
        clip_norm=float(tr["clip_norm"]), penalty=float(tr["lambda"]),
        p_th=float(tr["p_th"]), cutoff=cfg["cutoff"], seed=tr["seed"],
        freeze=frozenset(tr["freeze"]))


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(payload) + "\n")


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers, "
                          f"got {text!r}") from exc


# ---------------------------------------------------------------- commands


def cmd_single(args) -> int:
    if args.replay:
        try:
            with open(args.replay, encoding="utf-8") as fh:
                prior = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot replay {args.replay}: {exc}") from exc
        if "config" not in prior:
            raise ConfigError(f"{args.replay} has no config echo to replay")
        cfg = validate_config(_merge(json.loads(json.dumps(DEFAULT_CONFIG)),
                                     prior["config"]))
    else:
        cfg = resolve_config(args)

    tcfg = build_train_config(cfg)
    final, trace = train(tcfg, build_params(cfg))
    write_csv(_out_path(args, "trace.csv"), "trace",
              [(s.step, s.loss, s.qfi, s.p_err, s.grad_norm, s.lr)
               for s in trace])

    _, qfi, p_err = combined_loss(final, tcfg)
    p_mc, p_mc_err = mc_perr(final.theta, final.r, tcfg.noise, cfg["n_mc"],
                             tcfg.seed)
    metrics = {
        "qfi": qfi,
        "p_err_analytic": p_err,
        "p_err_mc": p_mc,
        "p_err_mc_stderr": p_mc_err,
        "eta_meas": measurement_efficiency(p_err),
        "capacity": capacity(qfi, p_err),
    }
    report = RunReport(
        config=cfg,
        lattice=twisted_lattice(final.theta, final.r).as_dict(),
        noise={"eta": tcfg.noise.eta, "gamma": tcfg.noise.gamma},
        metrics=metrics, trace_file="trace.csv", seed=tcfg.seed,
        adam={"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS})
    with open(_out_path(args, "report.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(report.dumps())
    print(f"qfi={qfi:.6g} p_err={p_err:.6g} p_err_mc={p_mc:.6g} "
          f"capacity={metrics['capacity']:.6g} theta_deg="
          f"{math.degrees(final.theta):.6g} -> "
          f"{_out_path(args, 'report.json')}")
    return 0


def cmd_theta_star(args) -> int:
    cfg = resolve_config(args)
    noise = build_noise(cfg)
    r = cfg["lattice"]["r"]
    path = _out_path(args, "theta_star.json")
    base = {"eta": noise.eta, "gamma": noise.gamma, "r": r}
    try:
        res = theta_star(r, noise)
    except NoRootError as exc:
        _write_json(path, base | {"status": "no_root", "detail": str(exc)})
        print(f"status=no_root ({exc}) -> {path}")
        return 4
    d_eta, d_gamma = theta_sensitivity(r, noise)
    payload = base | {
        "status": "ok",
        "theta_star_deg": math.degrees(res.theta_star),
        "p_err_at_star": res.p_err_at_star,
        "bracket_deg": [math.degrees(b) for b in res.bracket],
        "residual": res.residual,
        "dtheta_deta_deg": d_eta,
        "dtheta_dgamma_deg": d_gamma,
        "theta_fit_deg": theta_fit(noise),
    }
    _write_json(path, payload)
    print(f"theta_star_deg={payload['theta_star_deg']:.6g} "
          f"p_err={res.p_err_at_star:.6g} -> {path}")
    return 0


def cmd_phase_diagram(args) -> int:
    cfg = resolve_config(args)
    r = cfg["lattice"]["r"]
    (eta_lo, eta_hi), (g_lo, g_hi) = args.eta_range, args.gamma_range
    _require(0.0 < eta_lo <= eta_hi < 1.0,
             f"--eta-range must satisfy 0 < lo <= hi < 1, got "
             f"{eta_lo} {eta_hi}")
    _require(0.0 <= g_lo <= g_hi <= 0.5,
             f"--gamma-range must satisfy 0 <= lo <= hi <= 0.5, got "
             f"{g_lo} {g_hi}")
    _require(args.n >= 1, f"--n must be >= 1, got {args.n}")
    eta_axis = np.linspace(eta_lo, eta_hi, args.n)
    gamma_axis = np.linspace(g_lo, g_hi, args.n)
    eta, gamma = np.meshgrid(eta_axis, gamma_axis, indexing="ij")
    eta, gamma = eta.ravel(), gamma.ravel()  # row-major: gamma runs fastest
    theta, p_star = theta_star_grid(r, eta, gamma)
    p_square = perr_analytic(0.0, r, NoiseParams(eta, gamma)).p_total
    rows = []
    for t, p, p0 in zip(theta.tolist(), p_star.tolist(), p_square.tolist()):
        if math.isnan(t):
            rows.append((None, None, p0, None))
        else:
            rows.append((math.degrees(t), p, p0,
                         p0 / p if p > 0 else math.inf))
    path = _out_path(args, "phase_diagram.csv")
    write_csv(path, "phase_diagram", rows,
              axes=(eta_axis.tolist(), gamma_axis.tolist()))
    n_roots = sum(1 for row in rows if row[0] is not None)
    print(f"{len(rows)} cells ({n_roots} with a root) -> {path}")
    return 0


def cmd_fractional(args) -> int:
    cfg = resolve_config(args)
    ells = (_parse_float_list(args.ells, "--ells") if args.ells
            else [0.5 * i for i in range(8)])
    _require(len(ells) > 0, "--ells must name at least one charge")
    rows = fractional_sweep(ells, build_train_config(cfg), build_params(cfg))
    path = _out_path(args, "fractional.csv")
    write_csv(path, "fractional", [
        (row["ell"],
         row["theta_deg"] if math.isfinite(row["theta_deg"]) else None,
         row["qfi"] if math.isfinite(row["qfi"]) else None,
         row["p_err"] if math.isfinite(row["p_err"]) else None,
         row["improvement"] if math.isfinite(row["improvement"]) else None,
         row["capacity"] if math.isfinite(row["capacity"]) else None)
        for row in rows])
    ok = [row for row in rows if math.isfinite(row["p_err"])]
    if ok:
        best = min(ok, key=lambda row: row["p_err"])
        argmin = [row["ell"] for row in ok
                  if row["p_err"] <= best["p_err"] * (1 + 1e-9)]
        print(f"argmin ell={argmin} p_err={best['p_err']:.6g} -> {path}")
    else:
        print(f"no successful rows -> {path}")
    return 0


def cmd_pareto(args) -> int:
    cfg = resolve_config(args)
    lambdas = (_parse_float_list(args.lambdas, "--lambdas") if args.lambdas
               else [0.0, 1.0, 10.0, 100.0, 1000.0])
    for lam in lambdas:
        _require(lam >= 0, f"--lambdas entries must be >= 0, got {lam}")
    rows = pareto_sweep(lambdas, build_train_config(cfg), build_params(cfg))
    path = _out_path(args, "pareto.csv")
    write_csv(path, "pareto", [
        (row["lam"],
         row["qfi"] if math.isfinite(row["qfi"]) else None,
         row["p_err"] if math.isfinite(row["p_err"]) else None)
        for row in rows])
    print(f"{len(rows)} lambdas -> {path}")
    return 0


def cmd_tolerance(args) -> int:
    cfg = resolve_config(args)
    noise = build_noise(cfg)
    r = cfg["lattice"]["r"]
    deltas = (_parse_float_list(args.deltas_deg, "--deltas-deg")
              if args.deltas_deg else [0.0, 1.0, 3.0, 7.0, 10.0, 20.0])
    params = build_params(cfg)
    if cfg["lattice"]["theta_deg"] is not None or params.ell != 0.0:
        base_theta = params.theta
    else:
        # No explicit angle given: center the curve on the analytic optimum.
        base_theta = theta_star(r, noise).theta_star  # NoRootError -> exit 4
    rows = tolerance_curve(deltas, base_theta, r, noise)
    path = _out_path(args, "tolerance.csv")
    write_csv(path, "tolerance", [
        (row["delta_deg"], row["theta_deg"], row["p_err"],
         row["improvement"], row["retained"]) for row in rows])
    print(f"base theta_deg={math.degrees(base_theta):.6g} "
          f"{len(rows)} offsets -> {path}")
    return 0


def cmd_wigner(args) -> int:
    cfg = resolve_config(args)
    _require(args.n_points >= 32, f"--n-points must be >= 32, got "
             f"{args.n_points}")
    for flag, (lo, hi) in (("--q-range", args.q_range),
                           ("--p-range", args.p_range)):
        _require(math.isfinite(lo) and math.isfinite(hi) and lo < hi,
                 f"{flag} must be finite with LO < HI, got {lo} {hi}")
    noise = build_noise(cfg)
    spec = build_params(cfg).sensor_spec(cfg["cutoff"])
    rho = sensor_state(spec, noise)
    grid = wigner_grid(rho, q_range=tuple(args.q_range),
                       p_range=tuple(args.p_range), n_points=args.n_points)
    # q-major, p fastest: with n points per axis, row i is
    # (q[i // n], p[i % n], W[i % n, i // n])
    csv_path = _out_path(args, "wigner.csv")
    write_csv(csv_path, "wigner", grid.values.T.reshape(-1, 1).tolist(),
              axes=(grid.q_axis.tolist(), grid.p_axis.tolist()))
    meta = {
        "q_range": [float(args.q_range[0]), float(args.q_range[1])],
        "p_range": [float(args.p_range[0]), float(args.p_range[1])],
        "n_points": args.n_points,
        "theta_deg": math.degrees(spec.theta),
        "r": spec.r,
        "epsilon": spec.epsilon,
        "eta": noise.eta,
        "gamma": noise.gamma,
        "integral": grid.integral(),
        "min_w": float(grid.values.min()),
        "negativity": wigner_negativity(grid),
    }
    _write_json(_out_path(args, "wigner.json"), meta)
    print(f"integral={meta['integral']:.6g} negativity="
          f"{meta['negativity']:.6g} min_w={meta['min_w']:.6g} -> {csv_path}")
    return 0


# ------------------------------------------------------------ entry point


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="JSON config file (defaults used when omitted)")
    sub.add_argument("-o", "--out", default=".", metavar="DIR",
                     help="output directory (default: current directory)")
    num = sub.add_argument_group("config overrides")
    num.add_argument("--eta", type=float, help="transmissivity in (0, 1]")
    num.add_argument("--gamma", type=float, help="dephasing rate in [0, 0.5]")
    num.add_argument("--ell", type=float, help="OAM charge (fractional ok)")
    num.add_argument("--ell-max", type=int, dest="ell_max",
                     help="maximal OAM charge (integer >= 1)")
    num.add_argument("--r", type=float, help="lattice aspect ratio in [0.5, 2]")
    num.add_argument("--theta-deg", type=float, dest="theta_deg",
                     help="lattice rotation in degrees (overrides --ell)")
    num.add_argument("--epsilon", type=float,
                     help="finite-energy parameter in (0.005, 0.5)")
    num.add_argument("--bloch-theta", type=float, dest="bloch_theta",
                     help="logical Bloch polar angle, radians")
    num.add_argument("--bloch-phi", type=float, dest="bloch_phi",
                     help="logical Bloch azimuth, radians")
    num.add_argument("--steps", type=int, help="optimizer steps")
    num.add_argument("--lr-init", type=float, dest="lr_init")
    num.add_argument("--lr-final", type=float, dest="lr_final")
    num.add_argument("--clip-norm", type=float, dest="clip_norm")
    num.add_argument("--lambda", type=float, dest="lam",
                     help="error-rate penalty weight")
    num.add_argument("--p-th", type=float, dest="p_th",
                     help="target logical error rate")
    num.add_argument("--seed", type=int)
    num.add_argument("--freeze", type=lambda s: [t for t in s.split(",")
                                                 if t.strip()],
                     help="comma-separated parameter names to hold fixed")
    num.add_argument("--cutoff", type=int, help="Fock-space dimension")
    num.add_argument("--n-mc", type=int, dest="n_mc",
                     help="Monte-Carlo sample count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsense",
        description="Grid-state sensor pipeline: training, analytic optima, "
                    "sweeps, and Wigner exports.")
    parser.add_argument("--version", action="version",
                        version=f"gridsense {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("single", help="train one configuration and report")
    p.add_argument("--replay", metavar="REPORT_JSON",
                   help="re-run from a report's config echo")
    _add_common(p)
    p.set_defaults(func=cmd_single)

    p = subs.add_parser("theta_star",
                        help="analytic optimal rotation at one noise point")
    _add_common(p)
    p.set_defaults(func=cmd_theta_star)

    p = subs.add_parser("phase_diagram",
                        help="theta_star over an (eta, gamma) grid")
    p.add_argument("--eta-range", type=float, nargs=2, default=[0.75, 0.99],
                   metavar=("LO", "HI"))
    p.add_argument("--gamma-range", type=float, nargs=2, default=[0.01, 0.25],
                   metavar=("LO", "HI"))
    p.add_argument("--n", type=int, default=21, help="grid points per axis")
    _add_common(p)
    p.set_defaults(func=cmd_phase_diagram)

    p = subs.add_parser("fractional", help="train once, then the error rate "
                                           "of each OAM charge at the set r")
    p.add_argument("--ells", help="comma-separated charges "
                                  "(default 0,0.5,...,3.5)")
    _add_common(p)
    p.set_defaults(func=cmd_fractional)

    p = subs.add_parser("pareto", help="train over a grid of penalty weights")
    p.add_argument("--lambdas", help="comma-separated penalties "
                                     "(default 0,1,10,100,1000)")
    _add_common(p)
    p.set_defaults(func=cmd_pareto)

    p = subs.add_parser("tolerance",
                        help="error rate under rotation-angle offsets")
    p.add_argument("--deltas-deg", dest="deltas_deg",
                   help="comma-separated offsets in degrees "
                        "(default 0,1,3,7,10,20)")
    _add_common(p)
    p.set_defaults(func=cmd_tolerance)

    p = subs.add_parser("wigner", help="phase-space grid of the sensor state")
    p.add_argument("--q-range", type=float, nargs=2, default=[-6.0, 6.0],
                   metavar=("LO", "HI"))
    p.add_argument("--p-range", type=float, nargs=2, default=[-6.0, 6.0],
                   metavar=("LO", "HI"))
    p.add_argument("--n-points", type=int, default=201, dest="n_points")
    _add_common(p)
    p.set_defaults(func=cmd_wigner)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoRootError as exc:
        print(f"no optimum in range: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:  # includes TruncationError, TrainDiverged
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
