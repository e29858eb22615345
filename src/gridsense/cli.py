"""Command-line driver: one JSON config, seven subcommands, file outputs.

All config keys are optional; `DEFAULT_CONFIG` holds the defaults. Each
subcommand has an overriding flag, named after its leaf (--eta, --lambda,
--ell-max, ...), for each leaf it reads; --config takes every key.
Angles are degrees at the CLI boundary and radians inside, except the Bloch
angles which are radians everywhere (they are not lattice angles).
lattice.theta_deg, when set, overrides ell via ell = theta_deg/180 * ell_max.

Exit codes: 0 success; 2 config error (also argparse's own usage errors);
3 numeric failure; 4 the requested optimum/root does not exist.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import NamedTuple

# One OpenBLAS thread unless the caller chose a count: set one of these
# variables to a non-empty value (OpenBLAS reads an empty one as unset). It
# reads them once, when numpy first loads it, so this runs before the numpy
# import below (`import gridsense` loads no numpy). Every solve here is 30×30,
# too small to share: a second thread wins no wall time and busy-waits, also
# during `import numpy` itself. This is the package's only thread policy;
# the library leaves the count to whoever loads numpy.
if not any(os.environ.get(name) for name in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .channels import NOISE_DOMAINS, NoiseParams
from .fock import NumericError, domain_text, in_domain
from .lattice import ELL_MAX_DOMAIN, twisted_lattice
from .metrology import capacity, measurement_efficiency
from .model import (
    MC_SAMPLES_DOMAIN,
    NoRootError,
    _improvement,
    _theta_slope,
    mc_perr,
    perr_analytic,
    theta_fit,
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
    TRAIN_LIMITS,
    TrainConfig,
    TrainableParams,
    combined_loss,
    fractional_sweep,
    pareto_sweep,
    train,
)
from .pipeline import sensor_state
from .report import RunReport, dumps_json, write_csv
from .states import BLOCH_THETA_DOMAIN, CUTOFF_DOMAIN, EPSILON_DOMAIN
from .wigner import (_N_POINTS, _WINDOW, check_grid, wigner_grid,
                     wigner_negativity)

__all__ = ["main", "ConfigError", "DEFAULT_CONFIG", "load_config"]


class ConfigError(ValueError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


class _Leaf(NamedTuple):
    path: str
    default: object
    domain: tuple | None
    help: str


# One row per config leaf, the source of DEFAULT_CONFIG, the --<leaf> flags
# and their checks. A leaf has its default's type (None: a number or null).
# A domain is None (any finite number), a (lo, hi, strict) triple
# (`fock.in_domain`), or the names a list may hold.
_P = TrainableParams  # whose defaults the lattice.* and state.* rows read
_TRAIN = {name: (getattr(TrainConfig, name), domain)
          for name, domain in TRAIN_LIMITS.items()}
_LEAVES = (
    _Leaf("noise.eta", 0.9, NOISE_DOMAINS["eta"], "transmissivity"),
    _Leaf("noise.gamma", 0.05, NOISE_DOMAINS["gamma"], "dephasing rate"),
    _Leaf("lattice.ell", _P.ell, None, "OAM charge (fractional ok)"),
    _Leaf("lattice.ell_max", _P.ell_max, ELL_MAX_DOMAIN, "maximal OAM charge"),
    # Trainable coordinates start inside the box projection keeps them in.
    _Leaf("lattice.r", _P.r, (*BOUNDS["r"], False), "lattice aspect ratio"),
    _Leaf("lattice.theta_deg", None, None, "rotation (deg), overrides --ell"),
    _Leaf("state.epsilon", _P.epsilon, EPSILON_DOMAIN,
          "finite-energy parameter"),
    # Bloch init pi/2, pi/2: an equatorial start keeps the trainer away from
    # the bloch_theta in {0, pi} boundary, where the gradient points out of
    # the feasible box and projected Adam stalls on the corner.
    _Leaf("state.bloch_theta", math.pi / 2, BLOCH_THETA_DOMAIN,
          "Bloch polar angle (radians)"),
    _Leaf("state.bloch_phi", math.pi / 2, None, "Bloch azimuth (radians)"),
    _Leaf("train.steps", *_TRAIN["steps"], "optimizer steps"),
    _Leaf("train.lr_init", *_TRAIN["lr_init"], "initial learning rate"),
    _Leaf("train.lr_final", *_TRAIN["lr_final"], "final learning rate"),
    _Leaf("train.clip_norm", *_TRAIN["clip_norm"], "gradient-norm clip"),
    _Leaf("train.lambda", *_TRAIN["penalty"], "error-rate penalty"),
    _Leaf("train.p_th", *_TRAIN["p_th"], "target logical error rate"),
    _Leaf("train.seed", 0, (0, None, False), "Monte-Carlo seed"),
    _Leaf("train.freeze", sorted(TrainConfig.freeze, key=PARAM_ORDER.index),
          PARAM_ORDER, "comma-separated parameter names to hold fixed"),
    _Leaf("cutoff", TrainConfig.cutoff, CUTOFF_DOMAIN, "Fock-space dimension"),
    _Leaf("n_mc", 1_000_000, MC_SAMPLES_DOMAIN, "Monte-Carlo sample count"),
)
_LEAF = {leaf.path: leaf for leaf in _LEAVES}


def _assign(cfg: dict, values: dict) -> dict:
    """`cfg` with the value at each path ("key" or "section.key") set."""
    for path, value in values.items():
        section, _, key = path.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
    return cfg


DEFAULT_CONFIG = _assign({}, {leaf.path: leaf.default for leaf in _LEAVES})


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


def _overlay(loaded, what: str) -> dict:
    """A deep copy of the defaults with the parsed JSON `loaded` merged over
    it; `what` names `loaded` in the error when it is not an object."""
    _require(isinstance(loaded, dict), f"{what} must be an object, got "
             f"{type(loaded).__name__}")
    return _merge(json.loads(json.dumps(DEFAULT_CONFIG)), loaded)


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} parse error in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer literal past 4300 digits
        raise ConfigError(f"{what} parse error in {path}: {exc}") from exc


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the JSON file at `path` (if any)."""
    return _overlay({} if path is None else _read_json(path, "config"),
                    "config root")


def _domain_text(domain) -> str:
    if domain is None:
        return ""
    if isinstance(domain[0], str):
        return "from " + ",".join(domain)
    return domain_text(domain)


def _check(leaf: _Leaf, value, where: str) -> None:
    """ConfigError unless `value` is in `leaf`'s domain; `where` names it."""
    if isinstance(leaf.default, list):
        _require(isinstance(value, list)
                 and all(name in leaf.domain for name in value),
                 f"{where} must be a list of names "
                 f"{_domain_text(leaf.domain)}, got {value!r}")
        return
    if value is None and leaf.default is None:
        return
    integer = isinstance(leaf.default, int)
    _require(isinstance(value, int if integer else (int, float))
             and not isinstance(value, bool),
             f"{where} must be {'an integer' if integer else 'a number'}, "
             f"got {value!r}")
    # not math.isfinite: it raises on an int too large for a float
    _require(integer or abs(value) <= sys.float_info.max,
             f"{where} must be finite, got {value!r}")
    if leaf.domain is not None:
        _require(in_domain(value, leaf.domain),
                 f"{where} must be {_domain_text(leaf.domain)}, got {value!r}")


def validate_config(cfg: dict) -> dict:
    for leaf in _LEAVES:
        section, _, key = leaf.path.rpartition(".")
        _check(leaf, (cfg[section] if section else cfg)[key], leaf.path)
    return cfg


def resolve_config(args: argparse.Namespace) -> dict:
    flags = {leaf.path: getattr(args, leaf.path, None) for leaf in _LEAVES}
    return validate_config(_assign(load_config(args.config), {
        path: value for path, value in flags.items() if value is not None}))


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
        p_th=float(tr["p_th"]), cutoff=cfg["cutoff"],
        freeze=frozenset(tr["freeze"]))


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(payload) + "\n")


def _numbers(text: str, flag: str) -> list[float]:
    """The entries of a list flag: a non-empty list of finite numbers."""
    try:
        values = [float(token) for token in _names(text)]
    except ValueError:
        values = []
    _require(values and all(map(math.isfinite, values)),
             f"{flag} expects comma-separated finite numbers, got {text!r}")
    return values


# ---------------------------------------------------------------- commands


def cmd_single(args) -> int:
    if args.replay:
        prior = _read_json(args.replay, "report")
        _require(isinstance(prior, dict) and "config" in prior,
                 f"{args.replay} has no config echo to replay")
        cfg = validate_config(_overlay(prior["config"],
                                       f"config echo in {args.replay}"))
    else:
        cfg = resolve_config(args)

    tcfg = build_train_config(cfg)
    final, trace = train(tcfg, build_params(cfg))
    write_csv(_out_path(args, "trace.csv"), "trace",
              [(s.step, s.loss, s.qfi, s.p_err, s.grad_norm, s.lr)
               for s in trace])

    _, qfi, p_err = combined_loss(final, tcfg)
    p_mc, p_mc_err = mc_perr(final.theta, final.r, tcfg.noise, cfg["n_mc"],
                             cfg["train"]["seed"])
    metrics = {
        "qfi": qfi,
        "p_err_analytic": p_err,
        "p_err_mc": p_mc,
        "p_err_mc_stderr": p_mc_err,
        "eta_meas": measurement_efficiency(p_err),
        # as in `fractional_sweep`: −ln P_err is unbounded at P_err = 0
        "capacity": capacity(qfi, p_err) if p_err > 0 else math.nan,
    }
    report = RunReport(
        config=cfg,
        lattice=twisted_lattice(final.theta, final.r).as_dict(),
        noise={"eta": tcfg.noise.eta, "gamma": tcfg.noise.gamma},
        metrics=metrics, trace_file="trace.csv", seed=cfg["train"]["seed"],
        adam={"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS})
    _write_json(_out_path(args, "report.json"), report.as_dict())
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
    d_eta, d_gamma = _theta_slope(res.theta_star, r, noise)
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
    for flag, path, lo, hi in (("--eta-range", "noise.eta", eta_lo, eta_hi),
                               ("--gamma-range", "noise.gamma", g_lo, g_hi)):
        _check(_LEAF[path], lo, flag)
        _check(_LEAF[path], hi, flag)
        _require(lo <= hi, f"{flag} must have LO <= HI, got {lo} {hi}")
    _require(args.n >= 1, f"--n must be >= 1, got {args.n}")
    eta_axis = np.linspace(eta_lo, eta_hi, args.n)
    gamma_axis = np.linspace(g_lo, g_hi, args.n)
    eta, gamma = np.meshgrid(eta_axis, gamma_axis, indexing="ij")
    eta, gamma = eta.ravel(), gamma.ravel()  # row-major: gamma runs fastest
    theta, p_star = theta_star_grid(r, eta, gamma)
    p_square = perr_analytic(0.0, r, NoiseParams(eta, gamma)).p_total
    improvement = _improvement(p_square, p_star)
    # a cell without a root leaves all but its p_err_square empty
    no_root = np.isnan(theta)
    rows = np.column_stack([np.degrees(theta), p_star, p_square, improvement])
    path = _out_path(args, "phase_diagram.csv")
    write_csv(path, "phase_diagram", rows,
              axes=(eta_axis.tolist(), gamma_axis.tolist()),
              empty=no_root[:, None] & np.array([True, True, False, True]))
    n_roots = theta.size - int(np.count_nonzero(no_root))
    print(f"{len(rows)} cells ({n_roots} with a root) -> {path}")
    return 0


def cmd_fractional(args) -> int:
    cfg = resolve_config(args)
    rows = fractional_sweep(_numbers(args.ells, "--ells"),
                            build_train_config(cfg), build_params(cfg))
    path = _out_path(args, "fractional.csv")
    table = np.array([[row[key] for key in ("ell", "theta_deg", "qfi", "p_err",
                                            "improvement", "capacity")]
                      for row in rows])
    write_csv(path, "fractional", table, empty=~np.isfinite(table))
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
    lambdas = _numbers(args.lambdas, "--lambdas")
    for lam in lambdas:
        _check(_LEAF["train.lambda"], lam, "--lambdas entry")
    rows = pareto_sweep(lambdas, build_train_config(cfg), build_params(cfg))
    path = _out_path(args, "pareto.csv")
    table = np.array([[row["lam"], row["qfi"], row["p_err"]] for row in rows])
    write_csv(path, "pareto", table, empty=~np.isfinite(table))
    print(f"{len(rows)} lambdas -> {path}")
    return 0


def cmd_tolerance(args) -> int:
    cfg = resolve_config(args)
    noise = build_noise(cfg)
    r = cfg["lattice"]["r"]
    deltas = _numbers(args.deltas_deg, "--deltas-deg")
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
    try:
        check_grid(args.q_range, args.p_range, args.n_points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    noise = build_noise(cfg)
    spec = build_params(cfg).sensor_spec(cfg["cutoff"])
    rho = sensor_state(spec, noise)
    grid = wigner_grid(rho, q_range=tuple(args.q_range),
                       p_range=tuple(args.p_range), n_points=args.n_points)
    # q-major, p fastest: with n points per axis, row i is
    # (q[i // n], p[i % n], W[i % n, i // n])
    csv_path = _out_path(args, "wigner.csv")
    write_csv(csv_path, "wigner", grid.values.T.reshape(-1, 1),
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


def _names(text: str) -> list[str]:
    return [token for token in text.split(",") if token.strip()]


def _subcommand(subs, name: str, func, help: str,
                reads: str) -> argparse.ArgumentParser:
    """A subparser running `func`, with --config, -o and a flag for each
    leaf `reads` names by key or section: those `func` reads, as no other
    can move its outputs. Flags match whole: --lambda is not --lambdas."""
    sub = subs.add_parser(name, help=help, allow_abbrev=False)
    sub.set_defaults(func=func)
    sub.add_argument("--config", metavar="PATH",
                     help="JSON config file (defaults used when omitted)")
    sub.add_argument("-o", "--out", default=".", metavar="DIR",
                     help="output directory (default: current directory)")
    num = sub.add_argument_group("config overrides")
    names = set(reads.split())
    for leaf in _LEAVES:
        section, _, key = leaf.path.rpartition(".")
        if not {section, key} & names:
            continue
        kind = float if leaf.default is None else type(leaf.default)
        text = " ".join(filter(None, (leaf.help, _domain_text(leaf.domain))))
        if leaf.default is not None:
            text += " (default %s)" % (",".join(leaf.default) if kind is list
                                       else leaf.default)
        num.add_argument("--" + key.replace("_", "-"), dest=leaf.path,
                         type=_names if kind is list else kind,
                         metavar=key.upper(), help=text)
    return sub


# The flags that take one comma-separated list of numbers.
_LIST_FLAGS = ("--ells", "--lambdas", "--deltas-deg")


class _Parser(argparse.ArgumentParser):
    """Joins a list flag and a value like "-3,3" into "--flag=-3,3" before
    parsing: argparse takes "-3" after a flag as a value but reads "-3,3"
    as an unknown option (up to Python 3.12)."""

    def parse_known_args(self, args=None, namespace=None):
        tokens = []
        for token in sys.argv[1:] if args is None else args:
            if (tokens and tokens[-1] in _LIST_FLAGS
                    and re.match(r"-\.?\d", token)):
                tokens[-1] += "=" + token
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridsense",
        description="Grid-state sensor pipeline: training, analytic optima, "
                    "sweeps, and Wigner exports.")
    parser.add_argument("--version", action="version",
                        version=f"gridsense {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(subs, "single", cmd_single,
                    "train one configuration and report",
                    "noise lattice state train cutoff n_mc")
    p.add_argument("--replay", metavar="REPORT_JSON",
                   help="re-run from a report's config echo")

    _subcommand(subs, "theta_star", cmd_theta_star,
                "analytic optimal rotation at one noise point", "noise r")

    p = _subcommand(subs, "phase_diagram", cmd_phase_diagram,
                    "theta_star over an (eta, gamma) grid", "r")
    p.add_argument("--eta-range", type=float, nargs=2, default=[0.75, 0.99],
                   metavar=("LO", "HI"))
    p.add_argument("--gamma-range", type=float, nargs=2, default=[0.01, 0.25],
                   metavar=("LO", "HI"))
    p.add_argument("--n", type=int, default=21, help="grid points per axis")

    # --ells sets ell; with ell and r held, lambda and p_th move no gradient
    p = _subcommand(subs, "fractional", cmd_fractional, "train once, then "
                    "the error rate of each OAM charge at the set r",
                    "noise ell_max r state steps lr_init lr_final clip_norm "
                    "freeze cutoff")
    p.add_argument("--ells", default="0,0.5,1,1.5,2,2.5,3,3.5",
                   help="comma-separated charges (default %(default)s)")

    p = _subcommand(subs, "pareto", cmd_pareto,
                    "train over a grid of penalty weights",
                    "noise lattice state steps lr_init lr_final clip_norm "
                    "p_th freeze cutoff")
    p.add_argument("--lambdas", default="0,1,10,100,1000",
                   help="comma-separated penalties (default %(default)s)")

    p = _subcommand(subs, "tolerance", cmd_tolerance,
                    "error rate under rotation-angle offsets", "noise lattice")
    p.add_argument("--deltas-deg", dest="deltas_deg", default="0,1,3,7,10,20",
                   help="comma-separated offsets in degrees "
                        "(default %(default)s)")

    p = _subcommand(subs, "wigner", cmd_wigner,
                    "phase-space grid of the sensor state",
                    "noise lattice state cutoff")
    for flag in ("--q-range", "--p-range"):
        p.add_argument(flag, type=float, nargs=2, default=list(_WINDOW),
                       metavar=("LO", "HI"))
    p.add_argument("--n-points", type=int, default=_N_POINTS, dest="n_points")
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
    except NumericError as exc:  # includes TrainDiverged
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
