"""Seeded workload inputs, the gridsense CLI calls that run them, and the
checks on their outputs.

Every workload leaves ε, r and the cutoff at their defaults. The seed draws
the noise point (η ∈ [0.85, 0.95], γ ∈ [0.03, 0.08]), the Bloch start, the
OAM charges and the edges of the phase-diagram window; the sizes are fixed so
that the cost of a run does not depend on the seed. The checks hold for any seed; a check that fails marks the call
that wrote the file as failed.

- train: one `single` run, the training hot path (7 pipeline runs per Adam
  step plus one Monte-Carlo decode). Nothing is shared between trainings.
- sweep: one `fractional` run over several charges. F_Q does not depend on
  θ, so every charge trains the same Bloch problem again; work shared across
  trainings shows here and not in `train`.
- maps: `phase_diagram` on a large grid plus `wigner` on a seeded state. No
  training: the control for pipeline and BLAS changes, and the workload whose
  CSV files are large.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

A_LATTICE = math.sqrt(2.0 * math.pi)
R_DEFAULT = 1.092
ELL_MAX = 4
N_MC = 1_000_000
REL_TOL = 1e-9
MAX_Z = 5.0

# Sizes of the default run. A 10x faster pipeline still leaves `train` and
# `sweep` several times above the interpreter set-up time.
SIZES = {"train_steps": 80, "sweep_charges": 4, "sweep_steps": 20,
         "maps_n": 151, "maps_points": 301}

WORKLOADS = ("train", "sweep", "maps")


@dataclass(frozen=True)
class Inputs:
    eta: float
    gamma: float
    bloch_theta: float
    bloch_phi: float
    ell: float
    ells: tuple
    eta_range: tuple
    gamma_range: tuple


def make_inputs(seed: int) -> Inputs:
    """The same seed gives the same inputs (stdlib Mersenne Twister)."""
    rng = random.Random(seed)
    eta = rng.uniform(0.85, 0.95)
    gamma = rng.uniform(0.03, 0.08)
    charges = [0.25 * k for k in range(4 * ELL_MAX)]  # 0, 0.25, ..., 3.75
    return Inputs(
        eta=eta, gamma=gamma,
        # Away from the poles, where projected Adam stalls on the box corner.
        bloch_theta=rng.uniform(0.5, math.pi - 0.5),
        bloch_phi=rng.uniform(0.0, 2.0 * math.pi),
        ell=rng.choice(charges),
        ells=tuple(rng.sample(charges, SIZES["sweep_charges"])),
        # The CLI's default window, edges moved by at most 0.005: cells with
        # a root cost ~1.5x those without, so a window that moved with the
        # noise point would make the run time depend on the seed.
        eta_range=(0.75 + rng.uniform(0, 0.005), 0.99 - rng.uniform(0, 0.005)),
        gamma_range=(0.01 + rng.uniform(0, 0.005),
                     0.25 - rng.uniform(0, 0.005)))


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments after `gridsense`, the directory it writes,
    and the check of what it wrote (returns a list of problems)."""

    args: list
    out_dir: str
    check: Callable[[str], list]


def invocations(workload: str, inp: Inputs, work_dir: str,
                sizes: dict = SIZES) -> list[Invocation]:
    noise = ["--eta", repr(inp.eta), "--gamma", repr(inp.gamma)]
    bloch = ["--bloch-theta", repr(inp.bloch_theta),
             "--bloch-phi", repr(inp.bloch_phi)]
    if workload == "train":
        out = os.path.join(work_dir, "single")
        steps = sizes["train_steps"]
        return [Invocation(
            ["single", *noise, *bloch, "--ell", repr(inp.ell),
             "--steps", str(steps), "--n-mc", str(N_MC), "-o", out],
            out, lambda d: check_single(d, inp, steps))]
    if workload == "sweep":
        out = os.path.join(work_dir, "fractional")
        ells = inp.ells[:sizes["sweep_charges"]]
        return [Invocation(
            ["fractional", *noise, *bloch,
             "--ells", ",".join(repr(x) for x in ells),
             "--steps", str(sizes["sweep_steps"]), "-o", out],
            out, lambda d: check_fractional(d, inp, ells))]
    if workload == "maps":
        n, points = sizes["maps_n"], sizes["maps_points"]
        pd_out = os.path.join(work_dir, "phase_diagram")
        w_out = os.path.join(work_dir, "wigner")
        return [
            Invocation(["phase_diagram",
                        "--eta-range", *map(repr, inp.eta_range),
                        "--gamma-range", *map(repr, inp.gamma_range),
                        "--n", str(n), "-o", pd_out],
                       pd_out, lambda d: check_phase_diagram(d, inp, n)),
            Invocation(["wigner", *noise, *bloch, "--ell", repr(inp.ell),
                        "--n-points", str(points), "-o", w_out],
                       w_out, lambda d: check_wigner(d, inp, points)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------ reference formulas
# The closed-form error model again, written from its definition with the
# stdlib, so that the checks do not trust the library they check.


def _sigmas(theta: float, eta: float, gamma: float) -> tuple[float, float]:
    base = (1.0 - eta) / (2.0 * eta)
    return (math.sqrt(base + gamma * math.sin(theta) ** 2),
            math.sqrt(base + gamma * math.cos(theta) ** 2))


def perr_ref(theta: float, r: float, eta: float, gamma: float) -> float:
    """P_err = P_q + P_p − P_q·P_p with P = 2Q(u) = erfc(u/√2)."""
    sq, sp = _sigmas(theta, eta, gamma)
    p_q = math.erfc(A_LATTICE * r / (2.0 * sq) / math.sqrt(2.0))
    p_p = math.erfc((A_LATTICE / r) / (2.0 * sp) / math.sqrt(2.0))
    return p_q + p_p - p_q * p_p


def balance_ref(theta: float, r: float, eta: float, gamma: float) -> float:
    """B(θ) = r²·φ(u_q)/σ_q³ − φ(u_p)/σ_p³; θ* is its root."""
    sq, sp = _sigmas(theta, eta, gamma)
    u_q = A_LATTICE * r / (2.0 * sq)
    u_p = (A_LATTICE / r) / (2.0 * sp)
    phi = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return r * r * phi(u_q) / sq ** 3 - phi(u_p) / sp ** 3


# ------------------------------------------------------------------ checks


def _close(a: float, b: float, rel: float = REL_TOL, abs_: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= max(rel * abs(b), abs_)


def _read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} is empty")
    return rows[0], rows[1:]


def _float(cell: str):
    return None if cell == "" else float(cell)


def _guard(check):
    """A check that cannot read its file reports that as its problem."""
    def run(*args):
        try:
            return check(*args)
        except (OSError, ValueError, KeyError, TypeError, IndexError,
                ArithmeticError) as exc:
            return [f"{check.__name__}: unreadable output: {exc!r}"]
    run.__name__ = check.__name__
    return run


@_guard
def check_single(out_dir: str, inp: Inputs, steps: int) -> list[str]:
    problems = []
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    m, lat = report["metrics"], report["lattice"]
    theta = math.radians(lat["theta_deg"])
    if not _close(theta, inp.ell * math.pi / ELL_MAX, abs_=1e-12):
        problems.append(f"lattice theta {lat['theta_deg']} is not the "
                        f"charge angle of ell={inp.ell}")
    p = perr_ref(theta, lat["r"], inp.eta, inp.gamma)
    if not _close(m["p_err_analytic"], p):
        problems.append(f"p_err_analytic {m['p_err_analytic']!r} != "
                        f"recomputed {p!r}")
    # z-score against the binomial spread at the analytic rate (the MC
    # stderr is 0 when no error is drawn, which happens at low noise).
    sd = math.sqrt(p * (1.0 - p) / N_MC)
    if sd > 0:
        z = abs(m["p_err_mc"] - p) / sd
    else:
        z = 0.0 if m["p_err_mc"] == p else math.inf
    if not z <= MAX_Z:
        problems.append(f"MC z-score {z:.3g} > {MAX_Z} "
                        f"(p_mc={m['p_err_mc']!r}, p={p!r})")
    header, rows = _read_csv(os.path.join(out_dir, "trace.csv"))
    if header != ["step", "loss", "qfi", "p_err", "grad_norm", "lr"]:
        problems.append(f"trace.csv header {header}")
    if len(rows) != steps:
        problems.append(f"trace.csv has {len(rows)} rows, expected {steps}")
    if any(len(r) != 6 or not all(math.isfinite(float(c)) for c in r)
           for r in rows):
        problems.append("trace.csv has a short or non-finite row")
    return problems


@_guard
def check_fractional(out_dir: str, inp: Inputs, ells) -> list[str]:
    problems = []
    header, rows = _read_csv(os.path.join(out_dir, "fractional.csv"))
    if header != ["ell", "theta_deg", "qfi", "p_err", "improvement",
                  "capacity"]:
        problems.append(f"fractional.csv header {header}")
    if [float(r[0]) for r in rows] != [float(x) for x in ells]:
        problems.append(f"fractional.csv charges {[r[0] for r in rows]} "
                        f"!= {list(ells)}")
        return problems
    qfis = [float(r[2]) for r in rows]
    if not all(_close(q, qfis[0]) for q in qfis):
        problems.append(f"qfi varies across charges: {qfis}")
    for r in rows:
        ell, theta_deg, p_err = float(r[0]), float(r[1]), float(r[3])
        theta = ell * math.pi / ELL_MAX
        if not _close(theta_deg, math.degrees(theta), abs_=1e-9):
            problems.append(f"ell={ell}: theta_deg {theta_deg!r}")
        p = perr_ref(theta, R_DEFAULT, inp.eta, inp.gamma)
        if not _close(p_err, p):
            problems.append(f"ell={ell}: p_err {p_err!r} != {p!r}")
    return problems


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)] if n > 1 else [lo]


@_guard
def check_phase_diagram(out_dir: str, inp: Inputs, n: int) -> list[str]:
    problems = []
    header, rows = _read_csv(os.path.join(out_dir, "phase_diagram.csv"))
    if header != ["eta", "gamma", "theta_star_deg", "p_err_at_star",
                  "p_err_square", "improvement"]:
        problems.append(f"phase_diagram.csv header {header}")
    if len(rows) != n * n:
        return problems + [f"phase_diagram.csv has {len(rows)} rows, "
                           f"expected {n * n}"]
    etas = _linspace(*inp.eta_range, n)
    gammas = _linspace(*inp.gamma_range, n)
    roots = 0
    for i, r in enumerate(rows):
        eta, gamma = float(r[0]), float(r[1])
        if not (_close(eta, etas[i // n], abs_=1e-12)
                and _close(gamma, gammas[i % n], abs_=1e-12)):
            problems.append(f"row {i}: cell ({eta}, {gamma}) off the grid")
            break
        p_square = float(r[4])
        if not _close(p_square, perr_ref(0.0, R_DEFAULT, eta, gamma)):
            problems.append(f"row {i}: p_err_square {p_square!r}")
            break
        theta_deg, p_star, improvement = map(_float, (r[2], r[3], r[5]))
        if theta_deg is None:
            if p_star is not None or improvement is not None:
                problems.append(f"row {i}: no-root row with values")
                break
            continue
        roots += 1
        theta = math.radians(theta_deg)
        if not _close(p_star, perr_ref(theta, R_DEFAULT, eta, gamma)):
            problems.append(f"row {i}: p_err_at_star {p_star!r} at "
                            f"theta* {theta_deg}")
            break
        if not _close(improvement, p_square / p_star):
            problems.append(f"row {i}: improvement {improvement!r}")
            break
        if i % 97 == 0:  # a sample of the roots: B changes sign at θ*
            lo = balance_ref(theta - 1e-6, R_DEFAULT, eta, gamma)
            hi = balance_ref(theta + 1e-6, R_DEFAULT, eta, gamma)
            if lo * hi > 0:
                problems.append(f"row {i}: theta* {theta_deg} is not a root "
                                f"of the balance condition")
                break
    if roots == 0:
        problems.append("phase diagram has no root at all")
    return problems


@_guard
def check_wigner(out_dir: str, inp: Inputs, points: int) -> list[str]:
    from gridsense import NoiseParams, SensorSpec, sensor_state, wigner_point

    problems = []
    header, rows = _read_csv(os.path.join(out_dir, "wigner.csv"))
    if header != ["q", "p", "W"]:
        problems.append(f"wigner.csv header {header}")
    if len(rows) != points * points:
        return problems + [f"wigner.csv has {len(rows)} rows, expected "
                           f"{points * points}"]
    with open(os.path.join(out_dir, "wigner.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    values = [float(r[2]) for r in rows]
    axis = _linspace(*meta["q_range"], points)
    cell = (axis[1] - axis[0]) ** 2
    if not _close(meta["integral"], sum(values) * cell, rel=1e-9):
        problems.append(f"wigner.json integral {meta['integral']!r} != "
                        f"sum of W {sum(values) * cell!r}")
    if meta["min_w"] != min(values):
        problems.append(f"wigner.json min_w {meta['min_w']!r}")
    spec = SensorSpec(theta=inp.ell * math.pi / ELL_MAX, r=R_DEFAULT,
                      bloch_theta=inp.bloch_theta, bloch_phi=inp.bloch_phi)
    rho = sensor_state(spec, NoiseParams(inp.eta, inp.gamma))
    # Sixteen fixed-seed points plus the extremes, where W is far from 0.
    picks = set(random.Random(0).sample(range(len(rows)), 16))
    picks |= {values.index(max(values)), values.index(min(values))}
    for i in sorted(picks):
        q, p, w = map(float, rows[i])
        ref = wigner_point(rho, q, p)
        if not _close(w, ref, rel=1e-8, abs_=1e-10):
            problems.append(f"W({q}, {p}) = {w!r} != wigner_point {ref!r}")
    return problems
