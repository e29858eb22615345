"""In-process tracer for one gridsense CLI call, and the per-layer metrics.

Run as a script it is a drop-in for ``python -m gridsense.cli``:

    python3 bench/tracer.py --stats OUT.json -- single --steps 5 -o out/

It wraps the public functions of each gridsense module, runs
``gridsense.cli.main`` with the given arguments, restores every wrapped name,
checks that the module namespaces are exactly as before, and writes the raw
per-function totals to ``--stats``. ``layer_metrics`` turns the totals of the
processes of one workload run into the named per-layer metrics.

A wrapped name is replaced in every gridsense module namespace that binds the
same function object: ``from .fock import matrix_exp`` copies the name into
``states`` and ``wigner``, and those copies are what the callers use.

Each call records a span (id, parent id, name, thread id, start, end, self
time, thread CPU time). Parents are tracked per thread, so self time is the
span's duration minus the time of its children on the same thread; the worker
threads of ``phase_diagram`` get their own stacks.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

# Functions that get a span, as (module, function). The module is the short
# name under the gridsense package and is the first part of a metric name.
SPANNED = (
    ("cli", "cmd_single"), ("cli", "cmd_fractional"),
    ("cli", "cmd_phase_diagram"), ("cli", "cmd_wigner"),
    ("optimize", "train"), ("optimize", "gradient"),
    ("optimize", "combined_loss"),
    ("pipeline", "pipeline_qfi"), ("pipeline", "sensor_state"),
    ("fock", "matrix_exp"), ("fock", "hermitian_eig"),
    ("states", "prepare_codeword"), ("states", "squeeze"),
    ("channels", "loss_kraus"), ("channels", "apply_loss"),
    ("channels", "apply_dephasing"),
    ("metrology", "qfi_mixed"),
    ("model", "perr_analytic"), ("model", "theta_star"), ("model", "mc_perr"),
    ("wigner", "wigner_grid"),
    ("report", "write_csv"), ("report", "dumps_json"),
)

# Functions that are only counted: balance runs ~10^6 times in a phase
# diagram, and a span per call would cost more than the call.
COUNTED = (("model", "balance"),)

# Per-layer metrics in the order they are reported: (name, unit, better).
LAYER_METRICS = (
    ("optimize.train.calls", "count", "lower"),
    ("optimize.train.steps", "count", "lower"),
    ("optimize.gradient.self_s", "s", "lower"),
    ("optimize.combined_loss.calls", "count", "lower"),
    ("pipeline.pipeline_qfi.calls", "count", "lower"),
    ("pipeline.pipeline_qfi.per_step", "calls/step", "lower"),
    ("pipeline.pipeline_qfi.repeat_frac", "frac", "lower"),
    ("pipeline.sensor_state.self_s", "s", "lower"),
    ("fock.matrix_exp.calls", "count", "lower"),
    ("fock.matrix_exp.self_s", "s", "lower"),
    ("fock.hermitian_eig.calls", "count", "lower"),
    ("fock.hermitian_eig.self_s", "s", "lower"),
    ("states.prepare_codeword.calls", "count", "lower"),
    ("states.prepare_codeword.self_s", "s", "lower"),
    ("states.squeeze.calls", "count", "lower"),
    ("states.squeeze.self_s", "s", "lower"),
    ("channels.loss_kraus.calls", "count", "lower"),
    ("channels.loss_kraus.self_s", "s", "lower"),
    ("channels.apply_loss.self_s", "s", "lower"),
    ("channels.apply_dephasing.self_s", "s", "lower"),
    ("metrology.qfi_mixed.self_s", "s", "lower"),
    ("model.perr_analytic.calls", "count", "lower"),
    ("model.perr_analytic.self_s", "s", "lower"),
    ("model.theta_star.calls", "count", "lower"),
    ("model.theta_star.self_s", "s", "lower"),
    ("model.balance.calls", "count", "lower"),
    ("model.mc_perr.self_s", "s", "lower"),
    ("model.mc_perr.samples_per_s", "1/s", "higher"),
    ("wigner.wigner_grid.self_s", "s", "lower"),
    ("wigner.wigner_grid.points_per_s", "1/s", "higher"),
    ("report.write_csv.calls", "count", "lower"),
    ("report.write_csv.self_s", "s", "lower"),
    ("report.write_csv.rows", "count", "lower"),
    ("report.write_csv.bytes", "B", "lower"),
    ("report.dumps_json.self_s", "s", "lower"),
    ("cli.cmd_single.s", "s", "lower"),
    ("cli.cmd_fractional.s", "s", "lower"),
    ("cli.cmd_phase_diagram.s", "s", "lower"),
    ("cli.cmd_wigner.s", "s", "lower"),
    ("cli.cmd_phase_diagram.busy_over_wall", "ratio", "higher"),
    ("bench.trace.overhead_s", "s", "lower"),
)


def _module(short: str):
    return importlib.import_module(f"gridsense.{short}")


def _gridsense_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gridsense"
                                  or name.startswith("gridsense."))]


def namespace_snapshot() -> dict:
    """{module name: {attribute: id(value)}} over the loaded gridsense modules."""
    return {m.__name__: {k: id(v) for k, v in vars(m).items()}
            for m in _gridsense_modules()}


class Tracer:
    """Wraps the SPANNED and COUNTED functions; spans stay in memory."""

    def __init__(self):
        # (id, parent, name, thread id, start, end, self_s, thread cpu_s)
        self.spans: list[tuple] = []
        self.extra: dict[str, float] = {}
        self._counters: dict[str, list] = {}  # name -> per-thread [count]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []  # (module, attribute, original)
        self._seen_specs: set = set()

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, fn in SPANNED:
            original = getattr(_module(mod), fn)
            self._patch(original, self._spanned(f"{mod}.{fn}", original))
        for mod, fn in COUNTED:
            original = getattr(_module(mod), fn)
            self._patch(original, self._counted(f"{mod}.{fn}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, original, wrapper) -> None:
        for module in _gridsense_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    # ----------------------------------------------------------- wrappers

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _spanned(self, name: str, fn):
        before, after = self._before_hook(name), self._after_hook(name, fn)
        spans, ids, get_stack = self.spans, self._ids, self._stack
        clock, cpu_clock = time.perf_counter, time.thread_time
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = get_stack()
            if stack and stack[-1][1] == name:
                # Direct recursion (dumps_json) stays inside the outer span.
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = [next(ids), name, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            c0, t0 = cpu_clock(), clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, c1 = clock(), cpu_clock()
                stack.pop()
                if stack:
                    stack[-1][2] += t1 - t0
                spans.append((frame[0], parent, name, get_ident(), t0, t1,
                              t1 - t0 - frame[2], c1 - c0))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        # One counter cell per thread: `n += 1` on a shared int can lose
        # updates between the pool threads.
        cells = self._counters.setdefault(name, [])
        local = threading.local()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                local.cell[0] += 1
            except AttributeError:
                local.cell = [1]
                cells.append(local.cell)
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _before_hook(self, name: str):
        if name != "pipeline.pipeline_qfi":
            return None

        def count_repeats(args, kwargs):
            key = args + tuple(sorted(kwargs.items()))  # (SensorSpec, Noise)
            if key in self._seen_specs:
                self._add("pipeline.pipeline_qfi.repeats", 1)
            self._seen_specs.add(key)

        return count_repeats

    def _after_hook(self, name: str, fn):
        sig = inspect.signature(fn)

        def arg(args, kwargs, key):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments[key]

        def train(args, kwargs, result):
            self._add("optimize.train.steps", len(result[1]))

        def mc_perr(args, kwargs, result):
            self._add("model.mc_perr.samples", arg(args, kwargs, "n_samples"))

        def wigner_grid(args, kwargs, result):
            self._add("wigner.wigner_grid.points", result.values.size)

        def write_csv(args, kwargs, result):
            self._add("report.write_csv.rows", len(arg(args, kwargs, "rows")))
            self._add("report.write_csv.bytes",
                      os.path.getsize(arg(args, kwargs, "path")))

        return {"optimize.train": train, "model.mc_perr": mc_perr,
                "wigner.wigner_grid": wigner_grid,
                "report.write_csv": write_csv}.get(name)

    # ------------------------------------------------------------ summary

    def summary(self) -> dict:
        """Raw totals of this process: per function, counters and extras."""
        functions: dict[str, dict] = {}
        by_id = {s[0]: s for s in self.spans}
        in_train = 0
        phase_busy = 0.0
        cell_layers = ("model.theta_star", "model.perr_analytic")
        for sid, parent, name, _tid, t0, t1, self_s, cpu in self.spans:
            f = functions.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            f["calls"] += 1
            f["total_s"] += t1 - t0
            f["self_s"] += self_s
            if name == "pipeline.pipeline_qfi":
                p = parent
                while p and by_id[p][2] != "optimize.train":
                    p = by_id[p][1]
                in_train += bool(p)
            elif name in cell_layers and (
                    not parent or by_id[parent][2] not in cell_layers):
                # Outermost per-cell model work, as CPU time of its thread:
                # a pool thread waiting for the GIL is not busy. The pool
                # runs it on worker threads, so it has no cli parent span.
                phase_busy += cpu
        extra = dict(self.extra)
        extra["pipeline.pipeline_qfi.in_train"] = in_train
        extra["cli.cmd_phase_diagram.busy_s"] = (
            phase_busy if "cli.cmd_phase_diagram" in functions else 0.0)
        counters = {name: sum(cell[0] for cell in cells)
                    for name, cells in self._counters.items()}
        return {"functions": functions, "counters": counters, "extra": extra}


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the raw totals of several processes (one workload run)."""
    out = {"functions": {}, "counters": {}, "extra": {}}
    for s in summaries:
        for name, f in s["functions"].items():
            acc = out["functions"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += f[key]
        for section in ("counters", "extra"):
            for name, value in s[section].items():
                out[section][name] = out[section].get(name, 0) + value
    return out


def layer_metrics(totals: dict) -> dict[str, float]:
    """Named per-layer metrics (LAYER_METRICS, less the bench overhead) from
    the merged totals of one workload run. A layer the workload does not
    reach reads 0."""
    fns, extra = totals["functions"], totals["extra"]

    def stat(fn: str, key: str) -> float:
        return fns.get(fn, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = extra.get("optimize.train.steps", 0)
    derived = {
        "optimize.train.steps": steps,
        "pipeline.pipeline_qfi.per_step": ratio(
            extra.get("pipeline.pipeline_qfi.in_train", 0), steps),
        "pipeline.pipeline_qfi.repeat_frac": ratio(
            extra.get("pipeline.pipeline_qfi.repeats", 0),
            stat("pipeline.pipeline_qfi", "calls")),
        "model.mc_perr.samples_per_s": ratio(
            extra.get("model.mc_perr.samples", 0),
            stat("model.mc_perr", "self_s")),
        "wigner.wigner_grid.points_per_s": ratio(
            extra.get("wigner.wigner_grid.points", 0),
            stat("wigner.wigner_grid", "self_s")),
        "report.write_csv.rows": extra.get("report.write_csv.rows", 0),
        "report.write_csv.bytes": extra.get("report.write_csv.bytes", 0),
        "cli.cmd_phase_diagram.busy_over_wall": ratio(
            extra.get("cli.cmd_phase_diagram.busy_s", 0.0),
            stat("cli.cmd_phase_diagram", "total_s")),
    }
    out: dict[str, float] = {}
    for name, _unit, _better in LAYER_METRICS:
        key, what = name.rsplit(".", 1)
        if name in derived:
            out[name] = derived[name]
        elif what == "calls":
            out[name] = totals["counters"].get(key, stat(key, "calls"))
        elif what == "self_s":
            out[name] = stat(key, "self_s")
        elif what == "s":  # a command's wall time
            out[name] = stat(key, "total_s")
    return out  # bench.trace.overhead_s is measured by the harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stats", required=True,
                    help="where to write the raw per-function totals (JSON)")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER,
                    help="arguments for gridsense.cli, after --")
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import gridsense.cli as cli

    before = namespace_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.uninstall()
    restored = namespace_snapshot() == before
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary() | {"exit_code": rc, "restored": restored},
                  fh)
    if not restored:
        print("tracer: gridsense namespaces differ after uninstall",
              file=sys.stderr)
        return 70
    return rc


if __name__ == "__main__":
    sys.exit(main())
