#!/usr/bin/env python3
"""gridsense benchmark: the real CLI, closed loop, one process at a time.

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is taken from ``src/`` of the checkout this
file sits in. A run generates the workload inputs from ``--seed`` (see
``workloads.py``), times the interpreter set-up, then repeats the workload
(one `gridsense` process after the other, a single client) until
``--seconds`` are used, checks every output, and prints one JSON object as
its last line of output.

``--trace 0`` reports the end-to-end metrics (END_TO_END). ``--trace 1``
alternates untraced runs with runs under ``tracer.py`` and reports the
per-layer metrics (``tracer.LAYER_METRICS``), including the tracing overhead.
``--workload all`` runs every workload both ways and prints one table.

The harness sets no BLAS or thread variable: the children get the user's
environment plus ``PYTHONPATH``. It only records what it finds.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import workloads  # noqa: E402

# name, unit, better, bound (share of the parent's median it may worsen by).
# On a shared 2-core box, slow spells lasting minutes move the median of a
# 30 s `maps` run (interpreter-bound) by up to ~9% between runs, against
# ~3% for `train` and `sweep` (BLAS-bound); times get 0.24. setup_s has the
# largest bound, so that work moved into set-up shows.
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("ok_frac", "frac", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
)

SETUP_SAMPLES = 7
MIN_ITERATIONS = 3
HARD_LIMIT_S = 150.0  # the whole run, set-up and checks included


@dataclass
class ProcResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


class Runner:
    """Starts one child at a time, times it, and kills it at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def run(self, argv: list, log_path: str) -> ProcResult:
        """Run argv to completion; rusage comes from wait4 of this child."""
        timeout = max(1.0, self.deadline - time.monotonic())
        lock, reaped = threading.Lock(), [False]
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)

            def kill():
                with lock:
                    if not reaped[0]:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                # Wait without reaping, so the pid cannot be reused while the
                # timer may still fire; then reap and take the rusage.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                with lock:
                    reaped[0] = True
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                with lock:
                    if not reaped[0]:
                        reaped[0] = True
                        proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ProcResult(proc.returncode, wall,
                          usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0)


# ------------------------------------------------------------- environment


def _blas_probe() -> list[dict]:
    """Thread count and build of each BLAS loaded into this process, read
    through its own get function (nothing is set)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.split()[-1].lower()
                            and line.split()[-1].rsplit("/", 1)[-1]
                            .startswith("lib")})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                entry["num_threads"] = get()
                try:
                    cfg = getattr(lib, f"{prefix}_get_config{suffix}")
                    cfg.argtypes, cfg.restype = [], ctypes.c_char_p
                    entry["config"] = cfg().decode(errors="replace").strip()
                except AttributeError:
                    pass
                break
            if "num_threads" in entry:
                break
        found.append(entry)
    return found


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": _blas_probe(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "load": "closed loop, 1 client, one gridsense process at a time",
    }


# ---------------------------------------------------------------- running


def measure_setup(runner: Runner, work: Path) -> list[float]:
    """Wall time of a fresh interpreter importing gridsense.cli. The first
    import (byte-code compile) is not counted; users pay it once."""
    argv = [sys.executable, "-c", "import gridsense.cli"]
    log = str(work / "setup.log")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        res = runner.run(argv, log)
        if res.exit_code != 0:
            raise RuntimeError(f"importing gridsense.cli failed: "
                               f"{Path(log).read_text()[-2000:]}")
        if i:
            samples.append(res.wall_s)
    return samples


def run_iteration(runner: Runner, workload: str, inp, work: Path,
                  traced: bool, sizes: dict) -> dict:
    """One workload run: its CLI calls in order, each checked."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = workloads.invocations(workload, inp, str(work), sizes)
    results, problems, summaries = [], [], []
    failed = 0
    for k, call in enumerate(calls):
        log = work / f"call{k}.log"
        stats = work / f"call{k}.trace.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"),
                    "--stats", str(stats), "--", *call.args]
        else:
            argv = [sys.executable, "-m", "gridsense.cli", *call.args]
        res = runner.run(argv, str(log))
        results.append(res)
        bad = []
        if res.exit_code != 0:
            bad.append(f"exit code {res.exit_code}: "
                       f"{log.read_text(errors='replace')[-1000:]}")
        else:
            bad += call.check(call.out_dir)
            if traced:
                try:
                    summary = json.loads(stats.read_text())
                except (OSError, ValueError) as exc:
                    summary = {"restored": False}
                    bad.append(f"no trace summary: {exc!r}")
                if not summary["restored"]:
                    bad.append("tracer left a gridsense namespace changed")
                summaries.append(summary)
        if bad:
            failed += 1
            problems += [f"{call.args[0]}: {p}" for p in bad]
    return {
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mib": max(r.peak_rss_mib for r in results),
        "attempted": len(calls),
        "failed": failed,
        "problems": problems,
        "layers": (tracer.layer_metrics(tracer.merge_summaries(summaries))
                   if traced and not failed else None),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict = workloads.SIZES) -> dict:
    """Closed loop for `seconds`; with trace, untraced and traced runs
    alternate so that the overhead is measured under the same conditions."""
    start = time.monotonic()
    runner = Runner(start + HARD_LIMIT_S)
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    inp = workloads.make_inputs(seed)
    setup = [] if trace else measure_setup(runner, work.parent)
    loop_start = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(run_iteration(runner, workload, inp, work, False, sizes))
        if trace:
            traced.append(run_iteration(runner, workload, inp, work, True,
                                        sizes))
        now = time.monotonic()
        per_round = (now - loop_start) / len(plain)
        if len(plain) >= (1 if trace else MIN_ITERATIONS) and (
                now - loop_start + per_round > seconds):
            break
        if now + 2 * per_round > runner.deadline:
            break
    runs = plain + traced
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "inputs": vars(inp), "setup": setup, "plain": plain,
            "traced": traced,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "problems": [p for r in runs for p in r["problems"]]}


def end_to_end_table(res: dict) -> dict:
    plain = res["plain"]
    samples = {key: [r[key] for r in plain]
               for key in ("wall_s", "cpu_s", "peak_rss_mib")}
    samples["setup_s"] = res["setup"]
    samples["ok_frac"] = [1.0 - res["failed"] / res["attempted"]]
    return {name: (statistics.median(samples[name]), unit, samples[name])
            for name, unit, _better, _bound in END_TO_END}


def layer_table(res: dict) -> dict:
    traced = [r["layers"] for r in res["traced"] if r["layers"] is not None]
    out = {}
    for name, unit, _better in tracer.LAYER_METRICS:
        if name == "bench.trace.overhead_s":
            values = [statistics.median(r["wall_s"] for r in res["traced"])
                      - statistics.median(r["wall_s"] for r in res["plain"])]
        else:
            values = [layers[name] for layers in traced] or [0]
        out[name] = (statistics.median(values), unit, values)
    return out


# ----------------------------------------------------------------- output


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, samples) in metrics.items():
        spread = ""
        if len(samples) >= 2:
            q = statistics.quantiles(samples, n=4)
            spread = f"  q1={q[0]:.6g} q3={q[-1]:.6g}"
        print(f"  {name:42s} {value:14.6g} {unit:10s} n={len(samples)}"
              f"{spread}")


def _save(name: str, payload: dict) -> Path:
    out = WORK / "results" / f"{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gridsense" / "cli.py").is_file():
        print(f"bench: no gridsense sources under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks load wigner_point from here
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = environment()
    print(f"env {json.dumps(env)}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    metrics, attempted, failed = {}, 0, 0
    for workload in names:
        for trace in modes:
            res = run_workload(workload, args.seed, args.seconds, trace)
            table = layer_table(res) if trace else end_to_end_table(res)
            saved = _save(f"{workload}-seed{args.seed}-trace{int(trace)}",
                          res | {"env": env, "metrics": table})
            _print_table(
                f"{workload} seed={args.seed} trace={int(trace)} "
                f"runs={len(res['plain'])}+{len(res['traced'])} "
                f"attempted={res['attempted']} failed={res['failed']} "
                f"-> {saved.relative_to(ROOT)}", table)
            for problem in res["problems"]:
                print(f"bench: FAILED {workload}: {problem}", file=sys.stderr)
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics |= {prefix + name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in table.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
