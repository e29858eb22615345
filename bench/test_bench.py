"""Self-tests of the benchmark at tiny sizes: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {"train_steps": 2, "sweep_charges": 2, "sweep_steps": 2,
        "maps_n": 4, "maps_points": 32}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _iteration(workload, tmp_path, traced=False, seed=3):
    runner = run.Runner(time.monotonic() + 120.0)
    return run.run_iteration(runner, workload, workloads.make_inputs(seed),
                             tmp_path / workload, traced, TINY)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    layer_names = {m["name"] for m in spec["per_layer"]}
    empty = tracer.layer_metrics({"functions": {}, "counters": {},
                                  "extra": {}})
    assert set(empty) | {"bench.trace.overhead_s"} == layer_names
    assert all(value == 0 for value in empty.values())


def test_harness_sets_no_thread_variable():
    env = run.Runner(time.monotonic()).env
    changed = {k for k in env.keys() | os.environ.keys()
               if env.get(k) != os.environ.get(k)}
    assert changed <= {"PYTHONPATH"}


def test_inputs_are_seeded():
    assert workloads.make_inputs(7) == workloads.make_inputs(7)
    assert workloads.make_inputs(7) != workloads.make_inputs(8)
    inp = workloads.make_inputs(7)
    assert 0.85 <= inp.eta <= 0.95 and 0.03 <= inp.gamma <= 0.08


def test_reference_formulas_match_library():
    from gridsense import NoiseParams, balance, perr_analytic

    for theta, eta, gamma in [(0.0, 0.9, 0.05), (1.1, 0.86, 0.07),
                              (0.4, 0.94, 0.031)]:
        noise = NoiseParams(eta, gamma)
        p = perr_analytic(theta, 1.092, noise).p_total
        assert math.isclose(workloads.perr_ref(theta, 1.092, eta, gamma), p,
                            rel_tol=1e-12)
        b = balance(theta, 1.092, noise)
        assert math.isclose(workloads.balance_ref(theta, 1.092, eta, gamma),
                            b, rel_tol=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload, tmp_path):
    res = _iteration(workload, tmp_path, traced=True)
    assert res["failed"] == 0, res["problems"]
    layers = res["layers"]
    assert set(layers) | {"bench.trace.overhead_s"} == \
        {name for name, _, _ in tracer.LAYER_METRICS}
    if workload == "train":
        assert layers["pipeline.pipeline_qfi.per_step"] == 7
        # The two psi probes of every step repeat the unshifted state.
        assert layers["pipeline.pipeline_qfi.repeat_frac"] == \
            2 * TINY["train_steps"] / layers["pipeline.pipeline_qfi.calls"]
    if workload == "maps":
        assert layers["model.balance.calls"] > 0
        assert layers["report.write_csv.rows"] == \
            TINY["maps_n"] ** 2 + TINY["maps_points"] ** 2


def _corrupt_trace(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _corrupt_report(path: Path) -> None:
    report = json.loads(path.read_text())
    report["metrics"]["p_err_analytic"] *= 1.001
    path.write_text(json.dumps(report))


def _corrupt_wigner(path: Path) -> None:
    """Swap W between the maximum and the minimum: the integral and min_w
    still match, only the point samples can tell."""
    lines = path.read_text().splitlines(keepends=True)
    rows = [line.rstrip("\n").split(",") for line in lines[1:]]
    w = [float(r[2]) for r in rows]
    hi, lo = w.index(max(w)), w.index(min(w))
    rows[hi][2], rows[lo][2] = rows[lo][2], rows[hi][2]
    path.write_text(lines[0] + "".join(",".join(r) + "\n" for r in rows))


@pytest.mark.parametrize("workload,file,corrupt", [
    ("train", "single/trace.csv", _corrupt_trace),
    ("train", "single/report.json", _corrupt_report),
    ("maps", "wigner/wigner.csv", _corrupt_wigner),
])
def test_corrupted_output_is_counted_as_failed(workload, file, corrupt,
                                               tmp_path, monkeypatch):
    real = workloads.invocations

    def corrupting(*args, **kwargs):
        calls = real(*args, **kwargs)

        def check(call):
            def run_check(out_dir):
                target = Path(args[2]) / file
                if Path(out_dir) == target.parent:
                    corrupt(target)
                return call.check(out_dir)
            return run_check

        return [replace(c, check=check(c)) for c in calls]

    monkeypatch.setattr(workloads, "invocations", corrupting)
    res = _iteration(workload, tmp_path)
    assert res["failed"] == 1 and res["problems"], res


def test_namespaces_unchanged_after_traced_run(tmp_path):
    import gridsense.cli as cli
    import gridsense.optimize
    import gridsense.pipeline
    import gridsense.states

    original = gridsense.pipeline.pipeline_qfi
    original_theta_star = cli.theta_star
    before = tracer.namespace_snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        # Each copy made by `from .x import y` is wrapped, not only the source.
        assert gridsense.optimize.pipeline_qfi is not original
        assert gridsense.optimize.pipeline_qfi is gridsense.pipeline_qfi
        assert cli.theta_star is not original_theta_star
        assert cli.theta_star is gridsense.model.theta_star
        assert gridsense.states.matrix_exp is gridsense.fock.matrix_exp
        assert cli.main(["phase_diagram", "--n", "3", "-o",
                         str(tmp_path)]) == 0
        assert cli.main(["single", "--steps", "1", "--n-mc", "10000", "-o",
                         str(tmp_path)]) == 0
    finally:
        t.uninstall()
    assert tracer.namespace_snapshot() == before
    assert gridsense.optimize.pipeline_qfi is original
    summary = t.summary()
    assert summary["functions"]["model.theta_star"]["calls"] == 9
    assert summary["functions"]["optimize.train"]["calls"] == 1
    # Per-thread self time never exceeds the span's own duration.
    assert all(s[6] <= s[5] - s[4] + 1e-9 for s in t.spans)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "train", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert not (tmp_path / ".bench_work").exists()
