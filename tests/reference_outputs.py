"""Committed reference outputs of the CLI (`tests/reference/`).

Each configuration in `tests/reference/manifest.json` is run in-process
through `gridsense.cli.main` into a scratch directory, and what it prints
and writes is compared with its directory under `tests/reference/`:

    python tests/reference_outputs.py               # compare; exit 1 on a miss
    python tests/reference_outputs.py --regenerate  # report, then rewrite

`console.txt` holds the exit status, every printed line (the output
directory written as `<out>`) and every warning the run emits; it must
match line for line. An output file must have the same text apart from its
numbers, and every number must lie within the file's bound in the manifest,
|Δ| ≤ max(rel·|ref|, abs). Two kinds of field are not compared digit by
digit:

- the JSON keys a file lists under `ignore` (report.json's `versions`,
  which names the Python and numpy of the run);
- the Monte-Carlo estimate `p_err_mc` (and its printed token). numpy does
  not promise a fixed `Generator` stream across releases (NEP 19), so the
  estimate must lie within `mc_z_max` binomial standard errors of
  `p_err_analytic`, and `p_err_mc_stderr` must be the binomial error of
  the estimate, within the file's bound.

Regenerate only when a change is meant to move the outputs, and state in
the change's notes every file that moved and by how much (the report that
`--regenerate` prints before it writes).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import shutil
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gridsense.cli import main

REFERENCE = Path(__file__).resolve().parent / "reference"
CONSOLE = "console.txt"
OUT = "<out>"
MC_TOKEN = re.compile(r"p_err_mc=\S+")


def load_manifest() -> dict:
    return json.loads((REFERENCE / "manifest.json").read_text())


def run(config: dict, scratch: Path) -> Path:
    """Run one configuration into `scratch`/name; returns that directory,
    holding the output files and `console.txt`."""
    out = Path(scratch) / config["name"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        status = main([*config["argv"], "-o", str(out)])
    lines = [f"exit {status}"]
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        lines += [f"{stream}: {line}" for line in
                  text.getvalue().replace(str(out), OUT).splitlines()]
    lines += [f"{w.category.__name__}: {w.message}" for w in caught]
    out.mkdir(parents=True, exist_ok=True)
    (out / CONSOLE).write_text("\n".join(lines) + "\n")
    return out


class _Diff:
    """Compares the numbers of one file within its bound, and records every
    miss and the largest move against the bound."""

    def __init__(self, where: str, bound: dict | None):
        """`bound` None: lines compared exactly (the console)."""
        self.where, self.bound = where, bound
        self.largest = (0.0, "", 0.0, 0.0)  # |Δ|/bound, where, |Δ|, |Δ/ref|
        self.misses: list[str] = []

    def miss(self, path: str, text: str) -> None:
        self.misses.append(f"{self.where}:{path}: {text}")

    def number(self, path: str, new: float, ref: float) -> None:
        if not (math.isfinite(new) and math.isfinite(ref)):
            if not (new == ref or math.isnan(new) and math.isnan(ref)):
                self.miss(path, f"{new!r} != {ref!r}")
            return
        delta = abs(new - ref)
        bound = max(self.bound["rel"] * abs(ref), self.bound["abs"])
        if delta / bound > self.largest[0]:
            self.largest = (delta / bound, path, delta,
                            delta / abs(ref) if ref else math.inf)
        if delta > bound:
            self.miss(path, f"{new!r} against {ref!r} (|Δ| {delta:.3g})")

    def value(self, path: str, new, ref) -> None:
        """A JSON value or a CSV cell: numbers within the bound, anything
        else exactly."""
        if _is_number(new) and _is_number(ref):
            self.number(path, float(new), float(ref))
        elif isinstance(new, dict) and isinstance(ref, dict):
            if list(new) != list(ref):
                self.miss(path, f"keys {list(new)} != {list(ref)}")
                return
            for key in ref:
                self.value(f"{path}.{key}", new[key], ref[key])
        elif isinstance(new, list) and isinstance(ref, list):
            if len(new) != len(ref):
                self.miss(path, f"length {len(new)} != {len(ref)}")
                return
            for k, (a, b) in enumerate(zip(new, ref)):
                self.value(f"{path}[{k}]", a, b)
        elif new != ref:
            self.miss(path, f"{new!r} != {ref!r}")

    def report(self) -> str:
        ratio, path, delta, rel = self.largest
        moved = "exact" if self.bound is None else (
            f"largest move {ratio:.3g} of its bound, |Δ| {delta:.3g} "
            f"(relative {rel:.3g}) at {path or 'none'}")
        return f"{self.where}: {moved}{' MISS' if self.misses else ''}"


def _is_number(x) -> bool:
    if isinstance(x, bool):
        return False
    if isinstance(x, (int, float)):
        return True
    try:
        float(x)
    except (TypeError, ValueError):
        return False
    return True


def _check_monte_carlo(diff: _Diff, new: dict, bound: dict) -> None:
    """The estimate by its z-score against the analytic rate, its standard
    error as the binomial error of the estimate."""
    metrics, n = new["metrics"], new["config"]["n_mc"]
    p, mc = metrics["p_err_analytic"], metrics["p_err_mc"]
    z = abs(mc - p) / math.sqrt(p * (1.0 - p) / n)
    if not z <= bound["mc_z_max"]:
        diff.miss("metrics.p_err_mc", f"{mc!r} is {z:.3g} standard errors "
                  f"from p_err_analytic {p!r}")
    diff.number("metrics.p_err_mc_stderr", metrics["p_err_mc_stderr"],
                math.sqrt(mc * (1.0 - mc) / n))


def _compare_file(diff: _Diff, new_path: Path, ref_path: Path,
                  bound: dict) -> None:
    if new_path.suffix == ".json":
        new, ref = (json.loads(p.read_text()) for p in (new_path, ref_path))
        for key in bound.get("ignore", ()):
            new.pop(key, None)
            ref.pop(key, None)
        if "mc_z_max" in bound:
            _check_monte_carlo(diff, new, bound)
            for data in (new, ref):
                del data["metrics"]["p_err_mc"], data["metrics"][
                    "p_err_mc_stderr"]
        diff.value("", new, ref)
        return
    new, ref = (list(csv.reader(p.read_text().splitlines()))
                for p in (new_path, ref_path))
    if len(new) != len(ref) or new[:1] != ref[:1]:
        diff.miss("", f"{len(new)} lines with header {new[:1]} against "
                  f"{len(ref)} with {ref[:1]}")
        return
    for k, (a, b) in enumerate(zip(new[1:], ref[1:]), start=2):
        diff.value(f"line {k}", a, b)


def compare(config: dict, produced: Path, reference: Path) -> list[_Diff]:
    """One `_Diff` per file of the configuration, the console first."""
    name = config["name"]
    console = _Diff(f"{name}/{CONSOLE}", None)
    new, ref = ((p / CONSOLE).read_text().splitlines()
                for p in (produced, reference))
    for k, (a, b) in enumerate(zip(new, ref), start=1):
        if MC_TOKEN.sub("p_err_mc=*", a) != MC_TOKEN.sub("p_err_mc=*", b):
            console.miss(f"line {k}", f"{a!r} != {b!r}")
    if len(new) != len(ref):
        console.miss("", f"{len(new)} lines against {len(ref)}")
    diffs = [console]
    written = sorted(p.name for p in produced.iterdir() if p.name != CONSOLE)
    if written != sorted(config["files"]):
        console.miss("", f"wrote {written}, the manifest lists "
                     f"{sorted(config['files'])}")
    for file, bound in config["files"].items():
        diff = _Diff(f"{name}/{file}", bound)
        if (produced / file).exists():
            _compare_file(diff, produced / file, reference / file, bound)
        diffs.append(diff)
    return diffs


def check(config: dict, scratch: Path) -> list[_Diff]:
    """Run one configuration into `scratch` and compare it with its
    committed reference."""
    return compare(config, run(config, scratch), REFERENCE / config["name"])


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the committed outputs after reporting "
                             "how far each file moved")
    args = parser.parse_args(argv)
    misses = 0
    with tempfile.TemporaryDirectory() as scratch:
        for config in load_manifest()["configs"]:
            produced = run(config, Path(scratch))
            reference = REFERENCE / config["name"]
            if reference.exists():
                for diff in compare(config, produced, reference):
                    print(diff.report())
                    for line in diff.misses:
                        print(f"  {line}")
                    misses += len(diff.misses)
            if args.regenerate:
                shutil.rmtree(reference, ignore_errors=True)
                shutil.copytree(produced, reference)
                print(f"wrote {reference}")
    print(f"{misses} values outside their bounds")
    return 1 if misses and not args.regenerate else 0


if __name__ == "__main__":
    sys.exit(cli())
