"""The CLI runs on numpy alone: no scipy module is loaded, not even its
top-level package. The package itself loads no numpy until a name is used,
and the CLI picks one BLAS thread before numpy loads unless the environment
already sets a count.

Importing scipy.special or scipy.linalg costs a fresh interpreter several
tenths of a second (and scipy.linalg loads a second OpenBLAS), and even the
bare `import scipy` costs every command about 12 ms. The
Wigner grid's Gauss–Hermite rule comes from numpy.polynomial, which only
`wigner` needs, so importing the CLI must not load that either. Nor may it
look up the OpenBLAS thread setters of `fock.serial_blas`: that reads the
process's memory map and is left to the first solve. Each check runs in a
new interpreter, so modules loaded by other tests do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import gridsense.cli as cli
from gridsense import fock
after_import = heavy()
lookups = [fock._openblas_thread_setters.cache_info().currsize]
polynomial = sorted(m for m in sys.modules
                    if m.split(".")[:2] == ["numpy", "polynomial"])
out = sys.argv[1]
commands = [
    ["single", "--steps", "1", "--n-mc", "10000"],
    ["theta_star"],
    ["phase_diagram", "--n", "3"],
    ["fractional", "--steps", "1"],
    ["pareto", "--steps", "1"],
    ["tolerance"],
    ["wigner", "--n-points", "32"],
]
codes = [cli.main([*cmd, "-o", f"{out}/{i}"]) for i, cmd in enumerate(commands)]
lookups.append(fock._openblas_thread_setters.cache_info().currsize)
print(json.dumps({"after_import": after_import, "polynomial": polynomial,
                  "codes": codes, "after_commands": heavy(),
                  "lookups": lookups}))
"""


def test_cli_never_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["after_import"] == []
    assert result["polynomial"] == []
    assert result["codes"] == [0] * 7
    assert result["after_commands"] == []
    assert result["lookups"] == [0, 1]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(code: str, **env_vars) -> str:
    """stdout of `code` in a new interpreter whose environment sets no BLAS
    thread variable except `env_vars`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout.strip()


def test_importing_the_package_loads_no_numpy():
    out = run_fresh("import sys, gridsense\n"
                    "print(sorted(m for m in sys.modules if m == 'numpy'"
                    " or m.startswith('gridsense.')))")
    assert out == "[]"


def test_cli_defaults_to_one_blas_thread():
    out = run_fresh("import os, sys, gridsense.cli\n"
                    "print(os.environ['OPENBLAS_NUM_THREADS'],"
                    " 'numpy' in sys.modules)")
    assert out == "1 True"


@pytest.mark.parametrize("name, value", [
    ("OPENBLAS_NUM_THREADS", "2"), ("OMP_NUM_THREADS", "2"),
    ("GOTO_NUM_THREADS", "2")])
def test_cli_keeps_an_explicit_thread_count(name, value):
    out = run_fresh("import os, gridsense.cli\n"
                    "print(os.environ.get('OPENBLAS_NUM_THREADS'),"
                    f" os.environ[{name!r}])", **{name: value})
    openblas = value if name == "OPENBLAS_NUM_THREADS" else "None"
    assert out == f"{openblas} {value}"


def test_star_import_yields_all_of_all():
    out = run_fresh("import gridsense\n"
                    "namespace = {}\n"
                    "exec('from gridsense import *', namespace)\n"
                    "missing = [n for n in gridsense.__all__"
                    " if n not in namespace]\n"
                    "print(len(gridsense.__all__), missing)")
    assert out == "74 []"


def test_lazy_names_are_the_submodule_objects():
    import gridsense
    from gridsense import optimize, pipeline

    assert gridsense.train is optimize.train
    assert gridsense.pipeline_qfi is pipeline.pipeline_qfi
    assert gridsense.fock is sys.modules["gridsense.fock"]
    assert set(gridsense.__all__) <= set(dir(gridsense))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gridsense.no_such_name
