"""The CLI runs on numpy alone: no scipy module is loaded, not even its
top-level package. The package itself loads no numpy until a name is used,
and the CLI picks one BLAS thread before numpy loads unless the environment
already sets a count (a non-empty thread variable).

Importing scipy.special or scipy.linalg costs a fresh interpreter several
tenths of a second (and scipy.linalg loads a second OpenBLAS), and even the
bare `import scipy` costs every command about 12 ms. The
Gauss–Hermite rule (`states._gauss_hermite`) comes from numpy.polynomial,
which only `wigner` and the momentum diffusion need, so importing the CLI
must not load that either. No command
loads numpy.ma either, which costs about 13 ms: `np.unique`, and with it
`np.union1d`, loads it through `np.ma.is_masked`. Each check runs in a new
interpreter, so modules loaded by other tests do not count.

scipy is a test-only dependency: the package imports it in one place, the
test reference `fock.matrix_exp`, and `pyproject.toml` lists it in the
`test` extra only. The README's Library API table lists `gridsense.__all__`.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PROBE = """
import json, sys

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import gridsense.cli as cli
after_import = heavy()
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
print(json.dumps({"after_import": after_import, "polynomial": polynomial,
                  "codes": codes, "after_commands": heavy(),
                  "ma": "numpy.ma" in sys.modules}))
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
    assert not result["ma"]


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


# an empty variable chooses no count: OpenBLAS reads it as unset
@pytest.mark.parametrize("env_vars", [
    {}, {"OPENBLAS_NUM_THREADS": ""}, {"OMP_NUM_THREADS": ""}])
def test_cli_defaults_to_one_blas_thread(env_vars):
    out = run_fresh("import os, sys, gridsense.cli\n"
                    "print(os.environ['OPENBLAS_NUM_THREADS'],"
                    " 'numpy' in sys.modules)", **env_vars)
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


SOLVE_PROBE = """
import json
import gridsense.cli
import numpy as np
from gridsense import hermitian_eig
from blas_threads import controls

get, _ = controls()
start, seen, real_eigh = get(), [], np.linalg.eigh

def spy(M):
    seen.append(get())
    return real_eigh(M)

np.linalg.eigh = spy
hermitian_eig(np.eye(4, dtype=complex))
print(json.dumps({"start": start, "seen": seen, "end": get()}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the probe reads the Linux memory map")
@pytest.mark.parametrize("env_vars, chosen", [
    ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": ""}, 1)])
def test_cli_solves_on_its_thread_count(env_vars, chosen):
    # OpenBLAS caps a count at the CPUs the process may run on
    expected = min(chosen, len(os.sched_getaffinity(0)))
    out = run_fresh(SOLVE_PROBE, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(ROOT / "tests")]), **env_vars)
    assert json.loads(out) == {"start": expected, "seen": [expected],
                               "end": expected}


def test_only_the_cli_touches_blas_threads():
    # the CLI's environment pin before numpy loads is the one thread
    # policy: no other module writes the environment or reaches OpenBLAS
    writes = re.compile(r"os\.environ\b(?!\.get\b)|os\.putenv|ctypes"
                        r"|openblas_set|/proc/self")
    found = {path.name: writes.findall(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "gridsense").glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {
        "cli.py": ["os.environ"] * len(found["cli.py"])}
    assert found["cli.py"]


def test_star_import_yields_all_of_all():
    out = run_fresh("import gridsense\n"
                    "namespace = {}\n"
                    "exec('from gridsense import *', namespace)\n"
                    "missing = [n for n in gridsense.__all__"
                    " if n not in namespace]\n"
                    "print(len(gridsense.__all__), missing)")
    assert out == "60 []"


def test_lazy_names_are_the_submodule_objects():
    import gridsense
    from gridsense import optimize, pipeline

    assert gridsense.train is optimize.train
    assert gridsense.pipeline_qfi is pipeline.pipeline_qfi
    assert gridsense.fock is sys.modules["gridsense.fock"]
    assert set(gridsense.__all__) <= set(dir(gridsense))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gridsense.no_such_name


def test_each_module_lists_what_the_package_re_exports():
    import importlib

    import gridsense

    for module, names in gridsense._EXPORTS.items():
        listed = importlib.import_module(f"gridsense.{module}").__all__
        assert set(names) <= set(listed), module


def scipy_imports() -> list[tuple[str, str]]:
    """(file, enclosing function or class) of each `scipy` import statement
    under src/gridsense; "" for a module-level one."""
    found = []

    def visit(node, file, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, file, scope + (child.name,))
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append((file, ".".join(scope)))
            visit(child, file, scope)

    for path in sorted((SRC / "gridsense").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, ())
    return found


def test_scipy_is_imported_only_by_the_matrix_exp_reference():
    assert scipy_imports() == [("fock.py", "matrix_exp")]


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+

    def names(requirements):
        return [re.match(r"[A-Za-z0-9._-]+", req).group(0).lower()
                for req in requirements]

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_readme_api_table_lists_all():
    import gridsense

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    count = re.search(r"`gridsense\.__all__` lists the (\d+) names", section)
    assert count and int(count.group(1)) == len(gridsense.__all__)
    rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", section, re.MULTILINE)
    table = {module: tuple(re.findall(r"`(\w+)`", names))
             for module, names in rows}
    assert list(table.items()) == list(gridsense._EXPORTS.items())
