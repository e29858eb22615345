"""The CLI runs on numpy alone: scipy.special and scipy.linalg stay unloaded.

Importing either costs a fresh interpreter several tenths of a second (and
scipy.linalg loads a second OpenBLAS), which every command would pay. The
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

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "special"],
                                          ["scipy", "linalg"]))

import gridsense.cli as cli
from gridsense import fock
after_import = heavy()
lookups = [fock._openblas_thread_setters.cache_info().currsize]
polynomial = sorted(m for m in sys.modules
                    if m.split(".")[:2] == ["numpy", "polynomial"])
out = sys.argv[1]
commands = [
    ["single", "--steps", "1", "--n-mc", "10000"],
    ["fractional", "--steps", "1"],
    ["phase_diagram", "--n", "3"],
    ["wigner", "--n-points", "32"],
]
codes = [cli.main([*cmd, "-o", f"{out}/{i}"]) for i, cmd in enumerate(commands)]
lookups.append(fock._openblas_thread_setters.cache_info().currsize)
print(json.dumps({"after_import": after_import, "polynomial": polynomial,
                  "codes": codes, "after_commands": heavy(),
                  "lookups": lookups}))
"""


def test_cli_never_loads_scipy_special_or_linalg(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["after_import"] == []
    assert result["polynomial"] == []
    assert result["codes"] == [0, 0, 0, 0]
    assert result["after_commands"] == []
    assert result["lookups"] == [0, 1]
