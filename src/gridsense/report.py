"""Run reports and the fixed-width export formats.

Every float that leaves the program — JSON or CSV — goes through the same
'%.17g' formatter. 17 significant digits round-trip IEEE doubles exactly,
which is what makes --replay bit-for-bit reproducible, so do not "clean up"
the output by shortening it.

CSV schemas are versioned here in SCHEMAS rather than inside the files;
report.json echoes the versions and the golden-file tests pin the header
strings.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

__all__ = [
    "SCHEMAS",
    "RunReport",
    "format_float",
    "dumps_json",
    "write_csv",
    "versions",
]

# name -> (schema_version, column names). Bump the version when a header
# changes; never reuse a version for a different header.
SCHEMAS = {
    "trace": (1, ("step", "loss", "qfi", "p_err", "grad_norm", "lr")),
    "phase_diagram": (1, ("eta", "gamma", "theta_star_deg", "p_err_at_star",
                          "p_err_square", "improvement")),
    "fractional": (1, ("ell", "theta_deg", "qfi", "p_err", "improvement",
                       "capacity")),
    "pareto": (1, ("lambda", "qfi", "p_err")),
    "tolerance": (1, ("delta_deg", "theta_deg", "p_err", "improvement",
                      "retained")),
    "wigner": (1, ("q", "p", "W")),
}


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _json_scalar(obj) -> str:
    import json as _json

    if isinstance(obj, bool) or obj is None:
        return "true" if obj is True else "false" if obj is False else "null"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj, indent: int = 0) -> str:
    """JSON text with every float at 17 significant digits.

    The stdlib encoder formats floats with repr(), which is round-trip safe
    but not width-stable across values; this keeps the file format pinned.
    Accepts dicts, lists/tuples, and scalars; numpy scalars/arrays should be
    converted by the caller (see RunReport.as_dict).
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {_json_scalar(str(k))}: {dumps_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(_json_scalar(v) for v in obj) + "]"
        inner = ",\n".join(f"{pad}  {dumps_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    return _json_scalar(obj)


def write_csv(path, schema_name: str, rows, axes=None) -> None:
    """Write rows (sequences ordered like the schema columns) under the
    registered header.

    Cells are numbers or None (an empty cell, e.g. a phase-diagram cell with
    no root). A row without None is formatted by one '%' call; the nan/inf
    tokens are then mapped to format_float's NaN/Infinity over the whole
    body at once, which is safe because a finite '%.17g' never contains them.

    A grid passes axes=(outer, inner), the values of the first two columns.
    rows then holds only the remaining cells, one row per grid point in
    outer-major order, so row i starts with outer[i // len(inner)] and
    inner[i % len(inner)]. Each axis value is formatted once, and the file is
    the same as with the axis values written into every row.
    """
    _, columns = SCHEMAS[schema_name]
    width = len(columns)
    if axes is None:
        prefixes = itertools.repeat("")
    else:
        outer, inner = (["%.17g," % v for v in axis] for axis in axes)
        if len(rows) != len(outer) * len(inner):
            raise ValueError(
                f"{schema_name} has {len(rows)} rows for a "
                f"{len(outer)} x {len(inner)} grid")
        prefixes = (o + i for o in outer for i in inner)
        width -= 2
    fmt = ",".join(["%.17g"] * width) + "\n"
    lines = []
    for prefix, row in zip(prefixes, rows):
        if len(row) != width:
            raise ValueError(
                f"{schema_name} row has {len(row)} cells, expected {width}")
        if None in row:
            lines.append(prefix + ",".join("" if v is None else "%.17g" % v
                                           for v in row) + "\n")
        else:
            lines.append(prefix + fmt % tuple(row))
    body = "".join(lines).replace("nan", "NaN").replace("inf", "Infinity")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.write(body)


def versions() -> dict:
    import numpy

    from . import __version__

    return {
        "gridsense": __version__,
        "numpy": numpy.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


# Metrics that are NaN where they are undefined: capacity at P_err = 0,
# where −ln P_err is unbounded. Every other metric must be finite.
NAN_WHERE_UNDEFINED = ("capacity",)


@dataclass
class RunReport:
    """Everything a single run writes to report.json."""

    config: dict
    lattice: dict
    noise: dict
    metrics: dict
    trace_file: str
    seed: int
    adam: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        for key, value in self.metrics.items():
            if (isinstance(value, float) and not math.isfinite(value)
                    and not (key in NAN_WHERE_UNDEFINED and math.isnan(value))):
                raise ValueError(f"metric {key!r} is not finite: {value}")
        return {
            "config": self.config,
            "lattice": self.lattice,
            "noise": self.noise,
            "metrics": self.metrics,
            "trace": self.trace_file,
            "seed": self.seed,
            "adam": self.adam,
            "schemas": {name: ver for name, (ver, _) in SCHEMAS.items()},
            "versions": versions(),
        }
