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

import math
import sys
from dataclasses import dataclass, field

import numpy as np

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


def _cells(schema_name: str, rows, width: int):
    """The flat list of rows' non-empty cells, row-major, and (row index,
    [cell is empty]) for each row with an empty cell."""
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"{schema_name} rows have shape {rows.shape}, "
                             f"expected (n, {width})")
        # only a masked array reads np.ma, whose first use imports it
        # (~15 ms on a 2-core x86 VM)
        empty = (np.ma.getmaskarray(rows) if hasattr(rows, "mask")
                 else np.zeros(rows.shape, dtype=bool))
        values = np.asarray(rows)[~empty].tolist()
        return values, [(at, empty[at].tolist())
                        for at in np.flatnonzero(empty.any(axis=1)).tolist()]
    values, with_empty = [], []
    for at, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{schema_name} row has {len(row)} cells, expected {width}")
        if None in row:
            with_empty.append((at, [v is None for v in row]))
            values.extend(v for v in row if v is not None)
        else:
            values.extend(row)
    return values, with_empty


def write_csv(path, schema_name: str, rows, axes=None) -> None:
    """Write rows (ordered like the schema columns) under the registered
    header.

    rows is a sequence of rows whose cells are numbers or None, or a 2-D
    float array of cells. None, or a masked cell of an `np.ma` array, is an
    empty cell (e.g. a phase-diagram cell with no root). The body is built as
    one format string, a '%.17g' pattern per row with the empty cells left
    out, and formatted by one '%' over the flat tuple of the other cells.
    The nan/inf tokens are then mapped to format_float's NaN/Infinity over
    the whole body, only when it holds an 'n': a finite '%.17g' never does.

    A grid passes axes=(outer, inner), the values of the first two columns.
    rows then holds only the remaining cells, one row per grid point in
    outer-major order, so row i starts with outer[i // len(inner)] and
    inner[i % len(inner)]. Each axis value is formatted once, and the file is
    the same as with the axis values written into every row.
    """
    _, columns = SCHEMAS[schema_name]
    width = len(columns) if axes is None else len(columns) - 2
    values, with_empty = _cells(schema_name, rows, width)
    if axes is None:
        outer, inner = [""], [""] * len(rows)
    else:
        outer, inner = (["%.17g," % v for v in axis] for axis in axes)
        if len(rows) != len(outer) * len(inner):
            raise ValueError(
                f"{schema_name} has {len(rows)} rows for a "
                f"{len(outer)} x {len(inner)} grid")
    # patterns[i] is row i's pattern after its outer prefix
    full = ",".join(["%.17g"] * width) + "\n"
    patterns = [prefix + full for prefix in inner] * len(outer)
    for at, empty in with_empty:
        patterns[at] = inner[at % len(inner)] + ",".join(
            "" if e else "%.17g" for e in empty) + "\n"
    # prefix.join(["", *block]) puts the outer prefix before each row
    size = len(inner)
    body = "".join(prefix.join(["", *patterns[a * size:(a + 1) * size]])
                   for a, prefix in enumerate(outer)) % tuple(values)
    if "n" in body:
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.write(body)


def versions() -> dict:
    from . import __version__

    return {
        "gridsense": __version__,
        "numpy": np.__version__,
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
