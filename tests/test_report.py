"""Export formats: float formatting, JSON/CSV writers, report assembly."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridsense.report import (
    SCHEMAS,
    RunReport,
    dumps_json,
    format_float,
    versions,
    write_csv,
)


# The cell-by-cell writer this module used before the one-'%'-per-row
# writer, kept verbatim as the byte reference.
def _cell(value) -> str:
    if value is None:
        return ""  # e.g. a phase-diagram cell with no root
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_csv_reference(path, schema_name: str, rows) -> None:
    """Write rows (sequences ordered like the schema columns) under the
    registered header."""
    _, columns = SCHEMAS[schema_name]
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(
                f"{schema_name} row has {len(row)} cells, expected "
                f"{len(columns)}")
        lines.append(",".join(_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


EDGE_VALUES = [None, math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0,
               5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1 + 0.2, 1.0, 7, 0, -3, 80,
               np.float64(0.3), np.float64(math.nan), np.float64(-math.inf),
               np.float64(-0.0), np.float64(2.2250738585072014e-308)]


def as_cells(rows) -> np.ma.MaskedArray:
    """rows as the array form of write_csv: None becomes a masked cell."""
    return np.ma.masked_array(
        [[0.0 if v is None else v for v in row] for row in rows],
        mask=[[v is None for v in row] for row in rows], dtype=float)


def edge_rows(width: int, seed: int) -> list:
    """Rows that put every edge value in every column, with and without a
    None in the same row, plus seeded random doubles."""
    rng = np.random.default_rng(seed)
    rows = []
    numbers = [v for v in EDGE_VALUES if v is not None]
    for i, value in enumerate(EDGE_VALUES):
        for col in range(width):
            row = [numbers[(i + j) % len(numbers)] for j in range(width)]
            row[col] = value
            rows.append(tuple(row))
            if value is not None:
                row[(col + 1) % width] = None
                rows.append(tuple(row))
    for _ in range(50):
        row = rng.normal(size=width) * 10.0 ** rng.integers(-300, 300, width)
        rows.append(tuple(row.tolist()))
    rows.append(tuple([None] * width))
    return rows


class TestFormatFloat:
    def test_specials(self):
        assert format_float(math.nan) == "NaN"
        assert format_float(math.inf) == "Infinity"
        assert format_float(-math.inf) == "-Infinity"

    def test_plain_values(self):
        assert format_float(0.5) == "0.5"
        assert format_float(1.0) == "1"

    @settings(max_examples=100, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_17g_round_trips_exactly(self, x):
        assert float(format_float(x)) == x


class TestDumpsJson:
    def test_nested_structure_parses_back(self):
        obj = {"a": [1, 2.5, "s"], "b": {"c": None, "d": True}, "e": []}
        parsed = json.loads(dumps_json(obj))
        assert parsed == obj

    def test_floats_keep_17_digits(self):
        x = 0.1 + 0.2  # 0.30000000000000004
        text = dumps_json({"x": x})
        assert "0.30000000000000004" in text
        assert json.loads(text)["x"] == x

    def test_scalar_and_flat_list_layout(self):
        assert dumps_json([1.0, 2.0]) == "[1, 2]"
        assert dumps_json("hi") == '"hi"'

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            dumps_json({"x": object()})


class TestWriteCsv:
    def test_header_and_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, "wigner", [(0.0, 0.5, 1.0 / 3.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "q,p,W"
        assert lines[1] == "0,0.5,0.33333333333333331"

    def test_none_becomes_empty_cell(self, tmp_path):
        path = tmp_path / "pd.csv"
        write_csv(path, "phase_diagram",
                  [(0.9, 0.01, None, None, 4.1e-4, None)])
        row = path.read_text().splitlines()[1]
        assert row == "0.90000000000000002,0.01,,,0.00040999999999999999,"

    def test_row_width_validated(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", "trace", [(1, 2.0)])

    @pytest.mark.parametrize("schema", sorted(SCHEMAS))
    def test_bytes_match_reference_writer(self, tmp_path, schema):
        rows = edge_rows(len(SCHEMAS[schema][1]), seed=len(schema))
        write_csv(tmp_path / "new.csv", schema, rows)
        write_csv_reference(tmp_path / "ref.csv", schema, rows)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("schema", sorted(SCHEMAS))
    def test_array_form_matches_the_row_form(self, tmp_path, schema):
        rows = edge_rows(len(SCHEMAS[schema][1]), seed=len(schema))
        write_csv(tmp_path / "rows.csv", schema, rows)
        write_csv(tmp_path / "masked.csv", schema, as_cells(rows))
        assert (tmp_path / "masked.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()
        # a plain array has no empty cell
        full = [row for row in rows if None not in row]
        write_csv(tmp_path / "rows.csv", schema, full)
        write_csv(tmp_path / "plain.csv", schema, np.array(full, dtype=float))
        assert (tmp_path / "plain.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()

    def test_array_shape_validated(self, tmp_path):
        with pytest.raises(ValueError, match=r"shape \(2, 3\), expected \(n, 6\)"):
            write_csv(tmp_path / "x.csv", "trace", np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"shape \(3,\), expected \(n, 3\)"):
            write_csv(tmp_path / "x.csv", "wigner", np.zeros(3))

    @pytest.mark.parametrize("schema", sorted(SCHEMAS))
    def test_no_rows_writes_the_header_alone(self, tmp_path, schema):
        write_csv(tmp_path / "new.csv", schema, [])
        write_csv_reference(tmp_path / "ref.csv", schema, [])
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_header_not_touched_by_special_value_mapping(self, tmp_path,
                                                         monkeypatch):
        columns = ("nan", "inf", "infidelity", "nanos")
        monkeypatch.setitem(SCHEMAS, "specials", (1, columns))
        write_csv(tmp_path / "s.csv", "specials",
                  [(math.nan, math.inf, -math.inf, 1.5)])
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines == ["nan,inf,infidelity,nanos",
                         "NaN,Infinity,-Infinity,1.5"]

    @pytest.mark.parametrize("schema", ["wigner", "phase_diagram"])
    def test_axes_match_the_row_form(self, tmp_path, schema):
        # axis values carry the edge cases too, so the NaN/Infinity mapping
        # is checked on the formatted-once axis strings
        inner = [0.01, -math.inf, 5e-324, 0.0, -0.0]
        cells = [row[2:] for row in edge_rows(len(SCHEMAS[schema][1]),
                                              seed=7)]
        edges = [-0.0, 0.75, math.nan, 0.1 + 0.2, math.inf, -6.0]
        outer = [edges[k % len(edges)] for k in range(len(cells) // 5)]
        cells = cells[:len(outer) * len(inner)]
        write_csv(tmp_path / "axes.csv", schema, cells, axes=(outer, inner))
        write_csv(tmp_path / "array.csv", schema, as_cells(cells),
                  axes=(outer, inner))
        full = [(o, i, *c) for (o, i), c in
                zip(((o, i) for o in outer for i in inner), cells)]
        write_csv(tmp_path / "rows.csv", schema, full)
        write_csv_reference(tmp_path / "ref.csv", schema, full)
        data = (tmp_path / "axes.csv").read_bytes()
        assert data == (tmp_path / "array.csv").read_bytes()
        assert data == (tmp_path / "rows.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        # one data row per entry of rows
        assert data.count(b"\n") == len(cells) + 1

    def test_axes_cell_width_validated(self, tmp_path):
        # with axes a row holds the cells after the two axis columns
        with pytest.raises(ValueError, match="1 cells, expected 4"):
            write_csv(tmp_path / "x.csv", "phase_diagram",
                      [(1.0, 2.0, 3.0, 4.0), (1.0,)], axes=([0.5], [1, 2]))
        with pytest.raises(ValueError, match="3 cells, expected 1"):
            write_csv(tmp_path / "x.csv", "wigner", [(0.0, 0.0, 1.0)],
                      axes=([0.0], [0.0]))

    @pytest.mark.parametrize("axes", [([0.0], []), ([], [0.0]), ([], [])])
    def test_empty_axis_writes_the_header_alone(self, tmp_path, axes):
        write_csv(tmp_path / "x.csv", "wigner", [], axes=axes)
        write_csv(tmp_path / "y.csv", "wigner", np.zeros((0, 1)), axes=axes)
        assert (tmp_path / "x.csv").read_text() == "q,p,W\n"
        assert (tmp_path / "y.csv").read_text() == "q,p,W\n"

    def test_axes_row_count_validated(self, tmp_path):
        with pytest.raises(ValueError, match="2 x 3 grid"):
            write_csv(tmp_path / "x.csv", "wigner", [(1.0,)] * 5,
                      axes=([0.0, 1.0], [0.0, 1.0, 2.0]))

    def test_schema_registry_is_versioned(self):
        for name, (version, columns) in SCHEMAS.items():
            assert isinstance(version, int) and version >= 1
            assert len(columns) == len(set(columns))
            assert all(c == c.strip() and c for c in columns)

    def test_known_headers_pinned(self):
        # downstream plotting scripts key on these exact strings
        assert SCHEMAS["trace"][1] == ("step", "loss", "qfi", "p_err",
                                       "grad_norm", "lr")
        assert SCHEMAS["pareto"][1] == ("lambda", "qfi", "p_err")


class TestRunReport:
    def make(self, **metric_over):
        metrics = {"qfi": 10.0, "p_err": 1e-5}
        metrics.update(metric_over)
        return RunReport(config={"steps": 3}, lattice={"r": 1.092},
                         noise={"eta": 0.9, "gamma": 0.05}, metrics=metrics,
                         trace_file="trace.csv", seed=0)

    def test_as_dict_carries_schema_versions_and_versions(self):
        d = self.make().as_dict()
        assert d["schemas"] == {k: v for k, (v, _) in SCHEMAS.items()}
        assert set(d["versions"]) == {"gridsense", "numpy", "python"}
        assert d["seed"] == 0

    def test_nonfinite_metric_rejected(self):
        with pytest.raises(ValueError):
            self.make(qfi=math.nan).as_dict()
        with pytest.raises(ValueError):
            self.make(p_err=math.inf).as_dict()

    def test_capacity_may_be_nan_where_undefined(self):
        d = self.make(capacity=math.nan).as_dict()
        assert math.isnan(d["metrics"]["capacity"])
        with pytest.raises(ValueError):
            self.make(capacity=math.inf).as_dict()

    def test_as_dict_parses_as_json(self):
        parsed = json.loads(dumps_json(self.make().as_dict()))
        assert parsed["metrics"]["qfi"] == 10.0

    def test_versions_reports_running_interpreter(self):
        import sys

        v = versions()
        assert v["python"] == "%d.%d.%d" % sys.version_info[:3]
