"""The JSON writer against the standard library's encoder.

``cli._write_json`` must write exactly ``json.dumps(payload, indent=2,
sort_keys=True, allow_nan=False)`` and a newline, for any payload, and
every JSON file a command writes must be that re-encoding of itself.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmjoint.cli import _BLOCK, ConfigError, Table, _write_json, main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "small.json"


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308]))
texts = st.text(st.one_of(st.sampled_from('"\\{}\x00\x1f\n\té€😀'),
                          st.characters()), max_size=6)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, texts)
nested = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=12)
# what a table column holds: one kind of value per key
column_kinds = [floats, st.integers(), st.booleans(), st.none(), texts,
                st.lists(floats, max_size=3),
                st.tuples(st.integers(), st.integers()), nested]


def tables(min_rows=2, max_rows=50):
    """Lists of same-key dicts, each key holding one kind of value."""
    columns = st.lists(st.tuples(texts, st.integers(0, len(column_kinds) - 1)),
                       min_size=1, max_size=5, unique_by=lambda c: c[0])
    return columns.flatmap(lambda cols: st.lists(
        st.fixed_dictionaries({key: column_kinds[kind] for key, kind in cols}),
        min_size=min_rows, max_size=max_rows))


def table_columns():
    """Columns of one length, each key holding one kind of value, as
    ``Table`` takes them: up to 10 drawn rows, repeated up to 16 times so
    that a table can be longer than a block."""
    columns = st.lists(st.tuples(texts, st.integers(0, len(column_kinds) - 1)),
                       max_size=5, unique_by=lambda c: c[0])
    return st.tuples(columns, st.integers(0, 10), st.integers(1, 16)).flatmap(
        lambda t: st.fixed_dictionaries({
            key: st.lists(column_kinds[kind], min_size=t[1],
                          max_size=t[1]).map(lambda v, times=t[2]: v * times)
            for key, kind in t[0]}))


def rows(columns: dict) -> list:
    """The rows of a table's columns, as dicts."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


float_lists = st.lists(floats, min_size=1, max_size=600)
payloads = st.dictionaries(texts, st.one_of(nested, tables(), float_lists),
                           max_size=4)


class TestWriterMatchesJson:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(payload=payloads)
    def test_same_bytes_as_json_dumps(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            _write_json(path, payload)
            assert path.read_text() == reference(payload)

    def test_tables_and_lists_longer_than_a_block(self, tmp_path):
        rows = [{"x": i / 7, "index": (i, i + 1), "name": f"u{{{i}}}",
                 "tag": None if i % 3 else [i, "a"]} for i in range(600)]
        payload = {"rows": rows, "values": [x / 3 for x in range(1000)],
                   "grid": [[1.5] * 300, [2.5] * 300]}
        path = tmp_path / "report.json"
        _write_json(path, payload)
        assert path.read_text() == reference(payload)

    def test_scalar_keys_written_as_json_writes_them(self, tmp_path):
        for payload in ({2: "a", 10: [1.5, -0.0]}, {True: 1, False: 2},
                        {None: 2}, {1.5: {}, -2.0: []}):
            path = tmp_path / "report.json"
            _write_json(path, payload)
            assert path.read_text() == reference(payload)


def bad_payloads(bad):
    """A float list and a table column with ``bad`` at some entry."""
    values = st.tuples(float_lists, st.integers(0, 599)).map(
        lambda t: t[0][:t[1]] + [bad] + t[0][t[1]:])
    table = st.tuples(tables(), st.integers(0, 49)).map(
        lambda t: [dict(row, **({"bad": bad} if i == t[1] % len(t[0])
                                else {"bad": 1.0}))
                   for i, row in enumerate(t[0])])
    return st.one_of(values.map(lambda v: {"values": v}),
                     table.map(lambda rows: {"rows": rows}))


class TestTables:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(columns=table_columns(), level=st.integers(0, 2))
    def test_same_bytes_as_json_dumps_of_the_rows(self, columns, level):
        payload, expected = Table(columns), rows(columns)
        for _ in range(level):  # the table nested in a dict and a list
            payload, expected = {"t": [payload]}, {"t": [expected]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            _write_json(path, {"table": payload, "n": 1})
            assert path.read_text() == reference({"table": expected, "n": 1})

    @pytest.mark.parametrize("columns", [
        {},
        {"a": [], "b": []},
        {"x": [1.5], "index": [(0,)], "name": ["u"]},
        {"x": [i / 7 for i in range(2 * _BLOCK + 5)],
         "index": [(i,) for i in range(2 * _BLOCK + 5)],
         "pair": [(i // 3, i % 3) for i in range(2 * _BLOCK + 5)],
         "name": [f"u{{{i}}}" for i in range(2 * _BLOCK + 5)]},
        {"index": [(0, 0), (0, 1), (1, 0)], "one": [(0,), (1,), (2,)]},
    ], ids=["no-column", "no-row", "one-row", "past-a-block", "tuples"])
    def test_fixed_tables(self, tmp_path, columns):
        path = tmp_path / "report.json"
        _write_json(path, {"rows": Table(columns)})
        assert path.read_text() == reference({"rows": rows(columns)})

    @pytest.mark.parametrize("at", [0, _BLOCK + 3])
    def test_nan_in_a_column_raises_and_keeps_the_earlier_file(self, tmp_path,
                                                               at):
        path = tmp_path / "report.json"
        _write_json(path, {"ok": True})
        good = path.read_bytes()
        x = [1.0] * (2 * _BLOCK)
        x[at] = math.nan
        with pytest.raises(ConfigError) as info:
            _write_json(path, {"rows": Table({"x": x, "n": list(range(
                len(x)))})})
        assert info.value.field == "scenario"
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError):
            Table({"a": [1.0, 2.0], "b": [1.0]})


class TestWriterFailures:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(payload=st.sampled_from([math.nan, math.inf, -math.inf])
           .flatmap(bad_payloads))
    def test_non_finite_raises_and_keeps_the_earlier_file(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            _write_json(path, {"ok": True})
            good = path.read_bytes()
            with pytest.raises(ConfigError) as info:
                _write_json(path, payload)
            assert info.value.field == "scenario"
            assert path.read_bytes() == good
            assert [p.name for p in Path(tmp).iterdir()] == ["report.json"]

    @pytest.mark.parametrize("payload", [
        {"rows": [{"a": 1.0, "b": object()}, {"a": 2.0, "b": 3}]},
        {"rows": [{"a": 1.0, "b": 2}] * 300 + [{"a": 1.0, "b": {1, 2}}]},
        {"values": [(1, 2)] * 10 + [(1, object())]},
        {(1, 2): 3},
    ], ids=["table-column", "later-block", "tuple-column", "tuple-key"])
    def test_object_that_is_not_json_raises_type_error(self, tmp_path,
                                                       payload):
        path = tmp_path / "report.json"
        _write_json(path, {"ok": True})
        good = path.read_bytes()
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _write_json(path, payload)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestOutputsAreStdlibJson:
    def test_every_command_writes_its_stdlib_re_encoding(self, tmp_path):
        out = tmp_path / "out"
        for command in ("pareto", "mmf", "wsse", "validate", "oracle-check"):
            assert main([command, "--config", str(CONFIG),
                         "--out", str(out)]) == 0
        written = sorted(out.glob("*.json"))
        assert [p.name for p in written] == [
            "convexity_report.json", "mmf_solution.json",
            "montecarlo_report.json", "oracle_report.json",
            "wsse_solution.json"]
        for path in written:
            text = path.read_text()
            assert text == reference(json.loads(text)), path.name
