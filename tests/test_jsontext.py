"""The JSON writer against ``json.dumps`` of the reference conversion."""

import json
import re
import struct
import types
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from cvqss.jsontext import _position_columns, _rows, float_texts, json_text
from cvqss import (
    ChannelSpec,
    ThresholdScheme,
    build_kn_state,
    chain_topology,
    keyrate_qss,
    run_protocol,
    star_topology,
)
from cvqss.keyrate import _StructureMap

from helpers import jsonable


@dataclass
class _Record:
    name: str
    value: object


def _array(values, columns):
    """A 1-D array of ``values``, or 2-D with ``columns`` columns (extra values dropped)."""
    if columns == 1:
        return np.array(values)
    return np.array(values[:len(values) // columns * columns]).reshape(-1, columns)


_FLOAT = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
_INT = st.integers(-5, 5) | st.integers(-10**40, 10**40)
_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€😀+'), max_size=6)
_LEAF = (_FLOAT | _INT | st.booleans() | st.none() | _TEXT
         | _FLOAT.map(np.float64) | st.floats(width=32).map(np.float32)
         | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
         | st.builds(_array, st.lists(_FLOAT, max_size=6), st.integers(1, 3))
         | st.builds(_array, st.lists(st.integers(-2**63, 2**63 - 1), max_size=4), st.just(2)))
_KEY = _TEXT | st.integers(-3, 3) | st.tuples() | st.tuples(st.sampled_from(["B1", "B2", 1, True]))
_VALUE = st.recursive(_LEAF, lambda children: (
    st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_KEY, children, max_size=4) | st.builds(_Record, _TEXT, children)),
    max_leaves=10)


class _Float(float):
    """A float subclass: ``json.dumps`` spells it as the float it is."""


class TestJsonWriter:
    SHARED = ("B1", "B2")

    @seed(20261018)
    @settings(max_examples=30, deadline=None)
    @given(_VALUE)
    @example([{SHARED: 1.0, (1,): 2}, {SHARED: [], (True,): {}}, {(): (), "1": 0, 1: 1}])
    @example({"rows": [_Record("", np.zeros((2, 0))), float("nan"), -0.0, 10**30]})
    @example([[1, True, 0, False], (True,), [2**70, -1]])
    @example([[(1, 2), (3,)], ((),), [(), ()], [(2**64, -2**70), (0, 1)]])  # ragged, empty, big
    @example([[(1, True), (2, 3)], [(np.int64(1), 2), (3, 4)]])  # not all exact ints
    def test_bytes_equal_json_dumps_of_the_reference(self, value):
        assert json_text(value) == json.dumps(jsonable(value), indent=2)

    @pytest.mark.parametrize("value", [
        object(), {1, 2}, 1j, np.complex128(1j), b"bytes", _Record,
        [1.0, {"a": (2, object())}], _Record("x", np.array([None, object()], dtype=object)),
    ], ids=["object", "set", "complex", "numpy-complex", "bytes", "dataclass-type",
            "nested", "object-array"])
    def test_unsupported_type_raises_the_json_type_error(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(jsonable(value), indent=2)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            json_text(value)

    @pytest.mark.parametrize("value", [
        _Float(1.5), [2.0, _Float(-0.0), _Float(1e300)], {"a": _Float(0.1), "b": 1.0},
        _Float("nan"), [_Float("inf"), _Float("-inf")],
    ], ids=["scalar", "list-item", "map-value", "nan", "infinities"])
    def test_float_subclass_is_spelled_as_a_float(self, value):
        assert json_text(value) == json.dumps(jsonable(value), indent=2)

    def test_any_mapping_is_written_as_a_dict(self):
        value = types.MappingProxyType({("B1", "B2"): 1.0, (): [2], ("B3",): {"a": None}})
        assert json_text(value) == json.dumps(jsonable(value), indent=2)
        assert json_text(value) == json_text(dict(value))


class TestFloatTexts:
    """Each value's text, spelled once per distinct bit pattern."""

    @staticmethod
    def counting(calls):
        def spell(value):
            calls.append(value)
            return float.__repr__(value)
        return spell

    def test_spells_each_distinct_bit_pattern_once(self):
        calls = []
        patterns = np.array([0.5, -1e-300, 2.0 / 3.0, float("inf"), 0.0, -0.0])
        array = patterns[np.arange(24_024) * 7 % 6].reshape(-1, 6)
        out = float_texts(array, self.counting(calls))
        assert len(calls) == 6
        assert out == list(map(float.__repr__, array.ravel().tolist()))

    @pytest.mark.parametrize("array", [
        np.array([1.5, -2.0, 1.5, 1e-300, 1.5]),
        np.arange(12.0).reshape(3, 4) % 5 - 2,
        np.zeros(0),
        np.zeros((3, 0)),
        (np.arange(12.0).reshape(3, 4) % 3).T,
    ], ids=["1d", "2d", "empty", "empty-rows", "transposed"])
    def test_texts_are_the_spelled_values_in_row_major_order(self, array):
        calls = []
        out = float_texts(array, self.counting(calls))
        assert out == [float.__repr__(value) for value in array.ravel().tolist()]
        assert len(calls) == len(set(array.ravel().tolist()))

    def test_signed_zeros_stay_apart(self):
        assert float_texts(np.array([0.0, -0.0, -0.0, 0.0])) == ["0.0", "-0.0", "-0.0", "0.0"]

    def test_json_spells_every_nan_payload_and_infinity(self):
        payloads = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                             0x7FF0000000000001], dtype=np.uint64).view(np.float64)
        array = np.concatenate([payloads, [float("inf"), float("-inf"), 1.0]])
        assert float_texts(array) == ["NaN"] * 4 + ["Infinity", "-Infinity", "1.0"]

    # Bit patterns on either path: broadcast rows (stride 0) are spelled with no sort.
    _NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(np.float64)

    @pytest.mark.parametrize("array", [
        np.zeros(0),
        np.full(7, 0.1),
        np.broadcast_to(np.array([2.0 / 3.0]), (3_432,)),
        np.full(5, -0.0),
        np.array([-0.0, 0.0, -0.0]),
        np.array([0.0, -0.0, 0.0]),
        _NANS[[1, 1, 1]],
        _NANS[[0, 1, 0]],
        np.array([float("inf"), float("-inf"), float("inf")]),
        np.broadcast_to(np.array([0.25, -0.5, 0.25]), (35, 3)),
        np.broadcast_to(np.array([-1e-300]), (35, 3)),
    ], ids=["empty", "constant", "stride-0", "negative-zeros", "zeros-negative-first",
            "zeros-positive-first", "one-nan-payload", "two-nan-payloads", "infinities",
            "gains", "constant-gains"])
    def test_texts_are_the_values_bit_patterns(self, array):
        calls = []

        def spell(value):
            calls.append(value)
            return struct.pack(">d", value).hex()

        bits = [format(pattern, "016x") for pattern in
                np.ascontiguousarray(array).view(np.uint64).ravel().tolist()]
        assert float_texts(array, spell) == bits
        assert len(calls) == len(set(bits))

    @pytest.mark.parametrize("row", [
        np.array([-0.0, 0.0, -0.0, 1.5]),
        np.array([0.0, -0.0]),
        _NANS[[0, 1, 1, 0]],
        np.array([float("inf"), float("-inf"), 0.1, float("inf")]),
        np.array([2.0 / 3.0]),
    ], ids=["zeros-negative-first", "zeros-positive-first", "two-nan-payloads", "infinities",
            "one-value"])
    @pytest.mark.parametrize("shape", [(35,), (1,), (4, 3)], ids=["rows", "one-row", "3-d"])
    def test_a_broadcast_row_is_spelled_from_the_row_with_no_sort(self, row, shape,
                                                                  monkeypatch):
        array = np.broadcast_to(row, (*shape, len(row)))
        contiguous = np.ascontiguousarray(array)

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted")

        calls, real_unique = [], np.unique
        monkeypatch.setattr(np, "unique", no_sort)
        texts = float_texts(array, self.counting(calls))
        json_texts = float_texts(array)
        monkeypatch.setattr(np, "unique", real_unique)
        assert texts == float_texts(contiguous, float.__repr__)
        assert json_texts == float_texts(contiguous)
        assert len(calls) == len(set(row.view(np.uint64).tolist()))


def _positions(rows, width):
    """``rows`` of player positions as an int array with ``width`` columns."""
    return np.array(rows, dtype=int).reshape(len(rows), width)


@st.composite
def _structure_maps(draw):
    """A key-rate per-structure map: scalars, or gains over access rows (label = estimators)
    or over collusions' complements (label = the collusion), as player names and rows of
    their positions.

    The second and third player sets give player names or labels whose texts coincide;
    the fourth holds names with format braces, quotes, backslashes, "+" and non-ASCII
    text; the last a tuple-named player, whose key column spells ``str(name)`` and whose
    gain key spells the name's items joined by "+". Values come from a small pool, so
    that they tie as a report's do.
    """
    names = draw(st.sampled_from([("B1", "B2", "B3"), ("B1", 1, "1"), ("a", "a+b", "b+c", "c"),
                                  ("{0}", "}{", '%s"', "\\+é", "😀€"), (("B",), "C", "D")]))
    width = draw(st.integers(1, len(names)))
    estimators = _positions(list(combinations(range(len(names)), width)), width)
    if draw(st.booleans()):
        rows = estimators
    else:
        rows = _positions([[p for p in range(len(names)) if p not in row]
                           for row in estimators.tolist()], len(names) - width)
    value = st.sampled_from(draw(st.lists(_FLOAT, min_size=1, max_size=3)))
    if draw(st.booleans()):
        return _StructureMap(names, rows, np.array(draw(st.lists(value, min_size=len(rows),
                                                                  max_size=len(rows)))))
    gains = np.array(draw(st.lists(value, min_size=len(rows) * width,
                                   max_size=len(rows) * width))).reshape(len(rows), width)
    return _StructureMap(names, rows, gains, draw(st.sampled_from("xp")), estimators)


_PAIRS = _positions([[0, 1], [0, 2], [1, 2]], 2)
_SINGLES = _positions([[0], [1], [2], [3]], 1)
_COLLIDING = ("B1", "B2+B3", "B1+B2", "B3")  # rows [0, 1] and [2, 3] both key "B1+B2+B3"


class TestGainMapWriter:
    """A per-structure map, of gains or of scalars, is written from its arrays as the
    reference writes its items."""

    @seed(20261019)
    @settings(max_examples=12, deadline=None)
    @given(gain_map=_structure_maps(), read=st.booleans(), nested=st.booleans())
    @example(gain_map=_StructureMap(("B1", "B2"), _positions([[]], 0),
                                    np.array([[float("nan"), -0.0]]), "p", _PAIRS[:1]),
             read=False, nested=False)  # the empty collusion, "(none)"
    @example(gain_map=_StructureMap(("B1", "B2"), _SINGLES[:2],
                                    np.array([[float("inf")], [float("-inf")]]), "x",
                                    _SINGLES[:2]), read=True, nested=True)
    @example(gain_map=_StructureMap(("B1", "B2", "B3", "B4"), _SINGLES,
                                    np.array([0.0, -0.0, 0.0, -0.0])), read=False, nested=False)
    @example(gain_map=_StructureMap(("B1", "B2", "B3"), _PAIRS,
                                    np.array([[-0.0, 0.0], [float("nan"), -0.0],
                                              [float("inf"), float("nan")]]), "p", _PAIRS),
             read=False, nested=True)
    @example(gain_map=_StructureMap(("{0}", "}{", '%s"', "\\+é", "😀€"),
                                    _positions([[0, 1], [2, 3], [4, 0]], 2),
                                    np.array([[0.5, -0.0], [1e-300, 0.5], [0.5, float("nan")]]),
                                    "p", _positions([[0, 1], [2, 3], [4, 0]], 2)),
             read=False, nested=True)  # names a str.format template would misread
    @example(gain_map=_StructureMap(("{0}", "}{", '%s"', "\\é", "😀€"),
                                    _positions([[0, 1], [2, 3], [4, 0]], 2),
                                    np.array([[0.5, -0.0], [1e-300, 0.5], [0.5, float("nan")]]),
                                    "x", _positions([[1, 0], [3, 2], [0, 4]], 2)),
             read=False, nested=False)  # the same without "+", written as columns
    @example(gain_map=_StructureMap((("B",), "C", "D"), _PAIRS, np.array([[1.0, 2.0]] * 3), "x",
                                    _PAIRS), read=False, nested=True)  # "('B',)+C", gain "B"
    @example(gain_map=_StructureMap(("B1", "B2"), _positions([], 2), np.zeros((0, 2)), "x",
                                    _positions([], 2)), read=False, nested=True)
    @example(gain_map=_StructureMap(("B1",), _positions([], 1), np.zeros(0)),
             read=False, nested=False)
    @example(gain_map=_StructureMap(_COLLIDING, _positions([[0, 1], [2, 3]], 2),
                                    np.array([1.0, 2.0])),
             read=False, nested=True)  # "B1+B2+B3" twice: the last value, at the first place
    @example(gain_map=_StructureMap(_COLLIDING, _positions([[0, 1], [2, 3]], 2),
                                    np.array([[1.0], [2.0]]), "x", _positions([[0], [2]], 1)),
             read=False, nested=False)
    def test_bytes_equal_json_dumps_of_its_items(self, gain_map, read, nested):
        if read:
            dict(gain_map.items())
        value = [gain_map] if nested else gain_map
        assert json_text(value) == json.dumps(jsonable(value), indent=2)

    @seed(20261020)
    @settings(max_examples=12, deadline=None)
    @given(maps=st.lists(_structure_maps(), min_size=2, max_size=3))
    @example(maps=[_StructureMap(("B1",), _SINGLES[:1], np.array([1.0])),
                   _StructureMap(("B2",), _SINGLES[:1], np.array([2.0]))])
    def test_label_lists_never_share_key_texts(self, maps):
        # The last map shares the first one's names and rows, as a report side's maps do.
        first = maps[0]
        maps.append(_StructureMap(first.names, first.rows, np.arange(len(first), dtype=float)))
        value = {"maps": maps, "again": maps[::-1]}
        assert json_text(value) == json.dumps(jsonable(value), indent=2)


def _one_column_per_position(texts, rows, between, end):
    """The position columns as written before pairing: one column of ``texts`` per
    position, with ``between`` and ``end`` as constant columns."""
    texts, columns = np.array(texts, dtype=object), []
    for j in range(rows.shape[1]):
        columns += [texts[rows[:, j]].tolist(), between]
    return columns[:-1] + [end] if columns else []


class TestPositionColumns:
    """Two positions a column, separators folded in, read as one column a position."""

    # Mixed lengths, a name holding each separator, and an empty name.
    NAMES = ["B1", "Carolina-Longname", "", "a+b", "x,y", "é😀", "B10", '"q"\\']

    @pytest.mark.parametrize("width", range(8))
    def test_rows_equal_the_one_column_per_position_writer(self, width):
        rng = np.random.default_rng(20261019 + width)
        for between, end in (("+", '": \n'), (",", ""), (",\n    ", "\n  ],\n  [")):
            for count in (1, 2, 37):
                rows = rng.integers(0, len(self.NAMES), size=(count, width))
                paired = _position_columns(self.NAMES, rows, between, end)
                assert len(paired) == (width + 1) // 2
                heads = [f"<{s}>" for s in range(count)]  # one list column at any width
                texts = [_rows("{", [heads, *columns, "|"], "}") for columns in (
                    paired, _one_column_per_position(self.NAMES, rows, between, end))]
                assert texts[0] == texts[1]


class TestReportWriter:
    """Whole reports, scheme included, against ``json.dumps`` of the reference conversion,
    which reads the scheme's structure tuples where the writer reads its position rows."""

    @pytest.mark.parametrize("k, n", [(2, 2), (1, 3), (3, 3), (3, 5)])
    @pytest.mark.parametrize("topology", [chain_topology, star_topology],
                             ids=["chain", "star"])
    def test_bytes_equal_json_dumps_of_the_reference(self, k, n, topology):
        specs = {f"B{i}": ChannelSpec(0.9) for i in range(1, n + 1)}
        state, layout = build_kn_state(n, 1.0, specs, topology(n))
        scheme = ThresholdScheme(k, n)
        for report in (keyrate_qss(state, layout, scheme),
                       run_protocol(state, layout, scheme, rounds=20_000, seed=3)):
            assert json_text(report) == json.dumps(jsonable(report), indent=2)
