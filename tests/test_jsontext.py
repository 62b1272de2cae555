"""The JSON writer against ``json.dumps`` of the reference conversion."""

import json
import re
import types
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from cvqss.jsontext import float_texts, json_text
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


@st.composite
def _structure_maps(draw):
    """A key-rate per-structure map: scalars, or gains over access rows (label = estimators)
    or over collusions' complements (label = the collusion).

    The last two player sets give player names or labels whose texts coincide. Values
    come from a small pool, so that they tie as a report's do.
    """
    players = draw(st.sampled_from([("B1", "B2", "B3"), ("B1", 1, "1"), ("a", "a+b", "b+c", "c")]))
    width = draw(st.integers(1, len(players)))
    rows = list(combinations(players, width))
    if draw(st.booleans()):
        labels = rows
    else:
        labels = [tuple(p for p in players if p not in row) for row in rows]
    value = st.sampled_from(draw(st.lists(_FLOAT, min_size=1, max_size=3)))
    if draw(st.booleans()):
        return _StructureMap(labels, np.array(draw(st.lists(value, min_size=len(rows),
                                                             max_size=len(rows)))))
    gains = np.array(draw(st.lists(value, min_size=len(rows) * width,
                                   max_size=len(rows) * width))).reshape(len(rows), width)
    return _StructureMap(labels, gains, draw(st.sampled_from("xp")), rows)


class TestGainMapWriter:
    """A per-structure map, of gains or of scalars, is written from its arrays as the
    reference writes its items."""

    @seed(20261019)
    @settings(max_examples=12, deadline=None)
    @given(gain_map=_structure_maps(), read=st.booleans(), nested=st.booleans())
    @example(gain_map=_StructureMap([()], np.array([[float("nan"), -0.0]]), "p",
                                    [("B1", "B2")]), read=False, nested=False)
    @example(gain_map=_StructureMap([("B1",), ("B2",)], np.array([[float("inf")], [float("-inf")]]),
                                    "x", [("B1",), ("B2",)]), read=True, nested=True)
    @example(gain_map=_StructureMap([("B1",), ("B2",), ("B3",), ("B4",)],
                                    np.array([0.0, -0.0, 0.0, -0.0])), read=False, nested=False)
    @example(gain_map=_StructureMap([("B1", "B2"), ("B1", "B3"), ("B2", "B3")],
                                    np.array([[-0.0, 0.0], [float("nan"), -0.0],
                                              [float("inf"), float("nan")]]),
                                    "p", [("B1", "B2"), ("B1", "B3"), ("B2", "B3")]),
             read=False, nested=True)
    @example(gain_map=_StructureMap([], np.zeros((0, 2)), "x", []), read=False, nested=True)
    @example(gain_map=_StructureMap([], np.zeros(0)), read=False, nested=False)
    @example(gain_map=_StructureMap([("B1", "B2"), ("B1+B2",), ()], np.array([1.0, 2.0, 3.0])),
             read=False, nested=True)  # "B1+B2" twice: the last value, at the first place
    @example(gain_map=_StructureMap([("B1", "B2"), ("B1+B2",)], np.array([[1.0], [2.0]]), "x",
                                    [("B1",), ("B2",)]), read=False, nested=False)
    def test_bytes_equal_json_dumps_of_its_items(self, gain_map, read, nested):
        if read:
            dict(gain_map.items())
        value = [gain_map] if nested else gain_map
        assert json_text(value) == json.dumps(jsonable(value), indent=2)

    @seed(20261020)
    @settings(max_examples=12, deadline=None)
    @given(maps=st.lists(_structure_maps(), min_size=2, max_size=3))
    @example(maps=[_StructureMap([("B1",)], np.array([1.0])),
                   _StructureMap([("B2",)], np.array([2.0]))])
    def test_label_lists_never_share_key_texts(self, maps):
        # The last map shares the first one's label list, as a report side's maps do.
        maps.append(_StructureMap(maps[0].labels, np.arange(len(maps[0].labels), dtype=float)))
        value = {"maps": maps, "again": maps[::-1]}
        assert json_text(value) == json.dumps(jsonable(value), indent=2)
