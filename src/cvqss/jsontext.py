"""Reports as indented JSON text, written in one pass.

``json_text`` gives the bytes ``json.dumps(..., indent=2)`` gives for a
report once its dataclasses, numpy values and tuple keys are converted to
plain JSON values, without building that converted copy and without the
pure-Python encoder that ``indent`` selects. Every JSON output of the
command line goes through it.

The per-structure parts of a key-rate report are written from arrays, one
``str.format`` per structure, with the same bytes. Each distinct double of a
per-structure array is spelled once (:func:`float_texts`): a report's values
are massively tied, bit for bit. Its per-structure maps
(:class:`~cvqss.keyrate._StructureMap`) are read-only ``Mapping`` views that
build their dict only when first read; they are written from their label
lists and value arrays with no dict and no
:class:`~cvqss.estimation.JointVariable` built, and the key texts of a label
list are computed once and shared by the maps of one side. A list of
equal-length tuples of exact ints (a scheme's structures) is written in one
flattened ``int.__repr__`` pass.
"""

from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .keyrate import _StructureMap

#: The ``float.__repr__`` texts that JSON spells as ``json`` does.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FLOATS = {float, np.float64}


def _json_float(value: float) -> str:
    spelled = float.__repr__(value)
    return _NON_FINITE.get(spelled, spelled)


def float_texts(array: np.ndarray, spell=_json_float) -> list:
    """``spell`` of each value of the float64 ``array``, in row-major order; by default
    a value's JSON text.

    ``spell`` is called once per distinct bit pattern, so ``0.0`` and ``-0.0`` stay
    apart, as do NaNs with different payloads.
    """
    bits = np.ascontiguousarray(array, dtype=np.float64).view(np.int64).ravel()
    patterns, where = np.unique(bits, return_inverse=True)
    spelled = np.array(list(map(spell, patterns.view(np.float64).tolist())), dtype=object)
    return spelled[where].tolist()


def json_text(value, pad: str = "\n") -> str:
    """``value`` as two-space indented JSON, the bytes of ``json.dumps(..., indent=2)``.

    Before encoding, a dataclass becomes an object of its fields, numpy
    scalars and arrays become Python numbers and lists, tuples become arrays,
    any mapping becomes a dict, and a key becomes ``str(key)``, or for a tuple
    its items joined by "+" ("(none)" if empty); keys that then coincide keep
    the last value.
    ``pad`` is a newline and the indentation of the line ``value`` starts on.
    An unsupported type raises the ``TypeError`` that ``json.dumps`` raises.
    A per-structure map is written as the dict of its items without building
    it, unless two of its labels, or of a gain map's player names, have the
    same text.
    """
    encoders = {}  # type -> the encoder of its values
    label_lists = {}  # id -> (label list, its key texts or None): a side's maps share one

    def text(value, pad):
        encode = encoders.get(type(value))
        if encode is None:
            encode = encoders[type(value)] = encoder(type(value))
        return encode(value, pad)

    def texts(values, pad):
        kinds = set(map(type, values))
        if kinds <= _FLOATS:
            return list(map(_json_float, values))
        if kinds == {int}:
            return list(map(int.__repr__, values))
        if kinds == {tuple}:
            widths = set(map(len, values))
            flat = list(chain.from_iterable(values))
            if len(widths) == 1 and set(map(type, flat)) <= {int}:  # a scheme's structures
                width = widths.pop()
                if not width:
                    return ["[]"] * len(values)
                inner = pad + "  "
                row = "[" + inner + ("," + inner).join(["{}"] * width) + pad + "]"
                digits = list(map(int.__repr__, flat))
                return list(map(row.format, *(digits[j::width] for j in range(width))))
        return [text(item, pad) for item in values]

    def key_text(key):
        if isinstance(key, tuple):
            key = "+".join(map(str, key)) or "(none)"
        return encode_basestring_ascii(str(key))

    def label_keys(labels):
        """``labels``' key texts, or None if two coincide: computed once per list."""
        seen = label_lists.get(id(labels))
        if seen is None or seen[0] is not labels:
            keys = list(map(key_text, labels))
            seen = label_lists[id(labels)] = (
                labels, keys if len(set(keys)) == len(keys) else None)
        return seen[1]

    def pairs(keys, values, pad):
        return members(keys, texts(values, pad + "  "), pad)

    def members(keys, value_texts, pad):
        if not value_texts:
            return "{}"
        inner = pad + "  "
        return ("{" + inner + ("," + inner).join(map("{}: {}".format, keys, value_texts))
                + pad + "}")

    def mapping(value, pad):
        if set(map(type, value)) == {str}:  # distinct already, and each its own str()
            return pairs(map(encode_basestring_ascii, value), list(value.values()), pad)
        merged = dict(zip(map(key_text, value), value.values()))
        return pairs(merged, list(merged.values()), pad)

    def structure_map(value, pad):
        keys = label_keys(value.labels)
        if keys is None:
            return mapping(value, pad)  # texts that coincide merge as in any map
        if value.quadrature is None:
            return members(keys, float_texts(value.array), pad)
        quadrature, players, gains = value.quadrature, value.players, value.array
        names = {player: key_text(player) for player in set(chain.from_iterable(players))}
        if not keys or len(set(names.values())) < len(names):
            return mapping(value, pad)
        inner = pad + "  "
        field, cell = inner + "  ", inner + "    "
        width = gains.shape[-1]
        # A JointVariable's fields, with one player-name slot and one gain slot per
        # estimator; the quadrature, "x" or "p", holds no brace to escape.
        template = ("{}: {{" + field + '"quadrature": ' + text(quadrature, field) + "," + field
                    + '"gains": {{' + cell + ("," + cell).join(["{}: {}"] * width) + field
                    + "}}" + inner + "}}")
        gain_texts = float_texts(gains)
        cells = [list(map(names.__getitem__, column)) for column in zip(*players)]
        cells = chain.from_iterable(zip(cells, (gain_texts[j::width] for j in range(width))))
        return ("{" + inner + ("," + inner).join(map(template.format, keys, *cells))
                + pad + "}")

    def array(value, pad):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(texts(value, inner)) + pad + "]"

    def encoder(kind):
        # In the order the conversion, then json.dumps, test a value's type.
        if is_dataclass(kind):
            names = [f.name for f in fields(kind)]
            keys = list(map(encode_basestring_ascii, names))
            return lambda value, pad: pairs(keys, [getattr(value, name) for name in names], pad)
        if issubclass(kind, _StructureMap):
            return structure_map
        if issubclass(kind, Mapping):
            return mapping
        if issubclass(kind, (list, tuple)):
            return array
        if issubclass(kind, np.ndarray):
            return lambda value, pad: text(value.tolist(), pad)
        if issubclass(kind, (np.floating, np.integer, np.bool_)):
            return lambda value, pad: text(value.item(), pad)
        if issubclass(kind, str):
            return lambda value, pad: encode_basestring_ascii(value)
        if kind is type(None):
            return lambda value, pad: "null"
        if kind is bool:
            return lambda value, pad: "true" if value else "false"
        if issubclass(kind, int):
            return lambda value, pad: int.__repr__(value)
        if issubclass(kind, float):
            return lambda value, pad: _json_float(value)

        def unsupported(value, pad):
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        return unsupported

    return text(value, pad)
