"""Reports as indented JSON text, written in one pass.

``json_text`` gives the bytes ``json.dumps(..., indent=2)`` gives for a
report once its dataclasses, numpy values and tuple keys are converted to
plain JSON values, without building that converted copy and without the
pure-Python encoder that ``indent`` selects. Every JSON output of the
command line goes through it.

The per-structure parts of a key-rate report are written as columns, with
the same bytes: one list of texts per field (or one text for every row),
interleaved into one list by slice assignment and joined once
(:func:`_rows`). A row costs a few list slots: each writer folds its constant
separators into the distinct texts beside them before they are gathered, and
each distinct double of a per-structure array is spelled once, separator
included (:func:`float_texts`): values tie bit for bit, and a folded side's
broadcast row takes no sort. Structures are written from their rows of player
positions, two a column (:func:`_position_columns`), with no tuple built: a
:class:`~cvqss.keyrate.ThresholdScheme` as its (k, n) and the lists of its
1-based structures, and a per-structure map
(:class:`~cvqss.keyrate._StructureMap`, a read-only ``Mapping`` view over
player names and rows) with no label tuple, dict or
:class:`~cvqss.estimation.JointVariable` built: a key is the name texts at a
row's positions joined by "+", written once per row array and call, as a
side's maps share their rows.
"""

from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .keyrate import ThresholdScheme, _StructureMap

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
    apart, as do NaNs with different payloads; one row broadcast along the first axis
    (stride 0), as a folded side's spread, is spelled from that row with no sort.
    """
    array = np.asarray(array, dtype=np.float64)
    if array.ndim and not array.strides[0]:
        row = array[:1].ravel()
        bits = row.view(np.int64).tolist()
        texts = {pattern: spell(value) for pattern, value in dict(zip(bits, row.tolist())).items()}
        return list(map(texts.__getitem__, bits)) * len(array)
    patterns, where = np.unique(array.view(np.int64).ravel(), return_inverse=True)
    spelled = np.array(list(map(spell, patterns.view(np.float64).tolist())), dtype=object)
    return spelled[where].tolist()


def _rows(head: str, columns: list, tail: str) -> str:
    """``head``, then row by row the text of each of ``columns`` in order, with ``tail``
    in place of the last row's last text, as one ``str.join``.

    A column is one text for every row, or one text per row: a list, or any
    iterable of as many texts, with at least one column a list.
    """
    count = len(next(column for column in columns if isinstance(column, list)))
    width = len(columns)
    pieces = [head] * (1 + width * count)
    for offset, column in enumerate(columns, 1):
        pieces[offset::width] = [column] * count if isinstance(column, str) else column
    pieces[-1] = tail
    return "".join(pieces)


def _position_columns(texts, rows: np.ndarray, between: str, end: str = "") -> list:
    """:func:`_rows` columns of the 0-based position ``rows``, two positions a column.

    Row s reads as the ``texts`` at ``rows[s]``, each followed by ``between`` but the
    last, which is followed by ``end``. Column j holds positions 2j and 2j + 1 of every
    row, separators included, gathered by index from a table of the n x n pair texts
    (n = len(texts), at most 576 pairs for a scheme); the last column, a pair or one
    position, comes from a table that ends in ``end`` instead of ``between``. A row of
    width w takes ceil(w / 2) columns, and width 0 none.
    """
    width, n = rows.shape[1], len(texts)
    if not width:
        return []
    pairs = ([first + between + second for first in texts for second in texts]
             if width > 1 else [])
    lasts = [text + end for text in texts] if width % 2 else [pair + end for pair in pairs]
    table = np.array([pair + between for pair in pairs] + lasts, dtype=object)
    codes = np.empty((len(rows), (width + 1) // 2), dtype=np.intp)
    codes[:, :width // 2] = rows[:, 0:width - 1:2] * n + rows[:, 1::2]
    if width % 2:
        codes[:, -1] = len(pairs) + rows[:, -1]
    else:
        codes[:, -1] += len(pairs)
    return table[codes.T].tolist()


def json_text(value, pad: str = "\n") -> str:
    """``value`` as two-space indented JSON, the bytes of ``json.dumps(..., indent=2)``.

    Before encoding, a :class:`~cvqss.keyrate.ThresholdScheme` becomes an
    object of its k, n and both structure lists, any other dataclass an
    object of its fields, numpy scalars and arrays become Python numbers and
    lists, tuples become arrays, any mapping becomes a dict, and a key becomes
    ``str(key)``, or for a tuple its items joined by "+" ("(none)" if empty);
    keys that then coincide keep the last value.
    ``pad`` is a newline and the indentation of the line ``value`` starts on.
    An unsupported type raises the ``TypeError`` that ``json.dumps`` raises.
    A per-structure map is written as the dict of its items without building
    it, unless its player names could give two of its keys, or of a gain's, one text.
    """
    encoders = {}  # type -> the encoder of its values

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
        return [text(item, pad) for item in values]

    def key_text(key):
        if isinstance(key, tuple):
            key = "+".join(map(str, key)) or "(none)"
        return encode_basestring_ascii(str(key))

    row_keys = {}  # (id(names), id(rows)) -> (names, rows, the rows' key texts)

    def keys_of(names, rows):
        # Row s's key: its names' texts joined by "+", then the '": ' that follows it. The
        # maps of one side share their names and rows, so each row array's keys are written
        # once per call; the cache holds the arrays, so no id is reused while it lives.
        cached = row_keys.get((id(names), id(rows)))
        if cached is None:
            columns = _position_columns(
                [encode_basestring_ascii(str(name))[1:-1] for name in names], rows, "+",
                '": \n')
            # Escaped texts hold no newline, so the rows joined by one split back apart.
            keys = (_rows("", columns, columns[-1][-1][:-1]).split("\n") if columns
                    else ['(none)": '] * len(rows))
            cached = row_keys[id(names), id(rows)] = names, rows, keys
        return cached[2]

    def pairs(keys, values, pad):
        return members(keys, texts(values, pad + "  "), pad)

    def members(keys, value_texts, pad):
        if not value_texts:
            return "{}"
        inner = pad + "  "
        return _rows("{" + inner, [keys, ": ", value_texts, "," + inner], pad + "}")

    def mapping(value, pad):
        if set(map(type, value)) == {str}:  # distinct already, and each its own str()
            return pairs(map(encode_basestring_ascii, value), list(value.values()), pad)
        merged = dict(zip(map(key_text, value), value.values()))
        return pairs(merged, list(merged.values()), pad)

    def structure_map(value, pad):
        names, rows, values = value.names, value.rows, value.array
        plain = [str(name) for name in names]
        gain_keys = [key_text(name) + ": " for name in names]  # as a gains dict keys them
        # Distinct rows have distinct keys, their names' texts joined by "+", unless two
        # names or texts coincide, or a text is empty ("(none)" alone) or holds "+".
        if (not len(rows) or not len(names) == len(set(names)) == len(set(plain))
                or not all(plain) or "+" in "".join(plain) or value.quadrature is not None
                and (not values.shape[1] or len(set(gain_keys)) < len(gain_keys))):
            return mapping(value, pad)  # merged and written as the reference writes a map
        inner = pad + "  "
        keys = keys_of(names, rows)
        if value.quadrature is None:
            # Row s: its key, then its value and the separator before the next key.
            separator = "," + inner + '"'
            texts = float_texts(values, lambda value: _json_float(value) + separator)
            return _rows("{" + inner + '"', [keys, texts],
                         texts[-1][:-len(separator)] + pad + "}")
        # A JointVariable's fields, with one player name and one gain per estimator: the
        # first name carries the fields before it, each other the cell separator.
        width, field, cell = values.shape[1], inner + "  ", inner + "    "
        opener = ("{" + field + '"quadrature": ' + text(value.quadrature, field) + ","
                  + field + '"gains": {' + cell)
        table = np.array([opener + key for key in gain_keys]
                         + ["," + cell + key for key in gain_keys], dtype=object)
        index = value.estimators.T + len(names)
        index[0] -= len(names)
        gain_texts, columns = float_texts(values), [keys]
        for j, named in enumerate(table[index].tolist()):
            columns += [named, gain_texts[j::width]]
        columns.append(field + "}" + inner + "}," + inner + '"')
        return _rows("{" + inner + '"', columns, field + "}" + inner + "}" + pad + "}")

    def array(value, pad):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(texts(value, inner)) + pad + "]"

    def structures(rows, n, pad):
        # Row s of 0-based positions as the list of its 1-based indices.
        inner, cell = pad + "  ", pad + "    "
        if not rows.shape[1]:
            return "[" + inner + ("," + inner).join(["[]"] * len(rows)) + pad + "]"
        end = inner + "]," + inner + "[" + cell
        columns = _position_columns([int.__repr__(index) for index in range(1, n + 1)], rows,
                                    "," + cell, end)
        return _rows("[" + inner + "[" + cell, columns,
                     columns[-1][-1][:-len(end)] + inner + "]" + pad + "]")

    def scheme(value, pad):
        access, colluding = value._player_rows
        inner = pad + "  "
        return ("{" + inner + '"k": ' + text(value.k, inner) + "," + inner + '"n": '
                + text(value.n, inner) + "," + inner + '"access_structures": '
                + structures(access, value.n, inner) + "," + inner + '"adversarial_structures": '
                + structures(colluding, value.n, inner) + pad + "}")

    def encoder(kind):
        # In the order the conversion, then json.dumps, test a value's type.
        if issubclass(kind, ThresholdScheme):  # its structures are no fields
            return scheme
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
