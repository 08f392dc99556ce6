"""JSON file formats for schemes, kernel families, hypergroups, and groups.

Rationals are serialized as "p/q" strings to preserve exactness; floats are
written by repr, the shortest text that reads back as the same double.
"""

from __future__ import annotations

import contextlib
import json
import numbers
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .hypergroup import FiniteHypergroup, _int_dtype, _ratios
from .scheme import GeneralizedScheme, RelationPartition


def encode_number(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else str(v.numerator)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(obj) -> str:
    """json.dumps(obj, indent=1, default=encode_number), byte for byte.
    json indents in Python, item by item; here a list of plain rows, or one
    plain row, is written in a few C-level calls (_rows)."""
    return _encode(obj, "\n")


def _encode(obj, newline: str) -> str:
    """obj as dumps writes it, nested after newline (a newline and the
    indent of the line obj starts on)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_NAMES.get(text, text)
    inner = newline + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        block = isinstance(obj[0], (list, tuple))
        text = _rows(obj, inner) if block else _rows((obj,), newline)
        if text is not None:
            return f"[{inner}{text}{newline}]" if block else text
        items = ("," + inner).join([_encode(v, inner) for v in obj])
        return f"[{inner}{items}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ("," + inner).join([_key(k) + ": " + _encode(v, inner)
                                    for k, v in obj.items()])
        return f"{{{inner}{items}{newline}}}"
    return _encode(encode_number(obj), newline)


def _rows(rows, newline: str):
    """The rows as dumps writes them, each after newline, separated by
    commas; None unless every row is a non-empty list or tuple and the
    cells are all str that json writes unescaped, or all int and float
    (not bool).  A str needs no escape exactly when it is printable ASCII
    with no quote or backslash (json.encoder.ESCAPE_ASCII)."""
    if not set(map(type, rows)) <= {list, tuple} or not all(rows):
        return None
    try:                        # "".join refuses a cell that is not a str
        plain = "".join(map("".join, rows))
    except TypeError:
        if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
            return None
        q, rows = "", map(map, repeat(repr), rows)
    else:
        if not (plain.isascii() and plain.isprintable()) or '"' in plain \
                or "\\" in plain:
            return None
        q = '"'
    inner = newline + " "
    text = f"{q}{newline}],{newline}[{inner}{q}".join(map(f"{q},{inner}{q}".join, rows))
    text = f"[{inner}{q}{text}{q}{newline}]"
    if not q and "n" in text:   # of number texts, only nan and inf hold an n
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _key(k) -> str:
    """A dict key as json writes it: quoted, numbers, bools and None as
    their JSON text."""
    if not (isinstance(k, (str, int, float)) or k is None):   # bool is an int
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {k.__class__.__name__}")
    return encode_basestring_ascii(k if isinstance(k, str) else _encode(k, ""))


def decode_number(v):
    """An int or "p/q" string as a Fraction, a float as a float; anything
    else, or a zero denominator, raises ValueError."""
    if isinstance(v, str):
        p, q = v.split("/") if "/" in v else (v, 1)
        if int(q) == 0:
            raise ValueError(f"zero denominator in {v!r}")
        return Fraction(int(p), int(q))
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, numbers.Real):
        return float(v)
    raise ValueError(f"not a number: {v!r}")


def _ints(value, what: str) -> np.ndarray:
    """A JSON integer, or nested lists of them, as int64; ValueError where
    numpy would truncate or overflow: for a float, string, null or bool
    entry (a bool beside integers reads as 0 or 1) and for an integer
    outside int64."""
    a = np.asarray(value)
    if a.dtype.kind == "i":
        return a.astype(np.int64, copy=False)
    flat = np.array(value, dtype=object).ravel().tolist()
    bad = next((v for v in flat if type(v) is not int or not -2 ** 63 <= v < 2 ** 63),
               value)
    raise ValueError(f"{what} must hold JSON integers in int64, not {bad!r}")


def _floats(value, what: str) -> np.ndarray:
    """JSON numbers, or nested lists of them, as float64, NaN and Infinity
    included; ValueError for a string, null, object or ragged entry, where
    numpy would parse the string or raise TypeError, and for an integer
    past the doubles.  As in _ints, a bool among numbers reads as 0 or 1."""
    try:
        a = np.asarray(value)
    except ValueError:          # ragged nesting
        raise ValueError(f"{what} must be a rectangular array of JSON numbers") from None
    if a.dtype.kind in "iuf":
        return a.astype(float)
    flat = np.array(value, dtype=object).ravel().tolist()
    bad = [v for v in flat if type(v) not in (int, float)]
    if bad:
        raise ValueError(f"{what} must hold JSON numbers, not {bad[0]!r}")
    try:                        # integers past int64, kept as objects
        return np.array(flat, dtype=float).reshape(a.shape)
    except OverflowError:
        raise ValueError(f"{what} holds an integer past the doubles") from None


def _int(value, what: str) -> int:
    """A single JSON integer field; ValueError as for _ints."""
    a = _ints(value, what)
    if a.ndim:
        raise ValueError(f"{what} must be one integer")
    return int(a)


def scheme_to_dict(obj) -> dict:
    """Serialize a RelationPartition or GeneralizedScheme."""
    part = obj.partition if hasattr(obj, "partition") else obj
    data = {"n_points": part.n_points, "relations": part.label.tolist()}
    if isinstance(obj, GeneralizedScheme):
        data.update(kernels=obj.kernels.tolist(), omega_x=obj.omega_x.tolist())
    return data


def scheme_from_dict(data: dict):
    """Returns a RelationPartition, or a GeneralizedScheme when kernels are
    present."""
    label = _ints(data["relations"], "relations")
    n = _int(data["n_points"], "n_points")
    partition = RelationPartition(n_points=n,
                                  n_relations=int(label.max()) + 1,
                                  label=label)
    if "kernels" in data:
        omega_x = _floats(data["omega_x"], "omega_x") if "omega_x" in data else np.ones(n)
        return GeneralizedScheme(partition=partition,
                                 kernels=_floats(data["kernels"], "kernels"),
                                 omega_x=omega_x)
    return partition


def hypergroup_to_dict(h: FiniteHypergroup) -> dict:
    """The file form of h; "scheme_derived": true is written only when h
    carries that flag, so a file without it reads back as not derived."""
    if h.is_exact:      # each distinct numerator is encoded once
        # a sort, not np.unique: its argsort for codes is slower, and without
        # codes it imports numpy.ma (about 8 ms of a cold CLI run)
        vals = np.sort(h.num, axis=None)
        vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
        text = [encode_number(Fraction(v, h.den)) for v in vals.tolist()]
        conv = np.array(text, dtype=object)[np.searchsorted(vals, h.num)].tolist()
    else:
        conv = h.num.tolist()
    data = {
        "n": h.n,
        "identity": h.identity,
        "involution": h.involution.tolist(),
        "conv": conv,
    }
    if h.scheme_derived:
        data["scheme_derived"] = True
    return data


def hypergroup_from_dict(data: dict) -> FiniteHypergroup:
    """Each distinct cell is decoded once; rational cells go straight into
    integer numerators over their least common denominator, int64 where
    they fit, and any float cell makes the tensor float.  A tensor that is
    not n x n x n, or an identity or involution outside 0..n-1, raises
    ValueError, and so does a cell that is a JSON list, object or boolean,
    and a scheme_derived that is not a JSON boolean."""
    n = _int(data["n"], "n")
    scheme_derived = data.get("scheme_derived", False)
    if type(scheme_derived) is not bool:
        raise ValueError(f"scheme_derived must be true or false, not {scheme_derived!r}")
    cells, distinct = _cells(data["conv"], n)
    identity = _int(data["identity"], "identity")
    involution = _ints(data["involution"], "involution")
    if not 0 <= identity < n:
        raise ValueError(f"identity {identity} is outside 0..{n - 1}")
    if involution.shape != (n,) or not ((0 <= involution) & (involution < n)).all():
        raise ValueError(f"involution must be {n} indices in 0..{n - 1}")
    if distinct is None:
        raise ValueError("conv must hold numbers or \"p/q\" strings, not JSON "
                         "lists or objects")
    # a set keeps one of 1, 1.0 and True, so number cells are typed one by one
    types = set(map(type, distinct))
    if types != {str}:
        types = set(map(type, cells))
    if bool in types:
        raise ValueError("conv must hold numbers or \"p/q\" strings, not JSON booleans")
    values = [decode_number(v) for v in distinct]
    ratios = None if float in types else _ratios(values)
    if ratios is None:
        table, den = np.array([float(v) for v in values]), 1
    else:
        nums, den = ratios
        table = np.array(nums, dtype=_int_dtype(max(map(abs, nums))))
    code = dict(zip(distinct, range(len(distinct))))
    num = table[np.fromiter(map(code.__getitem__, cells), np.intp, len(cells))]
    # lowest terms already: a prime's highest power in den is some value's
    # whole denominator, and that value's numerator is prime to it
    return FiniteHypergroup._adopt(num.reshape(n, n, n), den, identity, involution,
                                   scheme_derived)


def _cells(conv, n: int) -> tuple:
    """(the cells of conv in row-major order, the distinct cells, or None
    when a cell is unhashable); ValueError unless numpy, which nests lists
    and tuples, reads conv as n x n x n.  n lists of n lists of n numbers
    or strings need no numpy."""
    cells = [conv]
    for _ in range(3):
        if set(map(type, cells)) != {list} or set(map(len, cells)) != {n}:
            break
        cells = list(chain.from_iterable(cells))
    else:
        with contextlib.suppress(TypeError):        # an unhashable cell
            distinct = list(set(cells))
            if set(map(type, distinct)) <= {str, int, float}:
                return cells, distinct
    cells = np.array(conv, dtype=object)
    if cells.shape != (n, n, n):
        raise ValueError(f"conv must be {n} x {n} x {n}, got shape {cells.shape}")
    cells = cells.ravel().tolist()
    with contextlib.suppress(TypeError):
        return cells, list(set(cells))
    return cells, None


def group_from_dict(data: dict) -> np.ndarray:
    """Group file: {"n": int, "table": [[int,...],...]} multiplication table;
    a table that is not n x n raises ValueError."""
    n, table = _int(data["n"], "n"), _ints(data["table"], "table")
    if table.shape != (n, n):
        raise ValueError(f"group table must be {n} x {n}, got shape {table.shape}")
    return table


def load(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def save(path: str, data: dict):
    with open(path, "w") as fh:
        fh.write(dumps(data) + "\n")
