"""JSON file formats for schemes, kernel families, hypergroups, and groups.

Rationals are serialized as "p/q" strings to preserve exactness; floats are
written with 17 significant digits so they round-trip.
"""

from __future__ import annotations

import json
import numbers
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .hypergroup import FiniteHypergroup, _ratios
from .scheme import GeneralizedScheme, RelationPartition


def encode_number(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else str(v.numerator)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(format(float(v), ".17g"))


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(obj) -> str:
    """json.dumps(obj, indent=1, default=encode_number), byte for byte.
    json indents in Python, item by item; here a list of only str, or only
    int and float, is encoded and joined at C speed."""
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
        types = set(map(type, obj))
        if types == {str}:
            items = map(encode_basestring_ascii, obj)
        elif types <= {int, float}:
            items = list(map(repr, obj))
            if not _FLOAT_NAMES.keys().isdisjoint(items):
                items = [_FLOAT_NAMES.get(t, t) for t in items]
        else:
            items = (_encode(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (_key(k) + ": " + _encode(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return _encode(encode_number(obj), newline)


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
    if isinstance(obj, GeneralizedScheme):
        part = obj.partition
        return {
            "n_points": part.n_points,
            "relations": part.label.tolist(),
            "kernels": [k.tolist() for k in obj.kernels],
            "omega_x": obj.omega_x.tolist(),
        }
    part = obj.partition if hasattr(obj, "partition") else obj
    return {"n_points": part.n_points, "relations": part.label.tolist()}


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
    if h.is_exact:      # each distinct numerator is encoded once
        vals = np.unique(h.num)
        text = [encode_number(Fraction(v, h.den)) for v in vals.tolist()]
        conv = np.array(text, dtype=object)[np.searchsorted(vals, h.num)]
    else:
        conv = np.array([encode_number(v) for v in h.num.ravel().tolist()],
                        dtype=object).reshape(h.num.shape)
    return {
        "n": h.n,
        "identity": h.identity,
        "involution": h.involution.tolist(),
        "conv": conv.tolist(),
    }


def hypergroup_from_dict(data: dict) -> FiniteHypergroup:
    """Each distinct entry is decoded once; rational entries go straight
    into integer numerators over their least common denominator, and any
    float entry makes the tensor float.  A tensor that is not n x n x n, or
    an identity or involution outside 0..n-1, raises ValueError."""
    n = _int(data["n"], "n")
    cells = np.array(data["conv"], dtype=object)
    if cells.shape != (n, n, n):
        raise ValueError(f"conv must be {n} x {n} x {n}, got shape {cells.shape}")
    identity = _int(data["identity"], "identity")
    involution = _ints(data["involution"], "involution")
    if not 0 <= identity < n:
        raise ValueError(f"identity {identity} is outside 0..{n - 1}")
    if involution.shape != (n,) or not ((0 <= involution) & (involution < n)).all():
        raise ValueError(f"involution must be {n} indices in 0..{n - 1}")
    flat = cells.ravel().tolist()
    distinct = list(set(flat))
    values = [decode_number(v) for v in distinct]
    ratios = None if float in set(map(type, flat)) else _ratios(values)
    if ratios is None:
        value, den = dict(zip(distinct, map(float, values))), 1
    else:
        value, den = dict(zip(distinct, ratios[0])), ratios[1]
    num = np.array([value[v] for v in flat], dtype=float if ratios is None else object)
    return FiniteHypergroup._of(num.reshape(n, n, n), den, identity, involution,
                                bool(data.get("scheme_derived", False)))


def group_from_dict(data: dict) -> np.ndarray:
    """Group file: {"n": int, "table": [[int,...],...]} multiplication table;
    a table that is not n x n raises ValueError."""
    n, table = _int(data["n"], "n"), _ints(data["table"], "table")
    if table.shape != (n, n):
        raise ValueError(f"group table must be {n} x {n}, got shape {table.shape}")
    return table


def load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def save(path: str, data: dict):
    with open(path, "w") as fh:
        fh.write(dumps(data) + "\n")
