"""The hypergroup file reader as it was when the tensor went through an
object array of Python ints, kept as the oracle of the decoder differential
test in test_io_cli.py.

The shape is numpy's shape of the object array, each distinct cell of a
set is decoded once, and the numerators fill an object array cell by cell
before `FiniteHypergroup._of` reduces them.  A JSON boolean cell reads as
0 or 1 here; the library refuses it.
"""

import numpy as np

from hyperscheme.hypergroup import FiniteHypergroup, _ratios
from hyperscheme.io import _int, _ints, decode_number


def hypergroup_from_dict(data):
    n = _int(data["n"], "n")
    scheme_derived = data.get("scheme_derived", False)
    if type(scheme_derived) is not bool:
        raise ValueError(f"scheme_derived must be true or false, not {scheme_derived!r}")
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
    try:
        distinct = list(set(flat))
    except TypeError:
        raise ValueError("conv must hold numbers or \"p/q\" strings, not JSON "
                         "lists or objects") from None
    values = [decode_number(v) for v in distinct]
    ratios = None if float in set(map(type, flat)) else _ratios(values)
    if ratios is None:
        value, den = dict(zip(distinct, map(float, values))), 1
    else:
        value, den = dict(zip(distinct, ratios[0])), ratios[1]
    num = np.array([value[v] for v in flat], dtype=float if ratios is None else object)
    return FiniteHypergroup._of(num.reshape(n, n, n), den, identity, involution,
                                scheme_derived)
