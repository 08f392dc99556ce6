"""The exact coefficients of the polynomial hypergroup on N_0 of Graph(a, b)
and the banded operator that convolves with them.

h(n) (haar_weight), p_{m,n}^k (intersection_numbers) and g_{m,n,k}
(g_coeffs) depend on the parameters a, b alone.  Band is the right
convolution by one law, which dtgraph.PolyHypergroup runs for every
convolve and every step of power, undeformed or deformed.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .dtgraph import DTParams, PolyHypergroup


def haar_weight(n: int, params: DTParams) -> int:
    """Haar weight: 1 at n=0, a(a-1)^{n-1}(b-1)^n for n >= 1 (= sphere size)."""
    a, b = params.a, params.b
    return 1 if n == 0 else a * (a - 1) ** (n - 1) * (b - 1) ** n


def intersection_numbers(m: int, n: int, params: DTParams) -> dict:
    """p_{m,n}^k = g_{m,n,k} h(m) h(n) / h(k): for vertices x, y at distance
    k, the number of vertices at distance m from x and n from y, an integer
    (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 1989).  Keys run
    m+n, |m-n|, then the odd and the even steps from |m-n| upwards."""
    a, b = params.a, params.b
    if m == 0 or n == 0:
        return {m + n: 1}
    mn, lo, q = min(m, n), abs(m - n), (a - 1) * (b - 1)
    p = {m + n: 1, lo: q ** mn if lo else haar_weight(mn, params)}
    if b > 2:
        for k in range(mn):
            p[lo + 2 * k + 1] = (b - 2) * q ** (mn - k - 1)
    if a > 2:
        for k in range(mn - 1):
            p[lo + 2 * k + 2] = (a - 2) * (b - 1) * q ** (mn - k - 2)
    return p


def g_coeffs(m: int, n: int, params: DTParams) -> dict:
    """Exact linearization coefficients of delta_m * delta_n.

    Supported on [|m-n|, m+n] with the same parity pattern as the distance
    distribution of two spheres; nonnegative rationals summing to 1.
    """
    hmn = haar_weight(m, params) * haar_weight(n, params)
    return {k: Fraction(p * haar_weight(k, params), hmn)
            for k, p in intersection_numbers(m, n, params).items()}


def _normals(v: np.ndarray) -> np.ndarray:
    """Where v holds a finite positive normal double, as _normal accepts."""
    return (v >= sys.float_info.min) & (v < math.inf)


class Band:
    """Right convolution by the law [(n, w)] on a PolyHypergroup: masses x
    on rows m go to x T, T[m, k] = sum_n w c(m, n, k), with c = p on Python
    integers (object dtype) when exact and c = g in float64 otherwise.

    T is banded: row m reaches k = |m - n| .. m + n only.  On the rows
    m > top = max n, T[m, m + d] depends on d alone (undeformed), so they
    take one slice multiply-add per offset d.  Each row m <= top is one
    vector over k = 0 .. m + top, built when the row first holds a mass.
    """

    def __init__(self, hg: PolyHypergroup, law: list, exact: bool):
        self.hg, self.law, self.exact = hg, law, exact
        self.top = max((n for n, _ in law), default=0)
        self.dtype = object if exact else float
        self.heads = {}
        # deformed: T on the rows first .. first + ok.size - 1, all > top,
        # and whether their checks pass
        self.first, self.table, self.ok = 0, None, np.empty(0, dtype=bool)

    @cached_property
    def tail(self) -> tuple:
        """(offsets, C, labels) for the rows m > top: labels holds (n, w, d,
        c) with the offsets d = k - m of delta_m * delta_n and their
        coefficients c, which do not depend on m there (p as Python ints,
        or the undeformed g in doubles); C[i] = sum_n w c at offsets[i]."""
        labels, C = [], {}
        for n, w in self.law:
            coeffs = (intersection_numbers if self.exact else g_coeffs)(
                n + 1, n, self.hg.params)
            d = sorted(coeffs)
            c = [coeffs[k] if self.exact else float(coeffs[k]) for k in d]
            labels.append((n, w, np.array(d) - (n + 1), c))
            for k, ck in zip(d, c):
                C[k - n - 1] = C.get(k - n - 1, 0) + w * ck
        offsets = sorted(C)
        return offsets, [C[d] for d in offsets], labels

    def head(self, m: int) -> np.ndarray:
        """Row m <= top of T on k = 0 .. m + top; deformed, the first label
        whose _g(m, n) fails its checks raises its DomainError."""
        row = self.heads.get(m)
        if row is None:
            vals = [0] * (m + self.top + 1)
            for n, w in self.law:
                coeffs = intersection_numbers(m, n, self.hg.params) if self.exact \
                    else self.hg._g(m, n)
                for k, c in coeffs.items():
                    vals[k] += w * c
            row = self.heads[m] = np.array(vals, dtype=self.dtype)
        return row

    def _grow(self, start: int, hi: int):
        """Make the deformed table hold the rows start .. hi: extend it by a
        block that at least doubles it, or begin it again at start when
        start lies outside it.  table[i, m - first] = sum_n w alpha0(m + d_i)
        / (alpha0(m) alpha0(n)) g(d_i), with the doubles of _g_doubles, and
        ok[m - first] says whether every check of each _g_doubles(m, n)
        passes."""
        if not self.first <= start <= self.first + self.ok.size:
            self.first, self.table, self.ok = start, None, np.empty(0, dtype=bool)
        offsets, _, labels = self.tail
        done = self.ok.size
        m = np.arange(self.first + done, max(hi + 1, self.first + 2 * done))
        A = self.hg._alpha_row(m[-1] + self.top)
        block = np.zeros((len(offsets), m.size))
        Am = A[m]
        ok = _normals(Am)
        for n, w, d, c in labels:
            Ak = A[m + d[:, None]]
            with np.errstate(all="ignore"):   # a value out of range fails ok
                den = Am * A[n]
                ratio = Ak / den
                block[np.searchsorted(offsets, d)] += w * (ratio * np.array(c)[:, None])
            ok &= _normals(den) & (_normals(Ak) & _normals(ratio)).all(axis=0) \
                & bool(_normals(A[n]))
        self.table = block if self.table is None else np.concatenate((self.table, block), axis=1)
        self.ok = np.concatenate((self.ok, ok))

    def diagonals(self, start: int, x: np.ndarray):
        """(d, T[m, m + d]) for the rows m = start .., all > top, with masses
        x: one number per offset undeformed, one double per row deformed,
        where the first row with a mass that fails a check raises the
        DomainError of _g."""
        offsets, C, _ = self.tail
        if self.hg.x0 is None:
            return zip(offsets, C)
        if not (self.first <= start and start + x.size <= self.first + self.ok.size):
            self._grow(start, start + x.size - 1)
        rows = slice(start - self.first, start - self.first + x.size)
        coef, ok = self.table[:, rows], self.ok[rows]
        if not ok.all():
            bad = ~ok & (x != 0)
            if bad.any():
                m = start + int(np.argmax(bad))
                for n, _ in self.law:
                    self.hg._g(m, n)
            coef = np.where(ok, coef, 0.0)  # rows without a mass meet no coefficient
        return zip(offsets, coef)

    def step(self, x: np.ndarray, lo: int) -> tuple:
        """(y, lo'): y = x T on the rows lo' .., for the masses x on the rows
        lo .., trimmed of zeros at both ends."""
        top, hi = self.top, lo + x.size - 1
        base = max(lo - top, 0)
        y = np.zeros(hi + top + 1 - base, dtype=self.dtype)
        if lo <= top:               # and so base = 0
            for i in x[:top + 1 - lo].nonzero()[0].tolist():
                row = self.head(lo + i)
                y[:row.size] += x[i] * row
        start = max(lo, top + 1)
        if start <= hi:
            tail = x[start - lo:]
            for d, c in self.diagonals(start, tail):
                y[start + d - base:hi + d + 1 - base] += tail * c
        kept = y.nonzero()[0]
        if not kept.size:
            return y[:0], base
        return y[kept[0]:kept[-1] + 1], base + int(kept[0])
