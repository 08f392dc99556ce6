"""The exact coefficients of the polynomial hypergroup on N_0 of Graph(a, b)
and the banded operator that convolves with them.

h(n) (haar_weight), p_{m,n}^k (intersection_numbers) and g_{m,n,k}
(g_coeffs) depend on the parameters a, b alone.  Band is the right
convolution by one law, which dtgraph.PolyHypergroup runs for every
convolve and every step of power, undeformed or deformed.
"""

from __future__ import annotations

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


def _split(c) -> tuple:
    """(y, s), c = y 2^s for a positive rational c: (float(c), 0) wherever
    that is a normal double, else y = c / 2^s in (1/2, 2), rounded once."""
    c = Fraction(c)
    s = c.numerator.bit_length() - c.denominator.bit_length()
    if -1022 <= s <= 1022 and (y := float(c)) >= sys.float_info.min:
        return y, 0
    return float(c / Fraction(2) ** s), s


def _deformed(F, G, m, n, k, cs) -> np.ndarray:
    """g(m, n, k) = alpha0(k) / (alpha0(m) alpha0(n)) c, alpha0 = F 2^G, for
    the g_coeffs cs, c = y 2^s (_split): one ldexp of the mantissas' quotient
    times y, so bit for bit the doubles' product where both are normal."""
    y, s = np.array([_split(c) for c in cs]).T    # along the last axis of k
    return np.ldexp(F[k] / (F[m] * F[n]), G[k] - G[m] - G[n] + s.astype(np.int64)) * y


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
        # deformed: T on the rows first .., all > top, one column per row
        self.first, self.table = 0, np.empty((0, 0))

    @cached_property
    def tail(self) -> tuple:
        """(offsets, C, labels) for the rows m > top: labels holds (n, w, d,
        c) with the offsets d = k - m of delta_m * delta_n and their
        coefficients c, which do not depend on m there (p or the undeformed
        g, exact); C[i] = sum_n w c at offsets[i], in doubles if not exact."""
        labels, C = [], {}
        for n, w in self.law:
            coeffs = (intersection_numbers if self.exact else g_coeffs)(
                n + 1, n, self.hg.params)
            d = sorted(coeffs)
            c = [coeffs[k] for k in d]
            labels.append((n, w, np.array(d) - (n + 1), c))
            for k, ck in zip(d, c):
                C[k - n - 1] = C.get(k - n - 1, 0) + w * (ck if self.exact else float(ck))
        offsets = sorted(C)
        return offsets, [C[d] for d in offsets], labels

    def head(self, m: int) -> np.ndarray:
        """Row m <= top of T on k = 0 .. m + top."""
        row = self.heads.get(m)
        if row is None:
            vals = [0] * (m + self.top + 1)
            for n, w in self.law:
                coeffs = intersection_numbers(m, n, self.hg.params) if self.exact \
                    else self.hg.g(m, n)
                for k, c in coeffs.items():
                    vals[k] += w * c
            row = self.heads[m] = np.array(vals, dtype=self.dtype)
        return row

    def diagonals(self, start: int, x: np.ndarray):
        """(d, T[m, m + d]) for the rows m = start .., all > top, with masses
        x: one number per offset undeformed, one double per row deformed, from
        table[i, m - first] = sum_n w g(m, n, m + d_i) on the rows first ..,
        grown by at least doubling (while alpha0 > 0) or begun again at start."""
        offsets, C, labels = self.tail
        if self.hg.x0 is None:
            return zip(offsets, C)
        hi, done = start + x.size - 1, self.table.shape[1]
        if not self.first <= start <= hi < self.first + done:
            if not self.first <= start <= self.first + done:
                self.first, self.table, done = start, np.empty((len(offsets), 0)), 0
            F, G = self.hg._alpha_row(hi + self.top)
            m = np.arange(self.first + done, max(
                hi + 1, min(self.first + 2 * done, F.size - self.top)))[:, None]
            block = np.zeros((len(offsets), m.size))
            for n, w, d, c in labels:
                block[np.searchsorted(offsets, d)] += w * _deformed(F, G, m, n, m + d, c).T
            self.table = np.concatenate((self.table, block), axis=1)
        return zip(offsets, self.table[:, start - self.first:hi + 1 - self.first])

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
