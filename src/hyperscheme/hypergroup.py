"""Finite hypergroup algebra: construction from schemes, Haar measure,
character tables, Fourier/Plancherel analysis, positive definiteness, dual
convolution, and semicharacter deformations.

Convolution tensors built from counting data are exact: integer numerators
over one common denominator.  Everything spectral runs in double precision
with an absolute tolerance of TOL = 1e-9, a PSD eigenvalue floor of -1e-8
and the named tolerances below.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .scheme import (AssociationScheme, AxiomViolation, CheckFailure,
                     GeneralizedScheme, _generation, _generators)

TOL = 1e-9
PSD_FLOOR = 1e-8
# characters tells apart eigenvalues of its Hermitian operators (norm at most
# 1) that step by more than SPLIT_GAP, so eigh puts their eigenvectors within
# about 2**-53 / SPLIT_GAP = 1.1e-10 of the true ones, below TOL
SPLIT_GAP = 1e-6
# a float row sum or slice product adds d rounded terms of at most 1
NORMALIZATION_TOL = ASSOCIATIVITY_TOL = 1e-8
# a character table's modulus, involution and Plancherel sum, on entries
# that eigh puts about 1.1e-10 from the true ones (see SPLIT_GAP)
TABLE_TOL = 1e-8
# an off-diagonal Gram entry of the table sums d products of such entries,
# each weighted by a Haar weight of 1 or more
ORTHOGONALITY_TOL = 1e-7
# semicharacters: a row is real when eigh left its imaginary parts within TOL
REAL_TOL = 1e-9
DUAL_TOL = 1e-9     # dual coefficients pass at >= -DUAL_TOL; cycles to d = 501 read -6.1e-12
_RESIDUAL_BLOCK_BYTES = 1 << 24     # of B_i alpha per block of slices i


class NotCommutative(CheckFailure):
    pass


class NotASemicharacter(CheckFailure):
    """residual is how far alpha0 misses: below zero at its least value, or
    off the semicharacter equation."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"semicharacter equation residual {residual}")

    def results(self) -> dict:
        return {"message": str(self), "residual": float(self.residual)}


def _not_a_semicharacter(top, bottom, message=None) -> NotASemicharacter:
    """NotASemicharacter with residual top / bottom, or with the largest
    double, and a message saying so, where that ratio leaves double range."""
    try:
        residual = float(top / bottom)
    except OverflowError:       # an integer ratio past the doubles
        residual = math.inf
    if math.isfinite(residual):
        return NotASemicharacter(residual, message)
    return NotASemicharacter(sys.float_info.max, (
        f"{message or 'semicharacter equation'}: residual exceeds the double "
        f"range; reported as {sys.float_info.max!r}"))


class DegenerateSpectrum(CheckFailure):
    pass


class BochnerGramMismatch(CheckFailure):
    """positive_definite_check's verdicts differ, as a coefficient just below
    -TOL can make them; args[0] holds both margins and tolerances."""

    def results(self) -> dict:
        return {"message": "Bochner expansion and Gram criterion disagree", **self.args[0]}


def _ratios(values):
    """(integer numerators, common denominator) of rational values, or None
    when any value is not rational."""
    if not all(isinstance(v, numbers.Rational) for v in values):
        return None
    den = math.lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (den // int(v.denominator)) for v in values], den


def _int_dtype(bound: int):
    """int64 when integers of absolute value up to bound fit, else Python ints."""
    return np.int64 if bound < 2 ** 63 else object


def _absmax(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))     # no |a| copy


def _check_law(labels, t: int = 1, n=math.inf, cap=None):
    """Refuse a t-fold power of a law with these labels on 0..n-1: ValueError
    for t < 0, then cap(t * max label), then ValueError for a non-element."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if cap:
        cap(t * max(labels, default=0))
    outside = sorted(h for h in labels
                     if not (isinstance(h, numbers.Integral) and 0 <= h < n))
    if outside:
        raise ValueError(f"step law labels {outside} are not hypergroup elements")


class FiniteHypergroup:
    """Convolution tensor c[i][j][k] = (delta_i * delta_j)({k}), stored once
    as c = num / den.

    An exact hypergroup (is_exact) holds integer numerators num, int64 where
    they fit and Python ints otherwise, over one common denominator den in
    lowest terms; otherwise num is the float64 tensor and den = 1.  conv_f
    is the float view used by the spectral routines; conv (nested tuples of
    Fraction or float) and c(i, j, k) are read-only views built on demand.
    scheme_derived records whether the hypergroup came from a (generalized)
    scheme, which is what licenses the dual-convolution nonnegativity test.
    The constructor takes conv as nested [i][j][k] rationals or floats.
    num and involution are read-only.  A direct_product keeps its two
    factors as _factors, from which verify_hypergroup and characters work
    (see there); any other hypergroup, a product read back from a file
    included, has none.
    """

    _factors = None

    def __init__(self, n: int, conv, identity: int, involution,
                 scheme_derived: bool = False):
        flat = [v for plane in conv for row in plane for v in row]
        ratios = _ratios(flat)
        if ratios is None:
            num, den = np.asarray(flat, dtype=float), 1
        else:
            num, den = np.array(ratios[0], dtype=object), ratios[1]
        self._set(*_lowest(num.reshape(n, n, n), den), identity, involution,
                  scheme_derived)

    @classmethod
    def _of(cls, num, den, identity, involution, scheme_derived) -> "FiniteHypergroup":
        """The hypergroup of num / den, reduced into a new array when they
        share a factor; the caller's num is left as given."""
        return cls._adopt(*_lowest(num, den), identity, involution, scheme_derived)

    @classmethod
    def _adopt(cls, num, den, identity, involution, scheme_derived) -> "FiniteHypergroup":
        """The hypergroup of num / den, already in lowest terms, holding num
        itself."""
        h = cls.__new__(cls)
        h._set(num, den, identity, involution, scheme_derived)
        return h

    def _set(self, num, den, identity, involution, scheme_derived):
        self.is_exact = num.dtype != float
        if self.is_exact:
            num = num.astype(_int_dtype(max(_absmax(num), den)), copy=False)
        num.setflags(write=False)
        self.n, self.num, self.den = int(num.shape[0]), num, int(den)
        self.identity = int(identity)
        self.involution = np.array(involution, dtype=np.int64)
        self.involution.setflags(write=False)
        self.scheme_derived = bool(scheme_derived)

    @cached_property
    def conv_f(self) -> np.ndarray:
        if not self.is_exact:
            return self.num
        if max(_absmax(self.num), self.den) < 2 ** 53:
            return self.num / self.den      # both exact in float64: correctly rounded
        return (self.num.astype(object) / self.den).astype(float)

    @cached_property
    def conv(self) -> tuple:
        vals = self.num.tolist()
        if self.is_exact:
            vals = [[[Fraction(v, self.den) for v in row] for row in plane]
                    for plane in vals]
        return tuple(tuple(map(tuple, plane)) for plane in vals)

    def c(self, i: int, j: int, k: int):
        v = self.num[i, j, k]
        return Fraction(int(v), self.den) if self.is_exact else float(v)

    def _operator(self, w) -> tuple:
        """(T, den): x -> x @ T / den is the right convolution by the weights
        w, over Python integers when the tensor and w are exact, else in
        floats with den = 1."""
        nz = [j for j, v in enumerate(w) if v]
        r = _ratios(w) if self.is_exact else None
        if r is None:
            return np.tensordot(np.asarray(w, dtype=float)[nz],
                                self.conv_f[:, nz], axes=(0, 1)), 1
        return np.tensordot(np.array(r[0], dtype=object)[nz],
                            self.num[:, nz], axes=(0, 1)), r[1] * self.den

    def convolve(self, mu, nu):
        """Convolution of two weight vectors over D (exact if all inputs are);
        ValueError unless both have length n."""
        mu, nu = list(mu), list(nu)
        if len(mu) != self.n or len(nu) != self.n:
            raise ValueError(f"convolve needs two weight vectors of length n = "
                             f"{self.n}, got lengths {len(mu)} and {len(nu)}")
        a = _ratios(mu)
        T, den = self._operator(nu if a else [float(v) for v in nu])
        if T.dtype != object:
            return (np.asarray(mu, dtype=float) @ T).tolist()
        return [Fraction(v, den * a[1])
                for v in (np.array(a[0], dtype=object) @ T).tolist()]

    def power(self, mu: dict, t: int) -> dict:
        """t-fold convolution power of the law mu (element -> mass), as a
        dict of the nonzero masses; exact when the tensor and mu are.  Exact
        powers run over Python integers and reduce to Fractions once; see _check_law."""
        _check_law(mu, t, self.n)
        T, den = self._operator([mu.get(i, 0) for i in range(self.n)])
        x = np.zeros(self.n, dtype=T.dtype)
        x[self.identity] = 1
        for _ in range(t):
            x = x @ T
        vals = x.tolist()
        if T.dtype == object:
            vals = [Fraction(v, den ** t) for v in vals]
        return {i: v for i, v in enumerate(vals) if v != 0}

    def is_commutative(self) -> bool:
        """Exact on exact tensors; within TOL otherwise."""
        if self.is_exact:
            return bool(np.array_equal(self.num, self.num.transpose(1, 0, 2)))
        return bool(np.abs(self.conv_f - self.conv_f.transpose(1, 0, 2)).max() <= TOL)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.involution, np.arange(self.n)))

    @cached_property
    def _order(self) -> tuple:
        """_generation(num) in full, computed once; see _generators."""
        return tuple(_generation(self.num))


def _lowest(num: np.ndarray, den: int) -> tuple:
    """(num, den) in lowest terms: as given when float or already reduced,
    else a new array."""
    g = 1 if num.dtype == float else math.gcd(int(np.gcd.reduce(num.ravel())), den)
    return (num, den) if g == 1 else (num // g, den // g)


def _rescaled(num, den, s, scale=1):
    """(num', den') in lowest terms with num'/den' = scale * num[i,j,k]/den *
    s[k]/(s[i] s[j]) for positive integers s, in int64 when the values fit.
    num' is one new array, scaled and reduced in place."""
    s = [int(v) for v in s]
    lcm = math.lcm(*s)
    dt = _int_dtype(max(1, _absmax(num)) * scale * max(s) * lcm * lcm)
    q = np.array([lcm // v for v in s], dtype=dt)
    out = num.astype(dt)
    if scale != 1:
        out *= scale
    out *= np.array(s, dtype=dt)[None, None, :]
    out *= q[:, None, None]
    out *= q[None, :, None]
    den = den * lcm * lcm
    g = math.gcd(int(np.gcd.reduce(out.ravel())), den)
    if g != 1:
        out //= g
    return out, den // g


def from_scheme(scheme: AssociationScheme) -> FiniteHypergroup:
    """Bose-Mesner convolution c[i][j][k] = (w_k / (w_i w_j)) p_{i,j}^k,
    exact rationals."""
    num, den = _rescaled(scheme.p, 1, scheme.valency)
    h = FiniteHypergroup._adopt(num, den, scheme.partition.identity_relation,
                                scheme.involution, scheme_derived=True)
    vars(h)["_order"] = scheme._order   # c has the support of p, as every w > 0
    return h


def from_generalized(gs: GeneralizedScheme) -> FiniteHypergroup:
    """Hypergroup with conv = the deformed tensor p~ of a generalized scheme,
    verified as in verify_generalized, by the same one check (gs.verified)."""
    scheme, ptilde = gs.verified
    return FiniteHypergroup._of(ptilde, 1, gs.partition.identity_relation,
                                scheme.involution, scheme_derived=True)


@dataclass
class HypergroupReport:
    ok: bool
    commutative: bool
    symmetric: bool
    failures: list


def _of_factors(h: FiniteHypergroup, fn):
    """[fn(h1), fn(h2)] on the factors of a direct product h, or None when h
    has none or fn raises a check failure or an input error on either."""
    if h._factors is None:
        return None
    try:
        return [fn(f) for f in h._factors]
    except (CheckFailure, ValueError):
        return None


def _proved_product(h: FiniteHypergroup):
    """The report of a direct product of exact factors that both pass
    verify_hypergroup, or None.  Each axiom of the Kronecker product tensor
    holds exactly when it holds in both factors, so the product passes, and
    it commutes when both do.  This stands for the full check only where
    that check is exact.  d * (max|num1| max|num2|)^2 < 2^53 ensures it, as
    the product's num is num1 (x) num2 reduced, and ensures that the
    factors' own checks are exact too."""
    f = h._factors
    if f is None or not (f[0].is_exact and f[1].is_exact) or \
            h.n * (_absmax(f[0].num) * _absmax(f[1].num)) ** 2 >= 2 ** 53:
        return None
    reports = _of_factors(h, lambda g: verify_hypergroup(g, raise_on_failure=False))
    if reports is None or not all(r.ok for r in reports):
        return None
    return HypergroupReport(ok=True, commutative=all(r.commutative for r in reports),
                            symmetric=h.is_symmetric(), failures=[])


def verify_hypergroup(h: FiniteHypergroup,
                      raise_on_failure: bool = True) -> HypergroupReport:
    """Check finiteness, identity, support-of-identity, involution
    compatibility, associativity, nonnegativity and normalization of the
    tensor.

    A direct product of exact factors that pass this check is proved from
    them (see _proved_product) while the full check below would be exact,
    and no product tensor is read; otherwise, a factor failing included,
    the product's tensor is checked as any other.

    Exact tensors are checked on the integers num, against den in place of
    1.  Associativity is exact too while d * max|num|^2, which bounds every
    partial sum of a slice product, is below 2^24 (the products of num run
    in float32) or 2^53 (in float64), and then needs only the slices of a
    generating set (see _generators); beyond that it is checked within 1e-8
    on conv_f, slice by slice.  The identity slice is skipped when num[e] =
    den * I, where it passes by algebra.  Float tensors are compared with
    TOL, NORMALIZATION_TOL and ASSOCIATIVITY_TOL.  A symmetric tensor reads
    its involution image as a transposed view of itself.
    """
    proved = _proved_product(h)
    if proved is not None:
        return proved
    exact = h.is_exact
    c, one = (h.num, h.den) if exact else (h.conv_f, 1.0)
    n, e, inv = h.n, h.identity, h.involution
    failures = []

    def far(x, y, limit):
        return x != y if exact else np.abs(x - y) > limit

    # NaN compares false with every tolerance below, so it gets its own check
    if not exact and not np.isfinite(c).all():
        i, j, k = map(int, np.argwhere(~np.isfinite(c))[0])
        failures.append(AxiomViolation("finite", (i, j, k)))
    eps = 0 if exact else TOL
    if c.min() < -eps:
        i, j, k = map(int, np.argwhere(c < -eps)[0])
        failures.append(AxiomViolation("nonnegative", (i, j, k)))
    # exact row sums in a dtype that cannot wrap
    sums = c.sum(axis=2, dtype=_int_dtype(n * _absmax(c)) if exact else None)
    bad_sums = far(sums, one, NORMALIZATION_TOL)
    if bad_sums.any():
        i, j = map(int, np.argwhere(bad_sums)[0])
        failures.append(AxiomViolation("normalization", (i, j)))

    eye = np.eye(n, dtype=c.dtype) * one
    bad_ident = far(c[:, e], eye, TOL).any(axis=1) | far(c[e], eye, TOL).any(axis=1)
    for x in np.flatnonzero(bad_ident):
        failures.append(AxiomViolation("identity", (int(x),)))

    wants_e = np.arange(n)[None, :] == inv[:, None]
    for x, y in np.argwhere((c[:, :, e] > eps) != wants_e):
        failures.append(AxiomViolation("support-of-identity", (int(x), int(y))))

    # c[inv[y], inv[x], inv[k]] at [x, y, k]; inv = identity needs no gather
    symmetric = h.is_symmetric()
    c_bar = c if symmetric else c[np.ix_(inv, inv, inv)]
    for x, y in np.argwhere(far(c, c_bar.transpose(1, 0, 2), TOL).any(axis=2)):
        failures.append(AxiomViolation("involution-compat", (int(x), int(y))))

    # associativity: (delta_i * delta_j) * delta_l == delta_i * (delta_j * delta_l),
    # one slice i at a time so memory stays O(n^3).  Every partial sum of an
    # exact slice product is an integer of absolute value at most
    # n * max|num|^2, so float32 products are exact below 2^24 and float64
    # ones below 2^53.  Exact slices are checked only on a generating set,
    # whose passing proves the rest, so the first failure found is still the
    # row-major first.  With num[e] = den * I each side of slice e is
    # den * num where every term it sums is finite, and NaN or a like-signed
    # infinity elsewhere; those never compare far, so slice e cannot fail
    bound = n * _absmax(h.num) ** 2 if exact else math.inf
    exact_gemm = bound < 2 ** 53
    a = h.num.astype(np.float32 if bound < 2 ** 24 else float) if exact_gemm else h.conv_f
    skip_e = np.array_equal(c[e], eye)
    rows, cols = a.reshape(n, n * n), a.reshape(n * n, n)
    for i in _generators(h) if exact_gemm else range(n):
        if i == e and skip_e:
            continue
        lhs = (a[i] @ rows).reshape(n, n, n)     # [j, (l, k)]
        rhs = (cols @ a[i]).reshape(n, n, n)     # [(j, l), k]
        bad = lhs != rhs if exact_gemm else np.abs(lhs - rhs) > ASSOCIATIVITY_TOL
        if bad.any():
            j, l, k = map(int, np.argwhere(bad)[0])
            failures.append(AxiomViolation("associativity", (i, j, l, k)))
            break

    if failures and raise_on_failure:
        raise failures[0]
    return HypergroupReport(ok=not failures, commutative=h.is_commutative(),
                            symmetric=symmetric, failures=failures)


def haar(h: FiniteHypergroup):
    """Left/right Haar weights from the e-mass of delta_xbar * delta_x.

    Returns (left, right, unimodular); exact Fractions when the tensor is,
    and then unimodular compares them exactly, else within TOL.
    AxiomViolation("support-of-identity", (xbar, x)) for the first x whose
    e-mass is zero or negative.
    """
    inv = h.involution
    e_mass = h.num[inv, np.arange(h.n), h.identity].tolist()
    x = next((x for x, v in enumerate(e_mass) if v <= 0), None)
    if x is not None:
        raise AxiomViolation("support-of-identity", (int(inv[x]), x))
    left = ([Fraction(h.den, v) for v in e_mass] if h.is_exact
            else [1.0 / v for v in e_mass])
    right = [left[int(inv[x])] for x in range(h.n)]
    unimodular = left == right if h.is_exact else all(
        abs(a - b) <= TOL for a, b in zip(left, right))
    return left, right, unimodular


@dataclass(frozen=True)
class CharacterTable:
    """Rows are characters alpha normalized by alpha(e) = 1; haar is the
    Haar weight on D with omega(e) = 1 and plancherel the dual weights
    pi(alpha) = 1 / ||alpha||^2_omega (summing to 1)."""

    chars: np.ndarray       # (n, n) complex, or float for a symmetric hypergroup
    haar: np.ndarray        # (n,) float
    plancherel: np.ndarray  # (n,) float


def _char_order(rows: np.ndarray) -> np.ndarray:
    """Stable order of the rows by -Re row[1], then by -Re, -Im of each
    entry, entry by entry, all rounded to 9 decimals, so that values that
    agree but for the eigensolver's rounding tie."""
    m, n = rows.shape
    keys = np.empty((2 * n + 1, m))
    keys[0] = -np.round(rows[:, 1].real, 9) if n > 1 else 0.0
    keys[1::2] = -np.round(rows.real, 9).T
    keys[2::2] = -np.round(rows.imag, 9).T
    return np.lexsort(keys[::-1])


def characters(h: FiniteHypergroup) -> CharacterTable:
    """Characters alpha of a commutative finite hypergroup: B_i alpha =
    alpha(i) alpha, (B_i)_{jk} = c[i][j][k], alpha(e) = 1; float for a
    symmetric hypergroup, else complex.

    With S^2 the Haar weights, A = S B_g S^-1 has A^T = S B_{g bar} S^-1, so
    the S alpha are the joint eigenvectors of (A + A^T) / 2 and (A - A^T) / 2i
    over the generators g != e.  From one cluster, V = I, eigh of each one
    compressed to each cluster (V_c^H G V_c) rotates it and cuts it where the
    eigenvalues step by more than SPLIT_GAP.  The semisimple algebra the B_g
    generate has lines as joint eigenspaces, so a cluster left raises
    DegenerateSpectrum, as does a residual past TOL against any B_i.
    ValueError for a Haar weight past the doubles.

    The characters of a direct product are the alpha (x) beta of its
    factors' (see _product_rows), which then need no eigh; where a factor
    has no table, or the rows miss TOL, the product's tensor is split as
    any other.  Either way the rows are ordered and checked alike.
    """
    return _characters(h)[0]


def _characters(h: FiniteHypergroup) -> tuple:
    """(characters(h), resid): the worst |B_i alpha - alpha(i) alpha| over i
    and the rows, or a bound on it."""
    if not h.is_commutative():
        raise NotCommutative("character theory requires a commutative hypergroup")
    omega = np.array([_double(v, "Haar weights") for v in haar(h)[0]])
    omega = omega / omega[h.identity]
    made = _product_rows(h)
    if made is None:
        alphas = _split(h, omega)
        resid = _residual(h, alphas)
        if not resid <= TOL:        # NaN fails too
            raise DegenerateSpectrum(f"characters miss multiplicativity by {resid:.3e}")
        made = alphas.T, resid
    rows, resid = made
    chars = rows[_char_order(rows)]
    norms = (omega[None, :] * np.abs(chars) ** 2).sum(axis=1)
    table = CharacterTable(chars=chars, haar=omega, plancherel=1.0 / norms)
    _check_table(h, table)
    return table, resid


def _product_rows(h: FiniteHypergroup):
    """(rows alpha (x) beta, resid) of a direct product from its factors'
    tables, or None.  With E = B alpha - alpha(i) alpha in each factor, the
    product's residual is E1 (x) B2 beta + alpha1(i) alpha1 (x) E2, where
    |B2 beta| <= max|beta|^2 + resid2, so it is at most resid1 (max|beta|^2
    + resid2) + max|alpha|^2 resid2: no product of slices is made.  Only a
    bound past TOL is computed on the product."""
    made = _of_factors(h, _characters)
    if made is None:
        return None
    (t1, resid1), (t2, resid2) = made
    rows = np.kron(t1.chars, t2.chars)
    top1, top2 = (float(np.abs(t.chars).max()) ** 2 for t in (t1, t2))
    resid = resid1 * (top2 + resid2) + top1 * resid2
    if not resid <= TOL:
        resid = _residual(h, rows.T)
    return (rows, resid) if resid <= TOL else None


def _split(h: FiniteHypergroup, omega: np.ndarray) -> np.ndarray:
    """alphas[x, m] = alpha_m(x) by the Hermitian split (see characters)."""
    n, e, c = h.n, h.identity, h.conv_f
    s = np.sqrt(omega)
    parts = (G for g in _generators(h) if g != e for A in [s[:, None] * c[g] / s]
             for G in [(A + A.T) / 2, (A - A.T) / 2j][:1 + (h.involution[g] != g)])
    V = np.eye(n, dtype=float if h.is_symmetric() else complex)
    clusters = [np.arange(n)] if n > 1 else []
    while clusters and (G := next(parts, None)) is not None:
        split = []
        for k in {c.size for c in clusters}:    # one stacked eigh per cluster size
            idx = np.array([c for c in clusters if c.size == k])
            W = V[:, idx].transpose(1, 0, 2)    # W[c] = V_c
            vals, U = np.linalg.eigh(W.conj().transpose(0, 2, 1) @ G @ W)
            V[:, idx] = (W @ U).transpose(1, 0, 2)
            for row, v in zip(idx, vals):
                cuts = [0, *(np.flatnonzero(np.diff(v) > SPLIT_GAP) + 1).tolist(), k]
                split += [row[a:b] for a, b in zip(cuts, cuts[1:]) if b - a > 1]
        clusters = split
    if clusters:
        raise DegenerateSpectrum(f"{clusters[0].size} characters agree on every generator")
    alphas = V / s[:, None]
    alphas /= alphas[e]          # alphas[x, m] = alpha_m(x)
    return alphas


def _residual(h: FiniteHypergroup, alphas: np.ndarray) -> float:
    """The worst |B_i alpha_m - alpha_m(i) alpha_m| over blocks of slices i."""
    n, c = h.n, h.conv_f
    block = max(1, _RESIDUAL_BLOCK_BYTES // (n * n * alphas.itemsize))
    return max(float(np.abs(c[lo:lo + block] @ alphas - alphas[lo:lo + block, None, :]
                            * alphas).max()) for lo in range(0, n, block))


def _check_table(h: FiniteHypergroup, table: CharacterTable):
    chars, omega, pl = table.chars, table.haar, table.plancherel
    n, e, inv = h.n, h.identity, h.involution
    if np.abs(chars[:, e] - 1.0).max() > TOL:
        raise DegenerateSpectrum("character not normalized at e")
    if (np.abs(chars) > 1 + TABLE_TOL).any():
        raise DegenerateSpectrum("character exceeds modulus 1")
    if np.abs(chars[:, inv] - np.conj(chars)).max() > TABLE_TOL:
        raise DegenerateSpectrum("character not involution-compatible")
    gram = (chars * omega[None, :]) @ np.conj(chars.T)
    off = gram - np.diag(np.diag(gram))
    if np.abs(off).max() > ORTHOGONALITY_TOL:
        raise DegenerateSpectrum("characters not orthogonal")
    if abs(pl.sum() - 1.0) > TABLE_TOL:
        raise DegenerateSpectrum("Plancherel weights do not sum to 1")


def fourier(f, table: CharacterTable) -> np.ndarray:
    """f_hat(alpha) = sum_x f(x) conj(alpha(x)) omega(x)."""
    f = np.asarray(f, dtype=complex)
    return (np.conj(table.chars) * table.haar[None, :]) @ f


def inverse_fourier(mu, table: CharacterTable) -> np.ndarray:
    """mu_check(x) = sum_alpha mu(alpha) alpha(x)."""
    mu = np.asarray(mu, dtype=complex)
    return table.chars.T @ mu


def plancherel_invert(f_hat, table: CharacterTable) -> np.ndarray:
    """Recover f from f_hat: f = (f_hat * pi)^check."""
    return inverse_fourier(np.asarray(f_hat, dtype=complex) * table.plancherel, table)


def positive_definite_check(h: FiniteHypergroup, f, table: CharacterTable | None = None):
    """Bochner test: expand f over the characters and require nonnegative
    coefficients; cross-checked against the Gram matrix
    F_{kl} = (delta_{x_k} * delta_{bar x_l})(f) being PSD.

    Returns (is_pd, mu) with mu the character coefficients, or raises
    BochnerGramMismatch.
    """
    if table is None:
        table = characters(h)
    f = np.asarray(f, dtype=complex)
    mu = table.plancherel * fourier(f, table)
    worst = float(np.max([-mu.real.min(), np.abs(mu.imag).max()]))   # NaN stays
    is_pd = worst <= TOL

    gram = h.conv_f[:, h.involution] @ f
    min_eig = float(np.linalg.eigvalsh((gram + np.conj(gram.T)) / 2).min())
    if is_pd != (min_eig >= -PSD_FLOOR):
        raise BochnerGramMismatch({"worst_coefficient": worst, "coefficient_tol": TOL,
                                   "min_eig": min_eig, "psd_floor": -PSD_FLOOR})
    return is_pd, mu


def dual_convolution(h: FiniteHypergroup, table: CharacterTable,
                     alpha_idx: int, beta_idx: int) -> np.ndarray:
    """Coefficients of delta_alpha *^ delta_beta on the character set:
    n_gamma = pi(gamma) sum_x omega(x) alpha(x) beta(x) conj(gamma(x))."""
    if not h.is_commutative():
        raise NotCommutative("dual convolution requires commutativity")
    m = len(table.chars)
    if not (0 <= alpha_idx < m and 0 <= beta_idx < m):
        raise ValueError(f"character indices must be in 0..{m - 1}, "
                         f"got {alpha_idx} and {beta_idx}")
    prod = table.chars[alpha_idx] * table.chars[beta_idx]
    return table.plancherel * fourier(prod, table)


def semicharacters(h: FiniteHypergroup) -> list[np.ndarray]:
    """All real multiplicative involution-compatible vectors with alpha(e)=1.

    For finite D every such solution is a character, so these are the real
    rows of the character table.
    """
    return [row.real.copy() for row in characters(h).chars
            if np.abs(row.imag).max() <= REAL_TOL]


def _double(v, what: str) -> float:
    """float(v), or ValueError, naming what v is, for a value that is not a
    finite double."""
    try:
        x = float(v)
    except OverflowError:       # a rational past the double range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite doubles")
    return x


def semicharacter_deform(h: FiniteHypergroup, alpha0) -> FiniteHypergroup:
    """Deformed convolution c~[i][j][k] = alpha0(k)/(alpha0(i) alpha0(j)) c[i][j][k].

    alpha0 must be a strictly positive semicharacter; the Haar weights of the
    result are alpha0^2 times the original ones.  On a hypergroup with
    nonnegative coefficients that leaves only alpha0 = 1: at the argmax,
    alpha_max^2 = sum_k c_ijk alpha_k <= alpha_max, and at the argmin
    alpha_min^2 >= alpha_min.

    On an exact tensor with rational alpha0 the semicharacter equations
    are checked exactly, over the integers; otherwise within TOL, and an
    alpha0 entry outside the finite doubles raises ValueError.
    """
    a = list(alpha0)
    if len(a) != h.n:
        raise ValueError(f"alpha0 needs {h.n} values, got {len(a)}")
    ratios = _ratios(a) if h.is_exact else None
    if ratios is None:      # alpha0 = s / S and c = num / den, in doubles
        s = np.array([_double(v, "alpha0 entries") for v in a])
        S, num, den, eps = 1, h.conv_f, 1, TOL
    else:                   # ... and over the integers
        s, S, eps = np.array(ratios[0], dtype=object), ratios[1], 0
        num, den = h.num.astype(object), h.den
    if s.min() <= 0:
        raise _not_a_semicharacter(-s.min(), S, "alpha0 not strictly positive")
    # alpha0(e) = 1, alpha0(x bar) = alpha0(x) and
    # sum_k c_ijk alpha0(k) = alpha0(i) alpha0(j), each residual as top / bottom;
    # doubles may overflow to inf or inf - inf = NaN, and both fail
    with np.errstate(over="ignore", invalid="ignore"):
        for top, bottom in (
                (abs(s[h.identity] - S), S),
                (np.abs(s[h.involution] - s).max(), S),
                (np.abs(S * np.einsum("ijk,k->ij", num, s) - den * np.outer(s, s)).max(),
                 den * S * S)):
            if not top <= eps * bottom:
                raise _not_a_semicharacter(top, bottom)

    if ratios is None:
        num, den = s / (s[:, None, None] * s[None, :, None]) * h.conv_f, 1
    else:   # c~ = S c s_k / (s_i s_j)
        num, den = _rescaled(h.num, h.den, ratios[0], scale=ratios[1])
    return FiniteHypergroup._adopt(num, den, h.identity, h.involution,
                                   scheme_derived=False)
