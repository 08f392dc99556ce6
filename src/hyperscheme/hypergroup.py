"""Finite hypergroup algebra: construction from schemes, Haar measure,
character tables, Fourier/Plancherel analysis, positive definiteness, dual
convolution, and semicharacter deformations.

Convolution tensors built from counting data are exact: integer numerators
over one common denominator.  Everything spectral runs in double precision
with an absolute tolerance of 1e-9 and a PSD eigenvalue floor of -1e-8.
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
                     GeneralizedScheme, _generators, _verify_kernels,
                     verify_scheme)

TOL = 1e-9
PSD_FLOOR = 1e-8
CHARACTER_RETRIES = 5
DEFAULT_SEED = 0x5EED


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
    return int(np.abs(a).max(initial=0))


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
    """

    def __init__(self, n: int, conv, identity: int, involution,
                 scheme_derived: bool = False):
        flat = [v for plane in conv for row in plane for v in row]
        ratios = _ratios(flat)
        if ratios is None:
            num, den = np.asarray(flat, dtype=float), 1
        else:
            num, den = np.array(ratios[0], dtype=object), ratios[1]
        self._set(num.reshape(n, n, n), den, identity, involution, scheme_derived)

    @classmethod
    def _of(cls, num, den, identity, involution, scheme_derived) -> "FiniteHypergroup":
        h = cls.__new__(cls)
        h._set(num, den, identity, involution, scheme_derived)
        return h

    def _set(self, num, den, identity, involution, scheme_derived):
        self.is_exact = num.dtype != float
        if self.is_exact:
            g = math.gcd(int(np.gcd.reduce(num.ravel())), den)
            num, den = num // g, den // g
            num = num.astype(_int_dtype(max(_absmax(num), den)))
        num.setflags(write=False)
        self.n, self.num, self.den = int(num.shape[0]), num, int(den)
        self.identity = int(identity)
        self.involution = np.asarray(involution, dtype=np.int64)
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
        """Convolution of two weight vectors over D (exact if all inputs are)."""
        a = _ratios(list(mu))
        T, den = self._operator(list(nu) if a else [float(v) for v in nu])
        if T.dtype != object:
            return (np.asarray(mu, dtype=float) @ T).tolist()
        return [Fraction(v, den * a[1])
                for v in (np.array(a[0], dtype=object) @ T).tolist()]

    def power(self, mu: dict, t: int) -> dict:
        """t-fold convolution power of the law mu (element -> mass), as a
        dict of the nonzero masses; exact when the tensor and mu are.  Exact
        powers run over Python integers and reduce to Fractions once."""
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


def _rescaled(num, den, s, scale=1):
    """(num', den') with num'/den' = scale * num[i,j,k]/den * s[k]/(s[i] s[j])
    for positive integers s, in int64 when the values fit."""
    s = [int(v) for v in s]
    lcm = math.lcm(*s)
    dt = _int_dtype(max(1, _absmax(num)) * scale * max(s) * lcm * lcm)
    q = np.array([lcm // v for v in s], dtype=dt)
    s = np.array(s, dtype=dt)
    out = num.astype(dt) * scale * s[None, None, :]
    return out * q[:, None, None] * q[None, :, None], den * lcm * lcm


def from_scheme(scheme: AssociationScheme) -> FiniteHypergroup:
    """Bose-Mesner convolution c[i][j][k] = (w_k / (w_i w_j)) p_{i,j}^k,
    exact rationals."""
    num, den = _rescaled(scheme.p, 1, scheme.valency)
    return FiniteHypergroup._of(num, den, scheme.partition.identity_relation,
                                scheme.involution.copy(), scheme_derived=True)


def from_generalized(gs: GeneralizedScheme) -> FiniteHypergroup:
    """Hypergroup with conv = the deformed tensor p~ of a generalized scheme,
    verified as in verify_generalized."""
    scheme = verify_scheme(gs.partition)
    return FiniteHypergroup._of(_verify_kernels(gs, scheme), 1,
                                gs.partition.identity_relation,
                                scheme.involution.copy(), scheme_derived=True)


@dataclass
class HypergroupReport:
    ok: bool
    commutative: bool
    symmetric: bool
    failures: list


def verify_hypergroup(h: FiniteHypergroup,
                      raise_on_failure: bool = True) -> HypergroupReport:
    """Check finiteness, identity, support-of-identity, involution
    compatibility, associativity, nonnegativity and normalization of the
    tensor.

    Exact tensors are checked on the integers num, against den in place of
    1; associativity is exact too while d * max|num|^2 < 2^53, where the
    float64 products of num are exact integers, and then needs only the
    slices of a generating set (see _generators); beyond that it is checked
    within 1e-8 on conv_f, slice by slice.  Float tensors are compared with
    TOL, and with 1e-8 for normalization and associativity.
    """
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
    bad_sums = far(sums, one, 1e-8)
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

    # c[inv[y], inv[x], inv[k]] at [x, y, k]
    c_bar = c[np.ix_(inv, inv, inv)].transpose(1, 0, 2)
    for x, y in np.argwhere(far(c, c_bar, TOL).any(axis=2)):
        failures.append(AxiomViolation("involution-compat", (int(x), int(y))))

    # associativity: (delta_i * delta_j) * delta_l == delta_i * (delta_j * delta_l),
    # one slice i at a time so memory stays O(n^3); every partial sum of an
    # exact slice product is an integer below n * max|num|^2.  Exact slices
    # are checked only on a generating set, whose passing proves the rest,
    # so the first failure found is still the row-major first
    exact_gemm = exact and n * _absmax(h.num) ** 2 < 2 ** 53
    a = h.num.astype(float) if exact_gemm else h.conv_f
    rows, cols = a.reshape(n, n * n), a.reshape(n * n, n)
    for i in _generators(h.num) if exact_gemm else range(n):
        lhs = (a[i] @ rows).reshape(n, n, n)     # [j, (l, k)]
        rhs = (cols @ a[i]).reshape(n, n, n)     # [(j, l), k]
        bad = lhs != rhs if exact_gemm else np.abs(lhs - rhs) > 1e-8
        if bad.any():
            j, l, k = map(int, np.argwhere(bad)[0])
            failures.append(AxiomViolation("associativity", (i, j, l, k)))
            break

    if failures and raise_on_failure:
        raise failures[0]
    return HypergroupReport(ok=not failures, commutative=h.is_commutative(),
                            symmetric=h.is_symmetric(), failures=failures)


def haar(h: FiniteHypergroup):
    """Left/right Haar weights from the e-mass of delta_xbar * delta_x.

    Returns (left, right, unimodular); exact Fractions when the tensor is.
    """
    inv = h.involution
    e_mass = h.num[inv, np.arange(h.n), h.identity].tolist()
    left = ([Fraction(h.den, v) for v in e_mass] if h.is_exact
            else [1.0 / v for v in e_mass])
    right = [left[int(inv[x])] for x in range(h.n)]
    unimodular = all(
        abs(float(a) - float(b)) <= TOL for a, b in zip(left, right))
    return left, right, unimodular


@dataclass(frozen=True)
class CharacterTable:
    """Rows are characters alpha normalized by alpha(e) = 1; haar is the
    Haar weight on D with omega(e) = 1 and plancherel the dual weights
    pi(alpha) = 1 / ||alpha||^2_omega (summing to 1)."""

    chars: np.ndarray       # (n, n) complex
    haar: np.ndarray        # (n,) float
    plancherel: np.ndarray  # (n,) float
    seed: int = DEFAULT_SEED


def _char_order(rows: np.ndarray) -> np.ndarray:
    """Stable order of the rows by -Re row[1], then by -Re, -Im of each
    entry rounded to 9 decimals, entry by entry."""
    m, n = rows.shape
    keys = np.empty((2 * n + 1, m))
    keys[0] = -rows[:, 1].real if n > 1 else 0.0
    keys[1::2] = -np.round(rows.real, 9).T
    keys[2::2] = -np.round(rows.imag, 9).T
    return np.lexsort(keys[::-1])


def characters(h: FiniteHypergroup, seed: int = DEFAULT_SEED) -> CharacterTable:
    """Characters of a commutative finite hypergroup via joint
    diagonalization of the convolution operators.

    A character alpha solves B_i alpha = alpha(i) alpha where
    (B_i)_{jk} = c[i][j][k]; generic random convex combinations of the B_i
    separate the joint eigenspaces.  Deterministic for a fixed seed.
    """
    if not h.is_commutative():
        raise NotCommutative("character theory requires a commutative hypergroup")
    n, e = h.n, h.identity
    c = h.conv_f  # B_i = c[i], (B_i)_{jk} = c[i][j][k]

    rng = np.random.Generator(np.random.Philox(seed))
    last_err = None
    for _ in range(CHARACTER_RETRIES):
        wts = rng.dirichlet(np.ones(n))
        M = sum(wt * Bi for wt, Bi in zip(wts, c))
        vals, vecs = np.linalg.eig(M)
        order = np.argsort(-vals.real)
        gaps = np.abs(np.diff(np.sort_complex(vals)))
        if gaps.size and gaps.min() < 1e-8:
            last_err = DegenerateSpectrum("eigenvalue gap below 1e-8")
            continue
        V = vecs[:, order]
        if (np.abs(V[e]) < 1e-12).any():
            last_err = DegenerateSpectrum("eigenvector refinement failed")
            continue
        alphas = V / V[e]
        # refine alpha(i) against each B_i and check multiplicativity, for
        # every eigenvector at once: BA[i, j, m] = (B_i alpha_m)_j
        BA = c @ alphas
        avals = BA[:, e, :].T                    # avals[m, i] = alpha_m(i)
        resid = np.abs(BA - avals.T[:, None, :] * alphas[None, :, :]).max()
        if resid > TOL:
            last_err = DegenerateSpectrum("eigenvector refinement failed")
            continue
        chars = avals[_char_order(avals)]
        left, _, _ = haar(h)
        omega = np.array([float(v) for v in left])
        omega = omega / omega[e]
        norms = (omega[None, :] * np.abs(chars) ** 2).sum(axis=1)
        plancherel = 1.0 / norms
        table = CharacterTable(chars=chars, haar=omega, plancherel=plancherel,
                               seed=seed)
        _check_table(h, table)
        return table
    raise last_err or DegenerateSpectrum("joint diagonalization failed")


def _check_table(h: FiniteHypergroup, table: CharacterTable):
    chars, omega, pl = table.chars, table.haar, table.plancherel
    n, e, inv = h.n, h.identity, h.involution
    if np.abs(chars[:, e] - 1.0).max() > TOL:
        raise DegenerateSpectrum("character not normalized at e")
    if (np.abs(chars) > 1 + 1e-8).any():
        raise DegenerateSpectrum("character exceeds modulus 1")
    if np.abs(chars[:, inv] - np.conj(chars)).max() > 1e-8:
        raise DegenerateSpectrum("character not involution-compatible")
    gram = (chars * omega[None, :]) @ np.conj(chars.T)
    off = gram - np.diag(np.diag(gram))
    if np.abs(off).max() > 1e-7:
        raise DegenerateSpectrum("characters not orthogonal")
    if abs(pl.sum() - 1.0) > 1e-8:
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


def positive_definite_check(h: FiniteHypergroup, f, table: CharacterTable | None = None,
                            seed: int = DEFAULT_SEED):
    """Bochner test: expand f over the characters and require nonnegative
    coefficients; cross-checked against the Gram matrix
    F_{kl} = (delta_{x_k} * delta_{bar x_l})(f) being PSD.

    Returns (is_pd, mu) with mu the character coefficients.
    """
    if table is None:
        table = characters(h, seed=seed)
    f = np.asarray(f, dtype=complex)
    mu = table.plancherel * fourier(f, table)
    is_pd = bool(mu.real.min() >= -TOL and np.abs(mu.imag).max() <= TOL)

    gram = h.conv_f[:, h.involution] @ f
    herm = (gram + np.conj(gram.T)) / 2
    min_eig = float(np.linalg.eigvalsh(herm).min())
    gram_pd = min_eig >= -PSD_FLOOR
    if is_pd != gram_pd:
        raise AssertionError(
            f"Bochner expansion ({is_pd}) and Gram criterion ({gram_pd}, "
            f"min eig {min_eig:.3e}) disagree")
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


def semicharacters(h: FiniteHypergroup, seed: int = DEFAULT_SEED) -> list[np.ndarray]:
    """All real multiplicative involution-compatible vectors with alpha(e)=1.

    For finite D every such solution is a character, so these are the real
    rows of the character table.
    """
    table = characters(h, seed=seed)
    out = []
    for row in table.chars:
        if np.abs(row.imag).max() <= 1e-9:
            out.append(row.real.copy())
    return out


def _double(v) -> float:
    """float(v), or ValueError for a value that is not a finite double."""
    try:
        x = float(v)
    except OverflowError:       # a rational past the double range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError("alpha0 entries must be finite doubles")
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
        s, S, num, den, eps = np.array([_double(v) for v in a]), 1, h.conv_f, 1, TOL
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
    return FiniteHypergroup._of(num, den, h.identity, h.involution.copy(),
                                scheme_derived=False)
