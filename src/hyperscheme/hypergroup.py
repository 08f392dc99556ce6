"""Finite hypergroup algebra: construction from schemes, Haar measure,
character tables, Fourier/Plancherel analysis, positive definiteness, dual
convolution, and semicharacter deformations.

Convolution tensors built from counting data are exact Fractions; everything
spectral runs in double precision with an absolute tolerance of 1e-9 and a
PSD eigenvalue floor of -1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .scheme import (AssociationScheme, AxiomViolation, GeneralizedScheme,
                     _recover_involution, verify_generalized)

TOL = 1e-9
PSD_FLOOR = 1e-8
DEFAULT_SEED = 0x5EED


class NotCommutative(Exception):
    pass


class NotASemicharacter(Exception):
    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"semicharacter equation residual {residual}")


class DegenerateSpectrum(Exception):
    pass


def _to_float_tensor(conv) -> np.ndarray:
    return np.asarray(
        [[[float(c) for c in row] for row in plane] for plane in conv], dtype=float)


@dataclass(frozen=True)
class FiniteHypergroup:
    """Convolution tensor c[i][j][k] = (delta_i * delta_j)({k}).

    conv entries are Fractions for counting-derived hypergroups and floats
    otherwise; conv_f is the float view used by the spectral routines.
    scheme_derived records whether the hypergroup came from a (generalized)
    scheme, which is what licenses the dual-convolution nonnegativity test.
    """

    n: int
    conv: tuple  # nested tuple [i][j][k] of Fraction or float
    identity: int
    involution: np.ndarray
    scheme_derived: bool = False
    conv_f: np.ndarray = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "conv_f", _to_float_tensor(self.conv))
        object.__setattr__(self, "involution",
                           np.asarray(self.involution, dtype=np.int64))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.conv[0][0][0], Fraction)

    def c(self, i: int, j: int, k: int):
        return self.conv[i][j][k]

    def convolve(self, mu, nu):
        """Convolution of two weight vectors over D (exact if all inputs are)."""
        exact = self.is_exact and not any(
            isinstance(v, float) for v in list(mu) + list(nu))
        zero = Fraction(0) if exact else 0.0
        out = [zero] * self.n
        for i, a in enumerate(mu):
            if a == 0:
                continue
            for j, b in enumerate(nu):
                if b == 0:
                    continue
                row = self.conv[i][j]
                ab = a * b
                for k in range(self.n):
                    if row[k]:
                        out[k] += ab * row[k]
        return out

    def is_commutative(self, tol: float = TOL) -> bool:
        return bool(np.abs(self.conv_f - self.conv_f.transpose(1, 0, 2)).max() <= tol)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.involution, np.arange(self.n)))


def _freeze(tensor) -> tuple:
    return tuple(tuple(tuple(row) for row in plane) for plane in tensor)


def from_scheme(scheme: AssociationScheme) -> FiniteHypergroup:
    """Bose-Mesner convolution c[i][j][k] = (w_k / (w_i w_j)) p_{i,j}^k,
    exact rationals."""
    d = scheme.n_relations
    w = scheme.valency
    p = scheme.p
    conv = [[[Fraction(int(w[k]) * int(p[i, j, k]), int(w[i]) * int(w[j]))
              for k in range(d)] for j in range(d)] for i in range(d)]
    return FiniteHypergroup(n=d, conv=_freeze(conv),
                            identity=scheme.partition.identity_relation,
                            involution=scheme.involution.copy(),
                            scheme_derived=True)


def from_generalized(gs: GeneralizedScheme) -> FiniteHypergroup:
    """Hypergroup with conv = the deformed tensor p~ of a generalized scheme."""
    ptilde = verify_generalized(gs)
    conv = [[[float(ptilde[i, j, k]) for k in range(gs.partition.n_relations)]
             for j in range(gs.partition.n_relations)]
            for i in range(gs.partition.n_relations)]
    return FiniteHypergroup(n=gs.partition.n_relations, conv=_freeze(conv),
                            identity=gs.partition.identity_relation,
                            involution=_recover_involution(gs.partition),
                            scheme_derived=True)


@dataclass
class HypergroupReport:
    ok: bool
    commutative: bool
    symmetric: bool
    failures: list


def verify_hypergroup(h: FiniteHypergroup, tol: float = TOL,
                      raise_on_failure: bool = True) -> HypergroupReport:
    """Check identity, support-of-identity, involution compatibility,
    associativity, nonnegativity and normalization of the tensor."""
    c = h.conv_f
    n, e, inv = h.n, h.identity, h.involution
    failures = []

    if c.min() < -tol:
        i, j, k = map(int, np.argwhere(c < -tol)[0])
        failures.append(AxiomViolation("nonnegative", (i, j, k)))
    sums = c.sum(axis=2)
    if np.abs(sums - 1.0).max() > 1e-8:
        i, j = map(int, np.argwhere(np.abs(sums - 1.0) > 1e-8)[0])
        failures.append(AxiomViolation("normalization", (i, j)))

    eye = np.eye(n)
    bad_ident = ((np.abs(c[:, e] - eye).max(axis=1) > tol)
                 | (np.abs(c[e] - eye).max(axis=1) > tol))
    for x in np.flatnonzero(bad_ident):
        failures.append(AxiomViolation("identity", (int(x),)))

    wants_e = np.arange(n)[None, :] == inv[:, None]
    for x, y in np.argwhere((c[:, :, e] > tol) != wants_e):
        failures.append(AxiomViolation("support-of-identity", (int(x), int(y))))

    # c[inv[y], inv[x], inv[k]] at [x, y, k]
    c_bar = c[np.ix_(inv, inv, inv)].transpose(1, 0, 2)
    for x, y in np.argwhere(np.abs(c - c_bar).max(axis=2) > tol):
        failures.append(AxiomViolation("involution-compat", (int(x), int(y))))

    # associativity: (delta_i * delta_j) * delta_l == delta_i * (delta_j * delta_l),
    # one slice i at a time so memory stays O(n^3)
    rows, cols = c.reshape(n, n * n), c.reshape(n * n, n)
    for i in range(n):
        lhs = c[i] @ rows                        # [j, (l, k)]
        rhs = cols @ c[i]                        # [(j, l), k]
        bad = np.abs(lhs.reshape(n, n, n) - rhs.reshape(n, n, n)) > 1e-8
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
    left = [1 / h.c(int(inv[x]), x, h.identity) if h.is_exact
            else 1.0 / h.c(int(inv[x]), x, h.identity) for x in range(h.n)]
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


def _char_sort_key(row: np.ndarray):
    key = [-row[1].real] if row.size > 1 else [0.0]
    for v in row:
        key.extend((-round(v.real, 9), -round(v.imag, 9)))
    return tuple(key)


def characters(h: FiniteHypergroup, seed: int = DEFAULT_SEED,
               max_retries: int = 5) -> CharacterTable:
    """Characters of a commutative finite hypergroup via joint
    diagonalization of the convolution operators.

    A character alpha solves B_i alpha = alpha(i) alpha where
    (B_i)_{jk} = c[i][j][k]; generic random convex combinations of the B_i
    separate the joint eigenspaces.  Deterministic for a fixed seed.
    """
    if not h.is_commutative():
        raise NotCommutative("character theory requires a commutative hypergroup")
    n, e = h.n, h.identity
    c = h.conv_f
    B = [c[i] for i in range(n)]  # B[i][j, k] = c[i][j][k]

    rng = np.random.Generator(np.random.Philox(seed))
    last_err = None
    for _ in range(max_retries):
        wts = rng.dirichlet(np.ones(n))
        M = sum(wt * Bi for wt, Bi in zip(wts, B))
        vals, vecs = scipy.linalg.eig(M)
        order = np.argsort(-vals.real)
        gaps = np.abs(np.diff(np.sort_complex(vals)))
        if gaps.size and gaps.min() < 1e-8:
            last_err = DegenerateSpectrum("eigenvalue gap below 1e-8")
            continue
        rows = []
        ok = True
        for idx in order:
            v = vecs[:, idx]
            if abs(v[e]) < 1e-12:
                ok = False
                break
            alpha = v / v[e]
            # refine alpha(i) against each B_i and check multiplicativity
            avals = np.array([(Bi @ alpha)[e] for Bi in B])
            resid = max(np.abs(Bi @ alpha - avals[i] * alpha).max()
                        for i, Bi in enumerate(B))
            if resid > TOL:
                ok = False
                break
            rows.append(avals)
        if not ok:
            last_err = DegenerateSpectrum("eigenvector refinement failed")
            continue
        chars = np.array(sorted(rows, key=_char_sort_key))
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

    gram = np.empty((h.n, h.n), dtype=complex)
    for k in range(h.n):
        for l in range(h.n):
            gram[k, l] = h.conv_f[k, int(h.involution[l])] @ f
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


def semicharacter_deform(h: FiniteHypergroup, alpha0) -> FiniteHypergroup:
    """Deformed convolution c~[i][j][k] = alpha0(k)/(alpha0(i) alpha0(j)) c[i][j][k].

    alpha0 must be a strictly positive semicharacter; the Haar weights of the
    result are alpha0^2 times the original ones.
    """
    a = list(alpha0)
    af = np.array([float(v) for v in a])
    if af.min() <= 0:
        raise NotASemicharacter("alpha0 not strictly positive")
    if abs(af[h.identity] - 1.0) > TOL:
        raise NotASemicharacter(abs(af[h.identity] - 1.0))
    if np.abs(af[h.involution] - af).max() > TOL:
        raise NotASemicharacter(np.abs(af[h.involution] - af).max())
    resid = np.abs(np.einsum("ijk,k->ij", h.conv_f, af) - np.outer(af, af)).max()
    if resid > TOL:
        raise NotASemicharacter(resid)

    exact = h.is_exact and all(isinstance(v, (Fraction, int)) for v in a)
    vals = [Fraction(v) for v in a] if exact else [float(v) for v in af]
    conv = [[[vals[k] / (vals[i] * vals[j]) * h.conv[i][j][k]
              for k in range(h.n)] for j in range(h.n)] for i in range(h.n)]
    return FiniteHypergroup(n=h.n, conv=_freeze(conv), identity=h.identity,
                            involution=h.involution.copy(),
                            scheme_derived=False)
