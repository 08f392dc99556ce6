"""The two-parameter family of distance-transitive clique-tree graphs: exact
polynomial hypergroup on the nonnegative integers, orthogonal-polynomial
evaluators, orthogonality measure, finite balls with the exact graph metric,
positive-definiteness tests, and boundary-ray deformations.

Graph(a, b) is the infinite graph in which every vertex lies in a complete
graphs of size b, glued in a tree-like fashion; a, b >= 2.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .banded import Band, _deformed, _split, g_coeffs, haar_weight
from .hypergroup import _check_law, _ratios
from .scheme import CheckFailure, GeneralizedScheme, _physical_memory

# build_ball refuses larger balls; the cap's one job is to keep the float
# Gram verdicts of --report psd at radii where they hold
BALL_CAP = 200_000
QUAD_TOL = 1e-10
QUAD_MAX_NODES = 1 << 14
SUPPORT_CAP = 10_000     # atoms a PolyHypergroup.power may reach
DEFORM_ROW_SUM_TOL = 1e-12   # a deformed kernel row sums to 1 up to rounding
PUSHFORWARD_TOL = 1e-10      # pushforward_vs_haar: a few roundings of e^{2c}
ORTHO_TOL = 1e-6             # --report ortho: int P_m P_n vs delta_mn / h(n), 1e4 QUAD_TOL
_POLE_GAP, _ZERO_GAP = 1e-12, 1e-300    # closed_form_eval: z off c's poles +-1, 1/z finite
# DeformedKernels.max_row_sum_error scatters kernel rows in blocks of at most
# this many bytes (one row at least)
_ROW_BLOCK_BYTES = 1 << 18


class DomainError(ValueError):
    pass


class QuadratureFailure(CheckFailure):
    pass


class SupportCap(CheckFailure):
    @classmethod
    def check(cls, top: int):
        if top > SUPPORT_CAP:
            raise cls(f"support would exceed {SUPPORT_CAP}")


class BallTooLarge(ValueError):
    pass


class NonUniqueMinimizer(ValueError):
    pass


class UnsupportedParams(ValueError):
    pass


def _normal(value: float, what: str) -> float:
    """value, or DomainError unless it is a finite positive normal double."""
    if not sys.float_info.min <= value < math.inf:
        raise DomainError(f"{what} is {value!r}, not a finite positive double "
                          f">= {sys.float_info.min!r}")
    return value


@dataclass(frozen=True)
class DTParams:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 2 or self.b < 2:
            raise DomainError("parameters must satisfy a, b >= 2")


def _recurrence(x, params: DTParams) -> tuple:
    """(P_1(x), step), step(P_{k-1}, P_k) = P_{k+1}: P_1 P_k = P_{k-1}/(a(b-1))
    + (b-2)/(a(b-1)) P_k + (a-1)/a P_{k+1}, homogeneous in (P_{k-1}, P_k)."""
    a, b = params.a, params.b
    p1 = (2.0 / a) * math.sqrt((a - 1) / (b - 1)) * x + (b - 2) / (a * (b - 1))
    r, c, d = a / (a - 1), (b - 2) / (a * (b - 1)), a * (b - 1)
    return p1, lambda prev, cur: r * (p1 * cur - c * cur - prev / d)


def poly_values(n: int, x, params: DTParams) -> np.ndarray:
    """P_0(x), ..., P_n(x) in float64, from one pass of the recurrence; for
    an array x, P_k(x) is row k of an array of shape (n + 1, *x.shape)."""
    p1, step = _recurrence(x, params)
    terms = [1.0, p1][:n + 1]
    for _ in range(n - 1):
        terms.append(step(terms[-2], terms[-1]))
    if np.ndim(x) == 0:
        return np.array(terms)
    P = np.empty((n + 1, *np.shape(x)))
    for k, term in enumerate(terms):
        P[k] = term
    return P


def poly_eval(n: int, x, params: DTParams):
    """P_n(x) by the three-term recurrence; P_0 = 1 and
    P_1(x) = (2/a) sqrt((a-1)/(b-1)) x + (b-2)/(a(b-1))."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    p1, step = _recurrence(x, params)
    prev, cur = 1.0, p1
    for _ in range(n - 1):
        prev, cur = cur, step(prev, cur)
    return cur if n else prev


def closed_form_eval(n: int, z: complex, params: DTParams) -> complex:
    """P_n((z + 1/z)/2) = (c(z) z^n + c(1/z) z^{-n}) / ((a-1)(b-1))^{n/2}."""
    a, b = params.a, params.b
    z = complex(z)
    if abs(z) < _ZERO_GAP or abs(z - 1) < _POLE_GAP or abs(z + 1) < _POLE_GAP:
        raise DomainError("z must avoid 0 and +/-1")

    def cfun(w):
        return ((a - 1) * w - 1 / w
                + (b - 2) * math.sqrt(a - 1) / math.sqrt(b - 1)) / (a * (w - 1 / w))

    return (cfun(z) * z ** n + cfun(1 / z) * z ** (-n)) / ((a - 1) * (b - 1)) ** (n / 2)


def special_points(params: DTParams):
    """(s0, s1): P_n(s1) = 1 and P_n(s0) = (1-b)^{-n} for all n."""
    a, b = params.a, params.b
    r = 2.0 * math.sqrt((a - 1) * (b - 1))
    return (2 - a - b) / r, (a * b - a - b + 2) / r


def product_formula_residual(m: int, n: int, x: float, params: DTParams) -> float:
    """|P_m(x) P_n(x) - sum_k g_{m,n,k} P_k(x)|."""
    P = poly_values(m + n, x, params).tolist()
    lhs = P[m] * P[n]
    rhs = sum(float(c) * P[k] for k, c in g_coeffs(m, n, params).items())
    return abs(lhs - rhs)


_QUAD_START = 27


@lru_cache(maxsize=None)
def _quad_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cos theta, sin^2 theta) at the 2n nodes that tripling the
    n-node midpoint rule adds, theta = (3i + 1/2) pi/3n and (3i + 5/2) pi/3n
    for i < n; at n = _QUAD_START led by the starting nodes (i + 1/2) pi/n.
    cos and sin run on each part alone, so every node is the same double as
    in the uncached rule of tests/reference_spectral.py."""
    i = np.arange(n)
    thetas = [np.concatenate((3 * i + 0.5, 3 * i + 2.5)) * (np.pi / (3 * n))]
    if n == _QUAD_START:
        thetas.insert(0, (i + 0.5) * (np.pi / n))
    x = np.concatenate([np.cos(t) for t in thetas])
    sin2 = np.concatenate([np.sin(t) ** 2 for t in thetas])
    x.setflags(write=False)
    sin2.setflags(write=False)
    return x, sin2


def _all(flags) -> bool:
    """flags.all(), without numpy's reduction machinery for a bool or a 0-d
    flag."""
    return bool(flags.all() if getattr(flags, "ndim", 0) else flags)


def _finite(s, what: str):
    """s, or QuadratureFailure naming its first entry that is not finite."""
    if not _all(abs(s) < math.inf):
        s = np.asarray(s)
        raise QuadratureFailure(f"integrand {what} is {s[~np.isfinite(s)].flat[0]}")
    return s


def ortho_measure_integrate(f, params: DTParams):
    """Integral of f against the normalized orthogonality measure.

    Absolutely continuous part (a/2pi) sqrt(1-x^2)/((s1-x)(x-s0)) dx on
    [-1,1], plus an atom of mass (b-a)/b at s0 when b > a.  After
    x = cos(theta) the integrand is analytic and periodic in theta
    (sin^2 theta = (1-x)(1+x) cancels a pole at s0 = -1 or s1 = 1, and the
    others lie off [-1, 1]), so the midpoint rule with nodes
    (i + 1/2) pi / n converges geometrically.  n starts at 27 and triples;
    the old nodes are the middle nodes of the new triples, so f is called
    (on a read-only array from _quad_nodes) only at the 2n new nodes of each
    round, the first call also on the 27 starting ones, until two sums agree
    to QUAD_TOL or 3n would pass QUAD_MAX_NODES.  QuadratureFailure as soon
    as a sum, or f at the atom, is not finite.

    f may return an array with the nodes on its last axis: the result is then
    one integral per entry, each taken at the first round where that entry
    converged, so equal to integrating the entry alone.
    """
    a, b = params.a, params.b
    s0, s1 = special_points(params)
    n, total, got, done = _QUAD_START, None, 0.0, False
    while 3 * n <= QUAD_MAX_NODES:
        x, sin2 = _quad_nodes(n)
        v = f(x) * (a / (2 * np.pi)) * sin2 / ((s1 - x) * (x - s0))
        if total is None:
            total = v[..., :n].sum(axis=-1)
            prev = total * np.pi / n
            v = v[..., n:]
        n *= 3
        total = _finite(total + v.sum(axis=-1), f"sum on the first {n} nodes")
        val = total * np.pi / n
        # |val - prev| <= QUAD_TOL * max(1, |val|), one entry or many
        diff = abs(val - prev)
        ok = (diff <= QUAD_TOL) | (diff <= QUAD_TOL * abs(val))
        got = np.where(done, got, val) if val.ndim else val
        done = done | ok
        if _all(done):
            if b > a:
                got = got + (b - a) / b * _finite(f(s0), "value at the atom s0")
            return float(got) if got.ndim == 0 else got
        prev = val
    raise QuadratureFailure(f"no convergence with up to {QUAD_MAX_NODES} nodes")


class PolyHypergroup:
    """The polynomial hypergroup on N_0 attached to Graph(a, b), with lazy
    exact coefficients, plus its positive-semicharacter deformations.

    g(m, n, k) = p_{m,n}^k s(k) / (s(m) s(n)), s(h) = alpha0(h) h(h).  Every
    convolution runs one banded right-convolution operator, banded.Band.
    Exact laws over h(m) run it on Python integers with p; deformed or float
    ones on float64 with g, as masses over s(m) would leave double range.
    Deformed, alpha0(h) = P_h(x0) is a mantissa and an exponent (_scaled_row).
    """

    def __init__(self, params: DTParams, x0: float | None = None):
        self.params, self.x0 = params, x0
        self._F, self._G = np.empty(0), np.empty(0, dtype=np.int64)    # P_h(x0) = F[h] 2^G[h]

    @property
    def identity(self) -> int:
        return 0

    def _scaled_row(self, h: int) -> tuple:
        """(F, G) = frexp(P_j(x0)), j = 0 .. h or twice as far, by poly_values'
        recurrence run on its last two values times 2^-s, s carried in G: that
        is exact, so P_j is poly_values' bit for bit wherever those stay normal."""
        if h >= self._F.size:
            p1, step = _recurrence(self.x0, self.params)
            prev, cur, e, FG = 1.0, p1, 0, [(0.5, 1)]
            for _ in range(max(h, 2 * self._F.size)):
                f, s = math.frexp(cur)
                FG.append((f, s + e))
                s = math.frexp(max(abs(prev), abs(cur)))[1]
                prev, cur = math.ldexp(prev, -s), math.ldexp(cur, -s)
                prev, cur, e = cur, step(prev, cur), e + s
            self._F, self._G = map(np.array, zip(*FG))
        return self._F, self._G

    def _alpha_row(self, h: int) -> tuple:
        """_scaled_row cut before its first alpha0(j) that is not finite and
        positive; alpha0(j)'s DomainError if j <= h (no hypergroup there)."""
        F, G = self._scaled_row(h)
        j = int(np.append((F > 0) & (F < math.inf), False).argmin())
        if h >= j:
            self.alpha0(j)
        return F[:j], G[:j]

    def alpha0(self, h: int) -> float:
        """P_h(x0), 1.0 undeformed; DomainError unless a normal double."""
        if self.x0 is None:
            return 1.0
        F, G = self._scaled_row(h)
        value = math.ldexp(F[h], int(G[h])) if G[h] <= 1024 else float(F[h]) * math.inf
        return _normal(value, f"alpha0({h}) = P_{h}(x0) at x0 = {self.x0!r}")

    def haar(self, n: int):
        w = haar_weight(n, self.params)
        if self.x0 is None:
            return w
        F, G = self._alpha_row(n)
        # alpha0(n) = a 2^e, a = alpha0(n) wherever a^2 is a normal double
        e, (y, s) = G[n] - np.clip(G[n], -510, 512), _split(w)
        with np.errstate(over="ignore"):
            value = float(np.ldexp(np.ldexp(F[n], G[n] - e) ** 2, 2 * e + s) * y)
        return _normal(value, f"haar({n}) = alpha0({n})^2 h({n}) at x0 = {self.x0!r}")

    def g(self, m: int, n: int) -> dict:
        """g(m, n, .): Fractions undeformed, doubles deformed (_deformed)."""
        coeffs = g_coeffs(m, n, self.params)
        if self.x0 is None:
            return coeffs
        return dict(zip(coeffs, _deformed(*self._alpha_row(m + n), m, n, list(coeffs),
                                          coeffs.values()).tolist()))

    def _scaled(self, masses: dict):
        """(v, den) with masses[m] / h(m) = v[m] / den over the integers, or
        None when the instance is deformed or a mass is not rational."""
        r = None if self.x0 is not None else _ratios(list(masses.values()))
        if r is None:
            return None
        lcm = math.lcm(*(haar_weight(m, self.params) for m in masses))
        return {m: a * (lcm // haar_weight(m, self.params))
                for m, a in zip(masses, r[0])}, r[1] * lcm

    def _masses(self, x: np.ndarray, lo: int, den) -> dict:
        """{k: mass} for the nonzero x[k - lo], keys ascending: the Fractions
        h(k) x[k - lo] / den of integer masses, or doubles when den is None."""
        at = np.flatnonzero(x)
        keys, vals = (at + lo).tolist(), x[at].tolist()
        if den is None:
            return dict(zip(keys, vals))
        out, h, prev, q = {}, 1, 0, (self.params.a - 1) * (self.params.b - 1)
        for k, c in zip(keys, vals):
            # h(k) = h(prev) q^(k - prev) once prev >= 1
            h = h * q ** (k - prev) if prev else haar_weight(k, self.params)
            out[k], prev = Fraction(h * c, den), k
        return out

    def convolve(self, mu: dict, nu: dict) -> dict:
        """mu * nu with the keys ascending, in Fractions when undeformed with
        rational masses (labels >= 0).  The Band of nu steps once over each
        run of the keys of mu whose gaps are at most twice the largest label
        of nu, so the runs' images neither meet nor fill the gaps between
        them."""
        _check_law(mu.keys() | nu.keys())
        su, sv = self._scaled(mu), self._scaled(nu)
        if su and sv:
            (rows, a), (law, b) = su, sv
            dtype, den = object, a * b
        else:
            rows = {m: float(v) for m, v in mu.items()}
            law = {n: float(v) for n, v in nu.items()}
            dtype, den = float, None
        keys, band = sorted(rows), Band(self, list(law.items()), dtype is object)
        cuts = [i for i in range(1, len(keys)) if keys[i] - keys[i - 1] > 2 * band.top]
        bounds = [0, *cuts, len(keys)] if keys else [0]
        out = {}
        for i, j in zip(bounds, bounds[1:]):
            x = np.zeros(keys[j - 1] - keys[i] + 1, dtype=dtype)
            x[np.array(keys[i:j]) - keys[i]] = [rows[k] for k in keys[i:j]]
            out.update(self._masses(*band.step(x, keys[i]), den))
        return out

    def power(self, mu: dict, t: int) -> dict:
        """t-fold convolution power of the law mu from delta_0, with the keys
        ascending: t steps of the Band of mu on one vector over the support
        range; _check_law, run first, caps t * max(mu) at SUPPORT_CAP."""
        _check_law(mu, t, cap=SupportCap.check)
        scaled = self._scaled(mu)
        if scaled is None:
            law, x, den = [(m, float(a)) for m, a in mu.items()], np.ones(1), None
        else:
            law, x, den = list(scaled[0].items()), np.ones(1, dtype=object), scaled[1] ** t
        band, lo = Band(self, law, den is not None), self.identity
        for _ in range(t):
            x, lo = band.step(x, lo)
        return self._masses(x, lo, den)

    def deform(self, x0: float) -> "PolyHypergroup":
        if self.x0 is not None:
            raise DomainError("already deformed")
        return PolyHypergroup(self.params, x0=x0)


# e^x and e^-x are finite nonzero doubles exactly when |x| <= _EXP_LIMIT
_EXP_LIMIT = math.log(sys.float_info.max)


def _check_exponent(x: float, what: str):
    """DomainError unless e^x and e^-x are finite nonzero doubles: a
    deformation parameter c out of double range."""
    if not abs(x) <= _EXP_LIMIT:
        raise DomainError(f"{what} leaves double range (exponent {abs(x):.6g}); "
                          "use a smaller |c|")


def deformation_point(c: float, params: DTParams) -> float:
    """x_c = (e^c r + e^{-c}/r)/2 = cosh(c + log r) with r = sqrt((a-1)(b-1)),
    in [1, inf)."""
    r = math.sqrt((params.a - 1) * (params.b - 1))
    _check_exponent(c + math.log(r), "x_c")
    q = math.exp(c) * r
    return 0.5 * (q + 1.0 / q)


def ball_size(params: DTParams, R: int) -> int:
    """1 + a(b-1)(q^R - 1)/(q - 1) vertices, q = (a-1)(b-1): the sum of the
    Haar weights of the spheres; 1 + 2R on the path, q = 1."""
    a, b = params.a, params.b
    q = (a - 1) * (b - 1)
    return 1 + 2 * R if q == 1 else 1 + a * (b - 1) * (q ** R - 1) // (q - 1)


@dataclass
class Ball:
    """Radius-R ball of Graph(a, b) rooted at the empty word.

    A vertex is a step-word: the first step picks (clique, slot) from
    {1..a} x {1..b-1}, later steps from {1..a-1} x {1..b-1} (the arrival
    clique is excluded and re-indexed away).  depths, parents and cliques
    give each vertex's word length, prefix id and last-step clique (0, 0 and
    0 at the root); they are the ball's only record of its vertices.

    Layout: vertices are listed by depth, and the children of a vertex are
    contiguous, in step order.  With start[h] the first id of depth h and
    k_1 = a, k_h = a - 1, the child of v at depth h by step (clique, slot) is
    start[h] + (v - start[h-1]) k_h (b-1) + (clique-1)(b-1) + (slot-1).
    """

    params: DTParams
    radius: int
    depths: np.ndarray = field(repr=False)
    parents: np.ndarray = field(repr=False)
    cliques: np.ndarray = field(repr=False)
    _dist: np.ndarray = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.depths.size

    @property
    def root(self) -> int:
        return 0

    @property
    def starts(self) -> np.ndarray:
        """start[h], the first id of depth h, for h = 0..R+1 (start[R+1] = n)."""
        return np.searchsorted(self.depths, np.arange(self.radius + 2))

    def depth(self, i: int) -> int:
        return int(self.depths[i])

    def word(self, v: int) -> tuple:
        """The step-word of vertex v, read off the layout."""
        start, b = self.starts, self.params.b
        steps = []
        while v:
            slot = (v - start[self.depth(v)]) % (b - 1) + 1
            steps.append((int(self.cliques[v]), int(slot)))
            v = int(self.parents[v])
        return tuple(reversed(steps))

    def find(self, word) -> int:
        """The id of a step-word; ValueError for a step out of range or a
        word longer than the radius."""
        if len(word) > self.radius:
            raise ValueError(f"word {word} is longer than the radius {self.radius}")
        start, a, b = self.starts, self.params.a, self.params.b
        v = 0
        for h, (clique, slot) in enumerate(word, 1):
            k = a if h == 1 else a - 1
            if not (1 <= clique <= k and 1 <= slot <= b - 1):
                raise ValueError(f"step {h} of {word} is out of range")
            v = (start[h] + (v - start[h - 1]) * k * (b - 1)
                 + (clique - 1) * (b - 1) + slot - 1)
        return int(v)

    @property
    def dist_matrix(self) -> np.ndarray:
        """All-pairs distances (int32), filled from _sphere_pairs; no
        library path reads it."""
        if self._dist is None:
            R = self.radius
            D = np.zeros((self.n, self.n), dtype=np.int32)
            h, rows, cols = self._sphere_pairs(np.full(2 * R + 1, R))
            D[rows, cols] = h
            self._dist = D
        return self._dist

    def _sphere_pairs(self, tops: np.ndarray) -> tuple:
        """(h, rows, cols), ascending in h, of every pair at distance h with
        depth(row) <= tops[h] <= R, for h = 0..len(tops) - 1; columns deeper
        than R are left out.

        For x at depth d, go j = 0..min(h, d) steps up to the ancestor z at
        depth p = d - j, and let c be x's ancestor at depth p + 1.  The
        distance-h sphere of x is the union of x's descendants at depth
        d + h (j = 0), z itself (j = h), the descendants at depth
        p + 1 + h - j of z's other children in c's clique, and, for j < h,
        the descendants at depth p + h - j of z's children in other cliques.
        The descendants at depth D of an id range at depth q are the range
        start[D] + (v - start[q]) w_D / w_q, with w the sphere sizes.
        """
        a, b, R = self.params.a, self.params.b, self.radius
        start = self.starts
        w = np.diff(start)
        h, d = _expand(np.zeros_like(tops), tops + 1)
        if (a - 1) * (b - 1) == 1:
            # the path: below the root c is z's only child, so only j = 0,
            # j = d (z the root) and j = h give a vertex
            root, pos = (0 < d) & (d < h), h > 0
            h, d, j = (np.concatenate(v) for v in (
                (h, h[root], h[pos]), (d, d[root], d[pos]),
                (np.zeros_like(d), d[root], h[pos])))
        else:
            which, j = _expand(np.zeros_like(d), np.minimum(h, d) + 1)
            h, d = h[which], d[which]
        # the nearest part, in another clique, lies at depth d + h - 2j
        keep = (d + h - R <= 2 * j) & (j <= d)
        which, x = _expand(start[d[keep]], start[d[keep] + 1])
        h, d, j = h[keep][which], d[keep][which], j[keep][which]
        down = j == 0
        ranges = [(h[down], x[down], x[down], x[down] + 1, d[down], d[down] + h[down])]
        h, x, d, j = h[~down], x[~down], d[~down], j[~down]
        p = d - j
        z = start[p] + (x - start[d]) // (w[d] // w[p])
        c = start[p + 1] + (x - start[d]) // (w[d] // w[p + 1])
        k = w[p + 1] // w[p]                # children of z
        first = start[p + 1] + (z - start[p]) * k
        cs = c - (c - start[p + 1]) % (b - 1)
        same = p + 1 + h - j
        at, off = j == h, j < h
        ranges += [  # (h, rows, lo, hi, depth q of lo..hi, depth of the part)
            (h[at], x[at], z[at], z[at] + 1, p[at], p[at]),
            (h, x, cs, c, p + 1, same),
            (h, x, c + 1, cs + b - 1, p + 1, same),
            (h[off], x[off], first[off], cs[off], p[off] + 1, same[off] - 1),
            (h[off], x[off], cs[off] + b - 1, first[off] + k[off], p[off] + 1,
             same[off] - 1)]
        h, rows, lo, hi, q, D = (np.concatenate(col) for col in zip(*ranges))
        keep = np.flatnonzero((lo < hi) & (D <= R))
        keep = keep[np.argsort(h[keep], kind="stable")]
        h, rows, lo, hi, q, D = (v[keep] for v in (h, rows, lo, hi, q, D))
        f = w[D] // w[q]
        which, cols = _expand(start[D] + (lo - start[q]) * f,
                              start[D] + (hi - start[q]) * f)
        return h[which], rows[which], cols

    def sphere_sizes(self) -> list:
        return np.bincount(self.depths, minlength=self.radius + 1).tolist()

    def sphere_kernels(self, weight) -> KernelFamily:
        """The sphere kernels K_h, h = 0..R, as a KernelFamily with labels
        the depths.  K_0 = I; K_h holds weight(h, rows, cols) (a scalar or one
        value per pair) at the pairs (rows, cols) at distance h whose row's
        distance-h sphere lies inside the ball, depth(row) <= R - h, and zero
        elsewhere.  The rows of K_h are listed from _sphere_pairs for h alone,
        in row-major order, and weighted by one call of weight, on their
        first need."""
        n, R = self.n, self.radius

        def rows(k: int) -> tuple:
            if k == 0:
                return np.arange(n + 1), np.arange(n), np.ones(n)
            tops = np.full(k + 1, -1)
            tops[k] = R - k
            _, r, c = self._sphere_pairs(tops)
            order = np.argsort(r * n + c)
            r, c = r[order], c[order]
            data = np.empty(r.size)
            data[:] = weight(k, r, c)
            keep = np.flatnonzero(data)
            r, c, data = r[keep], c[keep], data[keep]
            return np.searchsorted(r, np.arange(n + 1)), c, data

        return KernelFamily(range(R + 1), rows, self.depths)   # d(root, y) = depth(y)


class KernelFamily(Mapping):
    """The kernels a walk steps through: label -> stochastic n x n kernel K_h
    over a range of labels, and labels, the (n,) label of each state seen
    from state 0, where every walk starts (the root of a ball, point 0 of a
    scheme).  A zero row of K_h is a state the walk may not step from with
    h: on a ball, one whose distance-h sphere leaves the ball.

    Walks read the kernels through rows(h) alone: the nonzero entries of K_h
    as one CSR triple (indptr, indices, data), the columns ascending within
    each row, made by build(h) on first need and kept.  fam[h], also read
    as fam.matrices[h], is the dense K_h, scattered from them on its first
    read, after the memory guard, and kept."""

    def __init__(self, span: range, build, labels: np.ndarray):
        self._span, self._build, self.labels = span, build, labels
        self._rows, self._dense = {}, {}

    @classmethod
    def from_generalized(cls, gs: GeneralizedScheme) -> KernelFamily:
        """The kernels of gs; a family given a stray entry raises its first
        verified failure.  The rows of S_i, found on first need, are the nonzero
        entries of W on relation i's cells in the partition index, in new arrays."""
        n, (starts, order) = gs.partition.n_points, gs.partition._index
        W = gs._weights().ravel()

        def rows(i: int) -> tuple:
            cells = order[starts[i]:starts[i + 1]]
            cells = cells[W[cells] != 0]
            indptr, data = np.searchsorted(cells, np.arange(n + 1) * n), W[cells]
            return indptr, np.remainder(cells, n, out=cells), data

        return cls(range(gs.partition.n_relations), rows, gs.partition.label[0])

    @classmethod
    def from_ball(cls, ball: Ball) -> KernelFamily:
        """Uniform sphere kernels on a ball, 1 / w_h on each sphere."""
        return ball.sphere_kernels(lambda h, rows, cols: 1.0 / haar_weight(h, ball.params))

    @classmethod
    def from_deformed(cls, dk: DeformedKernels) -> KernelFamily:
        return dk.kernels

    def _label(self, h) -> int:
        if h not in self._span:
            raise KeyError(h)
        return int(h)

    def rows(self, h) -> tuple:
        h = self._label(h)
        if h not in self._rows:
            self._rows[h] = self._build(h)
        return self._rows[h]

    @property
    def valid(self) -> dict:
        """label -> boolean mask of the nonzero rows."""
        return {h: np.diff(self.rows(h)[0]) > 0 for h in self}

    def support_labels(self, mu) -> list:
        return sorted(h for h, m in mu.weights.items() if float(m) > 0)

    def guard(self):
        """BallTooLarge when the dense kernels held and one more exceed
        physical memory."""
        n, count = self.labels.shape[0], len(self._dense) + 1
        need, have = count * n * n * 8, _physical_memory()
        if need > have:
            raise BallTooLarge(f"{count} dense {n} x {n} kernels need "
                               f"{need / 2**30:.1f} GiB, more than the "
                               f"{have / 2**30:.1f} GiB of memory")

    def scatter(self, h, lo: int, hi: int) -> np.ndarray:
        """Rows lo .. hi - 1 of K_h as a new dense (hi - lo) x n array, not
        kept."""
        indptr, indices, data = self.rows(h)
        start, end = indptr[lo], indptr[hi]
        K = np.zeros((hi - lo, self.labels.shape[0]))
        K[np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1])),
          indices[start:end]] = data[start:end]
        return K

    @property
    def matrices(self) -> KernelFamily:
        """The family itself, read as the mapping label -> dense kernel."""
        return self

    def __getitem__(self, h) -> np.ndarray:
        h = self._label(h)
        if h not in self._dense:
            self.guard()
            self._dense[h] = self.scatter(h, 0, self.labels.shape[0])
        return self._dense[h]

    def __contains__(self, h) -> bool:
        return h in self._span      # Mapping's would read the dense K_h

    def __iter__(self):
        return iter(self._span)

    def __len__(self) -> int:
        return len(self._span)


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """(which, values): the integers of the ranges [lo[i], hi[i]) in turn,
    each with the index i of its range."""
    size = np.maximum(hi - lo, 0)
    which = np.repeat(np.arange(size.size), size)
    return which, np.arange(which.size) - np.repeat(np.cumsum(size) - size - lo, size)


def sphere_labels(R: int) -> range:
    """0..R, the labels of the sphere kernels of a radius-R ball."""
    if R < 0:
        raise DomainError("radius must be nonnegative")
    return range(R + 1)


def build_ball(params: DTParams, R: int) -> Ball:
    """The arrays of all step-words of length <= R, in the Ball layout;
    BallTooLarge, before any allocation, above BALL_CAP vertices."""
    sphere_labels(R)
    # a sphere has 2 vertices or more, and q times the one before it, so
    # past these radii the ball is over the cap without its size
    if R > (BALL_CAP // 2 if (params.a - 1) * (params.b - 1) == 1 else 63):
        raise BallTooLarge(f"ball has more than {BALL_CAP} vertices, cap is {BALL_CAP}")
    size = ball_size(params, R)
    if size > BALL_CAP:
        raise BallTooLarge(f"ball has {size} vertices, cap is {BALL_CAP}")
    a, b = params.a, params.b
    parents, cliques = [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)]
    n = 1
    for h in range(1, R + 1):
        k, layer = (a if h == 1 else a - 1), parents[-1].size
        parents.append(np.repeat(np.arange(n - layer, n), k * (b - 1)))
        cliques.append(np.tile(np.repeat(np.arange(1, k + 1), b - 1), layer))
        n += parents[-1].size
    depths = np.repeat(np.arange(R + 1, dtype=np.int32), [p.size for p in parents])
    return Ball(params=params, radius=R, depths=depths,
                parents=np.concatenate(parents), cliques=np.concatenate(cliques))


def _symmetry_blocks(x: float, params: DTParams, R: int) -> tuple:
    """The depth-0 symmetry blocks of the radius-R Gram kernel
    M_uv = P_{d(u,v)}(x): (radial, clique) and, when b >= 3, slot.

    M commutes with the automorphisms of the rooted ball, which split the
    functions on it into the radial ones (indexed by depth 0..R) and, for
    each vertex v at depth k < R, the functions psi(child of v on u's path)
    g(|u|) on v's descendants u with psi orthogonal to constants on v's
    children: "clique" psi are constant on each clique and sum to zero
    across them, "slot" psi sum to zero within each clique.  M acts on g by
    an (R-k) x (R-k) block that depends on the type alone, and that block is
    the leading corner of the depth-0 block of its type.

    Entries count common prefixes.  For w at depth j and u at depth m with
    last common ancestor z at depth p, an ancestor pair lies at distance
    |j - m|; otherwise, of the other children of z, b - 2 share the clique of
    w's branch and lie at distance j + m - 2p - 1, and (K_p - 1)(b - 1) lie
    at distance j + m - 2p, where z has K_0 = a or K_p = a - 1 cliques.  In
    the basis normed by sphere sizes every block entry is a sum of
    u_d = q^{d/2} P_d, q = (a-1)(b-1), over distances d read off
    s = j + m and the depth gap; the sums over p become differences of one
    cumulative table.
    """
    a, b = params.a, params.b
    q = (a - 1) * (b - 1)
    rq = math.sqrt(q)
    P = poly_values(2 * R, x, params)
    with np.errstate(over="ignore", invalid="ignore"):
        u = rq ** np.arange(2 * R + 1) * P
        # an off-ancestor pair with common ancestor at depth p adds
        # g_p(s - 2p), g_p(d) = (b-2) u_{d-1}/sqrt(q) + (K_p - 1)(b-1) u_d/q
        g = np.zeros(2 * R + 1)  # below the root, K_p - 1 = a - 2
        g[1:] = (b - 2) * u[:-1] / rq + (a - 2) * (b - 1) * u[1:] / q
        g0 = g + (b - 1) * u / q  # at the root, K_0 - 1 = a - 1
        # G[d] = g(d) + g(d - 2) + ...: sum_{p=1}^{lo-1} g(s - 2p) = G[s-2] - G[gap]
        G = np.empty_like(g)
        G[0::2], G[1::2] = np.cumsum(g[0::2]), np.cumsum(g[1::2])
        j = np.arange(R + 1)
        lo, hi = np.minimum.outer(j, j), np.maximum.outer(j, j)
        s, gap = lo + hi, hi - lo
        # an ancestor pair adds sqrt(|S_hi| / |S_lo|) P_gap = u_gap, times
        # sqrt(a / (a-1)) at the root: |S_0| = 1, |S_j| = a(b-1) q^{j-1}
        radial = u[gap] * np.where((lo == 0) & (hi > 0), math.sqrt(a / (a - 1)), 1.0)
        radial += np.where(lo > 0, g0[s] + G[np.maximum(s - 2, 0)] - G[gap], 0.0)
        # A, the sum inside one child's subtree, is radial[1:, 1:] minus the
        # root's other branches (b-2) B + (a-1)(b-1) C, where a sibling
        # branch in the same clique adds B = u_{t+1}/sqrt(q) and one in
        # another clique C = u_{t+2}/q, t = j + m - 2 (k + 1).  The clique
        # block is A + (b-2) B - (b-1) C and the slot block A - B.
        inner, t = radial[1:, 1:], s[:R, :R]
        C = u[t + 2] / q
        blocks = (radial, inner - a * (b - 1) * C)
        if b > 2:
            blocks += (inner - (b - 1) * u[t + 1] / rq - (a - 1) * (b - 1) * C,)
    if not all(np.isfinite(B).all() for B in blocks):
        raise DomainError(f"Gram blocks at x = {x!r}, radius {R} leave double "
                          "range: x is NaN or too far outside [s0, s1]")
    return blocks


def gram_blocks(x: float, params: DTParams, R: int) -> list:
    """Every symmetry block of the radius-R Gram kernel M_uv = P_{d(u,v)}(x)
    as (multiplicity, block): the radial block once, then for each depth
    k < R the clique block |S_k| (K_k - 1) times and the slot block
    |S_k| K_k (b - 2) times, blocks of multiplicity 0 left out.  The spectrum
    of M is the union of the block spectra, counted with multiplicity, so
    sum(multiplicity * size) is the ball's vertex count."""
    radial, *types = _symmetry_blocks(float(x), params, R)
    out = [(1, radial)]
    for k in range(R):
        cliques = params.a if k == 0 else params.a - 1
        for mult, block in zip((cliques - 1, cliques * (params.b - 2)), types):
            if mult:
                out.append((haar_weight(k, params) * mult, block[:R - k, :R - k]))
    return out


def gram_min_eig(x: float, ball: Ball) -> float:
    """Minimum eigenvalue of the kernel matrix M_{uv} = P_{d(u,v)}(x), from
    the ball's parameters and radius alone: the minimum over the symmetry
    blocks of gram_blocks.  Each depth-k block is a leading corner of the
    depth-0 block of its type, so by Cauchy interlacing only the radial and
    the depth-0 blocks are solved.  DomainError where a block overflows."""
    blocks = _symmetry_blocks(float(x), ball.params, ball.radius)
    return min(float(np.linalg.eigvalsh(B)[0]) for B in blocks if B.size)


@dataclass
class BoundaryRay:
    """The boundary ray through the all-(1,1) words, with the horocycle index
    d(v, B) = d(v, v_n) - n at the ray index n nearest to v, precomputed for
    every ball vertex.

    The ray's vertex at depth n is the first vertex of that depth.  With p
    the depth of v's deepest ancestor on the ray, the nearest ray index is p
    and d(v, B) = |v| - 2p, unless v leaves the ray through clique 1 by a
    slot other than 1 (b > 2): then indices p and p + 1 tie, which raises
    NonUniqueMinimizer instead of guessing a tie-break.
    """

    ball: Ball
    horocycle: np.ndarray = field(init=False)

    def __post_init__(self):
        ball, start = self.ball, self.ball.starts
        if ball.params.b > 2 and ball.radius > 0:
            # the first vertex that ties, in id order, is the root's child
            # by step (1, 2), with p = 0
            raise NonUniqueMinimizer(
                "vertex ((1, 2),): ray indices [0, 1] all realize d = 1")
        p = np.zeros(ball.n, dtype=np.int64)
        for h in range(1, ball.radius + 1):
            layer = slice(start[h], start[h + 1])
            p[layer] = p[ball.parents[layer]]
            p[start[h]] = h
        self.horocycle = ball.depths - 2 * p


@dataclass
class DeformedKernels:
    """Boundary-deformed sphere kernels on a ball.

    kernels[h] is an n x n matrix whose row x is
    e^{c (d(y,B) - d(x,B))} / (P_h(x_c) w_h) on the distance-h pairs while
    x's distance-h sphere lies inside the ball (valid[h], read off the row
    pointers), and zero otherwise; skipped[h] counts the zero rows.
    """

    ball: Ball
    ray: BoundaryRay
    c: float
    x_c: float
    kernels: KernelFamily

    @cached_property
    def max_row_sum_error(self) -> float:
        """Max |row sum - 1| of K_h, h = 1..R, over the rows whose
        distance-h sphere lies inside the ball; computed on first read, from
        those dense rows, scattered in blocks of at most _ROW_BLOCK_BYTES
        (one row at least) and dropped once summed.  The memory guard of a
        dense read is called first, as for one dense kernel: it limits the
        O(ball_size(R - h) n) work of the dense row sums, not their memory."""
        params, R = self.ball.params, self.ball.radius
        self.kernels.guard()
        step = max(1, _ROW_BLOCK_BYTES // (8 * self.ball.n))

        def error(h: int) -> float:
            m = ball_size(params, R - h)
            return float(np.max([np.abs(self.kernels.scatter(h, lo, min(lo + step, m))
                                        .sum(axis=1) - 1.0).max()
                                 for lo in range(0, m, step)]))

        return max((error(h) for h in range(1, R + 1)), default=0.0)

    @property
    def valid(self) -> dict:
        return self.kernels.valid

    @property
    def skipped(self) -> dict:
        return {h: int(np.count_nonzero(~ok)) for h, ok in self.valid.items()}

    def composition_residual(self, i: int, j: int) -> float:
        """Max row error of K_i K_j - sum_k gtilde_{i,j,k} K_k over rows
        whose radius-(i+j) sphere lies inside the ball."""
        if i + j > self.ball.radius:
            raise DomainError("i + j exceeds the ball radius")
        hg = PolyHypergroup(self.ball.params, x0=self.x_c)
        rows = ball_size(self.ball.params, self.ball.radius - i - j)
        lhs = self.kernels[i][:rows] @ self.kernels[j]
        rhs = sum(g * self.kernels[k][:rows] for k, g in hg.g(i, j).items())
        return float(np.abs(lhs - rhs).max())


def deform_ball_kernels(ball: Ball, ray: BoundaryRay, c: float) -> DeformedKernels:
    """Deformed kernel family K_h for h = 0..R on interior-valid rows."""
    params, R = ball.params, ball.radius
    x_c = deformation_point(c, params)
    dB = ray.horocycle.astype(float)
    _check_exponent(c * (dB.max() - dB.min()), "the boundary tilt")
    phi = np.exp(c * dB)
    kernels = ball.sphere_kernels(lambda h, rows, cols: (1.0 / phi[rows]) * phi[cols]
                                  / scale[h])
    # every scale is read now, so a DomainError is raised here, before the
    # memory guard of a kernel's first read can raise BallTooLarge
    alpha0 = PolyHypergroup(params, x0=x_c).alpha0
    scale = [1.0] + [alpha0(h) * haar_weight(h, params) for h in range(1, R + 1)]
    return DeformedKernels(ball=ball, ray=ray, c=c, x_c=x_c, kernels=kernels)


def pushforward_vs_haar(params: DTParams, c: float):
    """Compare the root-pushforward of the deformed invariant measure with
    the Haar weight of the deformed hypergroup at n = 1 (tree case b = 2).

    Returns (pf1, haar1): pf1 = e^{-2c} + (a-1) e^{2c} and
    haar1 = ((a-1) e^{2c} + 1)^2 / (a e^{2c}); they differ whenever c != 0,
    which is exactly the failure of the translation properties.
    """
    if params.b != 2:
        raise UnsupportedParams("closed forms are stated for the tree case b = 2")
    a = params.a
    # haar1's numerator is at most (a e^{2c})^2
    _check_exponent(4 * c + 2 * math.log(a), "haar_1")
    pf1 = math.exp(-2 * c) + (a - 1) * math.exp(2 * c)
    haar1 = ((a - 1) * math.exp(2 * c) + 1) ** 2 / (a * math.exp(2 * c))

    # independent recomputations: from the radius-1 ball, whose depth-1
    # horocycles are those of every larger ball, and from the deformed
    # hypergroup's Haar weight
    ball = build_ball(params, 1)
    ray = BoundaryRay(ball)
    pf1_ball = sum(math.exp(2 * c * d) for d in ray.horocycle[ball.depths == 1])
    haar1_hg = PolyHypergroup(params, x0=deformation_point(c, params)).haar(1)
    if abs(pf1_ball - pf1) > PUSHFORWARD_TOL * pf1 or \
            abs(haar1_hg - haar1) > PUSHFORWARD_TOL * haar1:
        raise AssertionError("closed forms disagree with direct recomputation")
    return pf1, haar1
