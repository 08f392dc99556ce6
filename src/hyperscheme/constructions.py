"""Direct products and joins of finite hypergroups and of finite generalized
scheme kernel families.

Index layouts are fixed for reproducible files: products are row-major over
(i1, i2); joins list the compact factor D2 first and then D1 without its
identity e1.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .hypergroup import FiniteHypergroup, _absmax, _int_dtype, _ratios, haar
from .scheme import GeneralizedScheme, RelationPartition


@dataclass(frozen=True)
class ProductIndex:
    """Row-major bijection between pairs (i1, i2) and flat indices."""

    n1: int
    n2: int

    def flat(self, i1: int, i2: int) -> int:
        return i1 * self.n2 + i2

    def pair(self, idx: int) -> tuple:
        return divmod(idx, self.n2)

    @property
    def size(self) -> int:
        return self.n1 * self.n2


@dataclass(frozen=True)
class JoinIndex:
    """Flat layout of (D1 without e1) after D2; the join identity is e2."""

    n1: int
    n2: int
    e1: int

    def from_first(self, i: int) -> int:
        if i == self.e1:
            raise ValueError("e1 is merged into the compact factor")
        return self.n2 + (i if i < self.e1 else i - 1)

    @property
    def size(self) -> int:
        return self.n2 + self.n1 - 1


def direct_product(h1: FiniteHypergroup, h2: FiniteHypergroup) -> FiniteHypergroup:
    """Tensor-product convolution c[(i1,i2)][(j1,j2)][(k1,k2)] = c1 c2, over
    the denominator den1 den2 when both factors are exact.

    The result keeps h1 and h2 as its _factors: verify_hypergroup proves it
    from their checks while its full check would be exact, and characters
    takes its rows alpha (x) beta from their tables; where a factor fails,
    both run on the product's tensor as on any other."""
    pi = ProductIndex(h1.n, h2.n)
    if h1.is_exact and h2.is_exact:
        dt = _int_dtype(_absmax(h1.num) * _absmax(h2.num))
        t1, t2, den = h1.num.astype(dt), h2.num.astype(dt), h1.den * h2.den
    else:
        t1, t2, den = h1.conv_f, h2.conv_f, 1
    num = np.einsum("ijk,abc->iajbkc", t1, t2).reshape((pi.size,) * 3)
    involution = (h1.involution[:, None] * pi.n2 + h2.involution[None, :]).ravel()
    h = FiniteHypergroup._of(num, den, pi.flat(h1.identity, h2.identity),
                             involution, h1.scheme_derived and h2.scheme_derived)
    vars(h)["_factors"] = (h1, h2)
    return h


def direct_product_scheme(gs1: GeneralizedScheme,
                          gs2: GeneralizedScheme) -> GeneralizedScheme:
    """Kernels K_{(h1,h2)} = K_{h1} (x) K_{h2} on X1 x X2.  Nothing is
    checked here; the product of two schemes is a scheme, so its partition
    verifies from the factors' (see GeneralizedScheme._scheme)."""
    p1, p2 = gs1.partition, gs2.partition
    px = ProductIndex(p1.n_points, p2.n_points)
    pd = ProductIndex(p1.n_relations, p2.n_relations)
    label = p1.label[:, None, :, None] * pd.n2 + p2.label[None, :, None, :]
    label = label.reshape(px.size, px.size)
    partition = RelationPartition(n_points=px.size, n_relations=pd.size,
                                  label=label)
    return GeneralizedScheme._adopt(partition, np.kron(gs1._weights(), gs2._weights()),
                                    np.kron(gs1.omega_x, gs2.omega_x), factors=(gs1, gs2))


def join(h1: FiniteHypergroup, h2: FiniteHypergroup) -> FiniteHypergroup:
    """Join of a discrete factor h1 with a compact factor h2.

    Identity is e2; within the D2 block convolution is *2, within the D1
    block it is *1 with the e1-mass spread over the normalized Haar weights
    of h2, and mixed pairs collapse onto the D1 element.  Exact factors are
    joined over the common denominator den1 den2 (sum of h2's Haar weights).
    """
    ji = JoinIndex(h1.n, h2.n, h1.identity)
    n, n2, e1 = ji.size, h2.n, h1.identity
    rest = np.delete(np.arange(h1.n), e1)        # D1 - {e1} in flat order
    left2, _, _ = haar(h2)
    at_e1 = np.ix_(rest, rest, [e1])             # e1-masses of D1 - {e1} pairs
    ratios = _ratios(left2) if h1.is_exact and h2.is_exact else None
    if ratios is None:
        c1, c2, one, den = h1.conv_f, h2.conv_f, 1.0, 1
        spread = c1[at_e1] * (np.array(left2, dtype=float) / float(sum(left2)))
    else:   # omega2 = o / total
        o, total = ratios[0], sum(ratios[0])
        den = h1.den * h2.den * total
        dt = _int_dtype(max(_absmax(h1.num) * h2.den, _absmax(h2.num) * h1.den,
                            h1.den * h2.den) * total)
        c1 = h1.num.astype(dt) * (h2.den * total)
        c2 = h2.num.astype(dt) * (h1.den * total)
        spread = h1.num[at_e1].astype(dt) * h2.den * np.array(o, dtype=dt)
        one = den
    num = np.zeros((n, n, n), dtype=c1.dtype)
    first, second = np.arange(n2, n), np.arange(n2)
    num[:n2, :n2, :n2] = c2
    num[n2:, n2:, n2:] = c1[np.ix_(rest, rest, rest)]
    num[n2:, n2:, :n2] = spread
    num[first[:, None], second, first[:, None]] = one     # first * second
    num[second[:, None], first, first] = one              # second * first
    flat1 = np.insert(first, e1, 0)
    involution = np.concatenate([h2.involution, flat1[h1.involution[rest]]])
    return FiniteHypergroup._of(num, den, h2.identity, involution,
                                h1.scheme_derived and h2.scheme_derived)


def join_scheme(gs1: GeneralizedScheme, gs2: GeneralizedScheme) -> GeneralizedScheme:
    """Join of kernel families on X = X1 x X2.

    Relations follow the JoinIndex layout; kernels are delta-preserving in
    the first coordinate for h in D2 and spread the second coordinate over
    the normalized point weights of the second factor for h in D1 - {e1}.
    The partition is the wreath product of the factors' partitions, a
    scheme when both are, so it verifies as a product does.
    """
    p1, p2 = gs1.partition, gs2.partition
    e1 = p1.identity_relation
    ji = JoinIndex(p1.n_relations, p2.n_relations, e1)
    px = ProductIndex(p1.n_points, p2.n_points)
    wx2 = gs2.omega_x / gs2.omega_x.sum()

    same1 = np.eye(p1.n_points, dtype=bool)
    flat1 = np.insert(np.arange(ji.n2, ji.size), e1, 0)  # e1 only on same1
    label = np.where(same1[:, None, :, None], p2.label[None, :, None, :],
                     flat1[p1.label][:, None, :, None]).reshape(px.size, px.size)
    partition = RelationPartition(n_points=px.size, n_relations=ji.size,
                                  label=label)
    W = np.where(same1[:, None, :, None], gs2._weights()[None, :, None, :],
                 gs1._weights()[:, None, :, None] * wx2).reshape(px.size, px.size)
    return GeneralizedScheme._adopt(partition, W, np.kron(gs1.omega_x, wx2),
                                    factors=(gs1, gs2))
