"""Reference oracle: the nested-Fraction exact algebra the integer
numerator tensors replaced, and the g-coefficient path of deformed and
float-mass polynomial hypergroups.

The old code is kept as it was, operating on nested [i][j][k] tuples of
Fraction (or float), so the differential tests can assert that the new
representation gives equal Fraction tensors, equal convolution powers and
byte-identical "p/q" JSON.  Hypergroup arguments only need the attributes
n, conv, identity and involution.  Not part of the library.
"""

from fractions import Fraction

import numpy as np


def freeze(tensor):
    return tuple(tuple(tuple(row) for row in plane) for plane in tensor)


def from_scheme(scheme):
    d = scheme.n_relations
    w = scheme.valency
    p = scheme.p
    return freeze([[[Fraction(int(w[k]) * int(p[i, j, k]), int(w[i]) * int(w[j]))
                     for k in range(d)] for j in range(d)] for i in range(d)])


def haar_left(h):
    inv = h.involution
    return [1 / h.conv[int(inv[x])][x][h.identity] for x in range(h.n)]


def direct_product(h1, h2):
    n = h1.n * h2.n
    conv = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i1 in range(h1.n):
        for j1 in range(h1.n):
            for k1 in range(h1.n):
                c1 = h1.conv[i1][j1][k1]
                if not c1:
                    continue
                for i2 in range(h2.n):
                    for j2 in range(h2.n):
                        for k2 in range(h2.n):
                            c2 = h2.conv[i2][j2][k2]
                            if c2:
                                conv[i1 * h2.n + i2][j1 * h2.n + j2][
                                    k1 * h2.n + k2] = c1 * c2
    return freeze(conv)


def product_involution(h1, h2):
    return [int(h1.involution[i1]) * h2.n + int(h2.involution[i2])
            for i1 in range(h1.n) for i2 in range(h2.n)]


def join_involution(h1, h2):
    n2, e1 = h2.n, h1.identity
    out = [int(v) for v in h2.involution]
    for k1 in range(h1.n):
        if k1 != e1:
            i = int(h1.involution[k1])
            out.append(n2 + (i if i < e1 else i - 1))
    return out


def join(h1, h2):
    n2, e1 = h2.n, h1.identity
    n = n2 + h1.n - 1

    def decompose(idx):
        if idx < n2:
            return "second", idx
        i = idx - n2
        return "first", i if i < e1 else i + 1

    def from_first(i):
        return n2 + (i if i < e1 else i - 1)

    left2 = haar_left(h2)
    total2 = sum(left2)
    omega2 = [w / total2 for w in left2]
    conv = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for x in range(n):
        tx, ix = decompose(x)
        for y in range(n):
            ty, iy = decompose(y)
            row = conv[x][y]
            if tx == "second" and ty == "second":
                for k2 in range(n2):
                    row[k2] = h2.conv[ix][iy][k2]
            elif tx == "first" and ty == "first":
                masses = h1.conv[ix][iy]
                for k1 in range(h1.n):
                    if k1 != e1 and masses[k1]:
                        row[from_first(k1)] = masses[k1]
                e_mass = masses[e1]
                if e_mass:
                    for k2 in range(n2):
                        row[k2] = e_mass * omega2[k2]
            elif tx == "first":
                row[x] = Fraction(1)
            else:
                row[y] = Fraction(1)
    return freeze(conv)


def convolve(conv, mu, nu):
    n = len(conv)
    out = [Fraction(0)] * n
    for i, a in enumerate(mu):
        if a == 0:
            continue
        for j, b in enumerate(nu):
            if b == 0:
                continue
            row = conv[i][j]
            ab = a * b
            for k in range(n):
                if row[k]:
                    out[k] += ab * row[k]
    return out


def g_coeffs(m, n, a, b):
    if m == 0 or n == 0:
        return {m + n: Fraction(1)}
    mn = min(m, n)
    lo = abs(m - n)
    g = {
        m + n: Fraction(a - 1, a),
        lo: Fraction(1, a * (a - 1) ** (mn - 1) * (b - 1) ** mn),
    }
    if b > 2:
        for k in range(mn):
            g[lo + 2 * k + 1] = Fraction(
                b - 2, a * (a - 1) ** (mn - k - 1) * (b - 1) ** (mn - k))
    if a > 2:
        for k in range(mn - 1):
            g[lo + 2 * k + 2] = Fraction(
                a - 2, a * (a - 1) ** (mn - k - 1) * (b - 1) ** (mn - k - 1))
    return g


def poly_g(a, b, m, n, alpha=None):
    """The coefficients g(m, n, .) of the polynomial hypergroup, deformed by
    alpha(k) / (alpha(m) alpha(n)) in doubles when alpha is given: the
    g-coefficient path PolyHypergroup used for deformed instances and float
    masses before every convolution ran over the intersection numbers."""
    g = g_coeffs(m, n, a, b)
    if alpha is None:
        return g
    am, an = alpha(m), alpha(n)
    return {k: alpha(k) / (am * an) * float(c) for k, c in g.items()}


def poly_convolve(a, b, mu, nu, alpha=None):
    out = {}
    for m, cm in mu.items():
        for n, cn in nu.items():
            for k, g in poly_g(a, b, m, n, alpha).items():
                out[k] = out.get(k, 0) + cm * cn * g
    return {k: v for k, v in out.items() if v != 0}


def finite_power(conv, identity, mu, t):
    n = len(conv)
    dist = {identity: Fraction(1)}
    for _ in range(t):
        out = convolve(conv, [dist.get(i, 0) for i in range(n)],
                       [mu.get(i, 0) for i in range(n)])
        dist = {i: v for i, v in enumerate(out) if v != 0}
    return dist


def poly_power(a, b, mu, t, alpha=None):
    dist = {0: Fraction(1)}
    for _ in range(t):
        dist = poly_convolve(a, b, dist, mu, alpha)
    return dist


def encode_number(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else str(v.numerator)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(format(float(v), ".17g"))


def decode_number(v):
    if isinstance(v, str):
        if "/" in v:
            p, q = v.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(v))
    if isinstance(v, int):
        return Fraction(v)
    return float(v)


def hypergroup_to_dict(n, conv, identity, involution, scheme_derived=False):
    data = {
        "n": n,
        "identity": identity,
        "involution": list(involution),
        "conv": [[[encode_number(c) for c in row] for row in plane]
                 for plane in conv],
    }
    if scheme_derived:
        data["scheme_derived"] = True
    return data


def decode_conv(data):
    conv = [[[decode_number(c) for c in row] for row in plane]
            for plane in data["conv"]]
    exact = all(isinstance(c, Fraction) for plane in conv for row in plane
                for c in row)
    if not exact:
        conv = [[[float(c) for c in row] for row in plane] for plane in conv]
    return freeze(conv)


def translation_t1(scheme):
    d = scheme.n_relations
    inv, p, w = scheme.involution, scheme.p, scheme.valency
    t1 = True
    for h in range(d):
        for r in range(d):
            for k in range(d):
                lhs = Fraction(int(p[r, inv[h], k]), int(w[h]))
                rhs = Fraction(int(w[r]) * int(p[k, h, r]), int(w[k]) * int(w[h]))
                if lhs != rhs:
                    t1 = False
    return t1
