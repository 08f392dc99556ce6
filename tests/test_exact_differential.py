"""Differential tests: the integer numerator tensors against the nested
Fraction algebra in reference_exact.py (equal Fraction tensors, equal
convolution powers, byte-identical "p/q" JSON), plus property tests of
double-coset hypergroups of random subgroups."""

import itertools
import math
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperscheme as hs
import reference_exact as ref
import reference_verifiers as refv
from hyperscheme import hypergroup as hg
from hyperscheme import io as hio
from hyperscheme.dtgraph import sphere_labels
from test_verifiers_differential import (dihedral_table, symmetric_table,
                                         young_subgroup)


def _schemes():
    out = {"k3": hs.verify_scheme(hs.RelationPartition(
        3, 2, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])))}
    for m in (3, 4, 5, 6, 8, 9, 12):
        out[f"D{m}"] = hs.from_double_cosets(dihedral_table(m), [0, m + 1])[1]
    out["D6/rot"] = hs.from_double_cosets(dihedral_table(6), [0, 3])[1]
    for k, part in ((4, 1), (4, 2), (5, 2)):
        perms, table = symmetric_table(k)
        out[f"S{k}/{part}"] = hs.from_double_cosets(table, young_subgroup(perms, part))[1]
    return out


SCHEMES = _schemes()
NAMES = sorted(SCHEMES)
HYPERGROUPS = {name: hs.from_scheme(s) for name, s in SCHEMES.items()}
# the same hypergroups as reference_exact sees them, built by the old code
REFS = {name: SimpleNamespace(n=h.n, conv=ref.from_scheme(SCHEMES[name]),
                              identity=h.identity, involution=h.involution)
        for name, h in HYPERGROUPS.items()}
SMALL = [name for name in NAMES if HYPERGROUPS[name].n <= 5]


def _as_floats(conv):
    return np.array([[[float(v) for v in row] for row in plane] for plane in conv])


def _json(d):
    return json.dumps(d, indent=1)


def _ref_json(h, conv):
    return _json(ref.hypergroup_to_dict(h.n, conv, h.identity, h.involution.tolist(),
                                        h.scheme_derived))


def test_from_scheme_matches_reference():
    for name in NAMES:
        h, want = HYPERGROUPS[name], REFS[name].conv
        assert h.is_exact and h.conv == want and h.scheme_derived, name
        assert h.conv_f.tobytes() == _as_floats(want).tobytes(), name
        assert all(h.c(i, j, k) == want[i][j][k]
                   for i in range(h.n) for j in range(h.n) for k in range(h.n))
        assert _json(hio.hypergroup_to_dict(h)) == _ref_json(h, want), name


@given(st.sampled_from(SMALL), st.sampled_from(SMALL))
def test_product_and_join_match_reference(n1, n2):
    h1, h2, r1, r2 = HYPERGROUPS[n1], HYPERGROUPS[n2], REFS[n1], REFS[n2]
    for new, want, inv in ((hs.direct_product(h1, h2), ref.direct_product(r1, r2),
                            ref.product_involution(r1, r2)),
                           (hs.join(h1, h2), ref.join(r1, r2),
                            ref.join_involution(r1, r2))):
        assert new.conv == want
        assert new.involution.tolist() == inv
        assert _json(hio.hypergroup_to_dict(new)) == _ref_json(new, want)
        assert hs.verify_hypergroup(new).ok


def test_library_paths_never_build_conv(monkeypatch):
    def forbidden(self):
        raise AssertionError("the nested conv view was built")

    monkeypatch.setattr(hs.FiniteHypergroup, "conv", property(forbidden))
    h = hs.from_scheme(SCHEMES["D8"])
    law = hs.StepDistribution({1: Fraction(1, 3), 2: Fraction(2, 3)})
    for x in (h, hs.direct_product(h, h), hs.join(h, HYPERGROUPS["k3"])):
        x = hio.hypergroup_from_dict(hio.hypergroup_to_dict(x))
        assert hs.verify_hypergroup(x).ok
        hs.haar(x)
        hs.characters(x)
        hs.convolution_power(x, law, 4)
        hs.semicharacter_deform(x, [1] * x.n)


def _law(draw, support):
    """A random exact probability law on support (element -> Fraction)."""
    ks = [draw(st.integers(1, 9)) for _ in support]
    den = draw(st.sampled_from([sum(ks), 7 * sum(ks), 2 ** 40 + 15]))
    weights = {s: Fraction(k, den) for s, k in zip(support, ks)}
    weights[support[0]] += 1 - sum(weights.values())
    return weights


@st.composite
def finite_walks(draw):
    name = draw(st.sampled_from(NAMES))
    n = HYPERGROUPS[name].n
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    return name, _law(draw, support), draw(st.integers(0, 8))


@given(finite_walks())
def test_finite_power_matches_reference(case):
    name, law, t = case
    h, r = HYPERGROUPS[name], REFS[name]
    got = hs.convolution_power(h, hs.StepDistribution(law), t)
    assert got == ref.finite_power(r.conv, r.identity, law, t)
    assert all(isinstance(v, Fraction) for v in got.values())
    mu = [got.get(i, 0) for i in range(h.n)]
    nu = [law.get(i, 0) for i in range(h.n)]
    assert h.convolve(mu, nu) == ref.convolve(r.conv, mu, nu)


@st.composite
def poly_walks(draw):
    a, b = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    support = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    return a, b, _law(draw, support), draw(st.integers(0, 12))


@given(poly_walks())
def test_poly_power_matches_reference(case):
    a, b, law, t = case
    hg = hs.PolyHypergroup(hs.DTParams(a, b))
    got = hs.convolution_power(hg, hs.StepDistribution(law), t)
    want = ref.poly_power(a, b, law, t)
    assert list(got.items()) == sorted(want.items())    # same values, keys ascending
    assert list(hg.convolve(got, law).items()) == \
        sorted(ref.poly_convolve(a, b, got, law).items())


@st.composite
def deformed_poly_walks(draw):
    """A poly walk on a hypergroup deformed at x_c, c in {-0.35, 0, 0.3, 1},
    or left undeformed (None) with float masses; deformed laws keep their
    Fractions or become floats."""
    a, b, law, t = draw(poly_walks())
    c = draw(st.sampled_from([None, -0.35, 0.0, 0.3, 1.0]))
    if c is None or draw(st.booleans()):
        law = {k: float(v) for k, v in law.items()}
    return a, b, law, t, c, draw(st.integers(0, 12)), draw(st.integers(0, 12))


def _assert_close(got, want):
    assert list(got) == list(want)                      # same keys, same order
    for k, v in want.items():
        assert abs(got[k] - v) <= 1e-12 * abs(v), (k, got[k], v)


@given(deformed_poly_walks())
def test_deformed_and_float_poly_match_g_path(case):
    a, b, law, t, c, m, n = case
    params = hs.DTParams(a, b)
    hg, alpha = hs.PolyHypergroup(params), None
    if c is not None:
        hg = hg.deform(hs.deformation_point(c, params))
        alpha = hg.alpha0
    got = hs.convolution_power(hg, hs.StepDistribution(law), t)
    _assert_close(got, dict(sorted(ref.poly_power(a, b, law, t, alpha).items())))
    _assert_close(hg.convolve(got, law),
                  dict(sorted(ref.poly_convolve(a, b, got, law, alpha).items())))
    _assert_close(hg.g(m, n), ref.poly_g(a, b, m, n, alpha))


@pytest.mark.parametrize("c, t", [(0.1, 1100), (None, 1030)])
def test_long_float_powers_match_g_path(c, t):
    # keys pass 1024, where h(k) ~ 2^k leaves double range and the masses
    # at one step span more than it: only O(1) coefficients keep every atom
    params = hs.DTParams(3, 2)
    hg, alpha = hs.PolyHypergroup(params), None
    if c is not None:
        hg = hg.deform(hs.deformation_point(c, params))
        alpha = hg.alpha0
    _assert_close(hg.power({1: 1.0}, t),
                  dict(sorted(ref.poly_power(3, 2, {1: 1.0}, t, alpha).items())))
    assert hg.power({1100: 1.0}, 1) == {1100: 1.0}


@pytest.mark.parametrize("a, b", [(3, 2), (2, 3)])
def test_long_exact_powers_match_reference(a, b):
    # 600 rows of integers of about 2000 bits, far past the hypothesis sizes
    law = {1: Fraction(3, 7), 2: Fraction(4, 7)}
    got = hs.PolyHypergroup(hs.DTParams(a, b)).power(law, 300)
    assert list(got.items()) == sorted(ref.poly_power(a, b, law, 300).items())
    assert all(type(v) is Fraction for v in got.values())


@pytest.mark.parametrize("half", [Fraction(1, 2), 0.5])
def test_sparse_law_power_matches_reference(half):
    # the square holds mass on rows 0 and 600 alone: rows 1 .. 599 of the
    # band are empty, and row 600 is a row m <= n of the label 600
    law = {0: half, 600: half}
    got = hs.PolyHypergroup(hs.DTParams(3, 2)).power(law, 2)
    want = dict(sorted(ref.poly_power(3, 2, law, 2).items()))
    if isinstance(half, Fraction):
        assert list(got.items()) == list(want.items())
    else:
        _assert_close(got, want)


FAR_APART = [
    # two runs of keys of mu, further apart than the band of nu is wide
    ({0: Fraction(1, 2), 3000: Fraction(1, 2)}, {1: Fraction(1, 3), 2: Fraction(2, 3)}),
    # mu far below the only label of nu: every row of mu is a row m <= n
    ({1: Fraction(1, 4), 2: Fraction(3, 4)}, {2000: Fraction(1)}),
    # one run with rows on both sides of the label 700
    ({0: Fraction(1, 5), 900: Fraction(4, 5)}, {1: Fraction(1, 2), 700: Fraction(1, 2)}),
]


@pytest.mark.parametrize("mu, nu", FAR_APART)
@pytest.mark.parametrize("c", ["exact", None, 0.1])
def test_convolve_far_apart_supports_matches_reference(mu, nu, c):
    params = hs.DTParams(3, 2)
    hg, alpha = hs.PolyHypergroup(params), None
    if c == "exact":
        want = ref.poly_convolve(3, 2, mu, nu)
        assert list(hg.convolve(mu, nu).items()) == sorted(want.items())
        return
    if c is not None:
        hg = hg.deform(hs.deformation_point(c, params))
        alpha = hg.alpha0
    mu = {k: float(v) for k, v in mu.items()}
    _assert_close(hg.convolve(mu, nu),
                  dict(sorted(ref.poly_convolve(3, 2, mu, nu, alpha).items())))


def test_poly_exact_surface():
    hg = hs.PolyHypergroup(hs.DTParams(3, 2))
    assert hg.alpha0(4) == 1.0 and type(hg.alpha0(4)) is float
    assert hg.haar(4) == 24 and type(hg.haar(4)) is int
    assert hg.g(2, 3) == ref.poly_g(3, 2, 2, 3)
    assert all(type(v) is Fraction for v in hg.g(2, 3).values())


@pytest.mark.parametrize("x0", [0.0, 0.5, float("nan"), float("inf")])
def test_deformation_refuses_alpha0_out_of_range(x0):
    # P_h(x0) is 0 at h = 1 (x0 = 0), negative at h = 2 (x0 = 0.5), NaN or
    # infinite; without the check these gave ZeroDivisionError or negative or
    # NaN masses
    hg = hs.PolyHypergroup(hs.DTParams(3, 2), x0=x0)
    with pytest.raises(hs.DomainError, match="not a finite positive double"):
        hg.power({1: 1.0}, 3)


def test_a_deformation_with_a_negative_alpha0_is_refused_where_read():
    """Below x0 = 1, P_h(x0) changes sign; at x0 = 0.999 on Gamma(3, 2) the
    first alpha0(j) <= 0 is at j = 68.  A power of t steps reads alpha0 up
    to t: it returns for t < j, however far the operator's table would grow
    by doubling, and raises alpha0(j)'s DomainError from t = j on.  alpha0(h)
    itself is P_h(x0) wherever that is a normal double, also past j."""
    params = hs.DTParams(3, 2)
    P = hs.poly_values(300, 0.999, params)
    j = int(np.argmax(P <= 0))
    assert j == 68 and P[j - 1] > 0
    hg = hs.PolyHypergroup(params, x0=0.999)
    assert math.fsum(hg.power({1: 1.0}, j - 1).values()) == pytest.approx(1.0, abs=1e-12)
    for t in (j, j + 1, 2 * j):
        with pytest.raises(hs.DomainError, match=rf"^alpha0\({j}\) = P_{j}\(x0\) "):
            hg.power({1: 1.0}, t)
    k = j + int(np.argmax(P[j:] > 0))
    assert hg.alpha0(j - 1) == P[j - 1] and hg.alpha0(k) == P[k] > 0


def test_alpha0_products_past_double_range_are_no_refusal():
    """At x0 = 1e200, alpha0(1) = 9.4e199 is a double and alpha0(1)^2 is
    not; the coefficients of g(1, 1) are still doubles in [0, 1]."""
    params = hs.DTParams(3, 2)
    hg = hs.PolyHypergroup(params, x0=1e200)
    assert hg.alpha0(1) == hs.poly_values(1, 1e200, params)[1]
    with pytest.raises(hs.DomainError) as exc:
        hg.alpha0(2)
    assert str(exc.value) == ("alpha0(2) = P_2(x0) at x0 = 1e+200 is inf, not a finite "
                              "positive double >= 2.2250738585072014e-308")
    g = hg.g(1, 1)
    assert all(0 <= v <= 1 for v in g.values())
    assert sum(g.values()) == pytest.approx(1.0, abs=1e-12)
    assert sum(hg.power({1: 1.0}, 3).values()) == pytest.approx(1.0, abs=1e-12)


def test_alpha0_past_double_range_and_sphere_labels():
    params = hs.DTParams(3, 2)
    hg = hs.PolyHypergroup(params, hs.deformation_point(300.0, params))
    assert math.isfinite(hg.alpha0(2))          # P_3(x0) = inf, later NaN
    for h in (3, 4, 1000):
        with pytest.raises(hs.DomainError, match="not a finite positive double"):
            hg.alpha0(h)
    with pytest.raises(hs.DomainError, match="radius must be nonnegative"):
        sphere_labels(-1)
    assert sphere_labels(10 ** 12) == range(10 ** 12 + 1)


def test_alpha0_below_the_normal_doubles_is_a_domain_error():
    """At x0 = 1 = deformation_point(-log sqrt 2) on Gamma(3, 2), alpha0
    decays out of the normal doubles: the values alpha0(2300) (below 2^-1074)
    and haar(1100) at x_c(0.1) (past the largest double) raise, while
    g(1200, 1200), whose alpha0(1200)^2 is below the doubles, and haar(1100)
    = alpha0(1100)^2 h(1100) at x0 = 1 are doubles."""
    params = hs.DTParams(3, 2)
    assert hs.deformation_point(-math.log(math.sqrt(2)), params) == 1.0
    hg = hs.PolyHypergroup(params, x0=1.0)
    grown = hs.PolyHypergroup(params, hs.deformation_point(0.1, params))
    for call in (lambda: hg.alpha0(2300), lambda: grown.haar(1100)):
        with pytest.raises(hs.DomainError, match="not a finite positive double"):
            call()
    assert hg.alpha0(1200) > 0 and hg.alpha0(1200) ** 2 == 0
    assert sum(hg.g(1200, 1200).values()) == pytest.approx(1.0, abs=1e-12)
    assert 0 < hg.haar(1100) < math.inf
    assert sum(hg.g(600, 600).values()) == pytest.approx(1.0, abs=1e-12)
    assert grown.haar(100) == grown.alpha0(100) ** 2 * hs.haar_weight(100, params)


def test_deformed_power_runs_past_the_normal_alpha0():
    """Gamma(3, 2) at x0 = 1: a power of 3000 steps reads alpha0 up to 3000,
    past alpha0(2063) = 2.1e-308, and still sums to 1."""
    hg = hs.PolyHypergroup(hs.DTParams(3, 2), x0=1.0)
    law = hg.power({1: 1.0}, 3000)
    assert all(0 <= v <= 1 for v in law.values())
    assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)


def _is_normal(v):
    return sys.float_info.min <= v < math.inf


@st.composite
def deformed_points(draw):
    """Gamma(a, b) with x0 = 1, the special point s1 (alpha0 = 1) or x_c at
    a c in [-0.7, 3]: alpha0 positive, decaying or growing."""
    a, b = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    params = hs.DTParams(a, b)
    x0 = draw(st.one_of(
        st.sampled_from([1.0, hs.special_points(params)[1]]),
        st.floats(-0.7, 3.0).map(lambda c: hs.deformation_point(c, params))))
    return a, b, x0


def _at(a, b, c):
    return a, b, hs.deformation_point(c, hs.DTParams(a, b))


@settings(max_examples=40)
@given(deformed_points(), st.integers(0, 2400),
       st.lists(st.tuples(st.integers(0, 1500), st.integers(0, 1500)),
                min_size=1, max_size=3))
# coefficients in the subnormals that one rounding, not two, gets right
@example(_at(3, 3, 1.5), 0, [(199, 248)])
@example(_at(4, 5, 1.0), 0, [(291, 215)])
@example(_at(5, 3, 1.0), 0, [(268, 212)])
def test_deformed_values_are_the_plain_doubles_where_those_exist(point, h, pairs):
    """alpha0, haar and g against the same values on plain doubles
    (reference_exact.plain_*): bit for bit wherever those exist, except
    where the plain recurrence ran through a subnormal value (its last bits
    then differ) or a coefficient of g_coeffs is below the normal doubles
    (the plain formula rounds it first, to fewer bits or to 0).  Where the
    plain ones do not exist, g is still a law of doubles in [0, 1]."""
    a, b, x0 = point
    params = hs.DTParams(a, b)
    hg = hs.PolyHypergroup(params, x0)
    P, clean = ref.plain_alpha0s(a, b, x0, h)
    assert P[h] == hs.poly_values(h, x0, params)[h] or math.isnan(P[h])
    if _is_normal(P[h]):
        assert hg.alpha0(h) == P[h] if clean[h] else \
            hg.alpha0(h) == pytest.approx(P[h], rel=1e-13)
    want, clean = ref.plain_haar(a, b, x0, h)
    if want is not None:
        assert hg.haar(h) == want if clean else hg.haar(h) == pytest.approx(want, rel=1e-13)
    for m, n in pairs:
        got = hg.g(m, n)
        assert all(0 <= v <= 1 + 1e-12 for v in got.values())
        assert math.fsum(got.values()) == pytest.approx(1.0, abs=1e-12)
        want, clean = ref.plain_g(a, b, x0, m, n)
        if want is None:
            continue
        assert list(got) == list(want)
        P = ref.plain_alpha0s(a, b, x0, m + n)[0]
        for k, c in ref.g_coeffs(m, n, a, b).items():
            ratio = P[k] / (P[m] * P[n])
            if not _is_normal(float(c)):
                # want rounds c to a subnormal or 0 first: off by ratio 2^-1075
                assert abs(got[k] - want[k]) <= ratio * 2.0 ** -1073 + 2.0 ** -1072 \
                    + 1e-15 * got[k], (m, n, k)
            elif clean:
                assert got[k] == want[k], (m, n, k)
            else:
                assert got[k] == pytest.approx(want[k], rel=1e-13), (m, n, k)


def _gamma_3_3_numerators(x0, n):
    """N_0 .. N_n with P_h(x0) = N_h / (6 4^h) on Gamma(3, 3), 4 x0 an
    integer: sqrt((a-1)/(b-1)) = 1, so P_1 = (2/3) x0 + 1/6 and the
    recurrence is P_{h+1} = x0 P_h - P_{h-1} / 4, over the integers
    N_{h+1} = 4 x0 N_h - 4 N_{h-1}."""
    N = [6, int(4 * (4 * x0 + 1))]
    while len(N) <= n:
        N.append(int(4 * x0) * N[-1] - 4 * N[-2])
    return N


@pytest.mark.parametrize("x0", [Fraction(1), Fraction(3, 2)])
def test_deformed_g_past_the_normal_alpha0_matches_exact_values(x0):
    """Deformed g(m, n) on Gamma(3, 3) for m, n <= 1500 against the exact
    rational alpha0: within 1e-12 relative at x0 = 3/2, on every coefficient
    >= 2^-1022.  At x0 = 1, the edge of the spectrum, the recurrence has a
    double root and the rounding of P_1 and of each step grows like h^2: the
    bound there is 2^-53 (m + n)^2 (the plain doubles, where they exist, are
    off as much)."""
    params = hs.DTParams(3, 3)
    N = _gamma_3_3_numerators(x0, 3000)
    if x0 == 1:
        assert all(Fraction(N[h], 6 * 4 ** h) == Fraction(3 + 2 * h, 3 * 2 ** h)
                   for h in (0, 1, 2, 7, 3000))
    hg = hs.PolyHypergroup(params, float(x0))
    rng = np.random.default_rng(5)
    pairs = [(1500, 1500), (1500, 1), (0, 1500)] + \
        [tuple(rng.integers(0, 1501, 2).tolist()) for _ in range(5)]
    for m, n in pairs:
        got = hg.g(m, n)
        tol = 1e-12 if x0 != 1 else 2.0 ** -53 * (m + n) ** 2
        for k, c in hs.g_coeffs(m, n, params).items():
            # c P_k / (P_m P_n), one correctly rounded integer division
            want = c.numerator * 6 * N[k] * 4 ** (m + n - k) / (c.denominator * N[m] * N[n])
            if want >= sys.float_info.min:
                assert abs(got[k] - want) <= tol * want, (m, n, k)


@given(st.sampled_from(NAMES), st.integers(0, 3), st.integers(0, 2 ** 16))
def test_translation_t1_matches_reference(name, bumps, seed):
    sch = SCHEMES[name]
    rng = np.random.default_rng(seed)
    p = sch.p.copy()
    for _ in range(bumps):
        p[tuple(rng.integers(0, sch.n_relations, 3))] += 1
    bumped = hs.AssociationScheme(sch.partition, sch.involution, p, sch.valency)
    assert hs.translation_property_check(bumped)[0] == ref.translation_t1(bumped)


def test_intersection_numbers_count_ball_vertices():
    """p_{m,n}^k counts the vertices at distance m from the root and n from
    a vertex at distance k, all of which lie in the ball."""
    for a, b in ((2, 2), (3, 2), (2, 3), (3, 3)):
        params = hs.DTParams(a, b)
        ball = hs.build_ball(params, 4)
        D = ball.dist_matrix
        for k in range(5):
            y = int(np.argmax(D[0] == k))
            for m in range(5):
                for n in range(5):
                    count = int(((D[0] == m) & (D[y] == n)).sum())
                    assert hs.intersection_numbers(m, n, params).get(k, 0) == count


# denominators whose least common multiple passes 2**63
BIG_PRIMES = [2 ** 61 - 1, 2 ** 31 - 1, 1_000_003]


@st.composite
def exact_tensors(draw):
    """JSON exact tensors: "p/q" strings (unreduced, signed), integer
    strings and ints, positive in the plane c[e] and at every c[x][y][e],
    so the Haar weights of the join exist."""
    n = draw(st.integers(1, 3))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 10] + BIG_PRIMES),
                         min_size=1, max_size=4))
    entries = []
    for i in range(n ** 3):
        q = draw(st.sampled_from(dens))
        p = draw(st.integers(1 if i < n * n or i % n == 0 else -3, 20))
        form = draw(st.sampled_from(["frac", "frac", "str", "int"]))
        entries.append(f"{p * q}/{q * q}" if form == "frac" else
                       str(p) if form == "str" else p)
    conv = np.array(entries, dtype=object).reshape(n, n, n).tolist()
    return {"n": n, "identity": 0, "involution": list(range(n)), "conv": conv}


def _check_exact(h, want):
    assert h.is_exact and h.conv == want
    assert h.conv_f.tobytes() == _as_floats(want).tobytes()
    assert _json(hio.hypergroup_to_dict(h)) == _ref_json(h, want)


@given(exact_tensors())
def test_exact_json_tensors_match_reference(data):
    h = hio.hypergroup_from_dict(data)
    want = ref.decode_conv(data)
    _check_exact(h, want)
    r = SimpleNamespace(n=h.n, conv=want, identity=0, involution=h.involution)
    _check_exact(hs.direct_product(h, h), ref.direct_product(r, r))
    _check_exact(hs.join(h, h), ref.join(r, r))
    vec = [want[0][0][k] for k in range(h.n)]
    assert h.convolve(vec, vec[::-1]) == ref.convolve(want, vec, vec[::-1])
    law = {k: Fraction(1, h.n) for k in range(h.n)}
    assert h.power(law, 3) == ref.finite_power(want, 0, law, 3)


def test_json_tensor_with_integral_floats_stays_float():
    # 1 == 1.0 and 0 == 0.0 share a hash, so decoding each distinct entry
    # once must still see the float entries
    conv = [[[1, 0], [0, 1]], [[0, 1.0], [1, 0.0]]]
    data = {"n": 2, "identity": 0, "involution": [0, 1], "conv": conv}
    h = hio.hypergroup_from_dict(data)
    assert not h.is_exact and h.conv == ref.decode_conv(data)
    assert _json(hio.hypergroup_to_dict(h)) == _ref_json(h, ref.decode_conv(data))


def test_tensor_with_denominator_past_int64():
    q = BIG_PRIMES
    conv = [[[f"1/{q[0]}", f"{q[0] - 1}/{q[0]}"], [f"2/{q[1]}", f"{q[1] - 2}/{q[1]}"]],
            [[f"3/{q[2]}", f"{q[2] - 3}/{q[2]}"], ["1/2", "1/2"]]]
    data = {"n": 2, "identity": 0, "involution": [0, 1], "conv": conv}
    h = hio.hypergroup_from_dict(data)
    assert h.den == q[0] * q[1] * q[2] * 2 >= 2 ** 63 and h.num.dtype == object
    want = ref.decode_conv(data)
    _check_exact(h, want)
    r = SimpleNamespace(n=2, conv=want, identity=0, involution=h.involution)
    prod = hs.direct_product(h, h)
    assert prod.den >= 2 ** 126
    _check_exact(prod, ref.direct_product(r, r))
    _check_exact(hs.join(h, h), ref.join(r, r))
    law = {0: Fraction(1, 3), 1: Fraction(2, 3)}
    assert h.power(law, 5) == ref.finite_power(want, 0, law, 5)


def _subgroup(table, gens):
    """The subgroup generated by gens (identity 0)."""
    H = {0}
    frontier = set(gens) | {0}
    while frontier:
        H |= frontier
        frontier = {int(table[a, b]) for a in H for b in H} - H
    return sorted(H)


GROUPS = [symmetric_table(3)[1], symmetric_table(4)[1]] + \
    [dihedral_table(m) for m in (4, 5, 6)]


@given(st.sampled_from(range(len(GROUPS))), st.lists(st.integers(0, 23), max_size=2))
def test_double_coset_hypergroups_of_random_subgroups(g, gens):
    table = GROUPS[g]
    H = _subgroup(table, [x % len(table) for x in gens])
    _, sch = hs.from_double_cosets(table, H)
    h = hs.from_scheme(sch)
    assert hs.verify_hypergroup(h).ok
    left, right, unimodular = hs.haar(h)
    assert left == [Fraction(int(v)) for v in sch.valency] and unimodular
    if h.is_commutative():
        chars = hs.characters(h)
        assert abs(chars.plancherel.sum() - 1) <= 1e-8
        assert np.allclose(chars.haar, [float(v) for v in left])


def _character_cases():
    hgs = [HYPERGROUPS[name] for name in NAMES]
    hgs += [hs.direct_product(HYPERGROUPS["k3"], HYPERGROUPS["D5"]),
            hs.join(HYPERGROUPS["D4"], HYPERGROUPS["S4/1"]),
            hs.from_generalized(hs.canonical_generalized(SCHEMES["D8"]))]
    return hgs


def _table_or_error(fn, h):
    try:
        return fn(h)
    except (hs.NotCommutative, hs.DegenerateSpectrum) as exc:
        return type(exc).__name__


def _order_cases():
    pairs = (("k3", "D5"), ("D4", "D6/rot"), ("D3", "D12"))
    hgs = [HYPERGROUPS[name] for name in NAMES]
    hgs += [hs.direct_product(HYPERGROUPS[a], HYPERGROUPS[b]) for a, b in pairs]
    hgs += [hs.join(HYPERGROUPS[a], HYPERGROUPS[b]) for a, b in pairs]
    gen = {name: hs.canonical_generalized(SCHEMES[name]) for name in ("k3", "D5", "D8", "S5/2")}
    hgs += [hs.from_generalized(gs) for gs in gen.values()]
    hgs += [hs.from_generalized(hs.direct_product_scheme(gen["k3"], gen["D5"])),
            hs.from_generalized(hs.join_scheme(gen["D5"], gen["k3"]))]
    return [h for h in hgs if h.is_commutative()]


def _all_character_cases():
    """_character_cases, then the hypergroups of _order_cases not among them."""
    cases = _character_cases()
    return cases + [h for h in _order_cases() if all(h is not g for g in cases)]


@pytest.mark.parametrize("h", _all_character_cases())
def test_characters_match_reference(h):
    got, want = _table_or_error(hs.characters, h), _table_or_error(refv.characters, h)
    if isinstance(want, str):
        assert got == want
        return
    # the Hermitian split against the reference's eig of a random mixture:
    # the same rows in the same order and dtype, within 1e-11 (they agree
    # within 2e-13 here); the exact-value tests of test_hypergroup.py check
    # accuracy
    assert got.chars.dtype == want.chars.dtype
    assert np.abs(got.chars - want.chars).max() <= 1e-11
    assert np.abs(got.plancherel - want.plancherel).max() <= 1e-11
    assert got.haar.tobytes() == want.haar.tobytes()


@pytest.mark.parametrize("h", _order_cases())
def test_character_order_matches_reference(h, monkeypatch):
    """The rows characters() sorts, sorted by the per-row key of the
    reference, give its table bit for bit."""
    seen = []

    def spy(rows):
        seen.append(rows.copy())
        return order(rows)

    order = hg._char_order
    monkeypatch.setattr(hg, "_char_order", spy)
    chars = hs.characters(h).chars
    want = np.array(sorted(seen[-1], key=refv._char_sort_key))
    assert chars.dtype == want.dtype and chars.tobytes() == want.tobytes()


# entries a + b 5e-10 + c 1e-10 straddle the 1e-9 rounding of the sort key
_NEAR = st.builds(lambda a, b, c: a + b * 5e-10 + c * 1e-10,
                  st.sampled_from([-1.0, -0.5, -0.0, 0.0, 1 / 3, 0.5, 1.0]),
                  st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))


@st.composite
def tied_rows(draw):
    """Rows drawn from a small pool, so whole rows tie, each with at most
    one entry moved by 1e-10, so keys tie after rounding."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.builds(complex, _NEAR, _NEAR), min_size=n, max_size=n)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    rows = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))
    for r in range(len(rows)):
        if draw(st.booleans()):
            rows[r, draw(st.integers(0, n - 1))] += draw(
                st.sampled_from([1e-10, -1e-10, 1e-10j, -1e-10j]))
    return rows


@given(tied_rows())
def test_character_order_on_tied_rows(rows):
    want = np.array(sorted(rows, key=refv._char_sort_key))
    assert rows[hg._char_order(rows)].tobytes() == want.tobytes()


def _double_coset_hypergroups(max_n=6):
    """The double-coset hypergroups with at most max_n elements of every
    subgroup of GROUPS generated by at most two elements."""
    out = {}
    for g, table in enumerate(GROUPS):
        for gens in itertools.combinations_with_replacement(range(len(table)), 2):
            H = tuple(_subgroup(table, gens))
            if (g, H) not in out:
                out[g, H] = hs.from_scheme(hs.from_double_cosets(table, H)[1])
    return [h for h in out.values() if h.n <= max_n]


SMALL_COSET_HGS = _double_coset_hypergroups()


@given(st.sampled_from(SMALL_COSET_HGS), st.sampled_from(SMALL_COSET_HGS))
def test_products_and_joins_of_double_coset_hypergroups(h1, h2):
    """Products and joins pass the axioms; product Haar weights are the
    products of the factors' weights, and join weights are h2's on the D2
    block and h1's times h2's total mass on D1 - {e1}; commutative results
    have Plancherel weights summing to 1."""
    left1, left2 = hs.haar(h1)[0], hs.haar(h2)[0]
    prod, joined = hs.direct_product(h1, h2), hs.join(h1, h2)
    for h in (prod, joined):
        assert hs.verify_hypergroup(h).ok
    assert hs.haar(prod)[0] == [a * b for a in left1 for b in left2]
    rest = [x for i, x in enumerate(left1) if i != h1.identity]
    assert hs.haar(joined)[0] == left2 + [x * sum(left2) for x in rest]
    for h in (prod, joined):
        if h.is_commutative():
            assert abs(hs.characters(h).plancherel.sum() - 1) <= 1e-8


@given(st.sampled_from(SMALL_COSET_HGS), st.sampled_from(SMALL_COSET_HGS))
def test_characters_of_a_product_are_products(h1, h2):
    if not (h1.is_commutative() and h2.is_commutative()):
        return
    c1, c2 = hs.characters(h1), hs.characters(h2)
    got = hs.characters(hs.direct_product(h1, h2))
    want = np.array([np.outer(a, b).ravel() for a in c1.chars for b in c2.chars])
    pl = np.outer(c1.plancherel, c2.plancherel).ravel()
    # each character of the product is exactly one product of characters
    close = np.abs(got.chars[:, None, :] - want[None, :, :]).max(axis=2) <= 1e-8
    assert (close.sum(axis=1) == 1).all() and (close.sum(axis=0) == 1).all()
    assert np.abs(got.plancherel - pl[close.argmax(axis=1)]).max() <= 1e-10


@st.composite
def multiplicative_tensors(draw):
    """(exact tensor, alpha): a normalized tensor for which a random
    positive alpha with alpha(e) = 1 is multiplicative.  A nonnegative
    normalized tensor has only alpha = 1 (max alpha^2 <= max alpha), so
    entries may be negative: each row (i, j) off the identity draws its
    entries at k >= 2 and solves for k = 0, 1 from sum_k c = 1 and
    sum_k c alpha_k = alpha_i alpha_j."""
    n = draw(st.integers(2, 4))
    den = draw(st.sampled_from([1, 3, 10, 2 ** 61 - 1]))
    alpha = [Fraction(1)] + [Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 9)))
                             for _ in range(n - 1)]
    if alpha[1] == 1:
        alpha[1] = Fraction(2)
    conv = [[[Fraction(int(k == (i or j))) for k in range(n)] for j in range(n)]
            for i in range(n)]
    for i in range(1, n):
        for j in range(1, n):
            row = [0, 0] + [Fraction(draw(st.integers(-20, 20)), den)
                            for _ in range(n - 2)]
            mass = 1 - sum(row)
            moment = alpha[i] * alpha[j] - sum(c * a for c, a in zip(row, alpha))
            row[1] = (moment - mass) / (alpha[1] - 1)
            row[0] = mass - row[1]
            conv[i][j] = row
    return hs.FiniteHypergroup(n, conv, 0, list(range(n))), alpha


@given(multiplicative_tensors())
def test_exact_semicharacter_deform_round_trip(case):
    h, alpha = case
    d1 = hs.semicharacter_deform(h, alpha)
    back = hs.semicharacter_deform(d1, [1 / a for a in alpha])
    assert d1.is_exact and back.is_exact
    assert back.den == h.den and back.num.tolist() == h.num.tolist()
    assert d1.num.sum(axis=2).tolist() == [[d1.den] * h.n] * h.n

