"""Hypergroup axioms, Haar, characters, Fourier analysis, deformations."""

from fractions import Fraction

import numpy as np
import pytest

import hyperscheme as hs


def test_from_scheme_k3(k3_hypergroup):
    h = k3_hypergroup
    assert h.conv[1][1] == (Fraction(1, 2), Fraction(1, 2))
    assert hs.verify_hypergroup(h).ok


def test_from_scheme_z4(z4_scheme):
    h = hs.from_scheme(z4_scheme)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                want = Fraction(1) if k == (i + j) % 4 else Fraction(0)
                assert h.conv[i][j][k] == want


def test_from_generalized_matches_from_scheme(k3_scheme, z4_scheme):
    for scheme in (k3_scheme, z4_scheme):
        gs = hs.canonical_generalized(scheme)
        h1 = hs.from_generalized(gs)
        h2 = hs.from_scheme(scheme)
        assert np.abs(h1.conv_f - h2.conv_f).max() < 1e-12


def test_verify_rejects_broken_support(k3_hypergroup):
    # c[1][1][e] = 0 although bar(1) = 1
    conv = (((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))))
    h = hs.FiniteHypergroup(n=2, conv=conv, identity=0,
                            involution=np.array([0, 1]))
    with pytest.raises(hs.AxiomViolation) as exc:
        hs.verify_hypergroup(h)
    assert exc.value.axiom_id == "support-of-identity"


def test_verify_rejects_nan(k3_hypergroup):
    conv = [[list(row) for row in plane] for plane in k3_hypergroup.conv]
    conv[1][1][1] = float("nan")
    h = hs.FiniteHypergroup(n=2, conv=conv, identity=0, involution=[0, 1])
    report = hs.verify_hypergroup(h, raise_on_failure=False)
    assert not report.ok
    assert (report.failures[0].axiom_id, report.failures[0].witness) == ("finite", (1, 1, 1))
    with pytest.raises(hs.AxiomViolation) as exc:
        hs.verify_hypergroup(h)
    assert exc.value.axiom_id == "finite"


def test_verify_rejects_random_tensor():
    rng = np.random.default_rng(5)
    conv = rng.dirichlet(np.ones(3), size=(3, 3))
    conv[0] = np.eye(3)
    conv[:, 0] = np.eye(3)
    h = hs.FiniteHypergroup(n=3, conv=conv.tolist(), identity=0,
                            involution=np.array([0, 1, 2]))
    report = hs.verify_hypergroup(h, raise_on_failure=False)
    assert not report.ok


def test_exact_tensor_off_by_1e10_fails_normalization():
    """Row (1, 1) sums to 1 + 1e-10: within the float tolerance, but the
    exact check sees it."""
    eps = Fraction(1, 10 ** 10)
    conv = [[[1, 0], [0, 1]], [[0, 1], [1 - eps, 2 * eps]]]
    h = hs.FiniteHypergroup(n=2, conv=conv, identity=0, involution=[0, 1])
    assert h.is_exact
    report = hs.verify_hypergroup(h, raise_on_failure=False)
    assert not report.ok
    first = report.failures[0]
    assert (first.axiom_id, first.witness) == ("normalization", (1, 1))


SCALE = 10 ** 12


def _move(num, x, y, src, dst):
    """Move one numerator unit of c(x, y, .) from src to dst."""
    num[x, y, src] -= 1
    num[x, y, dst] += 1


@pytest.mark.parametrize("perturb, axiom, witness", [
    (lambda t: t.__setitem__((1, 1, 1), t[1, 1, 1] + 1), "normalization", (1, 1)),
    (lambda t: _move(t, 1, 0, 0, 1), "nonnegative", (1, 0, 0)),
    (lambda t: _move(t, 0, 1, 1, 0), "identity", (1,)),
    (lambda t: _move(t, 1, 2, 3, 0), "support-of-identity", (1, 2)),
    (lambda t: _move(t, 1, 2, 3, 1), "involution-compat", (1, 2)),
])
def test_exact_axioms_see_one_part_in_1e12(k3_hypergroup, perturb, axiom, witness):
    """K3 x K3 over the denominator 4e12 with one numerator moved by 1 fails
    the exact check, while the same tensor in floats passes the tolerance."""
    base = hs.direct_product(k3_hypergroup, k3_hypergroup)
    num = base.num * SCALE
    perturb(num)
    h = hs.FiniteHypergroup._of(num, base.den * SCALE, base.identity,
                                base.involution, True)
    report = hs.verify_hypergroup(h, raise_on_failure=False)
    assert (axiom, witness) in [(f.axiom_id, f.witness) for f in report.failures]
    floats = hs.FiniteHypergroup._of(h.conv_f.copy(), 1, base.identity,
                                     base.involution, True)
    assert hs.verify_hypergroup(floats).ok
    if axiom == "involution-compat":      # K3 x K3 is symmetric
        assert not h.is_commutative() and floats.is_commutative()


def test_exact_row_sum_past_int64_fails_normalization():
    """int64 numerators whose row sum 2^64 + 1 would wrap to den = 1."""
    big = 2 ** 63 - 1
    conv = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [big, big, 3], [0, 0, 1]],
            [[0, 0, 1], [0, 0, 1], [1, 0, 0]]]
    h = hs.FiniteHypergroup(n=3, conv=conv, identity=0, involution=[0, 1, 2])
    assert h.num.dtype == np.int64 and h.den == 1
    report = hs.verify_hypergroup(h, raise_on_failure=False)
    first = report.failures[0]
    assert (first.axiom_id, first.witness) == ("normalization", (1, 1))


def test_exact_associativity_on_integer_products(k3_hypergroup):
    """Below d * max|num|^2 = 2^53 the float64 products of the numerators
    are exact, and a commuting pair of moved units breaks associativity."""
    base = hs.direct_product(k3_hypergroup, k3_hypergroup)
    num = base.num * 10 ** 7
    for x, y in ((1, 3), (3, 1)):
        _move(num, x, y, 3, 2)
    h = hs.FiniteHypergroup._of(num, base.den * 10 ** 7, base.identity,
                                base.involution, True)
    assert 4 * int(num.max()) ** 2 < 2 ** 53
    report = hs.verify_hypergroup(h, raise_on_failure=False)
    assert [(f.axiom_id, f.witness) for f in report.failures] == [
        ("associativity", (1, 1, 2, 2))]


def test_haar(k3_hypergroup, trivial_scheme, z4_scheme):
    left, right, uni = hs.haar(k3_hypergroup)
    assert left == [1, 2] and right == [1, 2] and uni
    left, _, _ = hs.haar(hs.from_scheme(trivial_scheme))
    assert left == [1]
    left, _, uni = hs.haar(hs.from_scheme(z4_scheme))
    assert left == [1, 1, 1, 1] and uni


def test_haar_invariance(k3_hypergroup):
    """sum_y w(y) (delta_x * delta_y)({k}) = w(k) for all x, k."""
    h = k3_hypergroup
    left, _, _ = hs.haar(h)
    for x in range(h.n):
        for k in range(h.n):
            total = sum(left[y] * h.conv[x][y][k] for y in range(h.n))
            assert total == left[k]


def test_characters_k3(k3_hypergroup):
    table = hs.characters(k3_hypergroup)
    assert np.allclose(table.chars.real, [[1, 1], [1, -0.5]], atol=1e-9)
    assert np.abs(table.chars.imag).max() < 1e-12
    assert np.allclose(table.plancherel, [1 / 3, 2 / 3], atol=1e-9)


def test_characters_trivial(trivial_scheme):
    table = hs.characters(hs.from_scheme(trivial_scheme))
    assert table.chars.shape == (1, 1)
    assert table.plancherel[0] == pytest.approx(1.0)


def test_characters_z4(z4_scheme):
    table = hs.characters(hs.from_scheme(z4_scheme))
    assert np.allclose(table.plancherel, 0.25, atol=1e-9)
    # rows are the four group characters i^{kx} in some fixed order
    mods = np.abs(table.chars)
    assert np.allclose(mods, 1.0, atol=1e-9)
    for row in table.chars:
        for i in range(4):
            for j in range(4):
                assert row[i] * row[j] == pytest.approx(row[(i + j) % 4], abs=1e-8)


def test_characters_deterministic(k3_hypergroup):
    t1 = hs.characters(k3_hypergroup, seed=99)
    t2 = hs.characters(k3_hypergroup, seed=99)
    assert np.array_equal(t1.chars, t2.chars)


def test_characters_require_commutative():
    # the smallest noncommutative hypergroup-like tensor: use S3 group algebra
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = np.array([[perms.index(compose(p, q)) for q in perms]
                      for p in perms])
    conv = np.zeros((6, 6, 6))
    for i in range(6):
        for j in range(6):
            conv[i, j, table[i, j]] = 1.0
    inv = np.array([int(np.nonzero(table[g] == 0)[0][0]) for g in range(6)])
    h = hs.FiniteHypergroup(n=6, conv=conv.tolist(), identity=0,
                            involution=inv)
    with pytest.raises(hs.NotCommutative):
        hs.characters(h)


def test_fourier_oracles(k3_hypergroup):
    table = hs.characters(k3_hypergroup)
    f_e = hs.fourier([1, 0], table)
    assert np.allclose(f_e, [1, 1], atol=1e-9)
    f_1 = hs.fourier([0, 1], table)
    assert np.allclose(sorted(f_1.real), [-1, 2], atol=1e-9)
    const = hs.inverse_fourier([1, 0], table)  # delta at the trivial character
    assert np.allclose(const, 1.0, atol=1e-9)


def test_fourier_inversion(k3_hypergroup, z4_scheme):
    for h in (k3_hypergroup, hs.from_scheme(z4_scheme)):
        table = hs.characters(h)
        rng = np.random.default_rng(3)
        f = rng.normal(size=h.n) + 1j * rng.normal(size=h.n)
        back = hs.plancherel_invert(hs.fourier(f, table), table)
        assert np.abs(back - f).max() < 1e-9


def test_positive_definite(k3_hypergroup):
    table = hs.characters(k3_hypergroup)
    ok, mu = hs.positive_definite_check(k3_hypergroup, table.chars[1], table)
    assert ok
    assert np.allclose(mu.real, [0, 1], atol=1e-9)
    ok, _ = hs.positive_definite_check(k3_hypergroup, [1, 1], table)
    assert ok
    ok, mu = hs.positive_definite_check(k3_hypergroup, [1, -1], table)
    assert not ok
    assert mu.real.min() == pytest.approx(-1 / 3 * table.plancherel[0] * 3,
                                          abs=1e-9)


def test_schur_product_positive_definite(k3_hypergroup, z4_scheme):
    """Pointwise products of nonnegative-expansion functions stay PD."""
    for h in (k3_hypergroup, hs.from_scheme(z4_scheme)):
        table = hs.characters(h)
        rng = np.random.default_rng(11)
        for _ in range(5):
            mu1 = rng.uniform(0, 1, size=h.n)
            mu2 = rng.uniform(0, 1, size=h.n)
            f = hs.inverse_fourier(mu1, table) * hs.inverse_fourier(mu2, table)
            ok, _ = hs.positive_definite_check(h, f, table)
            assert ok


def test_dual_convolution_k3(k3_hypergroup):
    table = hs.characters(k3_hypergroup)
    coeffs = hs.dual_convolution(k3_hypergroup, table, 1, 1)
    assert np.allclose(coeffs.real, [0.5, 0.5], atol=1e-9)
    trivial = hs.dual_convolution(k3_hypergroup, table, 0, 1)
    assert np.allclose(trivial.real, [0, 1], atol=1e-9)


def test_dual_convolution_z4(z4_scheme):
    h = hs.from_scheme(z4_scheme)
    table = hs.characters(h)
    # group duals: chi_i *^ chi_j = point mass at the pointwise product
    for i in range(4):
        for j in range(4):
            coeffs = hs.dual_convolution(h, table, i, j)
            prod = table.chars[i] * table.chars[j]
            target = np.argmax([np.abs(prod - row).max() < 1e-8
                                for row in table.chars])
            want = np.zeros(4)
            want[target] = 1.0
            assert np.allclose(coeffs.real, want, atol=1e-8)
            assert np.abs(coeffs.imag).max() < 1e-8


def test_dual_nonnegativity_scheme_derived(k3_hypergroup, z4_scheme):
    for h in (k3_hypergroup, hs.from_scheme(z4_scheme)):
        table = hs.characters(h)
        for i in range(h.n):
            for j in range(h.n):
                coeffs = hs.dual_convolution(h, table, i, j)
                assert coeffs.real.min() >= -1e-9
                assert coeffs.real.sum() == pytest.approx(1.0, abs=1e-9)
                # the trivial-character coefficient of alpha *^ bar(beta)
                # vanishes for alpha != beta
                conj_j = int(np.argmin(
                    [np.abs(np.conj(table.chars[j]) - row).max()
                     for row in table.chars]))
                cross = hs.dual_convolution(h, table, i, conj_j)
                if i != j:
                    assert abs(cross[0]) < 1e-9


def test_semicharacters(k3_hypergroup, trivial_scheme):
    semis = hs.semicharacters(k3_hypergroup)
    vals = sorted(s[1] for s in semis)
    assert vals == pytest.approx([-0.5, 1.0], abs=1e-9)
    assert len(hs.semicharacters(hs.from_scheme(trivial_scheme))) == 1


def test_semicharacter_deform_identity(k3_hypergroup):
    h2 = hs.semicharacter_deform(k3_hypergroup, [1, 1])
    assert np.abs(h2.conv_f - k3_hypergroup.conv_f).max() == 0


def test_semicharacter_deform_rejections(k3_hypergroup):
    with pytest.raises(hs.NotASemicharacter):
        hs.semicharacter_deform(k3_hypergroup, [1, -0.5])  # not positive
    with pytest.raises(hs.NotASemicharacter):
        hs.semicharacter_deform(k3_hypergroup, [1, 2])  # not multiplicative


def test_semicharacter_check_is_exact_on_exact_inputs(k3_hypergroup):
    """alpha = (1, 1 + 1e-10) misses the semicharacter equation of K3 by
    3/2 1e-10 + 1e-20, inside TOL: on the exact tensor with rational alpha
    it is refused with that residual, while float inputs keep TOL."""
    eps = Fraction(1, 10 ** 10)
    with pytest.raises(hs.NotASemicharacter) as exc:
        hs.semicharacter_deform(k3_hypergroup, [1, 1 + eps])
    assert exc.value.residual == float(3 * eps / 2 + eps ** 2)
    with pytest.raises(hs.NotASemicharacter) as exc:
        hs.semicharacter_deform(k3_hypergroup, [1 + eps, 1 + eps])
    assert exc.value.residual == float(eps)                     # alpha(e) = 1
    floats = hs.FiniteHypergroup(2, k3_hypergroup.conv_f.tolist(), 0, [0, 1])
    assert not floats.is_exact
    for h, alpha in ((floats, [1, 1 + eps]), (k3_hypergroup, [1.0, 1 + 1e-10])):
        assert not hs.semicharacter_deform(h, alpha).is_exact


def test_semicharacter_deform_roundtrip(z4_scheme):
    # Z2 x Z2-like positive semicharacter on the product of two K3s is
    # trivial; use the polynomial-hypergroup route instead: any positive
    # character alpha0 of a hypergroup deforms and inverts exactly.
    h = hs.from_scheme(z4_scheme)
    alpha0 = [Fraction(1)] * 4
    d1 = hs.semicharacter_deform(h, alpha0)
    d2 = hs.semicharacter_deform(d1, [1 / a for a in alpha0])
    assert np.abs(d2.conv_f - h.conv_f).max() == 0


def test_deformed_haar_scaling(k3_hypergroup):
    # build a genuinely deformable hypergroup: truncate is invalid, so use
    # the two-element hypergroup from a weighted example with alpha0 = (1,1)
    # and check Haar scaling on the identity deformation
    h2 = hs.semicharacter_deform(k3_hypergroup, [1, 1])
    left, _, _ = hs.haar(h2)
    base, _, _ = hs.haar(k3_hypergroup)
    assert left == base
