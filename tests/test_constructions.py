"""Direct products and joins of hypergroups and kernel families."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hyperscheme as hs


@pytest.fixture(scope="module")
def trivial_hg(trivial_scheme):
    return hs.from_scheme(trivial_scheme)


def test_product_index_bijective():
    pi = hs.ProductIndex(3, 4)
    seen = {pi.flat(i, j) for i in range(3) for j in range(4)}
    assert seen == set(range(12))
    for idx in range(12):
        assert pi.flat(*pi.pair(idx)) == idx


def test_join_index_layout():
    ji = hs.JoinIndex(n1=3, n2=2, e1=0)
    assert ji.size == 4
    assert [ji.from_second(j) for j in range(2)] == [0, 1]
    assert [ji.from_first(i) for i in (1, 2)] == [2, 3]
    assert ji.decompose(3) == ("first", 2)
    assert [ji.decompose(j) for j in range(2)] == [("second", 0), ("second", 1)]
    with pytest.raises(ValueError):
        ji.from_first(0)


def test_product_with_trivial(k3_hypergroup, trivial_hg):
    prod = hs.direct_product(trivial_hg, k3_hypergroup)
    assert np.abs(prod.conv_f - k3_hypergroup.conv_f).max() == 0


def test_float_product_is_the_exact_one_in_doubles(k3_hypergroup):
    hf = hs.FiniteHypergroup(2, k3_hypergroup.conv_f.tolist(), 0, [0, 1])
    exact = hs.direct_product(k3_hypergroup, k3_hypergroup)
    for prod in (hs.direct_product(hf, k3_hypergroup), hs.direct_product(k3_hypergroup, hf)):
        assert not prod.is_exact
        assert np.array_equal(prod.conv_f, exact.conv_f)
        assert np.array_equal(prod.involution, exact.involution)


def test_product_k3_squared(k3_hypergroup):
    prod = hs.direct_product(k3_hypergroup, k3_hypergroup)
    assert hs.verify_hypergroup(prod).ok
    rep = hs.verify_hypergroup(prod)
    assert rep.commutative and rep.symmetric
    pi = hs.ProductIndex(2, 2)
    i11 = pi.flat(1, 1)
    assert prod.conv[i11][i11] == (Fraction(1, 4),) * 4


def test_product_scheme(k3_scheme):
    gs = hs.canonical_generalized(k3_scheme)
    prod = hs.direct_product_scheme(gs, gs)
    hs.verify_generalized(prod)
    scheme = hs.verify_scheme(prod.partition)
    assert scheme.n_points == 9
    assert scheme.n_relations == 4
    assert sorted(scheme.valency.tolist()) == [1, 2, 2, 4]
    assert hs.finite_rigidity_check(prod)
    # (T1)/(T2) are preserved under products
    assert hs.translation_property_check(scheme) == (True, True)


def test_join_with_trivial(k3_hypergroup, trivial_hg):
    joined = hs.join(trivial_hg, k3_hypergroup)
    assert np.abs(joined.conv_f - k3_hypergroup.conv_f).max() == 0


def test_join_k3_k3(k3_hypergroup):
    joined = hs.join(k3_hypergroup, k3_hypergroup)
    assert hs.verify_hypergroup(joined).ok
    assert joined.identity == 0
    ji = hs.JoinIndex(2, 2, 0)
    i1 = ji.from_first(1)
    # delta_1 * delta_1 = 1/6 e2 + 1/3 1' + 1/2 1
    assert joined.conv[i1][i1] == (Fraction(1, 6), Fraction(1, 3),
                                   Fraction(1, 2))


def test_join_z2_trivial(z4_scheme, trivial_hg):
    z2 = np.array([[0, 1], [1, 0]])
    _, z2_scheme = hs.from_double_cosets(z2, [0])
    joined = hs.join(hs.from_scheme(z2_scheme), trivial_hg)
    assert joined.n == 2
    assert joined.conv[1][1] == (Fraction(1), Fraction(0))


def test_join_scheme(k3_scheme):
    gs = hs.canonical_generalized(k3_scheme)
    joined = hs.join_scheme(gs, gs)
    hs.verify_generalized(joined)
    assert joined.partition.n_points == 9
    assert joined.partition.n_relations == 3
    assert hs.finite_rigidity_check(joined)
    # its hypergroup equals the join of the hypergroups
    h_from_scheme = hs.from_generalized(joined)
    h_joined = hs.join(hs.from_scheme(k3_scheme), hs.from_scheme(k3_scheme))
    assert np.abs(h_from_scheme.conv_f - h_joined.conv_f).max() < 1e-12


def test_join_scheme_trivial(k3_scheme, trivial_scheme):
    gs = hs.canonical_generalized(k3_scheme)
    triv = hs.canonical_generalized(trivial_scheme)
    joined = hs.join_scheme(triv, gs)
    assert joined.partition.n_relations == gs.partition.n_relations
    assert np.abs(joined.kernels - gs.kernels).max() < 1e-12


def test_t2_sum_identity(k3_scheme):
    """sum_h omega_D(h) K_h(x,.) = omega_X for product and join kernels,
    with the compact factor's weights normalized to probabilities."""
    gs = hs.canonical_generalized(k3_scheme)

    prod = hs.direct_product_scheme(gs, gs)
    wD = np.array([1.0, 2.0, 2.0, 4.0])  # product of the factor valencies
    total = sum(wD[k] * prod.kernels[k] for k in range(4))
    assert np.abs(total - prod.omega_x[None, :]).max() < 1e-12

    joined = hs.join_scheme(gs, gs)
    # omega_D(join) = omega_{D1}(e1) * normalized omega_{D2} on the D2 block,
    # omega_{D1} on the rest
    wD = np.array([1 / 3, 2 / 3, 2.0])
    total = sum(wD[k] * joined.kernels[k] for k in range(3))
    assert np.abs(total - joined.omega_x[None, :]).max() < 1e-12


def test_join_haar(k3_hypergroup):
    joined = hs.join(k3_hypergroup, k3_hypergroup)
    left, right, uni = hs.haar(joined)
    assert uni
    # with omega(e2) = 1: the D2 block carries (1, 2), the D1 block
    # sum(omega_2) * omega_1 = 3 * 2
    assert left == [1, 2, 6]


def _cycle_family(m):
    x = np.arange(m)
    dist = np.abs(x[:, None] - x[None, :])
    part = hs.RelationPartition(m, m // 2 + 1, np.minimum(dist, m - dist))
    return hs.canonical_generalized(hs.verify_scheme(part))


def test_constructions_keep_one_read_only_kernel_array():
    """join_scheme, direct_product_scheme and canonical_generalized build
    their kernels once and hand them over without a copy: the tracemalloc
    peak stays below 1.5 times the kernel bytes (a second copy made it
    twice), and the kept arrays are read-only and share no memory with the
    factors' arrays."""
    c8, c12 = _cycle_family(8), _cycle_family(12)
    x = np.arange(40)
    dist = np.abs(x[:, None] - x[None, :])
    c40 = hs.verify_scheme(hs.RelationPartition(40, 21, np.minimum(dist, 40 - dist)))
    for build in (lambda: hs.join_scheme(c8, c12),
                  lambda: hs.direct_product_scheme(c8, c12),
                  lambda: hs.canonical_generalized(c40)):
        tracemalloc.start()
        try:
            gs = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * gs.kernels.nbytes
        for arr in (gs.kernels, gs.omega_x):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
            for factor in (c8, c12):
                assert not np.shares_memory(arr, factor.kernels)
                assert not np.shares_memory(arr, factor.omega_x)
        assert hs.verify_generalized(gs).shape == (gs.partition.n_relations,) * 3
