"""Scheme verification, double cosets, generalized schemes, rigidity."""

from fractions import Fraction

import numpy as np
import pytest

import hyperscheme as hs


def test_k3_counting(k3_scheme):
    assert k3_scheme.p[1, 1, 0] == 2
    assert k3_scheme.p[1, 1, 1] == 1
    assert k3_scheme.valency.tolist() == [1, 2]
    assert k3_scheme.is_commutative()
    assert k3_scheme.is_symmetric()
    assert k3_scheme.is_unimodular()


def test_trivial_scheme(trivial_scheme):
    assert trivial_scheme.p[0, 0, 0] == 1
    assert trivial_scheme.valency.tolist() == [1]


def test_non_constant_counting_rejected():
    lab = np.array([[0, 1, 2], [2, 0, 2], [2, 2, 0]])
    part = hs.RelationPartition(3, 3, lab)
    with pytest.raises(hs.AxiomViolation):
        hs.verify_scheme(part)


def test_diagonal_violation():
    lab = np.array([[0, 1], [1, 1]])
    with pytest.raises(hs.AxiomViolation) as exc:
        hs.verify_scheme(hs.RelationPartition(2, 2, lab))
    assert exc.value.axiom_id == "diagonal"


def test_partition_owns_its_labels():
    """The partition freezes a copy: the caller's array stays writable, and
    writing through the base of a view passed in leaves a verified
    partition as it was."""
    lab = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    part = hs.RelationPartition(3, 2, lab)
    lab[0, 1] = 0
    base = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    view = hs.RelationPartition(3, 2, base[:])
    sch = hs.verify_scheme(view)
    base[0, 1] = 0
    for p in (part, view):
        assert p.label[0, 1] == 1
        assert not p.label.flags.writeable
    assert sch.partition.label[0, 1] == 1


def test_float_count_bound_guarded(k3_partition, monkeypatch):
    # counts are BLAS float64 products, exact only while n < 2**53; a lowered
    # bound shows the guard refuses rather than returning rounded counts
    monkeypatch.setattr(hs.scheme, "_EXACT_FLOAT_COUNT", 3)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        hs.verify_scheme(k3_partition)


def test_bose_mesner_products(k3_scheme, z4_scheme):
    for scheme in (k3_scheme, z4_scheme):
        d = scheme.n_relations
        adj = [scheme.partition.adjacency(i) for i in range(d)]
        for i in range(d):
            for j in range(d):
                prod = adj[i] @ adj[j]
                recon = sum(int(scheme.p[i, j, k]) * adj[k] for k in range(d))
                assert np.array_equal(prod, recon)
        assert int(scheme.valency.sum()) == scheme.n_points


def test_double_cosets_s3(s3_table):
    coset_of, scheme = hs.from_double_cosets(s3_table, [0, 1])
    assert scheme.n_points == 3
    assert scheme.n_relations == 2
    assert scheme.valency.tolist() == [1, 2]
    assert coset_of.max() == 2


def test_double_cosets_full_subgroup(s3_table):
    _, scheme = hs.from_double_cosets(s3_table, list(range(6)))
    assert scheme.n_points == 1
    assert scheme.n_relations == 1


def test_double_cosets_z4(z4_scheme):
    assert z4_scheme.n_points == 4
    assert z4_scheme.n_relations == 4
    assert z4_scheme.valency.tolist() == [1, 1, 1, 1]
    assert not z4_scheme.is_symmetric()
    assert z4_scheme.is_unimodular()


def test_bad_group_rejected():
    table = np.array([[0, 1], [0, 1]])
    with pytest.raises(hs.NotAGroup):
        hs.from_double_cosets(table, [0])


def test_bad_subgroup_rejected(s3_table):
    with pytest.raises(hs.NotASubgroup):
        hs.from_double_cosets(s3_table, [0, 4])  # not closed: 4*4 = 5


def test_canonical_generalized_accepted(k3_scheme):
    gs = hs.canonical_generalized(k3_scheme)
    ptilde = hs.verify_generalized(gs)
    assert ptilde[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
    assert ptilde[1, 1, 1] == pytest.approx(0.5, abs=1e-12)
    assert hs.finite_rigidity_check(gs)


def test_rigidity_fails_on_nan(k3_scheme):
    """A NaN kernel entry is no renormalized adjacency."""
    gs = hs.canonical_generalized(k3_scheme)
    kernels = gs.kernels.copy()
    kernels[1, 0, 0] = np.nan
    cand = hs.GeneralizedScheme(partition=gs.partition, kernels=kernels,
                                omega_x=gs.omega_x)
    assert hs.finite_rigidity_check(cand) is False


def test_generalized_identity_axiom(k3_scheme):
    gs = hs.canonical_generalized(k3_scheme)
    kernels = gs.kernels.copy()
    kernels[0] = kernels[1]
    bad = hs.GeneralizedScheme(partition=gs.partition, kernels=kernels,
                               omega_x=gs.omega_x)
    with pytest.raises(hs.AxiomViolation) as exc:
        hs.verify_generalized(bad)
    assert exc.value.axiom_id in ("2", "4")


def test_generalized_adjoint_axiom(k3_scheme):
    gs = hs.canonical_generalized(k3_scheme)
    kernels = gs.kernels.copy()
    # non-symmetric stochastic perturbation on the off-diagonal relation
    kernels[1] = np.array([[0.0, 0.7, 0.3],
                           [0.3, 0.0, 0.7],
                           [0.7, 0.3, 0.0]])
    bad = hs.GeneralizedScheme(partition=gs.partition, kernels=kernels,
                               omega_x=gs.omega_x)
    with pytest.raises(hs.AxiomViolation) as exc:
        hs.verify_generalized(bad)
    assert exc.value.axiom_id in ("3", "5")


def test_rigidity_randomized_search(k3_scheme, z4_scheme):
    """Perturbed stochastic families must never pass the verifier unless
    they are the canonical ones (finite rigidity)."""
    rng = np.random.default_rng(2024)
    for scheme in (k3_scheme, z4_scheme):
        gs = hs.canonical_generalized(scheme)
        accepted_noncanonical = 0
        for _ in range(250):
            kernels = gs.kernels.copy()
            eps = rng.uniform(0.01, 0.3)
            for i in range(1, scheme.n_relations):
                noise = rng.uniform(0, eps, size=kernels[i].shape)
                noise *= (kernels[i] > 0)
                pert = kernels[i] + noise
                kernels[i] = pert / pert.sum(axis=1, keepdims=True)
            cand = hs.GeneralizedScheme(partition=gs.partition,
                                        kernels=kernels, omega_x=gs.omega_x)
            try:
                hs.verify_generalized(cand)
            except hs.AxiomViolation:
                continue
            if not hs.finite_rigidity_check(cand):
                accepted_noncanonical += 1
        assert accepted_noncanonical == 0


def test_translation_properties(k3_scheme, z4_scheme, trivial_scheme):
    for scheme in (k3_scheme, z4_scheme, trivial_scheme):
        assert hs.translation_property_check(scheme) == (True, True)


def test_stochastic_linearization_exact(k3_scheme):
    """S_i S_j = sum_k (w_k / (w_i w_j)) p_{i,j}^k S_k as exact rationals."""
    scheme = k3_scheme
    d = scheme.n_relations
    w = scheme.valency
    S = [np.array([[Fraction(int(v), int(w[i])) for v in row]
                   for row in scheme.partition.adjacency(i)])
         for i in range(d)]
    for i in range(d):
        for j in range(d):
            prod = S[i] @ S[j]
            recon = sum(
                Fraction(int(w[k]) * int(scheme.p[i, j, k]),
                         int(w[i]) * int(w[j])) * S[k]
                for k in range(d))
            assert (prod == recon).all()
