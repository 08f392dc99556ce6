"""Scheme verification, double cosets, generalized schemes, rigidity."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import hyperscheme as hs
from hyperscheme import io as hio
from hyperscheme.scheme import KERNEL_TOL


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
    # counts are BLAS float32 products, exact only while n < 2**24; a lowered
    # bound shows the guard refuses rather than returning rounded counts
    monkeypatch.setattr(hs.scheme, "_EXACT_FLOAT_COUNT", 3)
    with pytest.raises(ValueError, match="2\\*\\*24"):
        hs.verify_scheme(k3_partition)


def test_uint16_scores_bound_the_relations():
    """_generators keeps uint16 scores, which hold 3d + 1 only below 2**16:
    d = 21845 is refused before any d^3 array exists, d = 21844 passes that
    guard and fails on its first empty relation."""
    lab = np.array([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match=r"^21845 relations: _generators' uint16 scores "
                                         r"need 3d \+ 1 < 2\*\*16$"):
        hs.verify_scheme(hs.RelationPartition(2, 21845, lab))
    with pytest.raises(hs.AxiomViolation, match="^relation 2 never occurs$"):
        hs.verify_scheme(hs.RelationPartition(2, 21844, lab))


def test_p_beyond_physical_memory_is_refused(monkeypatch):
    """12 points whose off-diagonal pairs each form a relation of their own
    (d = 133) fail the counting axiom; with 1 MiB of memory reported, the
    11 d^3 bytes of p and _generators are refused before p is allocated."""
    n = 12
    lab = np.zeros((n, n), dtype=np.int64)
    upper = np.triu_indices(n, 1)
    lab[upper] = 2 * np.arange(upper[0].size) + 1
    lab.T[upper] = lab[upper] + 1
    part = hs.RelationPartition(n, n * (n - 1) + 1, lab)
    with pytest.raises(hs.AxiomViolation) as exc:
        hs.verify_scheme(part)
    assert exc.value.axiom_id == "counting"
    monkeypatch.setattr(hs.scheme, "_physical_memory", lambda: 1 << 20)
    with pytest.raises(ValueError, match="^133 relations: p needs 0.0241 GiB with its "
                                         "check, more than the 0.000977 GiB of memory$"):
        hs.verify_scheme(part)


def test_empty_relation_is_refused(k3_partition):
    part = hs.RelationPartition(3, 3, k3_partition.label)
    with pytest.raises(hs.AxiomViolation, match="^relation 2 never occurs$") as exc:
        hs.verify_scheme(part)
    assert (exc.value.axiom_id, exc.value.witness) == ("relation-empty", (2,))


def test_kernel_family_shapes_are_checked(k3_partition):
    with pytest.raises(ValueError, match=r"^kernels must have shape \(2, 3, 3\)$"):
        hs.GeneralizedScheme(k3_partition, np.zeros((2, 3, 2)), np.ones(3))
    with pytest.raises(ValueError, match=r"^omega_x must have shape \(3,\)$"):
        hs.GeneralizedScheme(k3_partition, np.zeros((2, 3, 3)), np.ones(2))


def test_unimodular_only_checks(z4_scheme):
    """verify_scheme never yields a scheme with valency(i) != valency(bar i),
    as |R_i| = n valency(i) = |R_bar i|; a raw instance is refused."""
    raw = dataclasses.replace(z4_scheme, valency=np.array([1, 1, 1, 2]))
    with pytest.raises(hs.NotUnimodular, match="^canonical kernels need a unimodular scheme$"):
        hs.canonical_generalized(raw)
    with pytest.raises(hs.NotUnimodular, match="^translation properties are defined "
                                               "for unimodular schemes$"):
        hs.translation_property_check(raw)


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


@pytest.mark.parametrize("subgroup, message", [
    ([1], "identity not in subgroup"),
    ([0, 1, 2], "1*2 leaves the subset"),       # two transpositions
])
def test_subgroup_refusals_name_the_fault(s3_table, subgroup, message):
    with pytest.raises(hs.NotASubgroup) as exc:
        hs.from_double_cosets(s3_table, subgroup)
    assert str(exc.value) == message


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


def _negative_off_its_relation(k):
    k[1, 0] = [-0.1, 0.55, 0.55]     # row 0 of K_1 still sums to 1


def _identity_off_by_5e9(k):
    k[0, 0, 0] += 5e-9                  # inside the row-sum tolerance 1e-8


@pytest.mark.parametrize("edit, axiom, witness, message", [
    (_negative_off_its_relation, "2", (1, 0, 0), "negative kernel entry"),
    (_identity_off_by_5e9, "4", (0,), "identity kernel is not the identity matrix"),
])
def test_generalized_kernel_axioms(k3_scheme, edit, axiom, witness, message):
    gs = hs.canonical_generalized(k3_scheme)
    kernels = gs.kernels.copy()
    edit(kernels)
    bad = hs.GeneralizedScheme(gs.partition, kernels, gs.omega_x)
    with pytest.raises(hs.AxiomViolation) as exc:
        hs.verify_generalized(bad)
    assert (exc.value.axiom_id, exc.value.witness, str(exc.value)) == (axiom, witness, message)


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


def test_generalized_scheme_verifies_once(z4_scheme, monkeypatch):
    """verify_generalized, from_generalized and KernelFamily.from_generalized
    on one family run the kernel check once between them.  A canonical
    family keeps the scheme it was built from and runs no verify_scheme;
    the same kernels given to GeneralizedScheme run it once."""
    from hyperscheme import scheme as mod
    calls = []

    def counted(name):
        fn = getattr(mod, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("verify_scheme", "_verify_kernels"):
        monkeypatch.setattr(mod, name, counted(name))
    canonical = hs.canonical_generalized(z4_scheme)
    given = hs.GeneralizedScheme(z4_scheme.partition, canonical.kernels, canonical.omega_x)
    for gs, want in ((canonical, ["_verify_kernels"]),
                     (given, ["verify_scheme", "_verify_kernels"])):
        calls.clear()
        ptilde = hs.verify_generalized(gs)
        h = hs.from_generalized(gs)
        hs.KernelFamily.from_generalized(gs)
        assert calls == want
        assert h.conv_f.tobytes() == ptilde.tobytes()


def test_failing_family_raises_the_same_on_every_call(k3_scheme):
    """A failure is not kept: each call checks again and raises alike."""
    gs = hs.canonical_generalized(k3_scheme)
    kernels = gs.kernels.copy()
    _negative_off_its_relation(kernels)
    bad = hs.GeneralizedScheme(gs.partition, kernels, gs.omega_x)
    seen = []
    for fn in (hs.verify_generalized, hs.verify_generalized, hs.from_generalized):
        with pytest.raises(hs.AxiomViolation) as exc:
            fn(bad)
        seen.append((exc.value.axiom_id, exc.value.witness, str(exc.value)))
    assert seen == [("2", (1, 0, 0), "negative kernel entry")] * 3


def test_generalized_scheme_holds_read_only_copies(k3_scheme):
    """Writing into kernels or omega_x raises, and editing the arrays the
    caller passed in changes neither the verdict nor p~."""
    gs = hs.canonical_generalized(k3_scheme)
    want = hs.verify_generalized(gs)
    for checked_first in (False, True):
        kernels, omega = gs.kernels.copy(), gs.omega_x.copy()
        own = hs.GeneralizedScheme(gs.partition, kernels, omega)
        for arr in (own.W, own.kernels, own.omega_x):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
        if checked_first:
            hs.verify_generalized(own)
        kernels[1] = 7.0
        omega[:] = -1.0
        assert np.array_equal(own.kernels, gs.kernels)
        assert np.array_equal(own.omega_x, gs.omega_x)
        assert hs.verify_generalized(own).tobytes() == want.tobytes()
        assert hs.from_generalized(own).conv_f.tobytes() == want.tobytes()


def test_returned_ptilde_is_the_callers_own(z4_scheme):
    """Writing into the p~ that verify_generalized returns changes neither a
    later from_generalized nor a later verify_generalized."""
    gs = hs.canonical_generalized(z4_scheme)
    ptilde = hs.verify_generalized(gs)
    want = ptilde.copy()
    ptilde[:] = -1.0
    assert hs.from_generalized(gs).conv_f.tobytes() == want.tobytes()
    assert hs.verify_generalized(gs).tobytes() == want.tobytes()
    scheme, kept = gs.verified
    for arr in (kept, scheme.p, scheme.involution, scheme.valency):
        assert not arr.flags.writeable


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


def test_kernels_are_built_from_w_on_each_read(z4_scheme):
    """A family holds W, the kernel of each pair's relation at that pair;
    kernels is a new read-only stack on each read."""
    gs = hs.canonical_generalized(z4_scheme)
    lab = gs.partition.label
    assert gs.W.shape == lab.shape
    assert gs.kernels is not gs.kernels
    assert np.array_equal(np.take_along_axis(gs.kernels, lab[None], axis=0)[0], gs.W)
    assert np.array_equal(gs.kernels.sum(axis=0), gs.W)


def test_entries_off_their_relation(z4_scheme):
    """An entry of a kernel off its relation within +-KERNEL_TOL is dropped:
    the family reads back with 0 there, verifies and is rigid.  A family
    whose kernel 1 has one outside, or a NaN, keeps none of them in W, fails
    axiom (2) and rigidity, and refuses to read its kernels back."""
    gs = hs.canonical_generalized(z4_scheme)
    want = hs.verify_generalized(gs)
    kernels = gs.kernels.copy()
    kernels[1, 0, 0] = kernels[2, 0, 0] = 0.5 * KERNEL_TOL
    small = hs.GeneralizedScheme(gs.partition, kernels, gs.omega_x)
    assert np.array_equal(small.kernels, gs.kernels)
    assert hs.verify_generalized(small).tobytes() == want.tobytes()
    assert hs.finite_rigidity_check(small)
    for value in (2 * KERNEL_TOL, np.nan):
        kernels[1, 0, 0] = kernels[2, 0, 0] = value
        bad = hs.GeneralizedScheme(gs.partition, kernels, gs.omega_x)
        assert np.array_equal(bad.W, gs.W)
        with pytest.raises(hs.AxiomViolation) as refused:
            bad.kernels
        assert (refused.value.axiom_id, refused.value.witness) == ("2", (1, 0, 0))
        with pytest.raises(hs.AxiomViolation) as exc:
            hs.verify_generalized(bad)
        assert (exc.value.axiom_id, exc.value.witness, str(exc.value)) == \
            ("2", (1, 0, 0), "support of kernel 1 does not match relation 1")
        assert hs.finite_rigidity_check(bad) is False


def test_a_stray_entry_refuses_every_reader_of_the_kernels(z4_scheme):
    """A family given an entry off its relation keeps no copy of that kernel:
    kernels, io.scheme_to_dict and KernelFamily.from_generalized raise the
    AxiomViolation of verify_generalized instead of reading W, which has
    dropped the entry."""
    gs = hs.canonical_generalized(z4_scheme)
    for value in (2 * KERNEL_TOL, -2 * KERNEL_TOL, 0.5, np.nan):
        kernels = gs.kernels.copy()
        kernels[1, 0, 0] = value
        bad = hs.GeneralizedScheme(gs.partition, kernels, gs.omega_x)
        seen = []
        for read in (hs.verify_generalized, lambda g: g.kernels,
                     hio.scheme_to_dict, hs.KernelFamily.from_generalized):
            with pytest.raises(hs.AxiomViolation) as exc:
                read(bad)
            seen.append((exc.value.axiom_id, exc.value.witness, str(exc.value)))
        assert seen == seen[:1] * 4 and seen[0][:2] == ("2", (1, 0, 0))
