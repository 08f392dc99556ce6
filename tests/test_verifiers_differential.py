"""Differential tests: the array-kernel verifiers against the scalar-loop
reference in reference_verifiers.py, on fixtures, double-coset schemes of
D_m and S_k, and hypothesis-corrupted inputs."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hyperscheme as hs
import reference_verifiers as ref
from hyperscheme.hypergroup import _generators
from hyperscheme.scheme import _verify_group_table


def dihedral_table(m):
    """D_m of order 2m; element k + m e stands for r^k s^e."""
    idx = np.arange(2 * m)
    k, e = idx % m, idx // m
    kk = (k[:, None] + np.where(e[:, None] == 1, -k[None, :], k[None, :])) % m
    return kk + m * (e[:, None] ^ e[None, :])


def symmetric_table(k):
    """(perms, table) of S_k; table[a, b] = perm a after perm b."""
    perms = [tuple(p) for p in itertools.permutations(range(k))]
    index = {p: i for i, p in enumerate(perms)}
    table = np.array([[index[tuple(a[b[x]] for x in range(k))] for b in perms]
                      for a in perms])
    return np.array(perms), table


def young_subgroup(perms, part):
    """Permutations fixing {0, ..., part-1} setwise."""
    want = set(range(part))
    return [i for i, p in enumerate(perms) if set(p[:part].tolist()) == want]


def cycle_partition(m):
    x = np.arange(m)
    dist = np.abs(x[:, None] - x[None, :])
    return hs.RelationPartition(m, m // 2 + 1, np.minimum(dist, m - dist))


def product_partition(p1, p2):
    """The partition of X1 x X2 by pairs of relations, (i1, i2) numbered
    i1 * d2 + i2."""
    n, d2 = p1.n_points * p2.n_points, p2.n_relations
    lab = p1.label[:, None, :, None] * d2 + p2.label[None, :, None, :]
    return hs.RelationPartition(n, p1.n_relations * d2, lab.reshape(n, n))


def relabel(table, sub, seed):
    """An isomorphic copy under a seeded renaming of the elements, so the
    identity and the subgroup's smallest element are no longer 0."""
    pi = np.random.default_rng(seed).permutation(table.shape[0])
    out = np.empty_like(table)
    out[pi[:, None], pi[None, :]] = pi[table]
    return out, sorted(int(pi[h]) for h in sub)


def _group_cases():
    s4_perms, s4 = symmetric_table(4)
    cases = [(dihedral_table(m), [0, m + 1]) for m in (3, 5, 6, 8, 9)]
    cases += [(dihedral_table(6), [0, 3]), (dihedral_table(4), list(range(8)))]
    cases += [(s4, young_subgroup(s4_perms, part)) for part in (1, 2)]
    cases.append((np.array([[(i + j) % 7 for j in range(7)] for i in range(7)]), [0]))
    cases += [relabel(t, h, seed) for seed, (t, h) in enumerate(cases[2:9:2])]
    return cases


GROUP_CASES = _group_cases()


def _base_partitions():
    parts = [hs.RelationPartition(3, 2, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])),
             hs.RelationPartition(1, 1, np.zeros((1, 1), dtype=int))]
    parts += [cycle_partition(m) for m in (4, 7, 10)]
    parts += [ref.from_double_cosets(t, h)[1].partition for t, h in GROUP_CASES]
    return parts


BASE_PARTITIONS = _base_partitions()


def outcome(fn, *args):
    """Result or failure of a verifier, in a form that compares by value."""
    try:
        res = fn(*args)
    except hs.AxiomViolation as exc:
        return ("fail", exc.axiom_id, exc.witness)
    if isinstance(res, hs.AssociationScheme):
        return ("ok", res.p.tolist(), res.valency.tolist(), res.involution.tolist())
    return ("ok", res.tobytes())


@pytest.mark.parametrize("idx", range(len(GROUP_CASES)))
def test_double_cosets_match_reference(idx):
    table, sub = GROUP_CASES[idx]
    coset_of, sch = hs.from_double_cosets(table, sub)
    ref_coset_of, ref_sch = ref.from_double_cosets(table, sub)
    assert np.array_equal(coset_of, ref_coset_of)
    assert np.array_equal(sch.partition.label, ref_sch.partition.label)
    assert np.array_equal(sch.p, ref_sch.p)
    assert np.array_equal(sch.valency, ref_sch.valency)
    assert np.array_equal(sch.involution, ref_sch.involution)


def test_fixture_schemes_match_reference(k3_partition, trivial_scheme, z4_scheme,
                                         s3_table):
    parts = [k3_partition, trivial_scheme.partition, z4_scheme.partition]
    parts += [hs.from_double_cosets(s3_table, h)[1].partition
              for h in ([0], [0, 1], list(range(6)))]
    for part in parts + BASE_PARTITIONS:
        assert outcome(hs.verify_scheme, part) == outcome(ref.verify_scheme, part)


@st.composite
def corrupted_partitions(draw, bases=BASE_PARTITIONS):
    """Swap two off-diagonal labels or relabel one cell.  With `mirror` the
    transposed cells change with them (to the paired relation), so the
    involution survives and the counting axiom is what fails."""
    base = draw(st.sampled_from(bases))
    n, d = base.n_points, base.n_relations
    inv = ref.recover_involution(base)
    lab = base.label.copy()
    mirror = draw(st.booleans())
    if draw(st.booleans()) and n > 2:
        cells = [(x, y) for x in range(n) for y in range(n) if x != y]
        a, b = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2,
                             unique=True))
        lab[a], lab[b] = lab[b], lab[a]
        if mirror:
            lab[a[::-1]], lab[b[::-1]] = inv[lab[a]], inv[lab[b]]
    else:
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        lab[x, y] = draw(st.integers(0, d - 1))
        if mirror:
            lab[y, x] = inv[lab[x, y]]
    return hs.RelationPartition(n, d, lab)


@given(corrupted_partitions())
def test_corrupted_labelings_match_reference(part):
    assert outcome(hs.verify_scheme, part) == outcome(ref.verify_scheme, part)


# bases whose p is proved on fewer slices than d: C5 x C6 (d = 12) and the
# D_20 double cosets (d = 11)
SMALL_GENERATING_SETS = [
    product_partition(cycle_partition(5), cycle_partition(6)),
    ref.from_double_cosets(dihedral_table(20), [0, 20])[1].partition]


def fuse(base, r, t):
    """base with relation t merged into relation r and the relations above
    t renumbered down by one."""
    lab = np.where(base.label == t, r, base.label)
    return hs.RelationPartition(base.n_points, base.n_relations - 1,
                                np.where(lab > t, lab - 1, lab))


@st.composite
def fused_partitions(draw, bases):
    base = draw(st.sampled_from(bases))
    r, t = sorted(draw(st.lists(st.integers(1, base.n_relations - 1), min_size=2,
                                max_size=2, unique=True)))
    return fuse(base, r, t)


def test_small_generating_sets_are_small():
    for base, gens in zip(SMALL_GENERATING_SETS, ([0, 1, 4], [0, 1])):
        assert list(_generators(hs.verify_scheme(base).p)) == gens


@given(st.one_of(corrupted_partitions(SMALL_GENERATING_SETS),
                 fused_partitions(SMALL_GENERATING_SETS)))
def test_corruptions_of_small_generating_sets_match_reference(part):
    """The counting axiom checked on |G| < d slices gives the verdict and
    the witness of the scan of all d slices."""
    assert outcome(hs.verify_scheme, part) == outcome(ref.verify_scheme, part)


def test_scheme_defect_off_the_generating_set_is_found():
    """Merging relations 1 and 9 of the D_20 double-coset scheme keeps A_1
    (now distances 1 and 9 on the 20-cycle) mapping the Bose-Mesner span
    into itself, but breaks slices 2, 3, 4, 6, 7 and 8.  Slice 2 was
    derived, not checked, on the intact scheme (generating set [0, 1]).
    On the merged one slice 1 passes and does not generate it, so 2 is
    checked and is the first failure, with the witness and the message of
    a check of all d slices."""
    part = fuse(SMALL_GENERATING_SETS[1], 1, 9)
    lab = part.label
    adj = [(lab == i).astype(int) for i in range(part.n_relations)]
    failing = [i for i in range(part.n_relations)
               if any(len({*(adj[i] @ a)[lab == k].tolist()}) > 1
                      for a in adj for k in range(part.n_relations))]
    assert failing == [2, 3, 4, 6, 7, 8]
    with pytest.raises(hs.AxiomViolation) as exc:
        hs.verify_scheme(part)
    assert str(exc.value) == "p_(2,3)^1 is not constant: 1 at (0,1) vs 0 at (0,9)"
    assert outcome(hs.verify_scheme, part) == outcome(ref.verify_scheme, part) == \
        ("fail", "counting", (2, 3, 1, 0, 1, 0, 9))


def test_verify_scheme_memory_is_quadratic_plus_p():
    """The 400-cycle (d = 201): p (65 MB), its generating-set closure and
    the n x n slices stay below 150 MiB; one n x d x n float64 array would
    take 257 MB."""
    part = cycle_partition(400)
    tracemalloc.start()
    try:
        sch = hs.verify_scheme(part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sch.valency.tolist() == [1] + [2] * 199 + [1]
    assert peak < 150 * 2 ** 20


def _report_key(rep):
    return (rep.ok, rep.commutative, rep.symmetric,
            [(f.axiom_id, f.witness) for f in rep.failures])


BASE_HYPERGROUPS = [hs.from_scheme(hs.verify_scheme(p)) for p in BASE_PARTITIONS]


@st.composite
def perturbed_hypergroups(draw):
    h = draw(st.sampled_from(BASE_HYPERGROUPS))
    n = h.n
    c = h.conv_f.copy()
    inv = h.involution.copy()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["bump", "swap", "involution"]))
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if kind == "bump":
            c[i, j, k] += draw(st.sampled_from([-0.5, -1e-3, 1e-3, 0.25]))
        elif kind == "swap":
            c[i, j, [k, (k + 1) % n]] = c[i, j, [(k + 1) % n, k]]
        else:
            inv[[i, j]] = inv[[j, i]]
    conv = tuple(tuple(tuple(row) for row in plane) for plane in c.tolist())
    return hs.FiniteHypergroup(n=n, conv=conv, identity=h.identity, involution=inv)


@given(perturbed_hypergroups())
def test_hypergroup_failures_match_reference(h):
    rep = hs.verify_hypergroup(h, raise_on_failure=False)
    assert _report_key(rep) == _report_key(ref.verify_hypergroup(h))


def test_exact_hypergroups_match_reference():
    for h in BASE_HYPERGROUPS + [hs.direct_product(BASE_HYPERGROUPS[0], BASE_HYPERGROUPS[3])]:
        rep = hs.verify_hypergroup(h)
        assert rep.ok
        assert _report_key(rep) == _report_key(ref.verify_hypergroup(h))


def dihedral_hypergroup(m, seed=None):
    """Hypergroup of the D_m double cosets of a reflection subgroup; with a
    seed, of {1, s r^j} for a seeded j in a seeded renaming of D_m."""
    table, sub = dihedral_table(m), [0, m]
    if seed is not None:
        j = int(np.random.default_rng(seed).integers(m))
        table, sub = relabel(table, [0, m + j], seed)
    return hs.from_scheme(hs.from_double_cosets(table, sub)[1])


def _exact_bases():
    perms, s5 = symmetric_table(5)
    johnson = hs.from_scheme(hs.from_double_cosets(s5, young_subgroup(perms, 2))[1])
    return BASE_HYPERGROUPS + [
        hs.direct_product(dihedral_hypergroup(12), dihedral_hypergroup(14)),
        hs.join(BASE_HYPERGROUPS[4], BASE_HYPERGROUPS[0]), johnson]


EXACT_BASES = _exact_bases()


@st.composite
def corrupted_exact_hypergroups(draw):
    """One to three corruptions of an exact tensor: a numerator unit moved
    between two k of a row, two planes swapped, or two involution entries
    swapped."""
    h = draw(st.sampled_from(EXACT_BASES))
    n, num, inv = h.n, h.num.copy(), h.involution.copy()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["move", "planes", "involution"]))
        i, j, k, k2 = (draw(st.integers(0, n - 1)) for _ in range(4))
        if kind == "move":
            num[i, j, k] -= 1
            num[i, j, k2] += 1
        elif kind == "planes":
            num[[i, j]] = num[[j, i]]
        else:
            inv[[i, j]] = inv[[j, i]]
    return hs.FiniteHypergroup._of(num, h.den, h.identity, inv, False)


@given(corrupted_exact_hypergroups())
def test_exact_failures_match_full_scan(h):
    """Associativity proved on a generating set gives the verdict and the
    witnesses of the full d^4 scan."""
    rep = hs.verify_hypergroup(h, raise_on_failure=False)
    assert _report_key(rep) == _report_key(ref.verify_hypergroup(h)) == \
        _report_key(ref.verify_hypergroup_slices(h))


@st.composite
def sparse_tensors(draw):
    """Small tensors of mostly zeros, ones and twos: no hypergroups, but
    their supports close in many ways, so a closure step that generated an
    element too many would skip a failing slice."""
    n = draw(st.integers(2, 5))
    cells = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n ** 3,
                          max_size=n ** 3))
    return hs.FiniteHypergroup._of(np.array(cells).reshape(n, n, n), 1, 0,
                                   np.arange(n), False)


@given(sparse_tensors())
def test_sparse_tensor_failures_match_full_scan(h):
    rep = hs.verify_hypergroup(h, raise_on_failure=False)
    assert _report_key(rep) == _report_key(ref.verify_hypergroup_slices(h))


def generated_dimension(num, elements):
    """Dimension of the algebra that the deltas of elements generate under
    the product with structure constants num."""
    n = num.shape[0]
    basis = np.eye(n)[elements]
    while True:
        products = np.einsum("ai,bj,ijk->abk", basis, basis, num).reshape(-1, n)
        _, s, vt = np.linalg.svd(np.vstack([basis, products]), full_matrices=False)
        rank = int((s > 1e-9 * s[0]).sum())
        if rank == len(basis):
            return rank
        basis = vt[:rank]


@given(sparse_tensors())
def test_generators_generate_the_algebra(h):
    assert generated_dimension(h.num.astype(float), list(_generators(h.num))) == h.n


def test_a_product_with_two_new_points_generates_neither():
    """delta_1 * delta_1 = delta_2 + delta_3, and the deltas of 0 and 1
    generate only span(delta_0, delta_1, delta_2 + delta_3): 2 must be
    checked, not derived."""
    num = np.zeros((4, 4, 4), dtype=np.int64)
    for x in range(4):
        num[0, x, x] = num[x, 0, x] = 1
    num[1, 1, [2, 3]] = 1
    num[1, [2, 3], 1] = num[[2, 3], 1, 1] = 1
    num[2, 2, 2] = num[3, 3, 3] = 1
    assert generated_dimension(num.astype(float), [0, 1]) == 3
    assert list(_generators(num)) == [0, 1, 2]


def test_defects_off_the_generating_set_are_found():
    """A unit of delta_1 * delta_0 moved from 1 to 3 in D_4 x D_5 breaks
    slices 1 to 8.  Only slice 1 of them is checked, as one of the
    generating set [0, 1] of the corrupted tensor; it is the first failing
    slice in row-major order, as the first failing slice always is, since
    the slices skipped before it were proved by those that passed.  So the
    witness is that of the full scan."""
    base = hs.direct_product(dihedral_hypergroup(4), dihedral_hypergroup(5))
    num = base.num.copy()
    num[1, 0, 1] -= 1
    num[1, 0, 3] += 1
    h = hs.FiniteHypergroup._of(num, base.den, base.identity, base.involution, False)
    c = h.conv_f
    defect = np.abs(np.einsum("ijm,mlk->ijlk", c, c) - np.einsum("jlm,imk->ijlk", c, c))
    assert np.flatnonzero((defect > 1e-8).any(axis=(1, 2, 3))).tolist() == list(range(1, 9))
    assert list(_generators(h.num)) == [0, 1]
    rep = hs.verify_hypergroup(h, raise_on_failure=False)
    assert (rep.failures[-1].axiom_id, rep.failures[-1].witness) == ("associativity",
                                                                     (1, 0, 0, 1))
    assert _report_key(rep) == _report_key(ref.verify_hypergroup(h))


@pytest.mark.parametrize("m", range(3, 61))
def test_dihedral_generating_sets_stay_small(m):
    """Associativity checks |G| slices instead of d: at most 6 for the D_m
    double-coset hypergroups (d = m // 2 + 1), over five renamings, with
    the report of the check of all d slices."""
    for seed in range(5):
        h = dihedral_hypergroup(m, seed)
        assert len(list(_generators(h.num))) <= 6
        assert _report_key(hs.verify_hypergroup(h)) == \
            _report_key(ref.verify_hypergroup_slices(h))


@pytest.mark.parametrize("m1, m2", [(8, 10), (10, 12), (12, 14)])
def test_product_generating_sets_stay_small(m1, m2):
    for seed in range(5):
        h = hs.direct_product(dihedral_hypergroup(m1, seed),
                              dihedral_hypergroup(m2, seed + 5))
        assert len(list(_generators(h.num))) <= 8
        assert _report_key(hs.verify_hypergroup(h)) == \
            _report_key(ref.verify_hypergroup_slices(h))


def _group_verdict(fn, table):
    try:
        return ("group", fn(table))
    except hs.NotAGroup:
        return ("not a group",)


GROUP_TABLES = [t for t, _ in GROUP_CASES] + [symmetric_table(3)[1]]


@st.composite
def perturbed_tables(draw):
    t = draw(st.sampled_from(GROUP_TABLES)).copy()
    n = t.shape[0]
    out, _ = relabel(t, [], draw(st.integers(0, 2 ** 16)))
    for _ in range(draw(st.integers(0, 2))):
        x, y, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        out[x, y] = v
    return out


@given(perturbed_tables())
def test_group_verdict_matches_reference(table):
    assert _group_verdict(_verify_group_table, table) == \
        _group_verdict(ref.verify_group_table, table)


def test_order5_loop_rejected():
    # a Latin square with identity 0 and every element its own inverse, but
    # (1*2)*3 = 4 != 1*(2*3) = 0
    loop = np.array([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])
    assert _group_verdict(ref.verify_group_table, loop) == ("not a group",)
    with pytest.raises(hs.NotAGroup):
        _verify_group_table(loop)
    with pytest.raises(hs.NotAGroup):
        hs.from_double_cosets(loop, [0])


def _generalized_cases():
    cases = [hs.canonical_generalized(hs.verify_scheme(part))
             for part in BASE_PARTITIONS[:6]]
    k3, c4, c7 = cases[0], cases[2], cases[3]
    return cases + [hs.direct_product_scheme(k3, c4), hs.join_scheme(c7, k3)]


GENERALIZED = _generalized_cases()


def test_generalized_ptilde_bit_identical():
    for gs in GENERALIZED:
        got = hs.verify_generalized(gs)
        want = ref.verify_generalized(gs)
        assert got.tobytes() == want.tobytes()


def test_rigidity_verdicts_match_reference():
    rng = np.random.default_rng(9)
    for gs in GENERALIZED:
        noisy = gs.kernels + rng.uniform(0, 0.1, gs.kernels.shape) * (gs.kernels > 0)
        noisy /= noisy.sum(axis=2, keepdims=True)
        for kernels in (gs.kernels, noisy):
            cand = hs.GeneralizedScheme(gs.partition, kernels, gs.omega_x)
            assert hs.finite_rigidity_check(cand) == ref.finite_rigidity_check(cand)


def _rectangles(gs, limit=40):
    """Cells x, x' and y, y' with all four (x|x', y|y') in one relation i."""
    lab = gs.partition.label
    n = gs.partition.n_points
    out = []
    for x, x2 in itertools.combinations(range(n), 2):
        for i in range(1, gs.partition.n_relations):
            ys = np.flatnonzero((lab[x] == i) & (lab[x2] == i))
            if ys.size >= 2:
                out.append((i, x, x2, int(ys[0]), int(ys[-1])))
    return out[:: max(1, len(out) // limit)]


RECTANGLES = [(g, r) for g, gs in enumerate(GENERALIZED) for r in _rectangles(gs)]


@st.composite
def perturbed_generalized(draw):
    """Either random noise on one kernel (failing the support, stochastic or
    adjoint axioms) or a +t/-t rectangle Q with zero row and column sums
    added to S_i, and Q^T to S_bar(i): the adjoint relation then still holds,
    so span closure (3) decides."""
    if draw(st.booleans()):
        g, (i, x, x2, y, y2) = draw(st.sampled_from(RECTANGLES))
        gs = GENERALIZED[g]
        kernels = gs.kernels.copy()
        t = draw(st.sampled_from([1e-12, 1e-6, 1e-3]))
        Q = np.zeros_like(kernels[0])
        Q[[x, x, x2, x2], [y, y2, y, y2]] = [t, -t, -t, t]
        inv = ref.recover_involution(gs.partition)
        kernels[i] += Q
        kernels[inv[i]] += Q.T
    else:
        gs = draw(st.sampled_from(GENERALIZED))
        kernels = gs.kernels.copy()
        n, d = gs.partition.n_points, gs.partition.n_relations
        i = draw(st.integers(0, d - 1))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        noise = rng.uniform(0, draw(st.sampled_from([1e-3, 0.1, 0.5])), size=(n, n))
        pert = kernels[i] + noise * (kernels[i] > 0)
        if draw(st.booleans()):
            pert = pert / pert.sum(axis=1, keepdims=True)
        kernels[i] = pert
    return hs.GeneralizedScheme(partition=gs.partition, kernels=kernels,
                                omega_x=gs.omega_x)


@given(perturbed_generalized())
def test_generalized_outcome_matches_reference(gs):
    assert outcome(hs.verify_generalized, gs) == outcome(ref.verify_generalized, gs)


def test_verify_hypergroup_memory_is_cubic():
    """d = 56 product of D_12 and D_14 hypergroups: the d^4 associativity
    tensors needed about 300 MiB; per-slice checks stay below 16 MiB."""
    h1, h2 = (hs.from_scheme(hs.from_double_cosets(dihedral_table(m), [0, m])[1])
              for m in (12, 14))
    prod = hs.direct_product(h1, h2)
    assert prod.n == 56
    tracemalloc.start()
    try:
        assert hs.verify_hypergroup(prod).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
