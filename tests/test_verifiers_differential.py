"""Differential tests: the array-kernel verifiers against the scalar-loop
reference in reference_verifiers.py, on fixtures, double-coset schemes of
D_m and S_k, and hypothesis-corrupted inputs."""

import itertools
from fractions import Fraction
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperscheme as hs
import reference_verifiers as ref
from hyperscheme import io
from hyperscheme.hypergroup import _generators
from hyperscheme import scheme as scheme_module
from hyperscheme.scheme import (_CANONICAL_DEVIATION, KERNEL_TOL, SPAN_TOL, _group_table,
                               _representatives, _verify_kernels)


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


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 8), st.lists(st.integers(0, 7), min_size=n * n,
                                            max_size=n * n))))
def test_relation_index_lists_each_relations_cells(case):
    """On random label matrices, some relations empty: the relation index
    holds each relation's flat cells in ascending order, and the first
    cells, or the relation-empty witness, are those of np.unique."""
    n, d, flat = case
    part = hs.RelationPartition(n, d, np.array(flat).reshape(n, n) % d)
    starts, order = part._index
    assert starts.dtype == order.dtype == np.intp and starts.shape == (d + 1,)
    for i in range(d):
        assert np.array_equal(order[starts[i]:starts[i + 1]],
                              np.flatnonzero(part.label.ravel() == i))
    got, want = (outcome(lambda p: np.stack(f(p)), part)
                 for f in (_representatives, ref.representatives))
    assert got == want


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


def test_p_is_the_add_at_fill():
    """p, one bincount of the d n keys, is the np.add.at fill, entry and
    dtype, on the base partitions, cycles up to C200 and a product."""
    parts = BASE_PARTITIONS + [cycle_partition(m) for m in (50, 101, 200)]
    parts.append(product_partition(cycle_partition(5), cycle_partition(8)))
    for part in parts:
        p, want = hs.verify_scheme(part).p, ref.add_at_p(part)
        assert p.dtype == want.dtype == np.int64 and np.array_equal(p, want)


UNIMODULAR = [s for s in map(hs.verify_scheme, BASE_PARTITIONS) if s.is_unimodular()]


@given(st.sampled_from(UNIMODULAR), st.data())
def test_translation_check_matches_whole_tensor_reference(sch, data):
    """On raw schemes whose p has one entry moved by -1, +1 or +2, or none,
    the check one h at a time gives the verdicts of the whole-tensor form."""
    p = sch.p.copy()
    if data.draw(st.booleans()):
        cell = tuple(data.draw(st.integers(0, sch.n_relations - 1)) for _ in range(3))
        p[cell] += data.draw(st.sampled_from([-1, 1, 2]))
    raw = hs.AssociationScheme(sch.partition, sch.involution, p, sch.valency)
    assert hs.translation_property_check(raw) == ref.translation_property_check(raw)


def test_translation_check_memory_is_quadratic_in_d():
    """The 200-cycle (d = 101): T1 compares one h at a time in d x d
    temporaries, so the check peaks below 2 MiB past p; its two whole d^3
    int64 sides peaked at 16.8 MiB."""
    sch = hs.verify_scheme(cycle_partition(200))
    tracemalloc.start()
    try:
        verdict = hs.translation_property_check(sch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == (True, True)
    assert peak < 2 * 2 ** 20


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


def without_factors(h):
    """h's tensor read back from its file form: a direct product loses its
    factors, so verify_hypergroup and characters run on the tensor."""
    return io.hypergroup_from_dict(io.hypergroup_to_dict(h))


def _exact_bases():
    perms, s5 = symmetric_table(5)
    johnson = hs.from_scheme(hs.from_double_cosets(s5, young_subgroup(perms, 2))[1])
    return BASE_HYPERGROUPS + [
        without_factors(hs.direct_product(dihedral_hypergroup(12), dihedral_hypergroup(14))),
        hs.join(BASE_HYPERGROUPS[4], BASE_HYPERGROUPS[0]), johnson]


EXACT_BASES = _exact_bases()


@st.composite
def corrupted_exact_hypergroups(draw, bases=EXACT_BASES):
    """One to three corruptions of an exact tensor: a numerator unit moved
    between two k of a row, two planes swapped, or two involution entries
    swapped."""
    h = draw(st.sampled_from(bases))
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


def _off_by_one(m):
    """A 2 x 2 x 2 integer tensor over den = 1, largest entry m, whose first
    associativity failure is at (0, 0, 1, 0): there the two sides are
    m^2 + (m - 1)^2 and m^2 + (m - 1)^2 - 1, as (m - 1)^2 = m (m - 2) + 1.
    Every other of its numbers is m; it is no hypergroup, so the report
    lists other failures too."""
    num = np.full((2, 2, 2), m, dtype=np.int64)
    num[0, 0, 1] = num[1, 1, 0] = m - 1
    num[0, 1, 1] = num[1, 0, 1] = m - 2
    return hs.FiniteHypergroup._of(num, 1, 0, np.arange(2), False)


@pytest.mark.parametrize("m", [2896, 2897])
def test_float32_products_stop_at_two_to_the_24(m):
    """d max|num|^2 = 2 m^2 is just below 2^24 at m = 2896 and just above
    at m = 2897, where the two sides of the failure, 2^24 + 2209 and
    2^24 + 2208, round to one float32: a single precision check would pass
    slice 0 there.  Both sides of the bound report the reference's
    failure."""
    h = _off_by_one(m)
    assert (2 * m * m < 2 ** 24) == (m == 2896)
    rep = hs.verify_hypergroup(h, raise_on_failure=False)
    assert (rep.failures[-1].axiom_id, rep.failures[-1].witness) == \
        ("associativity", (0, 0, 1, 0))
    assert _report_key(rep) == _report_key(ref.verify_hypergroup(h)) == \
        _report_key(ref.verify_hypergroup_slices(h))


def test_identity_slice_with_a_wrong_row_is_checked():
    """num[e] = den * I but for one unit moved in row 2, which is no
    identity failure at e itself: slice e is checked, not skipped, and its
    associativity failure is reported beside the identity failure."""
    h = dihedral_hypergroup(6)
    num = h.num.copy()
    num[h.identity, 2, 2] -= 1
    num[h.identity, 2, 3] += 1
    h = hs.FiniteHypergroup._of(num, h.den, h.identity, h.involution, False)
    rep = hs.verify_hypergroup(h, raise_on_failure=False)
    got = [(f.axiom_id, f.witness) for f in rep.failures]
    assert ("identity", (2,)) in got and ("associativity", (0, 0, 2, 2)) in got
    assert _report_key(rep) == _report_key(ref.verify_hypergroup(h))


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


def test_generation_matches_uint32_reference():
    """uint16 scores and gains reach the slices in the order, and with the
    pairs, of the uint32 closure, on the test schemes and hypergroups."""
    tensors = [hs.verify_scheme(part).p for part in BASE_PARTITIONS]
    tensors += [h.num for h in EXACT_BASES]
    tensors += [dihedral_hypergroup(m, seed).num for m in (20, 41) for seed in range(3)]
    for num in tensors:
        assert list(scheme_module._generation(num)) == list(ref.generation(num))


@given(sparse_tensors())
def test_generation_of_sparse_tensors_matches_uint32_reference(h):
    assert list(scheme_module._generation(h.num)) == list(ref.generation(h.num))


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
        h = without_factors(hs.direct_product(dihedral_hypergroup(m1, seed),
                                              dihedral_hypergroup(m2, seed + 5)))
        assert len(list(_generators(h.num))) <= 8
        assert _report_key(hs.verify_hypergroup(h)) == \
            _report_key(ref.verify_hypergroup_slices(h))


# direct products verify and diagonalize through their factors

def _product_factors():
    """Factors for products: D_m double cosets under renamings, J(4, 2) of
    S_4's Young double cosets, the cycles C_5 and C_8, Z_5 (thin, not
    symmetric), S_3 (thin, not commutative), and last the float
    hypergroup of C_6's canonical family."""
    perms, s4 = symmetric_table(4)
    z5 = (np.arange(5)[:, None] + np.arange(5)) % 5
    return ([dihedral_hypergroup(m, seed) for m, seed in ((5, 0), (6, 1), (8, 2))]
            + [hs.from_scheme(hs.from_double_cosets(s4, young_subgroup(perms, 2))[1])]
            + [hs.from_scheme(hs.verify_scheme(cycle_partition(m))) for m in (5, 8)]
            + [hs.from_scheme(hs.from_double_cosets(z5, [0])[1]),
               hs.from_scheme(hs.from_double_cosets(symmetric_table(3)[1], [0])[1]),
               hs.from_generalized(hs.canonical_generalized(
                   hs.verify_scheme(cycle_partition(6))))])


PRODUCT_FACTORS = _product_factors()
EXACT_FACTORS = PRODUCT_FACTORS[:-1]


@st.composite
def factor_products(draw):
    """A product of two factors, or of a product of two with d <= 3 and a
    factor with d <= 4; d <= 36."""
    if draw(st.booleans()):
        return hs.direct_product(*(draw(st.sampled_from(PRODUCT_FACTORS)) for _ in range(2)))
    small = [h for h in PRODUCT_FACTORS if h.n <= 3]
    first = hs.direct_product(draw(st.sampled_from(small)), draw(st.sampled_from(small)))
    return hs.direct_product(first, draw(st.sampled_from([h for h in PRODUCT_FACTORS
                                                          if h.n <= 4])))


def _table_or_failure(h):
    try:
        return hs.characters(h)
    except hs.CheckFailure as exc:
        return type(exc), str(exc)


@settings(max_examples=50)
@given(factor_products())
def test_products_verify_through_their_factors(p):
    """The report of the factors' proof is that of the product's tensor
    checked as any other, and of the reference; an exact product reads
    neither a generating order nor a float view of its tensor."""
    q = without_factors(p)
    rep = hs.verify_hypergroup(p)
    assert _report_key(rep) == _report_key(hs.verify_hypergroup(q)) == \
        _report_key(ref.verify_hypergroup(q))
    if p.is_exact:
        assert "_order" not in vars(p) and "conv_f" not in vars(p)


@given(factor_products())
def test_product_characters_come_from_their_factors(p):
    """The rows alpha (x) beta are those of the product's tensor split by
    eigh, in the same order and within 1e-12; NotCommutative is raised as
    there."""
    got, want = _table_or_failure(p), _table_or_failure(without_factors(p))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.chars.dtype == want.chars.dtype and got.haar.tolist() == want.haar.tolist()
    for a, b in ((got.chars, want.chars), (got.plancherel, want.plancherel)):
        assert np.abs(a - b).max() <= 1e-12


@given(corrupted_exact_hypergroups(bases=EXACT_FACTORS), st.sampled_from(EXACT_FACTORS),
       st.booleans())
def test_a_corrupted_factor_gives_the_full_check(bad, good, bad_first):
    """A factor that fails leaves the product to the full check: the same
    failures as the product's tensor without factors, and the same first
    witness raised."""
    p = hs.direct_product(*((bad, good) if bad_first else (good, bad)))
    q = without_factors(p)
    rep = hs.verify_hypergroup(p, raise_on_failure=False)
    assert _report_key(rep) == _report_key(hs.verify_hypergroup(q, raise_on_failure=False)) \
        == _report_key(ref.verify_hypergroup(q))
    if not rep.ok:
        with pytest.raises(hs.AxiomViolation) as exc:
            hs.verify_hypergroup(p)
        assert (exc.value.axiom_id, exc.value.witness) == \
            (rep.failures[0].axiom_id, rep.failures[0].witness)


@pytest.mark.parametrize("k", [6888, 6889])
def test_products_past_two_to_the_53_take_the_full_check(monkeypatch, k):
    """delta_1 * delta_1 = delta_0 / k + (1 - 1 / k) delta_1 has max|num| =
    k, so its square has d (max|num1| max|num2|)^2 = 4 k^4: below 2^53 at
    k = 6888, where the factors are checked in place of the product, and
    above it at k = 6889, where the product's tensor is checked in floats."""
    a = hs.FiniteHypergroup(2, [[[1, 0], [0, 1]], [[0, 1], [Fraction(1, k), 1 - Fraction(1, k)]]],
                            0, [0, 1])
    p = hs.direct_product(a, a)
    proved = 4 * k ** 4 < 2 ** 53
    assert proved == (k == 6888)
    verify, seen = hs.hypergroup.verify_hypergroup, []
    monkeypatch.setattr(hs.hypergroup, "verify_hypergroup",
                        lambda h, raise_on_failure=True: seen.append(h) or verify(h, raise_on_failure))
    rep = hs.hypergroup.verify_hypergroup(p)
    assert seen == ([p, a, a] if proved else [p])
    assert _report_key(rep) == _report_key(verify(without_factors(p))) == \
        (True, True, True, [])


def test_a_degenerate_factor_leaves_the_product_to_eigh():
    """D_8 with a unit of delta_3 * delta_4 and of delta_4 * delta_3 moved
    commutes but is no hypergroup: its characters miss multiplicativity,
    so its products with D_5 and with Z_5 are split as tensors and raise
    what those raise."""
    h = dihedral_hypergroup(8)
    num = h.num.copy()
    num[[3, 4], [4, 3], 1] -= 1
    num[[3, 4], [4, 3], 2] += 1
    bad = hs.FiniteHypergroup._of(num, h.den, h.identity, h.involution, False)
    assert isinstance(_table_or_failure(bad), tuple)
    z5 = hs.from_scheme(hs.from_double_cosets((np.arange(5)[:, None] + np.arange(5)) % 5,
                                              [0])[1])
    for p in (hs.direct_product(bad, dihedral_hypergroup(5)), hs.direct_product(z5, bad)):
        got = _table_or_failure(p)
        assert got == _table_or_failure(without_factors(p))
        assert got[0] is hs.DegenerateSpectrum and got[1].startswith("characters miss")


def test_a_factor_that_raises_leaves_the_product_to_eigh(monkeypatch):
    """With the generating sets of d <= 8 cut to the identity, C_5 and C_6
    split none of their characters and raise DegenerateSpectrum; their
    product (d = 12) keeps every element as a generator, and eigh splits
    its tensor."""
    monkeypatch.setattr(hs.hypergroup, "_generators",
                        lambda h: range(h.n) if h.n > 8 else [h.identity])
    c5, c6 = (hs.from_scheme(hs.verify_scheme(cycle_partition(m))) for m in (5, 6))
    assert _table_or_failure(c5) == (hs.DegenerateSpectrum,
                                     "3 characters agree on every generator")
    p = hs.direct_product(c5, c6)
    got, want = hs.characters(p), hs.characters(without_factors(p))
    assert np.abs(got.chars - want.chars).max() <= 1e-12


def _off_multiplicativity(h, i, j, src, dst, eps):
    """h in floats with eps of delta_i * delta_j and of delta_j * delta_i
    moved from src to dst: commutative still, its characters off
    multiplicativity by 2 eps."""
    c = h.conv_f.copy()
    c[[i, j], [j, i], src] -= eps
    c[[i, j], [j, i], dst] += eps
    return hs.FiniteHypergroup._of(c, 1, h.identity, h.involution, True)


def test_a_bound_past_tol_is_computed_on_the_product(monkeypatch):
    """Factors off by 8e-10 and 2.8e-10 (D_8 and C_8 with 4e-10 and 2e-10
    of a product moved) bound their product's residual by 1.08e-9, past
    TOL; computed on the product it is 8e-10, and the rows alpha (x) beta
    stand, within 1e-12 of eigh's.  D_8 off by 6e-10, squared, bounds and
    computes 1.2e-9, so eigh splits the product and raises as it would."""
    d8 = _off_multiplicativity(dihedral_hypergroup(8), 3, 4, 1, 2, 4e-10)
    c8 = _off_multiplicativity(hs.from_scheme(hs.verify_scheme(cycle_partition(8))),
                               2, 3, 1, 3, 2e-10)
    (t1, r1), (t2, r2) = (hs.hypergroup._characters(h) for h in (d8, c8))
    top1, top2 = (np.abs(t.chars).max() ** 2 for t in (t1, t2))
    assert hs.hypergroup.TOL < r1 * (top2 + r2) + top1 * r2
    residual, seen = hs.hypergroup._residual, []
    monkeypatch.setattr(hs.hypergroup, "_residual",
                        lambda h, alphas: seen.append(h) or residual(h, alphas))
    p = hs.direct_product(d8, c8)
    got = hs.characters(p)
    assert seen[2:] == [p] and "_order" not in vars(p)      # no eigh split ran
    want = hs.characters(without_factors(p))
    assert np.abs(got.chars - want.chars).max() <= 1e-12
    square = hs.direct_product(*[_off_multiplicativity(dihedral_hypergroup(8), 3, 4, 1, 2,
                                                       3e-10)] * 2)
    assert _table_or_failure(square) == _table_or_failure(without_factors(square)) == \
        (hs.DegenerateSpectrum, "characters miss multiplicativity by 1.200e-09")


def test_d20_x_d40_reads_no_product_tensor():
    """d = 231: verify_hypergroup reads the factors alone (the full check
    peaked at 201 MiB), and characters only the product's commutativity and
    Haar weights (the eigh split peaked at 34 MiB)."""
    p = hs.direct_product(dihedral_hypergroup(20), dihedral_hypergroup(40))
    assert p.n == 231
    peaks = []
    for fn in (hs.verify_hypergroup, hs.characters):
        tracemalloc.start()
        try:
            fn(p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2 ** 20 and peaks[1] < 2 * p.n ** 3


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
    assert _group_verdict(lambda t: _group_table(t)[0], table) == \
        _group_verdict(ref.verify_group_table, table)


S6 = symmetric_table(6)[1]


@pytest.mark.parametrize("cell", [None, (5, 7), (700, 3)])
def test_group_verdict_past_one_byte_matches_reference(cell):
    """S6 (n = 720) is checked in uint16.  A corrupted cell holds its value
    plus or minus 256, which a table cut to one byte would read as intact."""
    table = S6.copy()
    if cell is not None:
        table[cell] += 256 if table[cell] < 464 else -256
    assert _group_verdict(lambda t: _group_table(t)[0], table) == \
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
        _group_table(loop)
    with pytest.raises(hs.NotAGroup):
        hs.from_double_cosets(loop, [0])


def _generalized_cases():
    cases = [hs.canonical_generalized(hs.verify_scheme(part))
             for part in BASE_PARTITIONS[:6]]
    k3, c4, c7 = cases[0], cases[2], cases[3]
    return cases + [hs.direct_product_scheme(k3, c4), hs.join_scheme(c7, k3)]


GENERALIZED = _generalized_cases()


def verdict(fn, *args):
    """outcome without p~: ("ok",), or the failure with its witness."""
    res = outcome(fn, *args)
    return res[:1] if res[0] == "ok" else res


def _first_maxima(gs):
    """(rx, ry): the first row-major largest W entry of each relation."""
    lab, W = gs.partition.label, gs.W
    return np.unravel_index([np.argmax(np.where(lab == k, W, -np.inf))
                             for k in range(gs.partition.n_relations)], lab.shape)


def old_blas_ptilde(gs):
    """p~ as the library read it before one bincount did: reference_verifiers'
    gathered at the first maxima, divided by W there."""
    rx, ry = _first_maxima(gs)
    ptilde = ref.gathered(gs.partition.label, gs.W, rx, ry)
    ptilde /= gs.W[rx, ry]
    return ptilde


def assert_near_exact(gs, ptilde):
    """p~[i, j, k] lies within gamma_(n+1) |exact| of exact, the sum, in
    Fractions, of the double products W(rx_k, z) W(z, ry_k) over the z with
    label(rx_k, z) = i and label(z, ry_k) = j, divided by W(rx_k, ry_k), at
    the first maxima (rx_k, ry_k); gamma_m = m u / (1 - m u), u = 2^-53.
    Past axiom (2) the terms are nonnegative, so a sum of at most n of them
    in any order, and the division, round within gamma_(n+1) of it."""
    lab, W = gs.partition.label, gs.W
    n, d = gs.partition.n_points, gs.partition.n_relations
    rx, ry = _first_maxima(gs)
    exact = np.full((d, d, d), Fraction(0), dtype=object)
    for k, z in itertools.product(range(d), range(n)):
        exact[lab[rx[k], z], lab[z, ry[k]], k] += Fraction(float(W[rx[k], z] * W[z, ry[k]]))
    exact /= np.array([Fraction(float(w)) for w in W[rx, ry]], dtype=object)
    m = Fraction(n + 1, 2 ** 53)
    gamma = m / (1 - m)
    got = np.array([Fraction(float(v)) for v in ptilde.ravel()], dtype=object)
    assert all(abs(g - e) <= gamma * abs(e) for g, e in zip(got, exact.ravel()))


def test_generalized_ptilde_bit_identical():
    """The fixture families verify as with the reference.  p~ is the old
    BLAS fill's bit for bit on every family but the join of C7 and K3,
    where the fill's fused multiply-adds round apart, and within
    gamma_(n+1) of the exact sum on all."""
    for gs in GENERALIZED:
        assert verdict(hs.verify_generalized, gs) == verdict(ref.verify_generalized, gs)
        got = hs.verify_generalized(gs)
        assert_near_exact(gs, got)
        if gs is not GENERALIZED[-1]:
            assert got.tobytes() == old_blas_ptilde(gs).tobytes()


@pytest.mark.parametrize("build", [
    lambda: canonical_cycle(12), lambda: canonical_cycle(50), lambda: canonical_cycle(101),
    lambda: hs.direct_product_scheme(canonical_cycle(5), canonical_cycle(6)),
    lambda: hs.direct_product_scheme(canonical_cycle(5), canonical_cycle(8))])
def test_ptilde_is_the_old_blas_fill_on_cycles_and_products(build):
    """On cycles and on the float-spectral benchmark's products each bin of
    p~ holds at most two terms, and p~ is the old BLAS fill's bit for bit."""
    gs = build()
    assert hs.verify_generalized(gs).tobytes() == old_blas_ptilde(gs).tobytes()


@pytest.mark.parametrize("m1, m2", [(6, 12), (8, 10)])
def test_ptilde_of_joins_is_near_the_exact_sum(m1, m2):
    """The float-spectral benchmark's joins, whose bins hold many terms:
    p~ is within gamma_(n+1) of the exact sum of its terms."""
    gs = hs.join_scheme(canonical_cycle(m1), canonical_cycle(m2))
    assert_near_exact(gs, hs.verify_generalized(gs))


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


def canonical_cycle(m):
    return hs.canonical_generalized(hs.verify_scheme(cycle_partition(m)))


def symmetric_perturbation(gs, rectangle, t):
    """The kernels of gs with M / omega_x(x) added to S_i(x, .), where
    M = t (Q + Q^T) for the +1/-1 rectangle Q on relation i, a self-paired
    relation: M is symmetric with zero row sums, so S_i stays row-stochastic
    and the adjoint relation omega(y) S_i(y, x) = omega(x) S_i(x, y) holds."""
    i, x, x2, y, y2 = rectangle
    Q = np.zeros((gs.partition.n_points,) * 2)
    Q[[x, x, x2, x2], [y, y2, y, y2]] = [1, -1, -1, 1]
    kernels = gs.kernels.copy()
    kernels[i] += t * (Q + Q.T) / gs.omega_x[:, None]
    return kernels


def _off_the_generators(gs):
    """The rectangles of gs on self-paired relations whose slices
    _generators(p) does not yield, so that closure derives them."""
    gens = set(_generators(hs.verify_scheme(gs.partition).p))
    inv = ref.recover_involution(gs.partition)
    return [r for r in _rectangles(gs) if r[0] not in gens and inv[r[0]] == r[0]]


NON_GENERATING = [(gs, r) for gs in GENERALIZED + [canonical_cycle(8), canonical_cycle(12)]
                  for r in _off_the_generators(gs)]


@st.composite
def perturbed_generalized(draw):
    """The raw arrays of a family: random noise on one kernel (failing the
    support, stochastic or adjoint axioms); a +t/-t rectangle Q with zero row
    and column sums added to S_i, and Q^T to S_bar(i); or a symmetric
    perturbation of one kernel that closure derives from the generating set
    (symmetric_perturbation).  With the last two the adjoint relation still
    holds, so span closure (3) decides.  Then, in some draws, one cell of a
    kernel off its relation is set to NaN, +-2 KERNEL_TOL or 0.5, which only
    the arrays as given carry."""
    kind = draw(st.sampled_from(["rectangle", "symmetric", "noise"]))
    if kind == "symmetric":
        gs, rectangle = draw(st.sampled_from(NON_GENERATING))
        t = draw(st.sampled_from([1e-12, 2e-9, 5e-9, 1e-6, 1e-3]))
        kernels = symmetric_perturbation(gs, rectangle, t)
    elif kind == "rectangle":
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
    value = draw(st.sampled_from([None, np.nan, 2 * KERNEL_TOL, -2 * KERNEL_TOL, 0.5]))
    if value is not None and gs.partition.n_relations > 1:
        i = draw(st.integers(0, gs.partition.n_relations - 1))
        off = np.argwhere(gs.partition.label != i)
        x, y = off[draw(st.integers(0, len(off) - 1))]
        kernels[i, x, y] = value
    return SimpleNamespace(partition=gs.partition, kernels=kernels,
                           omega_x=gs.omega_x)


@given(perturbed_generalized())
def test_generalized_outcome_matches_reference(raw):
    """verify_generalized, and then from_generalized on the same family, which
    reads the kept check, give the verdict and witness of the reference run
    on the arrays as given, and the same p~, within gamma_(n+1) of the
    exact sum (assert_near_exact)."""
    want = verdict(ref.verify_generalized, raw)
    gs = hs.GeneralizedScheme(raw.partition, raw.kernels, raw.omega_x)
    assert verdict(hs.verify_generalized, gs) == want
    assert outcome(lambda g: hs.from_generalized(g).conv_f, gs) == \
        outcome(hs.verify_generalized, gs)
    if want[0] == "ok":
        assert_near_exact(gs, hs.verify_generalized(gs))


def _span_residuals(gs):
    """[i, j] -> the largest residual of S_i S_j against its span, as the
    reference reads it, for a family that passes axioms (2), (4) and (5)."""
    lab, S, d = gs.partition.label, gs.kernels, gs.partition.n_relations
    W = np.take_along_axis(S, lab[None], axis=0)[0]
    rx, ry = np.unravel_index([np.argmax(np.where(lab == k, W, -np.inf))
                               for k in range(d)], lab.shape)
    out = np.zeros((d, d))
    for i, j in itertools.product(range(d), repeat=2):
        prod = S[i] @ S[j]
        out[i, j] = np.abs(prod - (prod[rx, ry] / W[rx, ry])[lab] * W).max()
    return out


def test_span_defect_off_the_generating_set_is_found():
    """On the 8-cycle (generating set [0, 1]) a symmetric perturbation of S_2
    of size 4e-9 keeps the residuals of slices 0 and 1 below 1e-8 and puts
    those above it in slices 2 and 4, which closure derives from 0 and 1:
    a check of the generating set alone would pass it.  The scan of every
    slice finds the failure of the full scan, in slice 2."""
    base = canonical_cycle(8)
    assert list(_generators(hs.verify_scheme(base.partition).p)) == [0, 1]
    gs = hs.GeneralizedScheme(base.partition,
                              symmetric_perturbation(base, (2, 0, 4, 2, 6), 4e-9),
                              base.omega_x)
    resid = _span_residuals(gs)
    assert 1e-9 < resid[:2].max() <= 1e-8
    assert np.flatnonzero((resid > 1e-8).any(axis=1)).tolist() == [2, 4]
    want = outcome(ref.verify_generalized, gs)
    assert want[:2] == ("fail", "3") and want[2][:2] == (2, 4)
    assert outcome(hs.verify_generalized, gs) == want


@pytest.mark.parametrize("case", range(0, len(NON_GENERATING), 7))
def test_span_residuals_near_the_tolerance_match_reference(case):
    """Families that keep axioms (2), (4) and (5), with residuals from 1e-9
    to 1e-8 on the generating slices and a perturbation on a slice that
    closure derives from them: the verdict, pass or fail, is the
    reference's, with its witness, and p~ is within gamma_(n+1) of the
    exact sum (assert_near_exact)."""
    gs, rectangle = NON_GENERATING[case]
    gens = list(_generators(hs.verify_scheme(gs.partition).p))
    unit = _span_residuals(hs.GeneralizedScheme(
        gs.partition, symmetric_perturbation(gs, rectangle, 1e-9), gs.omega_x))[gens].max()
    for target in np.geomspace(1.1e-9, 9e-9, 6):
        fam = hs.GeneralizedScheme(
            gs.partition, symmetric_perturbation(gs, rectangle, 1e-9 * target / unit),
            gs.omega_x)
        assert 1e-9 <= _span_residuals(fam)[gens].max() <= 1e-8
        want = verdict(ref.verify_generalized, fam)
        assert verdict(hs.verify_generalized, fam) == want
        if want[0] == "ok":
            assert_near_exact(fam, hs.verify_generalized(fam))


JOIN_C4_C6 = hs.join_scheme(canonical_cycle(4), canonical_cycle(6))


@pytest.mark.parametrize("target", [0.9e-8, 0.99e-8, 1.01e-8, 1.1e-8])
def test_span_bins_of_many_terms_near_the_tolerance_match_reference(target):
    """The join of C4 and C6 (n = 24) has p[4, 5, 4] = 6, so the scan sums
    six terms into one bin there.  A symmetric rectangle perturbation of
    S_4, scaled so that the largest residual as the reference reads it is
    target, passes below SPAN_TOL and fails above it with the reference's
    witness, in a bin of at least three terms; p~ is within gamma_(n+1)
    of the exact sum (assert_near_exact)."""
    gs, rectangle = JOIN_C4_C6, (4, 0, 12, 6, 23)
    scheme = hs.verify_scheme(gs.partition)
    unit = _span_residuals(hs.GeneralizedScheme(
        gs.partition, symmetric_perturbation(gs, rectangle, 1e-9), gs.omega_x)).max()
    fam = hs.GeneralizedScheme(
        gs.partition, symmetric_perturbation(gs, rectangle, 1e-9 * target / unit), gs.omega_x)
    valency = scheme.valency[gs.partition.label]
    assert np.abs(fam.W * valency - 1.0).max() > _CANONICAL_DEVIATION
    want = verdict(ref.verify_generalized, fam)
    assert want[0] == ("ok" if target < SPAN_TOL else "fail")
    if want[0] == "fail":
        i, j, k = want[2][:3]
        assert want[1] == "3" and scheme.p[i, j, k] >= 3
    assert verdict(hs.verify_generalized, fam) == want
    if want[0] == "ok":
        assert_near_exact(fam, hs.verify_generalized(fam))


def _first_failing_rows(gs, i):
    """{j: the first row of S_i S_j with a residual past SPAN_TOL}, as the
    reference reads the residuals."""
    lab, S, W, d = gs.partition.label, gs.kernels, gs.W, gs.partition.n_relations
    rx, ry = np.unravel_index([np.argmax(np.where(lab == k, W, -np.inf))
                               for k in range(d)], lab.shape)
    rows = {}
    for j in range(d):
        prod = S[i] @ S[j]
        bad = np.abs(prod - (prod[rx, ry] / W[rx, ry])[lab] * W) > SPAN_TOL
        if bad.any():
            rows[j] = int(np.argwhere(bad)[0][0])
    return rows


@pytest.mark.parametrize("block_bytes", [1, scheme_module._SPAN_BLOCK_BYTES])
def test_span_witness_is_the_smallest_j_across_row_blocks(block_bytes, monkeypatch):
    """C4 x C8 with symmetric rectangles on relations 12 and 5: slice 1
    fails first, at j = 5 from row 2 on and at j = 6 already in row 0.
    With one row per block the scan meets j = 6 first, and still reports
    the smallest failing j, in its first row-major cell, as the reference
    does; so it does with the rows in one block."""
    base = hs.direct_product_scheme(canonical_cycle(4), canonical_cycle(8))
    kernels = symmetric_perturbation(base, (12, 0, 4, 18, 22), 1e-6)
    kernels[5] = symmetric_perturbation(base, (5, 3, 19, 11, 27), 1e-6)[5]
    gs = hs.GeneralizedScheme(base.partition, kernels, base.omega_x)
    want = outcome(ref.verify_generalized, gs)
    assert want[:2] == ("fail", "3") and want[2][:2] == (1, 5)
    rows = _first_failing_rows(gs, 1)
    assert rows[5] > rows[6] == 0
    monkeypatch.setattr(scheme_module, "_SPAN_BLOCK_BYTES", block_bytes)
    assert outcome(hs.verify_generalized, gs) == want


def test_span_scan_memory_is_n_squared_and_one_block():
    """Perturbed C200 (n = 200, d = 101), a 1e-9 rectangle on relation 50
    past the canonical early test, passes the scan of every slice.  Past
    p~ (d^3 doubles, 7.9 MiB), the check holds a few n x n arrays and one
    block of rows within _SPAN_BLOCK_BYTES: the peak read 11.0 MiB.  A scan
    that bins all d labels j for every cell, (n, n, d) doubles, takes
    31 MiB more."""
    base = canonical_cycle(200)
    gs = hs.GeneralizedScheme(base.partition,
                              symmetric_perturbation(base, (50, 0, 100, 50, 150), 1e-9),
                              base.omega_x)
    scheme = hs.verify_scheme(gs.partition)
    tracemalloc.start()
    try:
        ptilde = _verify_kernels(gs, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = gs.partition.n_points
    assert peak < ptilde.nbytes + 8 * (8 * n * n) + scheme_module._SPAN_BLOCK_BYTES


def test_span_scan_splits_a_row_past_the_block_budget(monkeypatch):
    """Perturbed K_200 (n = 200, d = 2, k_1 = 199), a 1e-9 rectangle on
    relation 1, under a 64 KiB block budget: one row of slice 1 is 199 n
    terms, about 1.6 MB, so the scan takes it in parts of cells z.  The
    peak read 1.37 MB, about 4.3 (8 n^2) past the budget; a scan whose
    block is at least one whole row read 2.63 MB.  The verdict is the
    reference's."""
    n = 200
    label = (np.arange(n)[:, None] != np.arange(n)[None, :]).astype(int)
    scheme = hs.verify_scheme(hs.RelationPartition(n, 2, label))
    base = hs.canonical_generalized(scheme)
    gs = hs.GeneralizedScheme(base.partition,
                              symmetric_perturbation(base, (1, 0, 3, 1, 2), 1e-9),
                              base.omega_x)
    monkeypatch.setattr(scheme_module, "_SPAN_BLOCK_BYTES", 2 ** 16)
    assert outcome(hs.verify_generalized, gs) == outcome(ref.verify_generalized, gs)
    tracemalloc.start()
    try:
        _verify_kernels(gs, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * (8 * n * n) + scheme_module._SPAN_BLOCK_BYTES


@given(st.sampled_from(GENERALIZED + [canonical_cycle(8)]), st.integers(0, 2 ** 16),
       st.sampled_from([0.0, -0.0, KERNEL_TOL, -KERNEL_TOL]))
def test_span_coefficients_past_axiom_2_are_nonnegative(base, seed, stray):
    """Any family that passes axiom (2) has nonnegative kernels, so every
    entry of S_i S_j, and every coefficient p~ read off one, is a
    nonnegative double, never -0.0.  Random weights on each relation, down
    to 1.0001 KERNEL_TOL, rows normalized within each relation, and entries
    off the relations within +-KERNEL_TOL, which the family drops."""
    rng = np.random.default_rng(seed)
    part = base.partition
    lab, n, d = part.label, part.n_points, part.n_relations
    W = rng.choice([1.0001 * KERNEL_TOL, 1e-3, 1.0], (n, n)) * rng.uniform(1, 2, (n, n))
    W /= np.take_along_axis(
        np.stack([np.where(lab == i, W, 0.0).sum(axis=1) for i in range(d)], axis=1),
        lab, axis=1)
    raw = np.where(np.arange(d)[:, None, None] == lab[None], W[None], stray)
    gs = hs.GeneralizedScheme(part, raw, base.omega_x)
    if outcome(ref.verify_generalized, gs)[:2] == ("fail", "2"):
        return
    S = gs.kernels
    assert (S >= 0).all() and not np.signbit(S).any()
    rx, ry = np.unravel_index([np.argmax(np.where(lab == k, gs.W, -np.inf))
                               for k in range(d)], (n, n))
    for i, j in itertools.product(range(d), repeat=2):
        prod = S[i] @ S[j]
        coeff = prod[rx, ry] / gs.W[rx, ry]
        assert (prod >= 0).all() and not np.signbit(prod).any()
        assert (coeff >= 0).all() and not np.signbit(coeff).any()


SELF_PAIRED = {g: [r for gr, r in RECTANGLES if gr == g and
                   ref.recover_involution(gs.partition)[r[0]] == r[0]]
               for g, gs in enumerate(GENERALIZED)}


@given(st.sampled_from([g for g, rs in SELF_PAIRED.items() if rs]).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(st.tuples(
        st.sampled_from(SELF_PAIRED[g]), st.sampled_from([1e-4, 1e-3])), max_size=3))))
def test_largest_entry_pick_is_the_first_row_major_maximum(case):
    """The (rx, ry) at which span closure reads p~ are each relation's first
    row-major largest W, as the argmax over np.where(label == k, W, -inf)
    finds it, on families that pass axioms (2), (4) and (5): canonical
    ones, where every relation ties, and up to three symmetric rectangle
    perturbations of them, which move the largest entry."""
    g, rects = case
    gs = GENERALIZED[g]
    for rectangle, t in rects:
        gs = hs.GeneralizedScheme(gs.partition, symmetric_perturbation(gs, rectangle, t),
                                  gs.omega_x)
    lab, W, d = gs.partition.label, gs.W, gs.partition.n_relations
    want = np.unravel_index([np.argmax(np.where(lab == k, W, -np.inf))
                             for k in range(d)], lab.shape)
    seen = []

    def intersections(lab, rx, ry, weights=None):
        seen.append((rx, ry))
        return binned(lab, rx, ry, weights)

    binned, scheme = scheme_module._intersections, hs.verify_scheme(gs.partition)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme_module, "_intersections", intersections)
        outcome(_verify_kernels, gs, scheme)
    assert len(seen) == 1
    for got, ref_axis in zip(seen[0], want):
        assert got.dtype == ref_axis.dtype and np.array_equal(got, ref_axis)


def test_kernel_check_builds_no_kernel_stack():
    """Canonical C100 (n = 100, d = 51): the kernel check builds one kernel
    at a time and p~ from one bincount over the d x n terms at the
    relations' first maxima, so it never holds a 3.9 MiB (d, n, n) stack
    of the kernels.  Its peak is about 1.3 MiB, past the scheme it is
    given; with the stack it was 5.3."""
    gs = canonical_cycle(100)
    scheme = hs.verify_scheme(gs.partition)
    tracemalloc.start()
    try:
        _verify_kernels(gs, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def _full_product_reading(gs):
    """(p~, largest residual) read off the full products S_i S_j at the
    largest W entry of each relation, as the reference reads them."""
    lab, W, S, d = gs.partition.label, gs.W, gs.kernels, gs.partition.n_relations
    rx, ry = np.unravel_index([np.argmax(np.where(lab == k, W, -np.inf))
                               for k in range(d)], lab.shape)
    ptilde, worst = np.empty((d, d, d)), 0.0
    for i, j in itertools.product(range(d), repeat=2):
        prod = S[i] @ S[j]
        ptilde[i, j] = prod[rx, ry] / W[rx, ry]
        worst = max(worst, np.abs(prod - ptilde[i, j][lab] * W).max())
    return ptilde, worst


@pytest.mark.parametrize("kind, m1, m2", [("product", 5, 6), ("product", 5, 8),
                                          ("join", 6, 12), ("join", 8, 10),
                                          ("join", 16, 25)])
def test_ptilde_is_the_full_products_within_rounding(kind, m1, m2):
    """The library sums p~'s dot products in per-relation products, the
    reference in the full products S_i S_j, and BLAS may order the two
    sums apart.  On the float-spectral benchmark's families and the join
    of C16 and C25 the verdict is the reference's, and p~ is its reading
    off the full products within 4 n 2^-53 max(1, |p~|).  The reference
    takes about 40 s on C16 + C25, so there its verdict is that of its
    span-closure test alone: the family is canonical, so the other axioms
    hold."""
    build = hs.direct_product_scheme if kind == "product" else hs.join_scheme
    gs = build(canonical_cycle(m1), canonical_cycle(m2))
    got = hs.verify_generalized(gs)
    want, worst = _full_product_reading(gs)
    if m2 == 25:
        assert worst <= 1e-8
    else:
        assert outcome(ref.verify_generalized, gs)[0] == "ok"
    n = gs.partition.n_points
    assert (np.abs(got - want) <= 4 * n * 2.0 ** -53 * np.maximum(1.0, np.abs(want))).all()


NEAR_CANONICAL = GENERALIZED + [canonical_cycle(m) for m in (8, 12)] + [
    hs.direct_product_scheme(canonical_cycle(4), canonical_cycle(5)),
    hs.join_scheme(canonical_cycle(5), canonical_cycle(6))]


def relative_noise(gs, k, seed):
    """gs with every W entry times 1 + E(x, y), E symmetric and uniform in
    [-10^-k, 10^-k], then each kernel's rows renormalized.  The flow
    omega(x) W(x, y) of these bases is symmetric; E keeps it so but for the
    renormalization, whose first-order asymmetry would fail the adjoint test
    (absolute, at 1e-9) below k = 10.  There omega_x is scaled by 10^(k - 10),
    so that the adjoint relation holds and span closure decides."""
    part = gs.partition
    lab, n, d = part.label, part.n_points, part.n_relations
    E = np.random.default_rng(seed).uniform(-10.0 ** -k, 10.0 ** -k, (n, n))
    W = gs.W * (1 + (E + E.T) / 2)
    rows = np.zeros((n, d))
    np.add.at(rows, (np.arange(n)[:, None], lab), W)
    W /= np.take_along_axis(rows, lab, axis=1)
    kernels = np.where(np.arange(d)[:, None, None] == lab[None], W[None], 0.0)
    return hs.GeneralizedScheme(part, kernels, gs.omega_x * min(1.0, 10.0 ** (k - 10)))


def full_path_outcome(gs):
    """The outcome of verify_generalized on a fresh copy of gs with the
    canonical early test switched off, so every axiom is tested."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme_module, "_CANONICAL_DEVIATION", -1.0)
        return outcome(hs.verify_generalized,
                       hs.GeneralizedScheme(gs.partition, gs.kernels, gs.omega_x))


@given(st.sampled_from(NEAR_CANONICAL), st.integers(7, 16), st.integers(0, 2 ** 16))
def test_near_canonical_families_match_reference(base, k, seed):
    """Canonical families with relative noise 10^-k on every cell: at k >= 10
    the deviation from the canonical family is within _CANONICAL_DEVIATION
    and the early test proves axioms (2) and (3); at k = 9 it lies on either
    side; below it the full check runs, passes on some draws at k = 8 and
    fails span closure (3) on the others.  The verdict, axiom and witness
    are the reference's, and p~ is the full check's bit for bit.  The
    reference's full products may sum in another order, so against it p~
    agrees within 4 n 2^-53 max(1, |p~|)."""
    gs = relative_noise(base, k, seed)
    want = outcome(ref.verify_generalized, gs)
    got = outcome(hs.verify_generalized, gs)
    assert got == full_path_outcome(gs)
    if want[0] == "fail":
        assert got == want
        return
    assert got[0] == "ok"
    ptilde, reference = hs.verify_generalized(gs), ref.verify_generalized(gs)
    bound = 4 * gs.partition.n_points * 2.0 ** -53 * np.maximum(1.0, np.abs(reference))
    assert (np.abs(ptilde - reference) <= bound).all()


def _calls(gs):
    """How often verifying gs builds a kernel and runs _generation; a family
    that runs verify_scheme runs one _generation there, and its kernel check
    runs none."""
    counts = {"_kernel": 0, "_generation": 0}
    kernel, generation = hs.GeneralizedScheme._kernel, scheme_module._generation

    def counting_kernel(self, i):
        counts["_kernel"] += 1
        return kernel(self, i)

    def counting_generation(num):
        counts["_generation"] += 1
        return generation(num)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hs.GeneralizedScheme, "_kernel", counting_kernel)
        mp.setattr(scheme_module, "_generation", counting_generation)
        hs.verify_generalized(gs)
    return counts


def test_canonical_family_verifies_without_kernel_products():
    """Canonical C20 passes the early test and keeps the scheme it was
    built from: verifying it builds no kernel and runs no _generation.  A
    symmetric rectangle perturbation on relation 5 that puts the deviation
    just past _CANONICAL_DEVIATION takes the full check, which builds
    kernels for axiom (2) and runs no _generation past verify_scheme's one,
    and passes with the reference."""
    base = canonical_cycle(20)
    assert _calls(base) == {"_kernel": 0, "_generation": 0}
    t = 0.55 * _CANONICAL_DEVIATION        # W = 1/2 there, so delta = 2t
    past = hs.GeneralizedScheme(base.partition,
                                symmetric_perturbation(base, (5, 0, 10, 5, 15), t),
                                base.omega_x)
    valency = hs.verify_scheme(base.partition).valency[base.partition.label]
    delta = np.abs(past.W * valency - 1.0).max()
    assert _CANONICAL_DEVIATION < delta < 1.2 * _CANONICAL_DEVIATION
    counts = _calls(past)
    assert counts["_kernel"] >= base.partition.n_relations and counts["_generation"] == 1
    assert outcome(ref.verify_generalized, past)[0] == "ok"


@pytest.mark.parametrize("t", [1e-10, 4.5e-10, 1e-9])
def test_one_canonical_family_test_for_proof_and_rigidity(t):
    """Canonical C100 with a symmetric rectangle of t on relation 25 (W = 1/2
    there, so the deviation delta is 2t), as the scaling tool perturbs it:
    at delta <= _CANONICAL_DEVIATION the kernel check proves it (it builds
    no kernel) and finite_rigidity_check calls it rigid; at delta = 2e-9
    neither, though every entry lies within 1e-8 of 1 / valency.  Either
    way it verifies."""
    base = canonical_cycle(100)
    gs = hs.GeneralizedScheme(base.partition,
                              symmetric_perturbation(base, (25, 0, 50, 25, 75), t),
                              base.omega_x)
    valency = hs.verify_scheme(base.partition).valency[base.partition.label]
    delta = np.abs(gs.W * valency - 1.0).max()
    assert abs(delta - 2 * t) < 1e-15
    assert np.abs(gs.W - 1.0 / valency).max() <= 1e-8
    proved = _calls(gs)["_kernel"] == 0
    assert proved == hs.finite_rigidity_check(gs) == (delta <= _CANONICAL_DEVIATION)
    assert outcome(hs.verify_generalized, gs)[0] == "ok"


def test_verify_hypergroup_memory_is_cubic():
    """d = 56 product of D_12 and D_14 hypergroups: the d^4 associativity
    tensors needed about 300 MiB; per-slice checks stay below 16 MiB."""
    h1, h2 = (hs.from_scheme(hs.from_double_cosets(dihedral_table(m), [0, m])[1])
              for m in (12, 14))
    prod = without_factors(hs.direct_product(h1, h2))
    assert prod.n == 56
    tracemalloc.start()
    try:
        assert hs.verify_hypergroup(prod).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_verify_hypergroup_memory_is_a_small_multiple_of_num():
    """At d = 56 the float32 slice products (d * max|num|^2 = 896) and the
    generating set listed before any product keep the peak near 2.2 times
    num's int64 bytes; float64 products and the closure's bookkeeping held
    through the loop took 5.8 times."""
    prod = without_factors(hs.direct_product(dihedral_hypergroup(12), dihedral_hypergroup(14)))
    tracemalloc.start()
    try:
        assert hs.verify_hypergroup(prod).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * prod.num.nbytes


# families built from verified inputs keep their scheme

def _canonical_factors():
    s3_perms, s3 = symmetric_table(3)
    s4_perms, s4 = symmetric_table(4)
    z5 = (np.arange(5)[:, None] + np.arange(5)) % 5
    schemes = [hs.verify_scheme(cycle_partition(m)) for m in (3, 4, 6)]
    schemes += [hs.from_double_cosets(dihedral_table(m), [0, m])[1] for m in (4, 5)]
    schemes += [hs.from_double_cosets(s4, young_subgroup(s4_perms, 2))[1],   # J(4, 2)
                hs.from_double_cosets(z5, [0])[1],     # thin, not symmetric
                hs.from_double_cosets(s3, [0])[1]]     # thin, not commutative
    return [hs.canonical_generalized(s) for s in schemes]


CANONICAL_FACTORS = _canonical_factors()
BUILDS = {"product": hs.direct_product_scheme, "join": hs.join_scheme}


def _verified_afresh(gs):
    """p~ as a family that kept no scheme computes it: verify_scheme on its
    partition, then the kernel check on that scheme."""
    return _verify_kernels(gs, hs.verify_scheme(gs.partition))


@given(st.sampled_from(sorted(BUILDS)), st.sampled_from(CANONICAL_FACTORS),
       st.sampled_from(CANONICAL_FACTORS))
def test_inherited_scheme_is_verify_schemes(kind, gs1, gs2):
    """A product or join of canonical families keeps, without the counting
    check, the scheme verify_scheme gives its partition, field by field and
    dtype by dtype, read-only, with the same generating order; its p~ is
    bit-identical to the one computed from that fresh scheme."""
    gs = BUILDS[kind](gs1, gs2)
    ptilde = hs.verify_generalized(gs)
    kept, want = gs.verified[0], hs.verify_scheme(gs.partition)
    assert kept.partition is gs.partition
    for name in ("involution", "p", "valency"):
        got, expected = getattr(kept, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected) and not got.flags.writeable
    assert kept._order == want._order == tuple(scheme_module._generation(want.p))
    fresh = _verified_afresh(gs)
    assert ptilde.dtype == fresh.dtype and ptilde.tobytes() == fresh.tobytes()


def _not_a_scheme(label):
    """A family on a partition that is not a scheme: each S_i the rows of
    A_i normalized, zero rows left zero."""
    lab = np.asarray(label)
    d = int(lab.max()) + 1
    A = (lab[None] == np.arange(d)[:, None, None]).astype(float)
    rows = A.sum(axis=2, keepdims=True)
    return hs.GeneralizedScheme(hs.RelationPartition(len(lab), d, lab),
                                np.divide(A, rows, out=np.zeros_like(A), where=rows > 0),
                                np.ones(len(lab)))


PATH_4 = _not_a_scheme(np.abs(np.arange(4)[:, None] - np.arange(4)))
K3 = CANONICAL_FACTORS[0]

# the failures that the full verify_scheme of the product or join's
# partition raised before families kept their scheme
INHERITED_FAILURES = [
    ("product", (PATH_4, K3), ("counting", (2, 2, 0, 0, 0, 3, 3),
                               "p_(2,2)^0 is not constant: 1 at (0,0) vs 2 at (3,3)")),
    ("product", (K3, PATH_4), ("counting", (1, 1, 0, 0, 0, 1, 1),
                               "p_(1,1)^0 is not constant: 1 at (0,0) vs 2 at (1,1)")),
    ("join", (PATH_4, K3), ("counting", (2, 2, 0, 0, 0, 3, 3),
                            "p_(2,2)^0 is not constant: 3 at (0,0) vs 6 at (3,3)")),
    ("join", (K3, PATH_4), ("counting", (1, 1, 0, 0, 0, 1, 1),
                            "p_(1,1)^0 is not constant: 1 at (0,0) vs 2 at (1,1)")),
]


@pytest.mark.parametrize("kind, factors, failure", INHERITED_FAILURES)
def test_a_factor_that_is_not_a_scheme_fails_as_before(kind, factors, failure):
    """With the path P_4's distance partition, not a scheme, as a factor,
    verifying the product or join runs verify_scheme on its own partition
    and raises what it raised before, on every use."""
    gs = BUILDS[kind](*factors)
    for fn in (hs.verify_generalized, hs.from_generalized, hs.verify_generalized):
        with pytest.raises(hs.AxiomViolation) as exc:
            fn(gs)
        assert (exc.value.axiom_id, exc.value.witness, str(exc.value)) == failure


def _counted(names, run):
    """{name: calls} of the scheme-module functions names while run() runs;
    _generation is counted under both modules that call it."""
    from hyperscheme import hypergroup as hypergroup_module
    counts = dict.fromkeys(names, 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            def wrapper(*args, _fn=getattr(scheme_module, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            mp.setattr(scheme_module, name, wrapper)
            if name == "_generation":
                mp.setattr(hypergroup_module, name, wrapper)
        run()
    return counts


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_families_of_canonical_families_run_no_counting_products(kind):
    """A product or join of two canonical families, itself canonical, runs
    the structural pass once and no verify_scheme, so no counting slice
    product and no _generation; a family given the same kernels runs
    verify_scheme once."""
    gs1, gs2 = CANONICAL_FACTORS[3], CANONICAL_FACTORS[4]
    names = ("verify_scheme", "_structure", "_generation")
    built = BUILDS[kind](gs1, gs2)
    assert _counted(names, lambda: hs.from_generalized(built)) == {
        "verify_scheme": 0, "_structure": 1, "_generation": 0}
    given_ = hs.GeneralizedScheme(built.partition, built.kernels, built.omega_x)
    assert _counted(names, lambda: hs.verify_generalized(given_)) == {
        "verify_scheme": 1, "_structure": 1, "_generation": 1}


def test_scheme_pipeline_runs_one_closure():
    """verify_scheme, from_scheme, verify_hypergroup and characters on one
    double-coset scheme run _generation once: the hypergroup keeps the
    order of the scheme it was made from."""
    table, sub = GROUP_CASES[0]

    def pipeline():
        h = hs.from_scheme(hs.from_double_cosets(table, sub)[1])
        assert hs.verify_hypergroup(h).ok
        hs.characters(h)

    assert _counted(("_generation",), pipeline) == {"_generation": 1}


def test_kept_orders_are_their_own_tensors_closures(k3_scheme, z4_scheme, s3_table):
    """On every fixture scheme, its hypergroup, and the products, joins and
    generalized hypergroups of canonical fixtures, the kept order is
    _generation of the object's own tensor."""
    schemes = [k3_scheme, z4_scheme] + [hs.verify_scheme(p) for p in BASE_PARTITIONS]
    schemes += [hs.from_double_cosets(s3_table, h)[1] for h in ([0], [0, 1])]
    hypergroups = [hs.from_scheme(s) for s in schemes]
    for s, h in zip(schemes, hypergroups):
        assert s._order == tuple(scheme_module._generation(s.p))
        assert h._order == tuple(scheme_module._generation(h.num))
    gs = [hs.canonical_generalized(s) for s in schemes if s.is_unimodular()][:6]
    hypergroups = [hs.direct_product(*pair) for pair in zip(hypergroups, hypergroups[1:])]
    hypergroups += [hs.join(*pair) for pair in zip(hypergroups, hypergroups[1:])]
    hypergroups += [hs.from_generalized(build(a, b)) for build in BUILDS.values()
                    for a, b in zip(gs, gs[1:])]
    for h in hypergroups:
        assert h._order == tuple(scheme_module._generation(h.num))


def test_characters_after_verify_hypergroup_run_no_closure(monkeypatch):
    """D_400 (d = 201): characters reads the order verify_hypergroup kept,
    so no 3 d^3-byte closure runs.  With the residual's blocks cut to
    1 MiB, the traced peak is below half a closure's bytes (it read 23.4
    MiB with the closure, 7.8 MiB without)."""
    h = hs.from_scheme(hs.from_double_cosets(dihedral_table(400), [0, 400])[1])
    assert hs.verify_hypergroup(h).ok
    h.conv_f
    monkeypatch.setattr(hs.hypergroup, "_RESIDUAL_BLOCK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        hs.characters(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * h.n ** 3 / 2
