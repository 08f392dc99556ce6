"""Differential tests of the ball arrays, metric, boundary ray and sphere
kernels against the word-based code they replaced (tests/reference_ball.py),
and of the walk functions against the dense code they replaced
(tests/reference_walks.py), on every ball of Graph(a, b) with a, b in {2, 3, 4} and at most 1100
vertices.  The path graph (2, 2) stops at R = 20: its balls grow linearly,
and the dense kernels hold (R+1) n^2 entries.  Deformed kernels need a
unique boundary ray, so they run for b = 2 only."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperscheme as hs
import hyperscheme.io as hio
import reference_walks
from reference_ball import (ball_kernels, ball_words, bfs_distances,
                            deformed_kernels, prefix_dist_matrix, ray_scan,
                            word_distance)

MAX_VERTICES = 1100


def _cases():
    for a in (2, 3, 4):
        for b in (2, 3, 4):
            params = hs.DTParams(a, b)
            R = 0
            while R <= 20 and hs.dtgraph.ball_size(params, R) <= MAX_VERTICES:
                yield a, b, R
                R += 1


CASES = list(_cases())


def _same_walks(new, old, radius, hg):
    """Seeded Monte Carlo walks, propagated laws and projected laws agree
    exactly: old reads its labels off row 0 of the full label matrix, new
    off the family's own row, and the projection of the empirical law is the
    sum in state order that the bincount projection replaced."""
    labels = list(range(1, min(radius, 2) + 1)) or [0]
    mu = hs.StepDistribution({h: Fraction(1, len(labels)) for h in labels})
    steps = max(1, radius // max(max(labels), 1))
    for seed in (0, 7):
        a = hs.simulate_walk(new, mu, steps, 2000, seed)
        b = hs.simulate_walk(old, mu, steps, 2000, seed)
        assert a.empirical == b.empirical
        laws = hs.walks._projected_laws(a, new, hg, mu)
        assert laws == hs.walks._projected_laws(b, old, hg, mu)
        summed: dict = {}
        for x, m in b.empirical.items():
            k = int(old.labels[x])
            summed[k] = summed.get(k, 0.0) + m
        assert laws[1] == summed
    assert (hs.propagate_and_project(new, mu, steps)
            == hs.propagate_and_project(old, mu, steps))


def _same_kernels(new, new_valid, old, old_valid):
    assert new.keys() == old.keys() and new_valid.keys() == old_valid.keys()
    assert np.array_equal(new[0], np.eye(new[0].shape[0]))
    for h in new:
        ok = new_valid[h]
        assert np.array_equal(ok, old_valid[h])
        assert np.array_equal(new[h][ok], old[h][ok])   # bit-equal valid rows
        assert not new[h][~ok].any()                    # invalid rows are zero


@pytest.mark.parametrize("a, b, R", CASES, ids=[f"{a}-{b}-{R}" for a, b, R in CASES])
def test_ball_arrays_match_words(a, b, R):
    ball = hs.build_ball(hs.DTParams(a, b), R)
    words = ball_words(ball.params, R)
    index = {w: i for i, w in enumerate(words)}
    assert ball.n == len(words)
    assert ball.depths.tolist() == [len(w) for w in words]
    assert ball.parents.tolist() == [index[w[:-1]] if w else 0 for w in words]
    assert ball.cliques.tolist() == [w[-1][0] if w else 0 for w in words]
    assert ball.sphere_sizes() == [hs.haar_weight(h, ball.params) for h in range(R + 1)]
    assert [ball.word(v) for v in range(ball.n)] == words
    assert [ball.find(w) for w in words] == list(range(ball.n))


@pytest.mark.parametrize("a, b, R", CASES, ids=[f"{a}-{b}-{R}" for a, b, R in CASES])
def test_metric_and_ray_match_words(a, b, R):
    """dist_matrix is the pairwise word distance and the breadth-first
    distance from every start; the horocycle, or the tie that refuses it,
    is the one the ray scan finds."""
    ball = hs.build_ball(hs.DTParams(a, b), R)
    words = ball_words(ball.params, R)
    pairwise = np.array([[word_distance(u, v) for v in words] for u in words])
    D = ball.dist_matrix
    assert np.array_equal(D, pairwise)
    adj = pairwise == 1
    for start in range(ball.n):
        assert np.array_equal(bfs_distances(adj, start), D[start])

    try:
        want = ray_scan(words, R)
    except hs.NonUniqueMinimizer as exc:
        assert b > 2
        with pytest.raises(hs.NonUniqueMinimizer) as got:
            hs.BoundaryRay(ball)
        assert str(got.value) == str(exc)
    else:
        assert b == 2 or R == 0
        horocycle = hs.BoundaryRay(ball).horocycle
        assert horocycle.dtype == want.dtype
        assert np.array_equal(horocycle, want)


def test_find_rejects_steps_out_of_range():
    ball = hs.build_ball(hs.DTParams(3, 3), 2)
    assert ball.find(()) == ball.root
    for word in (((4, 1),), ((0, 1),), ((1, 3),), ((1, 1), (3, 1)),
                 ((1, 1),) * 3):
        with pytest.raises(ValueError):
            ball.find(word)


@pytest.mark.parametrize("a, b, R", CASES, ids=[f"{a}-{b}-{R}" for a, b, R in CASES])
def test_sphere_kernels_match_reference(a, b, R):
    ball = hs.build_ball(hs.DTParams(a, b), R)
    fam = hs.KernelFamily.from_ball(ball)
    mats, valid = ball_kernels(ball)
    _same_kernels(fam.matrices, fam.valid, mats, valid)
    # the reference's invalid rows hold renormalized partial spheres; a
    # family marks a row it may not step from by zeros
    zeroed = {h: np.where(valid[h][:, None], K, 0.0) for h, K in mats.items()}
    old = reference_walks.dense_family(zeroed, ball.dist_matrix[0])
    _same_walks(fam, old, R, hs.PolyHypergroup(ball.params))

    if b != 2:
        return
    ray = hs.BoundaryRay(ball)
    for c in (0.0, 0.3, -0.35):
        dk = hs.deform_ball_kernels(ball, ray, c)
        ref = deformed_kernels(ball, ray, c)
        _same_kernels(dk.kernels, dk.valid, ref["kernels"], ref["valid"])
        assert dk.x_c == ref["x_c"]
        assert dk.skipped == ref["skipped"]
        assert dk.max_row_sum_error == ref["max_row_sum_error"]
        old = reference_walks.dense_family(ref["kernels"], ball.dist_matrix[0])
        _same_walks(hs.KernelFamily.from_deformed(dk), old, R,
                    hs.PolyHypergroup(ball.params, x0=dk.x_c))


def test_invalid_rows_of_the_reference_hold_partial_spheres():
    """The one intended change: a uniform kernel row whose sphere leaves the
    ball was a renormalized partial sphere, and is now zero."""
    ball = hs.build_ball(hs.DTParams(3, 2), 3)
    fam = hs.KernelFamily.from_ball(ball)
    mats, _ = ball_kernels(ball)
    x = ball.n - 1                                   # a vertex at depth R
    assert not fam.valid[1][x]
    assert mats[1][x].sum() == pytest.approx(1.0)
    assert not fam.matrices[1][x].any()


def test_sphere_kernels_weight_sees_valid_rows():
    """weight gets the pairs of the valid rows, the depth <= R - h vertices,
    when a kernel is first read."""
    ball = hs.build_ball(hs.DTParams(3, 2), 4)
    seen = {}

    def weight(h, rows, cols):
        seen[h] = rows, cols
        return float(h)

    kernels = ball.sphere_kernels(weight)
    assert seen == {}
    kernels = {h: kernels[h] for h in kernels}
    assert sorted(seen) == [1, 2, 3, 4]
    for h, (rows, cols) in seen.items():
        inside = ball.depths <= 4 - h
        assert np.array_equal(np.unique(rows), np.flatnonzero(inside))
        support = (ball.dist_matrix == h) & inside[:, None]
        assert np.array_equal(kernels[h] != 0, support)
        assert set(np.unique(kernels[h])) == {0.0, float(h)}


@pytest.mark.parametrize("a, b, R", [(3, 2, 7), (2, 3, 6), (4, 2, 4), (2, 2, 20)])
def test_kernels_read_in_any_order_are_the_reference_kernels(a, b, R):
    """A kernel is the same array whichever kernels were read before it,
    it is kept once built, and its rows are those of the reference; the
    deformed max_row_sum_error, computed on first read, is the reference's
    exactly."""
    ball = hs.build_ball(hs.DTParams(a, b), R)
    mats, valid = ball_kernels(ball)
    forward = hs.KernelFamily.from_ball(ball).matrices
    backward = hs.KernelFamily.from_ball(ball).matrices
    for h in reversed(range(R + 1)):
        assert backward[h] is backward[h]
    for h in forward:
        assert forward[h].tobytes() == backward[h].tobytes()
    _same_kernels(forward, {h: K.any(axis=1) for h, K in forward.items()},
                  mats, valid)

    if b != 2:
        return
    ray = hs.BoundaryRay(ball)
    ref = deformed_kernels(ball, ray, -0.35)
    dk = hs.deform_ball_kernels(ball, ray, -0.35)
    kernels = {h: dk.kernels[h] for h in reversed(range(R + 1))}
    _same_kernels(kernels, dk.valid, ref["kernels"], ref["valid"])
    assert dk.max_row_sum_error == ref["max_row_sum_error"]


def test_deform_refuses_an_alpha0_out_of_range_when_called(monkeypatch):
    """deform_ball_kernels reads every scale alpha0(h) w_h itself, so an
    alpha0 out of double range raises alpha0's DomainError from the call,
    before any kernel is read."""
    ball = hs.build_ball(hs.DTParams(3, 2), 3)
    ray = hs.BoundaryRay(ball)
    recurrence = hs.dtgraph._recurrence

    def overflowing(x, params):     # the recurrence the alpha0 row is built by
        return recurrence(x, params)[0], lambda prev, cur: np.inf

    monkeypatch.setattr(hs.dtgraph, "_recurrence", overflowing)
    x_c = hs.deformation_point(0.3, ball.params)
    with pytest.raises(hs.DomainError) as want:
        hs.PolyHypergroup(ball.params, x0=x_c).alpha0(2)
    assert str(want.value) == (f"alpha0(2) = P_2(x0) at x0 = {x_c!r} is inf, "
                               "not a finite positive double >= 2.2250738585072014e-308")
    with pytest.raises(hs.DomainError) as got:
        hs.deform_ball_kernels(ball, ray, 0.3)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("a, b, R", CASES, ids=[f"{a}-{b}-{R}" for a, b, R in CASES])
def test_sphere_pairs_match_prefix_distances(a, b, R):
    """_sphere_pairs lists each pair at distance h with depth(row) <= top
    once, ascending in h, for every h <= 2R and every top, and dist_matrix
    built from them is the prefix-comparison matrix."""
    ball = hs.build_ball(hs.DTParams(a, b), R)
    D = prefix_dist_matrix(ball)
    assert ball.dist_matrix.dtype == D.dtype and np.array_equal(ball.dist_matrix, D)
    for top in range(R + 1):
        h, rows, cols = ball._sphere_pairs(np.full(2 * R + 1, top))
        assert np.all(np.diff(h) >= 0)
        inside = ball.depths <= top
        got = np.full(D.shape, -1, dtype=D.dtype)
        got[rows, cols] = h
        assert rows.size == inside.sum() * ball.n           # each pair once
        assert np.array_equal(got[inside], D[inside])
        assert (got[~inside] == -1).all()


def _ball_families(ball):
    """(family, hypergroup) of the uniform kernels and, for b = 2, of the
    deformed kernels at c = 0.3 and c = -0.35."""
    yield hs.KernelFamily.from_ball(ball), hs.PolyHypergroup(ball.params)
    if ball.params.b == 2:
        ray = hs.BoundaryRay(ball)
        for c in (0.3, -0.35):
            dk = hs.deform_ball_kernels(ball, ray, c)
            yield (hs.KernelFamily.from_deformed(dk),
                   hs.PolyHypergroup(ball.params, x0=dk.x_c))


@pytest.mark.parametrize("a, b, R", CASES, ids=[f"{a}-{b}-{R}" for a, b, R in CASES])
def test_walks_match_dense_reference(a, b, R):
    """Walks that read only the reached rows give the seeded empirical laws
    of the whole-kernel code exactly, and its propagated laws to 1e-15 per
    label, for step laws on {1}, {2} and {1, 2}."""
    ball = hs.build_ball(hs.DTParams(a, b), R)
    laws = [s for s in ([1], [2], [1, 2]) if max(s) <= R] or [[0]]
    for fam, _ in _ball_families(ball):
        for support in laws:
            mu = hs.StepDistribution({h: Fraction(1, len(support)) for h in support})
            steps = max(1, R // max(max(support), 1))
            for seed in (0, 7):
                assert (hs.simulate_walk(fam, mu, steps, 2000, seed).empirical
                        == reference_walks.simulate_walk(fam, mu, steps, 2000,
                                                         seed).empirical)
            new = hs.propagate_and_project(fam, mu, steps)
            old = reference_walks.propagate_and_project(fam, mu, steps)
            assert new.keys() == old.keys()
            assert all(abs(new[k] - old[k]) <= 1e-15 for k in old)


@st.composite
def kernel_walks(draw):
    """A random stochastic kernel family on n states with 1-5 support labels
    and one zero-mass label whose kernel is all zero, so a walk that read it
    would be refused.  Each (label, state) row has its own width in 1..70
    and its own weights: equal, uniform, or log-uniform down to 1e-12.  The
    trial count falls on either side of a block of uniforms."""
    n = draw(st.one_of(st.integers(2, 16), st.integers(71, 90)))
    support = draw(st.integers(1, 5))
    idle = draw(st.integers(0, support))
    masses = draw(st.lists(st.integers(1, 7), min_size=support, max_size=support))
    steps = draw(st.integers(1, 4))
    block = hs.walks._BLOCK_UNIFORMS // (2 * steps)
    trials = draw(st.sampled_from([1, block - 1, block, block + 1, 2 * block + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    matrices, mu = {}, {}
    labels = [h for h in range(support + 1) if h != idle]
    for h, m in zip(labels, masses):
        K = np.zeros((n, n))
        for x in range(n):
            k = int(rng.integers(1, min(n, 70) + 1))
            w = (np.ones(k), rng.random(k) + 1e-3,
                 10.0 ** rng.uniform(-12, 0, k))[rng.integers(3)]
            K[x, rng.choice(n, k, replace=False)] = w / w.sum()
        matrices[h] = K
        mu[h] = Fraction(m, sum(masses))
    matrices[idle], mu[idle] = np.zeros((n, n)), Fraction(0)
    fam = reference_walks.dense_family(matrices, rng.integers(0, 4, n))
    return fam, hs.StepDistribution(mu), steps, trials


@settings(max_examples=60)
@given(kernel_walks(), st.integers(0, 2 ** 31))
def test_random_kernel_walks_match_dense_reference(walk, seed):
    """On random kernel families with rows of mixed widths and weights, the
    table search draws every successor the dense searchsorted code draws."""
    fam, mu, steps, trials = walk
    assert (hs.simulate_walk(fam, mu, steps, trials, seed).empirical
            == reference_walks.simulate_walk(fam, mu, steps, trials, seed).empirical)


@settings(max_examples=60)
@given(kernel_walks(), st.data())
def test_row_table_is_the_expanded_construction(walk, data):
    """The masked row table is the table built through integer row and
    position arrays, byte for byte and dtype for dtype, at the states a walk
    reaches and at any ascending set of states."""
    fam, mu, steps, _ = walk
    n = fam.labels.shape[0]
    labels = fam.support_labels(mu)
    subset = data.draw(st.sets(st.integers(0, n - 1)))
    for states in (hs.walks._check_reachable(fam, mu, steps),
                   np.array(sorted(subset), dtype=np.int64)):
        got = hs.walks._row_table(fam, labels, states)
        want = reference_walks.expanded_row_table(fam, labels, states)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_complete_graph_walk_matches_dense_reference():
    """K_300: rows of width 299 beside the width-1 identity rows."""
    m = 300
    label = (np.arange(m)[:, None] != np.arange(m)[None, :]).astype(int)
    sch = hs.verify_scheme(hs.RelationPartition(n_points=m, n_relations=2, label=label))
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(sch))
    mu = hs.StepDistribution({0: Fraction(1, 3), 1: Fraction(2, 3)})
    for seed in (0, 7):
        assert (hs.simulate_walk(fam, mu, 3, 20_000, seed).empirical
                == reference_walks.simulate_walk(fam, mu, 3, 20_000, seed).empirical)


def test_walk_path_builds_no_distance_matrix():
    """from_ball, deform_ball_kernels, a walk and its projection check never
    fill dist_matrix."""
    ball = hs.build_ball(hs.DTParams(3, 2), 5)
    mu = hs.StepDistribution({1: Fraction(3, 7), 2: Fraction(4, 7)})
    for fam, hg in _ball_families(ball):
        walk = hs.simulate_walk(fam, mu, 2, 3000, 1)
        assert hs.projection_check(walk, fam, hg, mu, 2) < 0.1
    assert ball._dist is None


def test_scheme_file_walk_reads_row_zero(tmp_path):
    """A scheme-file family labels each state by row 0 of the partition.
    With the relation ids of a 9-cycle permuted that row is not ascending,
    and the projected laws still equal the state-order sums over
    label[0, x] that the full label matrix gave."""
    m = 9
    dist = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    relabel = np.array([0, 3, 1, 4, 2])
    path = tmp_path / "c9.json"
    relations = relabel[np.minimum(dist, m - dist)]
    hio.save(path, {"n_points": m, "relations": relations.tolist()})
    sch = hs.verify_scheme(hio.scheme_from_dict(hio.load(path)))
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(sch))
    label = sch.partition.label
    assert fam.labels.shape == (m,) and np.array_equal(fam.labels, label[0])

    mu = hs.StepDistribution({3: Fraction(1, 2), 4: Fraction(1, 2)})
    walk = hs.simulate_walk(fam, mu, 4, 3000, 11)
    exact, projected = hs.walks._projected_laws(walk, fam, hs.from_scheme(sch), mu)
    summed: dict = {}
    for x, p in walk.empirical.items():
        summed[int(label[0, x])] = summed.get(int(label[0, x]), 0.0) + p
    assert projected == summed
    assert set(exact) <= set(range(5)) and hs.walks.tv_distance(projected, exact) < 0.05
