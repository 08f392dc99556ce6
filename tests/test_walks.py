"""Convolution powers, Monte Carlo walks, and the projection property."""

import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import hyperscheme as hs
import reference_walks
from hyperscheme import walks
from hyperscheme.scheme import KERNEL_TOL


def test_step_distribution_validation():
    with pytest.raises(ValueError):
        hs.StepDistribution({0: 0.5, 1: 0.6})
    with pytest.raises(ValueError):
        hs.StepDistribution({0: -0.1, 1: 1.1})


def test_step_law_is_finite_and_inside_the_hypergroup(k3_hypergroup):
    """NaN passed both the sign and the sum check, an atom outside K3 was
    dropped from the power, and a negative label on a polynomial hypergroup
    raised TypeError."""
    for weights in ({1: float("nan")}, {0: float("nan"), 1: 1.0}, {1: float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            hs.StepDistribution(weights)
    with pytest.raises(ValueError, match=r"labels \[5\]"):
        hs.convolution_power(k3_hypergroup, hs.StepDistribution({5: 1}), 2)
    with pytest.raises(ValueError, match=r"labels \[-1\]"):
        hs.convolution_power(hs.PolyHypergroup(hs.DTParams(3, 2)),
                             hs.StepDistribution({-1: 1}), 2)
    assert hs.convolution_power(hs.PolyHypergroup(hs.DTParams(3, 2)),
                                hs.StepDistribution({5: 1}), 1) == {5: 1}


@pytest.mark.parametrize("exact", [True, False])
def test_finite_power_checks_its_law(k3_hypergroup, exact):
    """power refused what convolution_power refused: a label outside K3 was
    dropped, leaving a law of mass 1/4, and a float tensor returned delta_e
    for t < 0.  A label between elements was dropped by both."""
    h = k3_hypergroup if exact else hs.FiniteHypergroup(
        2, k3_hypergroup.conv_f.tolist(), 0, [0, 1])
    assert h.is_exact == exact
    half = Fraction(1, 2) if exact else 0.5
    with pytest.raises(ValueError, match=r"^step law labels \[5\] are not "
                                         r"hypergroup elements$"):
        h.power({1: half, 5: half}, 2)
    with pytest.raises(ValueError, match=r"^step law labels \[0.5\] are not"):
        hs.convolution_power(h, hs.StepDistribution({0.5: 2 * half}), 2)
    with pytest.raises(ValueError, match="^t must be nonnegative$"):
        h.power({1: 2 * half}, -3)


def test_poly_power_and_convolve_check_their_laws(monkeypatch):
    """A negative label raised TypeError from the arithmetic, t < 0 returned
    delta_0, and only convolution_power capped the support."""
    hg = hs.PolyHypergroup(hs.DTParams(3, 2))
    with pytest.raises(ValueError, match=r"^step law labels \[-1\] are not"):
        hg.power({-1: Fraction(1, 2), 1: Fraction(1, 2)}, 2)
    with pytest.raises(ValueError, match="^t must be nonnegative$"):
        hg.power({1: Fraction(1)}, -1)
    with pytest.raises(ValueError, match=r"^step law labels \[-2\] are not"):
        hg.convolve({1: Fraction(1)}, {-2: Fraction(1)})
    with pytest.raises(ValueError, match=r"^step law labels \[1.5\] are not"):
        hg.power({1.5: Fraction(1)}, 2)

    def forbidden(*args):
        raise AssertionError("the power was computed")

    monkeypatch.setattr(hg, "_scaled", forbidden)
    monkeypatch.setattr(hs.dtgraph, "Band", forbidden)
    with pytest.raises(hs.SupportCap, match="^support would exceed 10000$"):
        hg.power({0: Fraction(1, 2), 5: Fraction(1, 2)}, 2001)


def test_convolution_power_identity(k3_hypergroup):
    mu = hs.StepDistribution({1: Fraction(1)})
    assert hs.convolution_power(k3_hypergroup, mu, 0) == {0: Fraction(1)}


def test_convolution_power_k3(k3_hypergroup):
    mu = hs.StepDistribution({1: Fraction(1)})
    assert hs.convolution_power(k3_hypergroup, mu, 2) == {
        0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_convolution_power_chebyshev():
    hg = hs.PolyHypergroup(hs.DTParams(2, 2))
    mu = hs.StepDistribution({1: Fraction(1)})
    assert hs.convolution_power(hg, mu, 4) == {
        0: Fraction(3, 8), 2: Fraction(1, 2), 4: Fraction(1, 8)}


def test_convolution_power_semigroup(k3_hypergroup):
    hg = hs.PolyHypergroup(hs.DTParams(3, 2))
    mu = hs.StepDistribution({0: Fraction(1, 4), 1: Fraction(3, 4)})
    for h in (k3_hypergroup, hg):
        p5 = hs.convolution_power(h, mu, 5)
        p2 = hs.convolution_power(h, mu, 2)
        p3 = hs.convolution_power(h, mu, 3)
        if isinstance(h, hs.PolyHypergroup):
            combined = h.convolve(p2, p3)
        else:
            flat2 = [p2.get(i, 0) for i in range(h.n)]
            flat3 = [p3.get(i, 0) for i in range(h.n)]
            combined = {i: v for i, v in enumerate(h.convolve(flat2, flat3))
                        if v != 0}
        assert combined == p5


def test_support_cap():
    hg = hs.PolyHypergroup(hs.DTParams(3, 2))
    mu = hs.StepDistribution({5: Fraction(1)})
    with pytest.raises(hs.SupportCap):
        hs.convolution_power(hg, mu, 10_000)


def test_simulate_walk_zero_steps(k3_scheme):
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    mu = hs.StepDistribution({1: 1})
    walk = hs.simulate_walk(fam, mu, steps=0, trials=100, seed=1)
    assert walk.empirical == {0: 1.0}


def test_negative_steps_are_refused(k3_scheme):
    """A negative step count was read as 0 steps by propagation and reached
    numpy's shape check in the simulation."""
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    mu = hs.StepDistribution({1: 1})
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        hs.propagate_and_project(fam, mu, -1)
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        hs.simulate_walk(fam, mu, steps=-1, trials=100, seed=1)


def test_simulate_walk_deterministic_seed(k3_scheme):
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    mu = hs.StepDistribution({1: 1})
    w1 = hs.simulate_walk(fam, mu, steps=2, trials=500, seed=7)
    w2 = hs.simulate_walk(fam, mu, steps=2, trials=500, seed=7)
    assert w1.empirical == w2.empirical


@pytest.mark.parametrize("seed", [None, True, 7.0, 1.5, -1])
def test_simulate_walk_refuses_a_seed_that_is_not_a_nonnegative_integer(
        k3_scheme, seed, monkeypatch):
    """A seed of None drew OS entropy, so two walks differed and the result
    carried no seed; a bool, a float or a negative number is refused as
    well, before the walk reads a kernel."""
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    monkeypatch.setattr(walks, "_check_reachable",
                        lambda *args: pytest.fail("the walk ran"))
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
        hs.simulate_walk(fam, hs.StepDistribution({1: 1}), steps=2, trials=10,
                         seed=seed)


def test_simulate_walk_k3_one_step(k3_scheme):
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    mu = hs.StepDistribution({1: 1})
    walk = hs.simulate_walk(fam, mu, steps=1, trials=100_000, seed=42)
    assert abs(walk.empirical.get(1, 0) - 0.5) < 0.01
    assert abs(walk.empirical.get(2, 0) - 0.5) < 0.01
    assert walk.empirical.get(0, 0) == 0


def test_projection_matrix_propagation_k3(k3_scheme, k3_hypergroup):
    gs = hs.canonical_generalized(k3_scheme)
    fam = hs.KernelFamily.from_generalized(gs)
    mu = hs.StepDistribution({1: 1})
    projected = hs.propagate_and_project(fam, mu, 3)
    exact = {k: float(v)
             for k, v in hs.convolution_power(k3_hypergroup, mu, 3).items()}
    assert hs.tv_distance(projected, exact) < 1e-12


def test_projection_check_zero_steps(k3_scheme, k3_hypergroup):
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    mu = hs.StepDistribution({1: 1})
    walk = hs.simulate_walk(fam, mu, steps=0, trials=100, seed=1)
    assert hs.projection_check(walk, fam, k3_hypergroup, mu, 0) == 0.0


def test_projection_check_mismatch(k3_scheme, k3_hypergroup):
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    mu = hs.StepDistribution({1: 1})
    walk = hs.simulate_walk(fam, mu, steps=2, trials=100, seed=1)
    with pytest.raises(hs.ParameterMismatch):
        hs.projection_check(walk, fam, k3_hypergroup, mu, 3)


def test_walk_would_exit_ball():
    ball = hs.build_ball(hs.DTParams(3, 2), 4)
    fam = hs.KernelFamily.from_ball(ball)
    mu = hs.StepDistribution({1: 1})
    with pytest.raises(hs.WalkWouldExitBall):
        hs.simulate_walk(fam, mu, steps=5, trials=10, seed=0)
    # steps within the radius are fine
    hs.simulate_walk(fam, mu, steps=4, trials=10, seed=0)


def test_zero_row_of_a_generalized_family_is_not_stepped_from(z4_scheme):
    """A zero kernel row marks a state the walk may not step from, in any
    family: a walk that can reach it is refused, one that cannot runs."""
    base = hs.KernelFamily.from_generalized(hs.canonical_generalized(z4_scheme))
    label = z4_scheme.partition.label
    one, two = int(label[0, 1]), int(label[0, 2])
    edited = base.matrices[two].copy()
    edited[1] = 0.0
    fam = hs.KernelFamily(matrices={**base.matrices, two: edited}, labels=base.labels)
    assert fam.valid[two].tolist() == [True, False, True, True]

    reaching = hs.StepDistribution({one: Fraction(1, 2), two: Fraction(1, 2)})
    with pytest.raises(hs.WalkWouldExitBall):
        hs.simulate_walk(fam, reaching, steps=2, trials=10, seed=0)
    with pytest.raises(hs.WalkWouldExitBall):
        hs.propagate_and_project(fam, reaching, steps=2)

    # relation `two` alone pairs 0 with 2 and never reaches state 1
    mu = hs.StepDistribution({two: 1})
    walk = hs.simulate_walk(fam, mu, steps=5, trials=1000, seed=0)
    assert walk.empirical == {2: 1.0}
    assert hs.propagate_and_project(fam, mu, steps=5) == {two: 1.0}


def test_omega_invariance(k3_scheme, z4_scheme):
    """omega_X as a row vector is fixed by every kernel of a verified
    generalized scheme."""
    for scheme in (k3_scheme, z4_scheme):
        gs = hs.canonical_generalized(scheme)
        for i in range(scheme.n_relations):
            assert np.abs(gs.omega_x @ gs.kernels[i] - gs.omega_x).max() < 1e-12


def test_ball_projection_small():
    params = hs.DTParams(3, 2)
    ball = hs.build_ball(params, 5)
    fam = hs.KernelFamily.from_ball(ball)
    hg = hs.PolyHypergroup(params)
    mu = hs.StepDistribution({1: Fraction(1)})
    projected = hs.propagate_and_project(fam, mu, 5)
    exact = {k: float(v) for k, v in hs.convolution_power(hg, mu, 5).items()}
    assert hs.tv_distance(projected, exact) < 1e-12


def _hoeffding_trials(support: int, tv: float = 0.02,
                      delta: float = 1e-9) -> int:
    """Trials N with 2^K exp(-2 N tv^2) <= delta: the empirical law of a
    K-point law is then within tv with probability at least 1 - delta."""
    return math.ceil((support * math.log(2) + math.log(1 / delta))
                     / (2 * tv ** 2))


def test_simulate_walk_rejects_no_trials(k3_scheme):
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    mu = hs.StepDistribution({1: 1})
    for trials in (0, -5):
        with pytest.raises(ValueError):
            hs.simulate_walk(fam, mu, steps=2, trials=trials, seed=1)


def test_two_label_projection_ball_and_deformed():
    """A two-label step law on a ball family and a deformed family."""
    params = hs.DTParams(3, 2)
    ball = hs.build_ball(params, 6)
    mu = hs.StepDistribution({1: Fraction(3, 7), 2: Fraction(4, 7)})
    steps = 3
    dk = hs.deform_ball_kernels(ball, hs.BoundaryRay(ball), 0.3)
    trials = _hoeffding_trials(2 * steps + 1)
    for family, hgroup in (
            (hs.KernelFamily.from_ball(ball), hs.PolyHypergroup(params)),
            (hs.KernelFamily.from_deformed(dk),
             hs.PolyHypergroup(params, x0=dk.x_c))):
        walk = hs.simulate_walk(family, mu, steps, trials, seed=11)
        assert hs.projection_check(walk, family, hgroup, mu, steps) <= 0.02


def test_ball_walk_builds_only_its_step_laws_kernels(monkeypatch):
    """A seeded walk, its propagated law and its projection check on
    (3, 2, 8) with mu on {1, 2} build K_1 and K_2, once each, of the nine
    uniform or deformed sphere kernels, and give the results of the dense
    reference code."""
    built = []
    sphere_kernels = hs.Ball.sphere_kernels

    def counted(ball, weight):
        def count(h, rows, cols):
            built.append(h)
            return weight(h, rows, cols)
        return sphere_kernels(ball, count)

    monkeypatch.setattr(hs.Ball, "sphere_kernels", counted)
    params = hs.DTParams(3, 2)
    ball = hs.build_ball(params, 8)
    mu = hs.StepDistribution({1: Fraction(3, 7), 2: Fraction(4, 7)})
    steps = 3
    dk = hs.deform_ball_kernels(ball, hs.BoundaryRay(ball), 0.3)
    assert built == []
    for fam, hgroup in ((hs.KernelFamily.from_ball(ball), hs.PolyHypergroup(params)),
                        (hs.KernelFamily.from_deformed(dk),
                         hs.PolyHypergroup(params, x0=dk.x_c))):
        assert len(fam.matrices) == 9 and built == []
        walk = hs.simulate_walk(fam, mu, steps, 30_000, seed=5)
        law = hs.propagate_and_project(fam, mu, steps)
        tv = hs.projection_check(walk, fam, hgroup, mu, steps)
        assert sorted(built) == [1, 2]

        assert walk.empirical == reference_walks.simulate_walk(
            fam, mu, steps, 30_000, seed=5).empirical
        old = reference_walks.propagate_and_project(fam, mu, steps)
        assert law.keys() == old.keys()
        assert all(abs(law[k] - old[k]) <= 1e-15 for k in old)
        eager = hs.KernelFamily(matrices=dict(fam.matrices), labels=fam.labels)
        assert hs.projection_check(walk, eager, hgroup, mu, steps) == tv
        assert sorted(built) == list(range(1, 9))
        built.clear()


def test_ball_walk_builds_no_dense_kernel():
    """A seeded walk and its projection check on the (2, 3, 8) ball
    (n = 1021) with mu on {1, 2} read sparse kernel rows: their traced peak
    stays far below one dense kernel, 1021^2 doubles = 8.0 MiB."""
    params = hs.DTParams(2, 3)
    ball = hs.build_ball(params, 8)
    mu = hs.StepDistribution({1: Fraction(3, 7), 2: Fraction(4, 7)})
    tracemalloc.start()
    try:
        fam = hs.KernelFamily.from_ball(ball)
        walk = hs.simulate_walk(fam, mu, 3, 30_000, seed=5)
        tv = hs.projection_check(walk, fam, hs.PolyHypergroup(params), mu, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tv <= 0.02
    assert peak < 3 * 2 ** 20


def test_simulate_walk_prefix_property():
    """More trials extend the same stream: counts from N trials are
    elementwise at least those from k < N, with k below one block of
    trials and N above it."""
    ball = hs.build_ball(hs.DTParams(3, 2), 4)
    fam = hs.KernelFamily.from_ball(ball)
    mu = hs.StepDistribution({1: Fraction(1, 2), 2: Fraction(1, 2)})
    steps = 2
    block = walks._BLOCK_UNIFORMS // (2 * steps)
    k, N = block // 8, block + block // 8

    def counts(trials):
        walk = hs.simulate_walk(fam, mu, steps, trials, seed=3)
        return {x: round(m * trials) for x, m in walk.empirical.items()}

    few, many = counts(k), counts(N)
    assert sum(few.values()) == k and sum(many.values()) == N
    assert all(many.get(x, 0) >= c for x, c in few.items())


def test_row_search_is_clipped_searchsorted():
    """The branchless row search returns np.searchsorted's left insertion
    point clipped to the row, for rows of width 1..70 searched with their
    own width or the widest, and queries at, between and beyond the keys,
    ties included."""
    rng = np.random.default_rng(0)
    for width in range(1, 71):
        keys = np.sort(rng.integers(0, 5, width)).astype(float)
        table = np.concatenate(([-1.0], keys, [9.0]))
        q = np.concatenate((keys, keys + 0.5, [-2.0, 10.0]))
        want = np.clip(np.searchsorted(table, q), 1, width)
        for bound in (width, 70):
            first = np.ones(q.size, dtype=np.int64)
            got = walks._lower_bound(table, first, first + (width - 1), q, bound)
            assert np.array_equal(got, want)


def test_simulate_walk_memory_bounded_by_block(k3_scheme):
    """Peak traced memory at 10^6 trials stays within a few blocks of
    uniforms (128 KiB each) and their per-step temporaries, far below the
    32 MiB all trials' uniforms would take."""
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    mu = hs.StepDistribution({1: 1})
    tracemalloc.start()
    try:
        walk = hs.simulate_walk(fam, mu, steps=2, trials=10 ** 6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk.trials == 10 ** 6
    assert peak < 4 * 2 ** 20


def _traced_peak(fn) -> float:
    """The tracemalloc peak of fn(), in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_ball_walk_temporaries_stay_cache_sized():
    """A later 2-step walk of 30 000 trials on the (3, 2, 8) ball (n = 766),
    its kernel rows built, peaks below 0.9 MiB: one block of uniforms and
    the per-step arrays of its trials (1.5 MiB with blocks of 2**16)."""
    fam = hs.KernelFamily.from_ball(hs.build_ball(hs.DTParams(3, 2), 8))
    mu = hs.StepDistribution({1: Fraction(1, 2), 2: Fraction(1, 2)})
    hs.simulate_walk(fam, mu, 2, 30_000, seed=0)
    assert _traced_peak(lambda: hs.simulate_walk(fam, mu, 2, 30_000, seed=1)) < 0.9


def _complete_family(m: int):
    label = (np.arange(m)[:, None] != np.arange(m)[None, :]).astype(int)
    gs = hs.canonical_generalized(hs.verify_scheme(hs.RelationPartition(m, 2, label)))
    return hs.KernelFamily.from_generalized(gs)


@pytest.fixture(scope="module")
def k1000_family():
    """K_1000, rows of width 999, with the rows of S_1 built."""
    fam = _complete_family(1000)
    fam.rows(1)
    return fam


def test_reachability_does_not_expand_the_last_frontier(k1000_family):
    """A 2-step delta_1 walk on K_1000 steps from every state, so the check
    tests the zero rows of the 999 states first reached by the last step
    but expands none of their rows (30.5 MiB traced when it did)."""
    mu = hs.StepDistribution({1: 1})
    assert _traced_peak(lambda: walks._check_reachable(k1000_family, mu, 2)) < 1.0
    assert np.array_equal(walks._check_reachable(k1000_family, mu, 2), np.arange(1000))


def test_row_table_of_wide_rows_peaks_low(k1000_family):
    """The row table of K_1000's 999 000 entries peaks at 35 MiB or less,
    its 15.3 MiB kept included (53.4 MiB through integer row and position
    arrays and a final concatenation)."""
    assert _traced_peak(lambda: walks._row_table(k1000_family, [1],
                                                 np.arange(1000))) <= 35.0


def test_lazy_kernels_are_freed_with_their_family(z4_scheme):
    """A lazy kernel mapping is in no reference cycle, so the kernels it
    built are freed as soon as its family is dropped, not at the next
    cyclic collection."""
    gc.disable()
    try:
        ball = hs.build_ball(hs.DTParams(3, 2), 3)
        gs = hs.canonical_generalized(z4_scheme)
        for build in (lambda: hs.KernelFamily.from_ball(ball),
                      lambda: hs.KernelFamily.from_deformed(
                          hs.deform_ball_kernels(ball, hs.BoundaryRay(ball), 0.3)),
                      lambda: hs.KernelFamily.from_generalized(gs)):
            fam = build()
            kernel = weakref.ref(fam.matrices[1])
            del fam
            assert kernel() is None
    finally:
        gc.enable()


def test_generalized_rows_are_those_of_the_dense_kernels(k3_scheme, z4_scheme):
    """from_generalized finds each S_i's rows in W on relation i alone; they
    are the rows of the dense S_i, bit for bit and dtype for dtype, on
    canonical, product and join families, with NaN and -0.0 entries on a
    relation; a family with an entry off its relation is refused."""
    k3, z4 = hs.canonical_generalized(k3_scheme), hs.canonical_generalized(z4_scheme)
    lab = z4.partition.label
    on_relation = z4.kernels.copy()
    on_relation[1, 0, np.flatnonzero(lab[0] == 1)[0]] = np.nan
    on_relation[2, lab == 2] = -0.0
    families = [k3, z4, hs.direct_product_scheme(k3, z4), hs.join_scheme(z4, k3),
                hs.GeneralizedScheme(z4.partition, on_relation, z4.omega_x)]
    for value in (2 * KERNEL_TOL, np.nan):
        stray = z4.kernels.copy()
        stray[1, 0, 0] = value
        with pytest.raises(hs.AxiomViolation) as refused:
            hs.KernelFamily.from_generalized(
                hs.GeneralizedScheme(z4.partition, stray, z4.omega_x))
        assert (refused.value.axiom_id, refused.value.witness) == ("2", (1, 0, 0))
    for gs in families:
        fam = hs.KernelFamily.from_generalized(gs)
        for i in range(gs.partition.n_relations):
            for got, want in zip(fam.rows(i), walks._dense_rows(gs.kernels[i])):
                assert got.dtype == want.dtype and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()


def test_generalized_rows_build_no_dense_kernel():
    """The first rows(1) of the complete graph K_1000 (999 000 entries)
    peaks below what a dense 8 MB copy of S_1 and its flat indices would
    add, and keeps 16 B per entry: no index buffer beyond its own."""
    m = 1000
    label = (np.arange(m)[:, None] != np.arange(m)[None, :]).astype(int)
    gs = hs.canonical_generalized(hs.verify_scheme(hs.RelationPartition(m, 2, label)))
    fam = hs.KernelFamily.from_generalized(gs)
    tracemalloc.start()
    try:
        fam.rows(1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20
    assert kept < 16 * 999_000 + 2 ** 20
