"""Clique-tree graph family: coefficients, polynomials, quadrature, balls,
positive definiteness, boundary deformation."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hyperscheme as hs
from hyperscheme import dtgraph
from hyperscheme.cli import main
from reference_ball import ball_words, bfs_distances, word_distance

P22 = hs.DTParams(2, 2)
P32 = hs.DTParams(3, 2)
P24 = hs.DTParams(2, 4)


def test_params_validated():
    with pytest.raises(hs.DomainError):
        hs.DTParams(1, 3)


def test_g_coeff_oracles():
    assert hs.g_coeffs(1, 1, P32) == {0: Fraction(1, 3), 2: Fraction(2, 3)}
    assert hs.g_coeffs(0, 5, P24) == {5: Fraction(1)}
    assert hs.g_coeffs(1, 1, P22) == {0: Fraction(1, 2), 2: Fraction(1, 2)}


def test_g_coeff_mass_and_sign():
    for a in range(2, 7):
        for b in range(2, 7):
            params = hs.DTParams(a, b)
            for m in range(0, 12):
                for n in range(0, 12):
                    g = hs.g_coeffs(m, n, params)
                    assert sum(g.values()) == 1
                    assert all(v > 0 for v in g.values())
                    assert min(g) == abs(m - n) and max(g) == m + n


def test_g_associativity_exact():
    hg = hs.PolyHypergroup(P32)
    hg24 = hs.PolyHypergroup(P24)
    for h in (hg, hg24):
        for m in range(7):
            for n in range(7):
                for l in range(7):
                    lhs = h.convolve(h.convolve({m: Fraction(1)},
                                                {n: Fraction(1)}),
                                     {l: Fraction(1)})
                    rhs = h.convolve({m: Fraction(1)},
                                     h.convolve({n: Fraction(1)},
                                                {l: Fraction(1)}))
                    assert lhs == rhs


def test_special_point_oracles():
    assert hs.special_points(P22) == (-1.0, 1.0)
    s0, s1 = hs.special_points(P32)
    assert s0 == pytest.approx(-3 / (2 * math.sqrt(2)))
    assert s1 == pytest.approx(3 / (2 * math.sqrt(2)))
    s0, s1 = hs.special_points(P24)
    assert s0 == pytest.approx(-4 / (2 * math.sqrt(3)))
    assert s1 == pytest.approx(4 / (2 * math.sqrt(3)))


def test_poly_special_values():
    for params in (P22, P32, P24, hs.DTParams(5, 3)):
        s0, s1 = hs.special_points(params)
        for n in range(31):
            assert hs.poly_eval(n, s1, params) == pytest.approx(1.0, abs=1e-9)
            assert hs.poly_eval(n, s0, params) == pytest.approx(
                (1 - params.b) ** (-n), abs=1e-9)


def test_chebyshev_case():
    for n in range(11):
        for theta in (0.0, math.pi / 3, math.pi / 2):
            assert hs.poly_eval(n, math.cos(theta), P22) == pytest.approx(
                math.cos(n * theta), abs=1e-10)


def test_closed_form_matches_recurrence():
    for params in (P22, P32, P24):
        for z in (0.3 + 0.5j, 1.7, -2.3, 0.9j,
                  complex(math.cos(1.0), math.sin(1.0))):
            x = (z + 1 / z) / 2
            for n in range(41):
                v1 = hs.closed_form_eval(n, z, params)
                v2 = hs.poly_eval(n, x, params)
                assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v2))


def test_closed_form_domain():
    with pytest.raises(hs.DomainError):
        hs.closed_form_eval(3, 1.0, P32)


def test_poly_bounded_on_dual_interval():
    for params in (P32, P24):
        _, s1 = hs.special_points(params)
        for x in np.linspace(-s1, s1, 15):
            for n in range(25):
                assert abs(hs.poly_eval(n, x, params)) <= 1.0 + 1e-9


def test_poly_values_are_the_recurrence_values():
    """One pass gives what poly_eval gives for each n, bit for bit, also
    where the values overflow to inf and then NaN."""
    for params in (P32, P24):
        for x in (-0.7, 0.5, 1.3, 1e200):
            values = hs.poly_values(40, x, params)
            assert values.dtype == np.float64
            want = [hs.poly_eval(n, x, params) for n in range(41)]
            assert np.array_equal(values, want, equal_nan=True)


def test_poly_values_of_an_array_are_its_entries_values():
    """Row k of poly_values at an array x is P_k at each entry of x, bit for
    bit the scalar call's value."""
    x = np.array([[-0.7, 0.5, 1.3], [1e200, 0.0, -1.0]])
    for params in (P32, P24):
        with np.errstate(over="ignore", invalid="ignore"):
            values = hs.poly_values(40, x, params)
        assert values.shape == (41, *x.shape) and values.dtype == np.float64
        for idx in np.ndindex(x.shape):
            assert np.array_equal(values[(slice(None), *idx)],
                                  hs.poly_values(40, float(x[idx]), params), equal_nan=True)


def test_each_polynomial_sequence_is_evaluated_once(monkeypatch):
    """A deformed exact walk of t steps reads alpha0 up to 2t (the rescaled
    recurrence of its alpha0 row), and dtgraph --x reads P_0..P_R: both cost
    a number of recurrence steps linear in that length, not its square."""
    steps = []

    def counted(x, params):
        p1, step = recurrence(x, params)
        return p1, lambda prev, cur: steps.append(prev) or step(prev, cur)

    recurrence = dtgraph._recurrence
    monkeypatch.setattr(dtgraph, "_recurrence", counted)
    assert main(["walk", "--dtgraph", "3,2,3,0.1", "--mu", "1:1/3,2:2/3",
                 "--steps", "200", "--exact"]) == 0
    assert 2 * 200 < len(steps) <= 4 * (2 * 200 + 1)
    steps.clear()
    assert main(["dtgraph", "--a", "3", "--b", "2", "--x", "0.5",
                 "--radius", "500"]) == 0
    assert len(steps) == 500 - 1        # P_2 .. P_500


def test_product_formula():
    for params in (P32, P24):
        s0, s1 = hs.special_points(params)
        for x in np.linspace(s0, s1, 7):
            for m in range(0, 21, 4):
                for n in range(0, 21, 4):
                    assert hs.product_formula_residual(m, n, x, params) <= 1e-8
    assert hs.product_formula_residual(1, 1, 0.37, P32) <= 1e-12
    s0_24 = hs.special_points(P24)[0]
    assert hs.product_formula_residual(10, 10, s0_24, P24) <= 1e-8


def test_ortho_measure_mass():
    for params in (P22, P32, P24):
        mass = hs.ortho_measure_integrate(lambda x: np.ones_like(x), params)
        assert mass == pytest.approx(1.0, abs=1e-7)


def test_ortho_measure_norms():
    def pp(m, n, params):
        return hs.ortho_measure_integrate(
            lambda x: hs.poly_eval(m, x, params)
            * hs.poly_eval(n, x, params), params)

    assert pp(1, 1, P22) == pytest.approx(0.5, abs=1e-6)
    assert pp(0, 1, P24) == pytest.approx(0.0, abs=1e-6)  # needs the atom
    for params in (P32, P24):
        for m in range(0, 7):
            for n in range(m, 7):
                want = 1.0 / hs.haar_weight(n, params) if m == n else 0.0
                assert pp(m, n, params) == pytest.approx(want, abs=1e-6)


def test_ball_shapes():
    ball = hs.build_ball(P32, 2)
    assert ball.n == 10
    assert ball.sphere_sizes() == [1, 3, 6]
    ball = hs.build_ball(hs.DTParams(2, 3), 1)
    assert ball.n == 5
    assert ball.sphere_sizes() == [1, 4]
    assert hs.build_ball(P32, 0).n == 1


def test_ball_sphere_invariant():
    for params in (P32, P24):
        ball = hs.build_ball(params, 4)
        sizes = ball.sphere_sizes()
        for h in range(1, 5):
            assert sizes[h] == hs.haar_weight(h, params)


@pytest.mark.parametrize("params", [P22, P32, P24, hs.DTParams(2, 3), hs.DTParams(3, 3),
                                    hs.DTParams(5, 4)])
def test_ball_size_closed_form_is_the_sum_of_the_spheres(params):
    for R in range(51):
        assert dtgraph.ball_size(params, R) == 1 + sum(
            hs.haar_weight(h, params) for h in range(1, R + 1))


@pytest.mark.parametrize("params, R, count", [
    (P32, 63, "27670116110564327422"), (P32, 64, "more than 200000"),
    (P22, 100_000, "200001"), (P22, 100_001, "more than 200000"),
    (P32, 10 ** 5, "more than 200000"), (hs.DTParams(99, 99), 10 ** 9, "more than 200000")])
def test_ball_cap_refuses_a_huge_radius_at_once(params, R, count):
    """Past the radius where every ball is over the cap, the refusal says so
    without the ball's size, whose integer would take time to build and
    could not be printed."""
    start = time.perf_counter()
    with pytest.raises(hs.BallTooLarge, match=f"^ball has {count} vertices, cap is 200000$"):
        hs.build_ball(params, R)
    assert time.perf_counter() - start < 0.1


def test_ball_cap():
    """(3, 2, 17) has 393 214 vertices, past BALL_CAP: refused before any
    of its arrays is allocated."""
    assert hs.dtgraph.ball_size(P32, 17) == 393_214 > hs.dtgraph.BALL_CAP
    tracemalloc.start()
    try:
        with pytest.raises(hs.BallTooLarge, match="393214 vertices"):
            hs.build_ball(P32, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_sphere_kernels_refuse_beyond_physical_memory():
    """(3, 2, 16) passes the vertex cap, but one dense kernel on 196 606
    vertices needs about 288 GiB: the first read of a kernel of either
    builder refuses before the kernel or the sphere pairs are allocated,
    and the distance matrix is never built."""
    ball = hs.build_ball(P32, 16)
    fam = hs.KernelFamily.from_ball(ball)
    dk = hs.deform_ball_kernels(ball, hs.BoundaryRay(ball), 0.0)
    for kernels in (fam.matrices, dk.kernels):
        tracemalloc.start()
        try:
            with pytest.raises(hs.BallTooLarge, match="^1 dense 196606 x 196606 "):
                kernels[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
    assert ball._dist is None


def test_family_membership_reads_the_label_range():
    """h in a family is h in its label range: on (3, 2, 16), where one dense
    kernel would need about 288 GiB, it builds and refuses nothing."""
    fam = hs.KernelFamily.from_ball(hs.build_ball(P32, 16))
    assert 1 in fam and 16 in fam and 17 not in fam and -1 not in fam
    assert not fam._rows and not fam._dense


def test_deformed_row_sums_scatter_rows_in_blocks():
    """The first read of max_row_sum_error on the (3, 2, 8) ball (n = 766)
    scatters the leading rows of each K_h in blocks of at most 256 KiB, so
    its peak, the kernel rows it builds included, stays below 1 MiB (2.3
    MiB when the 382 leading rows of K_1 were scattered at once).  On
    (3, 2, 16) the memory guard refuses it, as it refuses one dense kernel,
    before any kernel row is built."""
    ball = hs.build_ball(P32, 8)
    dk = hs.deform_ball_kernels(ball, hs.BoundaryRay(ball), 0.3)
    tracemalloc.start()
    try:
        error = dk.max_row_sum_error
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error <= 1e-12
    assert peak < 2 ** 20
    ball = hs.build_ball(P32, 16)
    dk = hs.deform_ball_kernels(ball, hs.BoundaryRay(ball), 0.3)
    with pytest.raises(hs.BallTooLarge, match="^1 dense 196606 x 196606 "):
        dk.max_row_sum_error
    assert not dk.kernels._rows


def test_ball_memory_guard_counts_the_kernels_built(monkeypatch):
    """The guard counts the dense kernels that reads of matrices hold, and
    nothing a walk reads: with memory for two dense kernels, a walk that
    steps with K_1 runs and holds none, two kernels may then be read and the
    third is refused; with memory for less than one, the walk still runs,
    from the library and from the CLI, and a dense read is refused."""
    ball = hs.build_ball(P32, 3)
    monkeypatch.setattr(dtgraph, "_physical_memory", lambda: 2 * ball.n ** 2 * 8)
    fam = hs.KernelFamily.from_ball(ball)
    walk = hs.simulate_walk(fam, hs.StepDistribution({1: 1}), steps=2, trials=100,
                            seed=0)
    assert sum(walk.empirical.values()) == pytest.approx(1.0)
    assert np.array_equal(fam.matrices[0], np.eye(ball.n))
    assert fam.matrices[1].any()
    with pytest.raises(hs.BallTooLarge, match=f"^3 dense {ball.n} x {ball.n} "):
        fam.matrices[2]
    assert main(["walk", "--dtgraph", "3,2,3", "--mu", "1:1", "--steps", "2",
                 "--trials", "20000", "--seed", "0"]) == 0
    monkeypatch.setattr(dtgraph, "_physical_memory", lambda: ball.n ** 2 * 8 - 1)
    fam = hs.KernelFamily.from_ball(ball)
    hs.simulate_walk(fam, hs.StepDistribution({1: 1}), steps=2, trials=100, seed=0)
    with pytest.raises(hs.BallTooLarge, match=f"^1 dense {ball.n} x {ball.n} "):
        fam.matrices[1]
    assert main(["walk", "--dtgraph", "3,2,3", "--mu", "1:1", "--steps", "2",
                 "--trials", "20000", "--seed", "0"]) == 0


def test_generalized_memory_guard_refuses_dense_reads(monkeypatch):
    """Every family runs the one dense-read guard: with memory for less than
    one dense kernel, reading S_1 of the canonical 12-cycle family is
    refused before any row of it is built, and a walk, which reads rows
    alone, still runs."""
    x = np.arange(12)
    dist = np.abs(x[:, None] - x[None, :])
    gs = hs.canonical_generalized(hs.verify_scheme(
        hs.RelationPartition(12, 7, np.minimum(dist, 12 - dist))))
    monkeypatch.setattr(dtgraph, "_physical_memory", lambda: 12 * 12 * 8 - 1)
    fam = hs.KernelFamily.from_generalized(gs)
    with pytest.raises(hs.BallTooLarge, match="^1 dense 12 x 12 kernels "):
        fam[1]
    assert not fam._rows and not fam._dense
    walk = hs.simulate_walk(fam, hs.StepDistribution({1: 1}), steps=3, trials=100,
                            seed=0)
    assert sum(walk.empirical.values()) == pytest.approx(1.0)


def test_metric_matches_bfs():
    for params, R in ((P32, 4), (P24, 3)):
        ball = hs.build_ball(params, R)
        D = ball.dist_matrix
        for start in range(ball.n):
            assert np.array_equal(bfs_distances(D == 1, start), D[start])


@pytest.mark.parametrize("a,b,R", [(2, 2, 6), (3, 2, 5), (2, 3, 5),
                                   (3, 3, 4), (4, 3, 3), (4, 2, 4)])
def test_dist_matrix_matches_word_distance(a, b, R):
    """The prefix-id matrix equals the pairwise word distance: b = 2 trees
    and b >= 3 clique trees, with a = 2 and a >= 3."""
    ball = hs.build_ball(hs.DTParams(a, b), R)
    D = ball.dist_matrix
    words = ball_words(ball.params, R)
    pairwise = np.array([[word_distance(u, v) for v in words] for u in words],
                        dtype=np.int32)
    assert D.dtype == np.int32
    assert np.array_equal(D, pairwise)


def test_gram_inside_interval():
    for params in (P32, P24):
        ball = hs.build_ball(params, 4)
        s0, s1 = hs.special_points(params)
        assert hs.gram_min_eig(s1, ball) >= -1e-8
        for x in (s0, 0.0, 1.0):
            assert hs.gram_min_eig(x, ball) >= -1e-8


def test_gram_outside_interval_regression():
    """Outside [s0, s1] positive definiteness already fails at radius 1
    (empirical onset, frozen as a regression value)."""
    for params in (P32, P24):
        _, s1 = hs.special_points(params)
        ball = hs.build_ball(params, 1)
        assert hs.gram_min_eig(s1 + 0.2, ball) < -1e-6


def test_boundary_distance_tree():
    ball = hs.build_ball(P32, 4)
    ray = hs.BoundaryRay(ball)
    assert ray.horocycle[ball.root] == 0
    for k in range(1, 5):
        assert ray.horocycle[ball.find(((1, 1),) * k)] == -k
    # neighbors of the root off the ray's first clique sit one level out
    assert ray.horocycle[ball.find(((2, 1),))] == 1
    assert ray.horocycle[ball.find(((3, 1),))] == 1
    # horocycle index is 1-Lipschitz along edges
    adj = ball.dist_matrix == 1
    hh = ray.horocycle
    for i, j in zip(*np.nonzero(adj)):
        assert abs(hh[i] - hh[j]) <= 1


def test_boundary_distance_nonunique_for_wide_cliques():
    ball = hs.build_ball(hs.DTParams(2, 3), 2)
    with pytest.raises(hs.NonUniqueMinimizer):
        hs.BoundaryRay(ball)


def test_deformation_point():
    s0, s1 = hs.special_points(P32)
    assert hs.deformation_point(0.0, P32) == pytest.approx(s1)
    c_star = -0.5 * math.log(2)
    assert hs.deformation_point(c_star, P32) == pytest.approx(1.0)


def test_out_of_range_deformation_is_a_domain_error():
    """Each place that forms e^{+-c ...} refuses a c whose exponential is not
    a finite nonzero double, and returns finite values up to that edge."""
    ball = hs.build_ball(P32, 3)
    ray = hs.BoundaryRay(ball)
    for c in (800.0, -800.0, 1e308, float("nan")):
        for call in (lambda: hs.deformation_point(c, P32),
                     lambda: hs.pushforward_vs_haar(P32, c),
                     lambda: hs.deform_ball_kernels(ball, ray, c)):
            with pytest.raises(hs.DomainError):
                call()
    # x_c = cosh(300.3) is finite, the tilt e^{300 * 6} across the ball is not
    assert math.isfinite(hs.deformation_point(300.0, P32))
    with pytest.raises(hs.DomainError):
        hs.deform_ball_kernels(ball, ray, 300.0)
    assert math.isfinite(hs.deformation_point(709.0, P32))
    assert all(math.isfinite(v) for v in hs.pushforward_vs_haar(P32, 150.0))
    assert math.isfinite(hs.deform_ball_kernels(ball, ray, 100.0).max_row_sum_error)


def test_domain_errors_name_the_fault():
    ball = hs.build_ball(P32, 3)
    deformed = hs.PolyHypergroup(P32).deform(1.5)
    dk = hs.deform_ball_kernels(ball, hs.BoundaryRay(ball), 0.3)
    for call, message in ((lambda: hs.poly_eval(-1, 0.5, P32), "n must be nonnegative"),
                          (lambda: deformed.deform(1.5), "already deformed"),
                          (lambda: dk.composition_residual(2, 2),
                           "i + j exceeds the ball radius")):
        with pytest.raises(hs.DomainError) as exc:
            call()
        assert str(exc.value) == message


def test_eigenvalue_identity_rowsums():
    ball = hs.build_ball(P32, 6)
    ray = hs.BoundaryRay(ball)
    for c in (0.0, 0.3, -0.5 * math.log(2), -1.1):
        dk = hs.deform_ball_kernels(ball, ray, c)
        assert dk.max_row_sum_error <= 1e-12
        if c == 0.0:
            # uniform sphere kernels
            D = ball.dist_matrix
            for h in range(1, 4):
                rows = dk.valid[h]
                uniform = (D == h) / hs.haar_weight(h, P32)
                assert np.abs(dk.kernels[h][rows] - uniform[rows]).max() < 1e-12


def test_deformed_composition():
    ball = hs.build_ball(P32, 6)
    ray = hs.BoundaryRay(ball)
    for c in (0.3, -0.5 * math.log(2)):
        dk = hs.deform_ball_kernels(ball, ray, c)
        for i in range(1, 4):
            for j in range(1, 4):
                assert dk.composition_residual(i, j) <= 1e-10


def test_deformed_eigenvalue_closed_form():
    """The geometric-sum eigenvalue alpha(h,a,b,c) equals P_h(x_c)."""
    for params in (P32, P24, hs.DTParams(4, 3)):
        a, b = params.a, params.b
        for c in (0.25, -0.4):
            x_c = hs.deformation_point(c, params)
            for h in range(1, 16):
                total = math.exp(-c * h) + (a - 1) ** h * (b - 1) ** h \
                    * math.exp(c * h)
                total += (b - 2) * math.exp(-c * h) * sum(
                    ((a - 1) * (b - 1)) ** k * math.exp((2 * k + 1) * c)
                    for k in range(h))
                total += (a - 2) * (b - 1) * math.exp(-c * h) * sum(
                    ((a - 1) * (b - 1)) ** k * math.exp((2 * k + 2) * c)
                    for k in range(h - 1))
                alpha = total / (a * (a - 1) ** (h - 1) * (b - 1) ** h)
                assert alpha == pytest.approx(hs.poly_eval(h, x_c, params),
                                              rel=1e-10)


def test_deformed_hypergroup_haar():
    """Deformed Haar weights are alpha0^2 times the undeformed ones."""
    hg = hs.PolyHypergroup(P32)
    x_c = hs.deformation_point(0.3, P32)
    dhg = hg.deform(x_c)
    for n in range(6):
        assert dhg.haar(n) == pytest.approx(
            dhg.alpha0(n) ** 2 * hg.haar(n), rel=1e-12)
        g = dhg.g(n, n)
        assert sum(g.values()) == pytest.approx(1.0, abs=1e-12)
        assert dhg.haar(n) == pytest.approx(
            1.0 / dhg.g(n, n)[0] if n else 1.0, rel=1e-10)


def test_pushforward_vs_haar():
    pf1, haar1 = hs.pushforward_vs_haar(P32, 0.0)
    assert pf1 == pytest.approx(3.0, abs=1e-12)
    assert haar1 == pytest.approx(3.0, abs=1e-12)
    pf1, haar1 = hs.pushforward_vs_haar(P32, 0.3)
    assert pf1 == pytest.approx(math.exp(-0.6) + 2 * math.exp(0.6), abs=1e-10)
    assert haar1 == pytest.approx(
        (2 * math.exp(0.6) + 1) ** 2 / (3 * math.exp(0.6)), abs=1e-10)
    assert abs(pf1 - haar1) > 1e-3
    pf1, haar1 = hs.pushforward_vs_haar(hs.DTParams(2, 2), 0.5)
    assert pf1 == pytest.approx(math.exp(-1) + math.exp(1), abs=1e-10)
    assert haar1 == pytest.approx((math.e + 1) ** 2 / (2 * math.e), abs=1e-10)
    with pytest.raises(hs.UnsupportedParams):
        hs.pushforward_vs_haar(P24, 0.1)
