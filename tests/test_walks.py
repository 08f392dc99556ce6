"""Convolution powers, Monte Carlo walks, and the projection property."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hyperscheme as hs
from hyperscheme import walks


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
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(z4_scheme))
    label = z4_scheme.partition.label
    one, two = int(label[0, 1]), int(label[0, 2])
    fam.matrices[two] = fam.matrices[two].copy()
    fam.matrices[two][1] = 0.0
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


def test_simulate_walk_memory_bounded_by_block(k3_scheme):
    """Peak traced memory at 10^6 trials stays within a few blocks of
    uniforms (2 MiB each), below the 32 MiB all trials' uniforms would take."""
    fam = hs.KernelFamily.from_generalized(hs.canonical_generalized(k3_scheme))
    mu = hs.StepDistribution({1: 1})
    tracemalloc.start()
    try:
        walk = hs.simulate_walk(fam, mu, steps=2, trials=10 ** 6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk.trials == 10 ** 6
    assert peak < 12 * 2 ** 20
