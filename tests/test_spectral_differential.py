"""Differential tests of the symmetry-block Gram spectrum and the nested
midpoint quadrature against the code they replaced
(tests/reference_spectral.py): the dense Gram spectrum, Gauss-Legendre, and
the midpoint rule before its nodes were cached, which the library must equal
bit for bit; plus a Golub-Welsch cross-check of the
orthogonality measure built from the three-term recurrence alone.

The Gram oracle runs on every ball of Graph(a, b) with a, b in {2, 3, 4} and
at most 3000 vertices; the path graph (2, 2) grows linearly, so it runs on a
spread of radii up to 500 instead."""

import contextlib
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import hyperscheme as hs
from hyperscheme.dtgraph import ball_size
from hyperscheme import cli
from reference_spectral import (dense_gram_min_eig, gauss_legendre_integrate,
                                nested_midpoint_integrate)

MAX_VERTICES = 3000
PATH_RADII = (0, 1, 2, 3, 5, 8, 13, 30, 60, 120, 250, 500)
GRID = [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]


def _cases():
    for a, b in GRID:
        if (a, b) == (2, 2):
            yield from ((2, 2, R) for R in PATH_RADII)
            continue
        R = 0
        while ball_size(hs.DTParams(a, b), R) <= MAX_VERTICES:
            yield a, b, R
            R += 1


CASES = list(_cases())


def _xs(params):
    """Ten points: s0, s1, the midpoint, 0.1, two more inside, and points
    just and 0.3 outside on either side."""
    s0, s1 = hs.special_points(params)
    w = s1 - s0
    return [s0, s1, (s0 + s1) / 2, 0.1, s0 + 0.2 * w, s1 - 0.1 * w,
            s0 - 0.3, s1 + 0.3, s0 - 0.01, s1 + 0.01]


@pytest.mark.parametrize("a,b,R", CASES, ids=[f"{a}-{b}-{R}" for a, b, R in CASES])
def test_gram_min_eig_matches_dense(a, b, R):
    """Within 1e-10 max(1, |dense|), or both give up where P_{2R}(x)
    leaves double range (only (2, 2) at R = 500, 0.3 outside)."""
    params = hs.DTParams(a, b)
    ball = hs.build_ball(params, R)
    for x in _xs(params):
        try:
            old = dense_gram_min_eig(x, ball)
        except ValueError:  # eigh refuses a kernel with inf or NaN entries
            with pytest.raises(hs.DomainError):
                hs.gram_min_eig(x, ball)
            continue
        new = hs.gram_min_eig(x, ball)
        assert abs(new - old) <= 1e-10 * max(1.0, abs(old)), (x, new, old)


@pytest.mark.parametrize("a,b", GRID)
def test_gram_blocks_count_every_vertex(a, b):
    """sum(multiplicity * block size) = n, at most 2R + 1 blocks, all
    symmetric, far past the vertex cap."""
    params = hs.DTParams(a, b)
    for R in range(0, 41):
        blocks = hs.gram_blocks(0.2, params, R)
        assert sum(m * B.shape[0] for m, B in blocks) == ball_size(params, R)
        assert len(blocks) <= 2 * R + 1
        assert all(np.array_equal(B, B.T) for _, B in blocks)


@pytest.mark.parametrize("a,b,R", [(2, 2, 6), (3, 2, 5), (2, 3, 4), (4, 2, 3),
                                   (3, 3, 3), (4, 4, 2), (3, 4, 2), (2, 4, 3)])
def test_gram_block_spectrum_is_dense_spectrum(a, b, R):
    """The block spectra, counted with multiplicity, are the whole dense
    spectrum, not only its minimum."""
    params = hs.DTParams(a, b)
    ball = hs.build_ball(params, R)
    s0, s1 = hs.special_points(params)
    for x in (s0, 0.37, s1 + 0.2):
        D = ball.dist_matrix
        pvals = np.array([hs.poly_eval(h, x, params) for h in range(int(D.max()) + 1)])
        dense = np.linalg.eigvalsh(pvals[D])
        blocks = np.sort(np.concatenate(
            [np.repeat(np.linalg.eigvalsh(B), m) for m, B in hs.gram_blocks(x, params, R)]))
        assert np.abs(blocks - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())


@pytest.mark.parametrize("a,b", GRID)
def test_gram_min_eig_is_min_over_all_blocks(a, b):
    """Interlacing: the deeper blocks never go below the depth-0 ones, so
    solving the radial and depth-0 blocks alone gives the minimum."""
    params = hs.DTParams(a, b)
    s0, s1 = hs.special_points(params)
    R = 6
    for x in (s0 - 0.2, s0, 0.0, 0.5, s1, s1 + 0.2):
        every = min(np.linalg.eigvalsh(B)[0] for _, B in hs.gram_blocks(x, params, R))
        ball = SimpleNamespace(params=params, radius=R)
        assert hs.gram_min_eig(x, ball) == pytest.approx(every, rel=1e-12, abs=1e-12)


def test_gram_min_eig_reads_only_params_and_radius():
    """No vertex arrays and no distance matrix: a stand-in with params and
    radius gives the ball's value, and a ball never fills dist_matrix."""
    params = hs.DTParams(3, 2)
    ball = hs.build_ball(params, 8)
    stand_in = SimpleNamespace(params=params, radius=8)
    assert hs.gram_min_eig(0.4, stand_in) == hs.gram_min_eig(0.4, ball)
    assert ball._dist is None


def test_gram_overflow_is_a_domain_error():
    """Far outside [s0, s1] at a large radius the blocks leave double range:
    DomainError, never inf or NaN."""
    ball = SimpleNamespace(params=hs.DTParams(4, 4), radius=400)
    with pytest.raises(hs.DomainError):
        hs.gram_min_eig(3.0, ball)
    with pytest.raises(hs.DomainError):
        hs.gram_min_eig(float("nan"), hs.build_ball(hs.DTParams(3, 2), 2))


def _poly_pair(m, n, params):
    return lambda x: hs.poly_eval(m, x, params) * hs.poly_eval(n, x, params)


@pytest.mark.parametrize("a,b", GRID)
def test_quadrature_matches_gauss_legendre(a, b):
    """The nested midpoint rule agrees with the old Gauss-Legendre rule to
    1e-12 on <P_m, P_n> for m <= n <= 6, and both give delta_mn / w_n."""
    params = hs.DTParams(a, b)
    for m in range(7):
        for n in range(m, 7):
            new = hs.ortho_measure_integrate(_poly_pair(m, n, params), params)
            old = gauss_legendre_integrate(_poly_pair(m, n, params), params)
            assert abs(new - old) <= 1e-12, (m, n, new, old)
            want = 1.0 / hs.haar_weight(n, params) if m == n else 0.0
            assert abs(new - want) <= 1e-13, (m, n, new, want)


def _counted(f):
    """(f with a log of the sizes of its calls, the log)."""
    seen = []

    def g(x):
        seen.append(np.size(x))
        return f(x)

    return g, seen


def test_quadrature_reuses_nodes():
    """f is called on read-only arrays, and only at new nodes: 27 + 54 in the
    first call, then 2n per tripling of n, so the points it sees add up to
    the final node count 27 * 3^k (no atom for a >= b)."""
    params = hs.DTParams(3, 2)
    seen = []

    def f(x):
        assert not x.flags.writeable
        seen.append(np.size(x))
        return np.exp(x)

    hs.ortho_measure_integrate(f, params)
    assert len(seen) >= 2
    assert seen == [81] + [162 * 3 ** i for i in range(len(seen) - 1)]
    assert sum(seen) == 27 * 3 ** len(seen)


ORACLE_INTEGRANDS = {"exp": np.exp, "1/(3-x)": lambda x: 1.0 / (3.0 - x),
                     "cos 4x": lambda x: np.cos(4 * x), "1": lambda x: np.ones_like(x)}


@pytest.mark.parametrize("a,b", GRID)
def test_quadrature_equals_nested_midpoint_oracle(a, b):
    """Cached nodes and a first call on 81 nodes change no bit: the library
    equals the uncached rule with ==, and f sees as many points in all."""
    params = hs.DTParams(a, b)
    fs = {**{f"P{m}P{n}": _poly_pair(m, n, params) for m in range(7) for n in range(m, 7)},
          **ORACLE_INTEGRANDS}
    for name, f in fs.items():
        new_f, new_seen = _counted(f)
        old_f, old_seen = _counted(f)
        new, old = hs.ortho_measure_integrate(new_f, params), nested_midpoint_integrate(old_f, params)
        assert new == old, (name, new, old)
        assert sum(new_seen) == sum(old_seen), (name, new_seen, old_seen)


@pytest.mark.parametrize("a,b", GRID)
def test_vector_integrand_equals_its_scalar_calls(a, b):
    """An array-valued f gives one integral per entry, each from the round
    where that entry converged: here P_1^2 converges rounds before cos 200x,
    and each entry equals its own scalar call."""
    params = hs.DTParams(a, b)
    entries = [lambda x: hs.poly_eval(1, x, params) ** 2, lambda x: np.cos(200 * x)]
    vals = hs.ortho_measure_integrate(lambda x: np.array([g(x) for g in entries]), params)
    assert vals.shape == (2,)
    calls = []
    for g, val in zip(entries, vals):
        counted, seen = _counted(g)
        assert val == hs.ortho_measure_integrate(counted, params)
        calls.append(len(seen) - (b > a))     # the atom at s0 is one call more
    assert calls[0] < calls[1]


@pytest.mark.parametrize("a,b", GRID)
def test_cli_ortho_report_equals_pairwise_oracle(a, b):
    """`dtgraph --report ortho` integrates its 36 products in one call and
    reports the error of the 36 separate oracle integrals, bit for bit."""
    params = hs.DTParams(a, b)
    want = max(abs(nested_midpoint_integrate(_poly_pair(m, n, params), params)
                   - (1.0 / hs.haar_weight(n, params) if m == n else 0.0))
               for m in range(6) for n in range(6))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["dtgraph", "--a", str(a), "--b", str(b), "--report", "ortho",
                         "--json"]) == 0
    assert json.loads(out.getvalue())["results"]["max_orthogonality_error"] == want


def test_non_finite_integrand_fails_at_once():
    """np.log is NaN on half the nodes: the first call's sum is NaN and
    raises at once, where the rule used to run out to its node cap."""
    log, seen = _counted(np.log)
    with np.errstate(invalid="ignore"), \
            pytest.raises(hs.QuadratureFailure, match="^integrand sum on the first 81 nodes is nan$"):
        hs.ortho_measure_integrate(log, hs.DTParams(3, 2))
    assert seen == [81]


def test_any_non_finite_entry_fails():
    with np.errstate(divide="ignore"), \
            pytest.raises(hs.QuadratureFailure, match="^integrand sum on the first 81 nodes is inf$"):
        hs.ortho_measure_integrate(lambda x: np.array([x, 1.0 / (x - x), x * x]),
                                   hs.DTParams(3, 2))


def test_non_finite_atom_fails():
    """sqrt(x + 1) is finite on [-1, 1] but NaN at the atom s0 < -1 of
    Gamma(2, 3), which used to make the integral NaN."""
    with np.errstate(invalid="ignore"), \
            pytest.raises(hs.QuadratureFailure, match="^integrand value at the atom s0 is nan$"):
        hs.ortho_measure_integrate(lambda x: np.sqrt(x + 1), hs.DTParams(2, 3))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_python_float_at_the_atom_fails(value):
    """An integrand that returns a Python float for the scalar s0 (as
    poly_eval-built ones do) is refused the same way."""
    def f(x):
        return value if np.ndim(x) == 0 else np.ones_like(x)

    with pytest.raises(hs.QuadratureFailure,
                       match=f"^integrand value at the atom s0 is {value}$"):
        hs.ortho_measure_integrate(f, hs.DTParams(2, 3))


def test_quadrature_jump_fails_at_the_default_cap():
    with pytest.raises(hs.QuadratureFailure):
        hs.ortho_measure_integrate(lambda x: np.sign(x - 0.3), hs.DTParams(3, 2))


def golub_welsch(params, N: int):
    """The N-point Gauss rule of the orthogonality measure from its Jacobi
    matrix (Golub & Welsch 1969).  With P_1 = alpha x + beta the recurrence
    reads alpha x P_k = P_{k-1}/(a(b-1)) + ((a-1)/a) P_{k+1} for k >= 1 and
    alpha x P_0 = P_1 - beta; the measure has mass 1."""
    a, b = params.a, params.b
    alpha = (2.0 / a) * math.sqrt((a - 1) / (b - 1))
    beta = (b - 2) / (a * (b - 1))
    diag = np.zeros(N)
    diag[0] = -beta / alpha
    up = np.full(N - 1, (a - 1) / a)
    up[0] = 1.0
    off = np.sqrt(up / (a * (b - 1))) / alpha
    nodes, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
    return nodes, vecs[0] ** 2


@pytest.mark.parametrize("a,b", GRID)
def test_quadrature_matches_golub_welsch(a, b):
    """Non-polynomial integrands against a rule that knows only the
    recurrence: tests the closed-form density and the atom at s0."""
    params = hs.DTParams(a, b)
    nodes, weights = golub_welsch(params, 60)
    for f in (np.exp, lambda x: 1.0 / (3.0 - x), lambda x: np.cos(4 * x)):
        want = float(weights @ f(nodes))
        assert abs(hs.ortho_measure_integrate(f, params) - want) <= 1e-12
