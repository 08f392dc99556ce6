"""The spectral code as it was before the Gram kernel was split into symmetry
blocks and the measure integral became a nested midpoint rule, kept as
oracles for the differential tests in test_spectral_differential.py.

`dense_gram_min_eig` is the old `gram_min_eig`: it fills the n x n kernel
M_uv = P_{d(u,v)}(x) from the ball's distance matrix and asks `eigh` for its
smallest eigenvalue.  `gauss_legendre_integrate` is the first
`ortho_measure_integrate`, Gauss-Legendre after x = cos(theta) with the node
count doubled from 64 until two sums agree.  `nested_midpoint_integrate` is
the nested midpoint rule before its nodes were cached: f called once for the
27 starting nodes and once per tripling, on scalar integrands only, cos and
sin recomputed on every call, and a non-finite sum run out to the node cap.
"""

import numpy as np
import scipy.linalg

from hyperscheme.dtgraph import (QUAD_MAX_NODES, QUAD_TOL, QuadratureFailure, poly_eval,
                                 special_points)


def dense_gram_min_eig(x: float, ball) -> float:
    """Minimum eigenvalue of the kernel matrix M_{uv} = P_{d(u,v)}(x)."""
    D = ball.dist_matrix
    pvals = np.array([poly_eval(h, x, ball.params)
                      for h in range(int(D.max()) + 1)])
    M = pvals[D]
    return float(scipy.linalg.eigh(M, eigvals_only=True,
                                   subset_by_index=[0, 0])[0])


def gauss_legendre_integrate(f, params, tol: float = 1e-10,
                             max_nodes: int = 1 << 14) -> float:
    """Integral of f against the normalized orthogonality measure: the
    density (a/2pi) sqrt(1-x^2)/((s1-x)(x-s0)) on [-1, 1] by Gauss-Legendre
    in theta, plus the atom (b-a)/b at s0 when b > a."""
    a, b = params.a, params.b
    s0, s1 = special_points(params)

    def integrand(theta):
        x = np.cos(theta)
        return f(x) * (a / (2 * np.pi)) * np.sin(theta) ** 2 / ((s1 - x) * (x - s0))

    prev = None
    n = 64
    while n <= max_nodes:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        theta = (nodes + 1) * (np.pi / 2)
        val = float(np.sum(weights * integrand(theta)) * (np.pi / 2))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            if b > a:
                val += (b - a) / b * f(s0)
            return val
        prev = val
        n *= 2
    raise QuadratureFailure(f"no convergence with up to {max_nodes} nodes")


def nested_midpoint_integrate(f, params) -> float:
    """Integral of f against the normalized orthogonality measure.

    Absolutely continuous part (a/2pi) sqrt(1-x^2)/((s1-x)(x-s0)) dx on
    [-1,1], plus an atom of mass (b-a)/b at s0 when b > a.  After
    x = cos(theta) the integrand is analytic and periodic in theta
    (sin^2 theta = (1-x)(1+x) cancels a pole at s0 = -1 or s1 = 1, and the
    others lie off [-1, 1]), so the midpoint rule with nodes
    (i + 1/2) pi / n converges geometrically.  n starts at 27 and triples;
    the old nodes are the middle nodes of the new triples, so each round
    calls f (on an array) only at the 2n new nodes, until two sums agree to
    QUAD_TOL or 3n would pass QUAD_MAX_NODES.
    """
    a, b = params.a, params.b
    s0, s1 = special_points(params)

    def integrand_sum(theta):
        x = np.cos(theta)
        return float(np.sum(f(x) * (a / (2 * np.pi)) * np.sin(theta) ** 2
                            / ((s1 - x) * (x - s0))))

    n = 27
    total = integrand_sum((np.arange(n) + 0.5) * (np.pi / n))
    prev = total * np.pi / n
    while 3 * n <= QUAD_MAX_NODES:
        i = np.arange(n)
        total += integrand_sum(np.concatenate((3 * i + 0.5, 3 * i + 2.5))
                               * (np.pi / (3 * n)))
        n *= 3
        val = total * np.pi / n
        if abs(val - prev) <= QUAD_TOL * max(1.0, abs(val)):
            if b > a:
                val += (b - a) / b * f(s0)
            return val
        prev = val
    raise QuadratureFailure(f"no convergence with up to {QUAD_MAX_NODES} nodes")
