"""The spectral code as it was before the Gram kernel was split into symmetry
blocks and the measure integral became a nested midpoint rule, kept as
oracles for the differential tests in test_spectral_differential.py.

`dense_gram_min_eig` is the old `gram_min_eig`: it fills the n x n kernel
M_uv = P_{d(u,v)}(x) from the ball's distance matrix and asks `eigh` for its
smallest eigenvalue.  `gauss_legendre_integrate` is the old
`ortho_measure_integrate`, Gauss-Legendre after x = cos(theta) with the node
count doubled from 64 until two sums agree.
"""

import numpy as np
import scipy.linalg

from hyperscheme.dtgraph import QuadratureFailure, poly_eval, special_points


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
