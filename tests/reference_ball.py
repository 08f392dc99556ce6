"""The ball sphere-kernel builders as they were before `Ball` held depths,
parents and row validity, kept as oracles for the differential tests in
test_ball_differential.py.

`ball_kernels` is the old `KernelFamily.from_ball`: each kernel row is the
indicator of the distance-h sphere divided by its count, so rows whose
sphere leaves the ball hold a partial sphere.  `deformed_kernels` is the old
`deform_ball_kernels`, which zeroes those rows.  Both read vertex depths from
the step-words.
"""

import math

import numpy as np

from hyperscheme.dtgraph import haar_weight, poly_eval


def word_depths(ball) -> np.ndarray:
    return np.array([len(w) for w in ball.vertices])


def ball_kernels(ball):
    """(matrices, valid) of the uniform sphere kernels."""
    D = ball.dist_matrix
    depths = word_depths(ball)
    mats, valid = {}, {}
    for h in range(ball.radius + 1):
        K = (D == h).astype(float)
        sums = K.sum(axis=1, keepdims=True)
        mats[h] = np.divide(K, sums, out=np.zeros_like(K), where=sums > 0)
        valid[h] = depths <= ball.radius - h
    mats[0] = np.eye(ball.n)
    return mats, valid


def deformed_kernels(ball, ray, c: float) -> dict:
    """The boundary-deformed kernels with x_c, valid, skipped and
    max_row_sum_error, as a dict."""
    params = ball.params
    q = math.exp(c) * math.sqrt((params.a - 1) * (params.b - 1))
    x_c = 0.5 * (q + 1.0 / q)
    n, R = ball.n, ball.radius
    D = ball.dist_matrix
    dB = ray.horocycle.astype(float)
    depths = word_depths(ball)
    phi = np.exp(c * dB)

    kernels = {0: np.eye(n)}
    valid = {0: np.ones(n, dtype=bool)}
    skipped = {0: 0}
    worst = 0.0
    for h in range(1, R + 1):
        ok = depths <= R - h
        norm = poly_eval(h, x_c, params) * haar_weight(h, params)
        K = np.where(D == h, np.outer(1.0 / phi, phi) / norm, 0.0)
        K[~ok] = 0.0
        sums = K[ok].sum(axis=1)
        worst = max(worst, float(np.abs(sums - 1.0).max()) if ok.any() else 0.0)
        kernels[h] = K
        valid[h] = ok
        skipped[h] = int((~ok).sum())
    return {"x_c": x_c, "kernels": kernels, "valid": valid, "skipped": skipped,
            "max_row_sum_error": worst}
