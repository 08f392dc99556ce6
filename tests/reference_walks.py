"""The walk code as it was when every walk function read whole dense
kernels, kept as oracles for the differential tests in
test_ball_differential.py.

`check_reachable` scans the full rows of every reachable state at every
step, `row_table` runs `np.nonzero` on a whole kernel, `simulate_walk`
samples from those whole-kernel tables, and `propagate_and_project`
multiplies the point mass at state 0 by the full n x n mu-mixture.
"""

import numpy as np

from hyperscheme.walks import WalkResult, WalkWouldExitBall, _BLOCK_UNIFORMS, _project


def check_reachable(fam, mu, steps):
    used = [fam.matrices[h] for h in fam.support_labels(mu)]
    reach = np.zeros(fam.labels.shape[0], dtype=bool)
    reach[0] = True
    for _ in range(steps):
        nxt = reach.copy()
        for K in used:
            rows = K[reach]
            if not rows.any(axis=1).all():
                raise WalkWouldExitBall("a reachable state lacks a full kernel row")
            nxt |= (rows > 0).any(axis=0)
        reach = nxt


def row_table(K):
    rows, cols = np.nonzero(K)
    cw = np.cumsum(K[rows, cols])
    indptr = np.searchsorted(rows, np.arange(K.shape[0] + 1))
    before = np.concatenate(([0.0], cw))[indptr[:-1]]
    return cols, rows + (cw - before[rows]), indptr


def simulate_walk(fam, mu, steps, trials, seed):
    check_reachable(fam, mu, steps)
    labels = fam.support_labels(mu)
    mu_cum = np.cumsum([float(mu.weights[h]) for h in labels])
    tables = [row_table(fam.matrices[h]) for h in labels]
    counts = np.zeros(fam.labels.shape[0], dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(seed))
    block = max(1, _BLOCK_UNIFORMS // max(1, 2 * steps))
    for lo in range(0, trials, block):
        u = rng.random((min(block, trials - lo), 2 * steps))
        x = np.zeros(u.shape[0], dtype=np.int64)
        for s in range(steps):
            pick = np.searchsorted(mu_cum, u[:, 2 * s])
            np.minimum(pick, len(labels) - 1, out=pick)
            for i, (cols, cum, indptr) in enumerate(tables):
                sel = pick == i
                xs = x[sel]
                p = np.searchsorted(cum, xs + u[sel, 2 * s + 1])
                x[sel] = cols[np.clip(p, indptr[xs], indptr[xs + 1] - 1)]
        counts += np.bincount(x, minlength=counts.size)
    empirical = {x: c / trials for x, c in enumerate(counts.tolist()) if c}
    return WalkResult(empirical=empirical, trials=trials, steps=steps, seed=seed)


def propagate_and_project(fam, mu, steps):
    check_reachable(fam, mu, steps)
    step_matrix = sum(float(m) * fam.matrices[h]
                      for h, m in mu.weights.items() if float(m) > 0)
    dist = np.zeros(fam.labels.shape[0])
    dist[0] = 1.0
    for _ in range(steps):
        dist = dist @ step_matrix
    return _project(fam.labels, dist)
