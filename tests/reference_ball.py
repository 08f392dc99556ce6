"""The ball code as it was when a `Ball` listed its vertices as step-words,
kept as oracles for the differential tests in test_ball_differential.py.

`ball_words` is the old word enumeration of `build_ball`, `word_distance`
the old graph metric of two words, `bfs_distances` the old breadth-first
search over the edges of the ball, and `ray_scan` the old horocycle index of
`BoundaryRay`, which scans the ray for the nearest index.

`prefix_dist_matrix` is the old `Ball.dist_matrix`, which compares the
prefix ids of every pair of vertices at every depth.

`ball_kernels` is the old `KernelFamily.from_ball`: each kernel row is the
indicator of the distance-h sphere divided by its count, so rows whose
sphere leaves the ball hold a partial sphere.  `deformed_kernels` is the old
`deform_ball_kernels`, which zeroes those rows.  Both read vertex depths from
the step-words.
"""

import math

import numpy as np

from hyperscheme.dtgraph import NonUniqueMinimizer, haar_weight, poly_eval


def ball_words(params, R: int) -> list:
    """All step-words of length <= R, listed by depth, with the children of
    each layer in the order of their parents."""
    a, b = params.a, params.b
    first = [(i, j) for i in range(1, a + 1) for j in range(1, b)]
    later = [(i, j) for i in range(1, a) for j in range(1, b)]
    vertices, layer = [()], [()]
    for h in range(1, R + 1):
        steps = first if h == 1 else later
        layer = [w + (s,) for w in layer for s in steps]
        vertices.extend(layer)
    return vertices


def word_distance(u: tuple, v: tuple) -> int:
    """Graph distance of two step-words: residual lengths after the common
    prefix, minus 1 when the first divergent steps land in the same clique."""
    l = 0
    top = min(len(u), len(v))
    while l < top and u[l] == v[l]:
        l += 1
    ru, rv = len(u) - l, len(v) - l
    d = ru + rv
    if ru and rv and u[l][0] == v[l][0]:
        d -= 1
    return d


def bfs_distances(adj: np.ndarray, start: int) -> np.ndarray:
    """Shortest-path distances from start over the edges of the ball, given
    as a boolean adjacency matrix."""
    dist = np.full(len(adj), -1, dtype=np.int32)
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        mask = adj[frontier].any(axis=0) & (dist < 0)
        frontier = np.flatnonzero(mask).tolist()
        dist[frontier] = d
    return dist


def ray_scan(words: list, R: int) -> np.ndarray:
    """The horocycle index d(w, v_n) - n at the unique nearest index n of
    the all-(1,1) ray, by scanning n = 0..R+|w|+1 for every word."""
    def scan(w):
        dists = [word_distance(w, ((1, 1),) * n) for n in range(R + len(w) + 2)]
        best = min(dists)
        hits = [n for n, d in enumerate(dists) if d == best]
        if len(hits) != 1:
            raise NonUniqueMinimizer(
                f"vertex {w}: ray indices {hits} all realize d = {best}")
        return dists[hits[0]] - hits[0]

    return np.array([scan(w) for w in words], dtype=np.int64)


def prefix_dist_matrix(ball) -> np.ndarray:
    """All-pairs distances from prefix ids:
    d(u, v) = |u| + |v| - sum_k ([anc_k(u) = anc_k(v)] + [clq_k(u) = clq_k(v)])
    over the depths k both words reach, where anc_k is the length-k prefix
    and clq_k the clique of step k.  Equal prefixes share the step's clique,
    so each common step counts 2 and a first divergent step inside one
    clique counts 1: the distance of two words is their residual lengths
    after the common prefix, minus 1 when the first divergent steps land
    in the same clique."""
    depth, parent, n = ball.depths, ball.parents, ball.n
    clique = parent * (ball.params.a + 1) + ball.cliques
    D = depth[:, None] + depth[None, :]
    # anc[v] is v's ancestor at depth min(depth(v), k)
    anc = np.arange(n)
    eq = np.empty((n - 1) ** 2, dtype=bool)
    for k in range(ball.radius, 0, -1):
        s = int(np.searchsorted(depth, k))  # first vertex of depth >= k
        m = n - s
        block, cmp = D[s:, s:], eq[:m * m].reshape(m, m)
        for ids in (anc[s:], clique[anc[s:]]):
            np.equal(ids[:, None], ids[None, :], out=cmp)
            np.subtract(block, cmp, out=block)
        anc[s:] = parent[anc[s:]]
    return D


def word_depths(ball) -> np.ndarray:
    return np.array([len(w) for w in ball_words(ball.params, ball.radius)])


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
