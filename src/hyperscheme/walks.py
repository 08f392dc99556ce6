"""Discrete-time random walks: convolution powers on finite or polynomial
hypergroups, Monte Carlo walks driven by kernel families, and verification
that projecting a kernel walk yields the hypergroup walk.

Randomness comes from one counter-based Philox stream keyed by the seed
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  A
walk of s steps gives trial t the uniforms 2st .. 2s(t+1) - 1 of that
stream, so results are reproducible, and a run with more trials extends a
run with fewer without changing its first trials.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dtgraph import KernelFamily, _expand
from .scheme import CheckFailure

# simulate_walk draws its uniforms in blocks of about this many (128 KiB);
# the block size bounds the per-step temporaries, and does not change the
# stream
_BLOCK_UNIFORMS = 1 << 14
DEFAULT_SEED = 0x5EED
STEP_SUM_TOL = 1e-12        # a step law in decimals sums to 1 up to their rounding
PROPAGATION_TOL = 1e-10     # propagation and convolution power: rounding apart


def _check_seed(seed) -> int:
    """seed as an int, or ValueError unless it is a nonnegative integer: a
    seed of None would draw OS entropy, and a run could not be repeated."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, not {seed!r}")
    return int(seed)


class WalkWouldExitBall(CheckFailure):
    pass


class ParameterMismatch(CheckFailure):
    pass


@dataclass(frozen=True)
class StepDistribution:
    """Probability weights over hypergroup elements (dict index -> mass)."""

    weights: dict

    def __post_init__(self):
        w = dict(self.weights)
        # NaN passes both comparisons below, so it is refused first
        if not all(math.isfinite(float(v)) for v in w.values()):
            raise ValueError("step probabilities must be finite")
        if any(float(v) < 0 for v in w.values()):
            raise ValueError("negative step probability")
        if abs(float(sum(w.values())) - 1.0) > STEP_SUM_TOL:
            raise ValueError("step probabilities must sum to 1")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class WalkResult:
    empirical: dict  # final state -> relative frequency
    trials: int
    steps: int
    seed: int


def convolution_power(hg, mu: StepDistribution, t: int) -> dict:
    """hg.power(mu.weights, t): the t-fold power of mu, checked, on a
    FiniteHypergroup or a PolyHypergroup; exact when mu and hg are."""
    return hg.power(mu.weights, t)


def _check_reachable(fam: KernelFamily, mu: StepDistribution, steps: int) -> np.ndarray:
    """The ascending states a walk from state 0 can occupy before some step;
    refuse the walk when one of them has a zero row in a kernel it steps
    with.  Only the rows of those states are read, and the states first
    reached by the last step are not expanded, since no step leaves them.
    ValueError for a negative step count."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    used = [fam.rows(h) for h in fam.support_labels(mu)]
    seen = np.zeros(fam.labels.shape[0], dtype=bool)
    frontier = np.zeros(1, dtype=np.int64)
    for step in range(steps):
        seen[frontier] = True
        for indptr, _, _ in used:
            if (indptr[frontier] == indptr[frontier + 1]).any():
                raise WalkWouldExitBall(
                    "a reachable state lacks a full kernel row; enlarge the "
                    "ball or shorten the walk")
        if step + 1 == steps:
            break
        nxt = np.zeros_like(seen)
        for indptr, indices, data in used:
            _, at = _expand(indptr[frontier], indptr[frontier + 1])
            nxt[indices[at[data[at] > 0]]] = True
        frontier = np.flatnonzero(nxt & ~seen)
    return np.flatnonzero(seen)


def _row_table(fam: KernelFamily, labels: list, states: np.ndarray):
    """Sampling table of the kernels of the given labels at the ascending
    states, as one CSR triple: the column of each nonzero entry, its key,
    and row pointers.  Row i * n + x holds the entries of K_h at state x for
    the i-th label h, and its key is x plus the cumulative row weight, so
    the keys increase along each row.  Rows of unreached states are empty.
    Each label's weights are summed in one cumsum over its table, so a key
    is the same double whatever other labels the table holds.  The reached
    rows' entries are picked by one mask over the rows up to the last
    state, and written into arrays sized once, so the temporaries of a
    label are its mask and one array of its table's length."""
    n = fam.labels.shape[0]
    top = int(states[-1]) + 1 if states.size else 0
    reached = np.zeros(top, dtype=bool)
    reached[states] = True
    kernels = [fam.rows(h) for h in labels]
    sizes = np.zeros((len(labels), n), dtype=np.int64)
    for size, (indptr, _, _) in zip(sizes, kernels):
        size[states] = indptr[states + 1] - indptr[states]
    starts = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    cols = np.empty(starts[-1], dtype=np.result_type(*(k[1] for k in kernels)))
    keys = np.empty(starts[-1], dtype=np.result_type(*(k[2] for k in kernels)))
    for i, (indptr, indices, data) in enumerate(kernels):
        lo, hi, end = starts[i * n], starts[(i + 1) * n], indptr[top]
        mask = np.repeat(reached, np.diff(indptr[:top + 1]))
        cols[lo:hi] = indices[:end][mask]
        cw = keys[lo:hi]
        cw[:] = data[:end][mask]
        np.cumsum(cw, out=cw)
        first = starts[i * n:i * n + top] - lo
        before = np.zeros(top)
        inner = np.flatnonzero(first)
        before[inner] = cw[first[inner] - 1]
        cw -= np.repeat(before, sizes[i, :top])
        cw += np.repeat(np.arange(top), sizes[i, :top])
    return cols, keys, starts


def _lower_bound(keys: np.ndarray, pos: np.ndarray, last, q: np.ndarray,
                 width: int) -> np.ndarray:
    """For rows pos .. last of keys, each ascending and at most width long,
    the position of the first key >= q, or last when every key is below q:
    np.searchsorted clipped to the row, making the same comparisons.  A
    branchless binary lifting over all rows at once, ceil(log2 width)
    rounds; pos is overwritten."""
    for k in reversed(range(1, (width - 1).bit_length())):
        probe = pos + ((1 << k) - 1)
        np.minimum(probe, last, out=probe)
        pos += (keys[probe] < q) << k
    if width > 1:   # the last round, k = 0, probes pos itself
        pos += keys[np.minimum(pos, last)] < q
    return np.minimum(pos, last, out=pos)


def _project(labels: np.ndarray, mass) -> dict:
    """label -> total mass of the states with that label, added in state
    order; labels without mass left out."""
    total = np.bincount(labels, weights=mass)
    return {int(k): float(total[k]) for k in np.flatnonzero(total)}


def simulate_walk(fam: KernelFamily, mu: StepDistribution, steps: int, trials: int,
                  seed: int) -> WalkResult:
    """Monte Carlo walk from state 0: per step sample a label h ~ mu, then a
    successor from the h-kernel row at the current state.

    All trials advance together, in blocks of about 2**14 uniforms (128
    KiB), so memory does not grow with trials and each step's temporaries
    stay cache-sized.  Step s of trial t uses uniforms 2st + 2s (label) and
    2st + 2s + 1 (successor) of the Philox stream keyed by seed; counts
    from more trials are elementwise at least those from fewer.  The labels
    of every step of a block are found in one bounded search over mu's
    cumulative weights; each step is then one bounded search for the
    successor inside the (label, state) row of one table over the kernels
    of mu's support.  ValueError for a seed that is not a nonnegative
    integer.
    """
    seed = _check_seed(seed)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    states = _check_reachable(fam, mu, steps)
    labels = fam.support_labels(mu)
    mu_cum = np.cumsum([float(mu.weights[h]) for h in labels])
    cols, keys, indptr = _row_table(fam, labels, states)
    first, last = indptr[:-1], indptr[1:] - 1
    width = max(1, int(np.diff(indptr).max()))
    n = fam.labels.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(seed))
    block = max(1, _BLOCK_UNIFORMS // max(1, 2 * steps))
    for lo in range(0, trials, block):
        u = rng.random((min(block, trials - lo), 2 * steps))
        label = _lower_bound(mu_cum, np.zeros((u.shape[0], steps), dtype=np.int64),
                             len(labels) - 1, u[:, ::2], len(labels))
        label *= n
        x = np.zeros(u.shape[0], dtype=np.int64)
        for s in range(steps):
            row = label[:, s] + x
            x = cols[_lower_bound(keys, first[row], last[row],
                                  x + u[:, 2 * s + 1], width)]
        hits = np.bincount(x)     # as long as the last state hit, not n
        counts[:hits.size] += hits
    hit = np.flatnonzero(counts)
    empirical = dict(zip(hit.tolist(), [c / trials for c in counts[hit].tolist()]))
    return WalkResult(empirical=empirical, trials=trials, steps=steps, seed=seed)


def propagate_and_project(fam: KernelFamily, mu: StepDistribution, steps: int) -> dict:
    """Deterministic form of the projection: push the point mass at state 0
    through the mu-mixture of kernels, then project states to labels.  Each
    step reads the kernel rows of the current support alone and adds
    mu(h) dist[x] K_h[x, y] into y, label by label."""
    _check_reachable(fam, mu, steps)
    used = [(float(m), fam.rows(h)) for h, m in mu.weights.items() if float(m) > 0]
    n = fam.labels.shape[0]
    dist = np.zeros(n)
    dist[0] = 1.0
    for _ in range(steps):
        support = np.flatnonzero(dist)
        nxt = np.zeros(n)
        for m, (indptr, indices, data) in used:
            which, at = _expand(indptr[support], indptr[support + 1])
            nxt += np.bincount(indices[at], weights=(m * dist[support])[which] * data[at],
                               minlength=n)
        dist = nxt
    return _project(fam.labels, dist)


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(k, 0)) - float(q.get(k, 0))) for k in keys)


def projection_check(walk: WalkResult, fam: KernelFamily, hg, mu: StepDistribution,
                     steps: int) -> float:
    """Compare the projected walk with the hypergroup convolution power.

    Returns the TV distance between the projected empirical law and
    convolution_power(hg, mu, steps).  The law from matrix propagation must
    agree with the convolution power within PROPAGATION_TOL in TV (the
    deterministic form of the projection theorem); a mismatch raises.
    """
    if steps != walk.steps:
        raise ParameterMismatch("walk was generated with different parameters")
    exact, projected_emp = _projected_laws(walk, fam, hg, mu)
    return tv_distance(projected_emp, exact)


def _projected_laws(walk: WalkResult, fam: KernelFamily, hg, mu: StepDistribution):
    """(exact law, projected empirical law) of a walk on the hypergroup's
    labels, after checking matrix propagation against the convolution power."""
    exact = {k: float(v) for k, v in
             convolution_power(hg, mu, walk.steps).items()}
    propagated = propagate_and_project(fam, mu, walk.steps)
    if tv_distance(exact, propagated) > PROPAGATION_TOL:
        raise ParameterMismatch(
            "matrix propagation disagrees with the convolution power: "
            f"TV = {tv_distance(exact, propagated):.3e}")
    states = list(walk.empirical)
    return exact, _project(fam.labels[states], list(walk.empirical.values()))
