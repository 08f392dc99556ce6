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

from dataclasses import dataclass

import numpy as np

from .dtgraph import Ball, DeformedKernels, PolyHypergroup, haar_weight
from .hypergroup import FiniteHypergroup
from .scheme import GeneralizedScheme

# simulate_walk draws its uniforms in blocks of about this many
_BLOCK_UNIFORMS = 1 << 18
SUPPORT_CAP = 10_000


class SupportCap(Exception):
    pass


class WalkWouldExitBall(Exception):
    pass


class ParameterMismatch(Exception):
    pass


@dataclass(frozen=True)
class StepDistribution:
    """Probability weights over hypergroup elements (dict index -> mass)."""

    weights: dict

    def __post_init__(self):
        w = dict(self.weights)
        if any(float(v) < 0 for v in w.values()):
            raise ValueError("negative step probability")
        if abs(float(sum(w.values())) - 1.0) > 1e-12:
            raise ValueError("step probabilities must sum to 1")
        object.__setattr__(self, "weights", w)

    @property
    def max_support(self) -> int:
        return max(self.weights)


@dataclass(frozen=True)
class WalkResult:
    empirical: dict  # final state -> relative frequency
    trials: int
    steps: int
    seed: int
    start: int


def convolution_power(hg, mu: StepDistribution, t: int) -> dict:
    """t-fold convolution power of mu; exact when mu and hg are exact.

    hg is a FiniteHypergroup or a PolyHypergroup; the result is a dict
    element -> mass.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if isinstance(hg, PolyHypergroup):
        if t * mu.max_support > SUPPORT_CAP:
            raise SupportCap(f"support would exceed {SUPPORT_CAP}")
    elif not isinstance(hg, FiniteHypergroup):
        raise TypeError("unsupported hypergroup type")
    return hg.power(mu.weights, t)


@dataclass
class KernelFamily:
    """The kernels a walk steps through: stochastic matrices indexed by
    labels, and the relation labels that project a state to a label from a
    start point.  A zero row of K_h is a state the walk may not step from
    with h: on a ball, one whose distance-h sphere leaves the ball."""

    matrices: dict           # label -> (n, n) ndarray
    labels: np.ndarray       # (n, n) relation labels

    @property
    def valid(self) -> dict:
        """label -> boolean mask of the nonzero rows."""
        return {h: K.any(axis=1) for h, K in self.matrices.items()}

    @classmethod
    def from_generalized(cls, gs: GeneralizedScheme) -> "KernelFamily":
        mats = {i: gs.kernels[i] for i in range(gs.partition.n_relations)}
        return cls(matrices=mats, labels=gs.partition.label)

    @classmethod
    def from_ball(cls, ball: Ball) -> "KernelFamily":
        """Uniform sphere kernels on a ball, 1 / w_h on each sphere."""
        mats = ball.sphere_kernels(lambda h, rows: 1.0 / haar_weight(h, ball.params))
        return cls(matrices=mats, labels=ball.dist_matrix)

    @classmethod
    def from_deformed(cls, dk: DeformedKernels) -> "KernelFamily":
        return cls(matrices=dk.kernels, labels=dk.ball.dist_matrix)

    def support_labels(self, mu: StepDistribution) -> list:
        return sorted(h for h, m in mu.weights.items() if float(m) > 0)


def _check_reachable(fam: KernelFamily, mu: StepDistribution, start: int,
                     steps: int):
    """Refuse a walk that could reach a state whose row is zero in a kernel
    it steps with."""
    used = [fam.matrices[h] for h in fam.support_labels(mu)]
    reach = np.zeros(fam.labels.shape[0], dtype=bool)
    reach[start] = True
    for _ in range(steps):
        nxt = reach.copy()
        for K in used:
            rows = K[reach]
            if not rows.any(axis=1).all():
                raise WalkWouldExitBall(
                    "a reachable state lacks a full kernel row; enlarge the "
                    "ball or shorten the walk")
            nxt |= (rows > 0).any(axis=0)
        reach = nxt


def _row_table(K: np.ndarray):
    """Sampling table of K's nonzero rows in CSR form: column of each nonzero
    entry, cumulative row weight plus the row (state) id, so the weights
    increase across the whole table, and row pointers."""
    rows, cols = np.nonzero(K)
    cw = np.cumsum(K[rows, cols])
    indptr = np.searchsorted(rows, np.arange(K.shape[0] + 1))
    before = np.concatenate(([0.0], cw))[indptr[:-1]]
    return cols, rows + (cw - before[rows]), indptr


def simulate_walk(fam: KernelFamily, mu: StepDistribution, steps: int, trials: int,
                  seed: int, start: int = 0) -> WalkResult:
    """Monte Carlo walk: per step sample a label h ~ mu, then a successor
    from the h-kernel row at the current state.

    All trials advance together, in blocks of about 2**18 uniforms, so
    memory does not grow with trials.  Step s of trial t uses uniforms
    2st + 2s (label) and 2st + 2s + 1 (successor) of the Philox stream
    keyed by seed; counts from more trials are elementwise at least those
    from fewer.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_reachable(fam, mu, start, steps)
    labels = fam.support_labels(mu)
    mu_cum = np.cumsum([float(mu.weights[h]) for h in labels])
    tables = [_row_table(fam.matrices[h]) for h in labels]
    counts = np.zeros(fam.labels.shape[0], dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(seed))
    block = max(1, _BLOCK_UNIFORMS // max(1, 2 * steps))
    for lo in range(0, trials, block):
        u = rng.random((min(block, trials - lo), 2 * steps))
        x = np.full(u.shape[0], start, dtype=np.int64)
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
    return WalkResult(empirical=empirical, trials=trials, steps=steps,
                      seed=seed, start=start)


def propagate_and_project(fam: KernelFamily, mu: StepDistribution, steps: int,
                          start: int = 0) -> dict:
    """Deterministic form of the projection: push the point mass at start
    through the mu-mixture of kernels, then project states to labels."""
    _check_reachable(fam, mu, start, steps)
    n = fam.labels.shape[0]
    step_matrix = sum(float(m) * fam.matrices[h]
                      for h, m in mu.weights.items() if float(m) > 0)
    dist = np.zeros(n)
    dist[start] = 1.0
    for _ in range(steps):
        dist = dist @ step_matrix
    projected: dict = {}
    for y in range(n):
        if dist[y] > 0:
            k = int(fam.labels[start, y])
            projected[k] = projected.get(k, 0.0) + dist[y]
    return projected


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(k, 0)) - float(q.get(k, 0))) for k in keys)


def projection_check(walk: WalkResult, fam: KernelFamily, hg, mu: StepDistribution,
                     steps: int) -> float:
    """Compare the projected walk with the hypergroup convolution power.

    Returns the TV distance between the projected empirical law and
    convolution_power(hg, mu, steps).  The exact projected law from matrix
    propagation must agree with the convolution power to within 1e-10 (the
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
    propagated = propagate_and_project(fam, mu, walk.steps, walk.start)
    if tv_distance(exact, propagated) > 1e-10:
        raise ParameterMismatch(
            "matrix propagation disagrees with the convolution power: "
            f"TV = {tv_distance(exact, propagated):.3e}")
    projected_emp: dict = {}
    for x, m in walk.empirical.items():
        k = int(fam.labels[walk.start, x])
        projected_emp[k] = projected_emp.get(k, 0.0) + m
    return exact, projected_emp
