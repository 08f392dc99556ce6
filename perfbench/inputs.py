"""Seeded input generators for the benchmark.

Everything here is built with numpy and fractions alone, never with the
library under test, so the inputs (and the checks derived from them) do not
depend on the implementation being measured.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Monte Carlo sizing: the CLI fails a walk whose total-variation distance to
# the exact law exceeds TV_LIMIT.  By Hoeffding's inequality and a union
# bound over the 2^K subsets of a K-point law,
#   P(TV >= TV_LIMIT) <= 2^K exp(-2 N TV_LIMIT^2),
# so N trials below keep the chance of a spurious failure under MC_DELTA.
TV_LIMIT = 0.02
MC_DELTA = 1e-9


def mc_trials(support_size: int) -> int:
    """Trials that keep P(TV > TV_LIMIT) below MC_DELTA for a law on
    support_size points."""
    return math.ceil((support_size * math.log(2) + math.log(1 / MC_DELTA))
                     / (2 * TV_LIMIT ** 2))


def expected_tv(law: dict, trials: int) -> float:
    """Normal approximation of E[TV] between a law and its empirical law
    from `trials` samples: sum_k sqrt(p_k (1 - p_k) / N) / sqrt(2 pi)."""
    return sum(math.sqrt(float(p) * (1 - float(p)) / trials)
               for p in law.values()) / math.sqrt(2 * math.pi)


def sphere_size(a: int, b: int, h: int) -> int:
    """Vertices at distance h from a vertex of the clique-tree graph
    Gamma(a, b): a (a-1)^(h-1) (b-1)^h, and 1 at h = 0."""
    return 1 if h == 0 else a * (a - 1) ** (h - 1) * (b - 1) ** h


def ball_size(a: int, b: int, R: int) -> int:
    return sum(sphere_size(a, b, h) for h in range(R + 1))


def special_points(a: int, b: int) -> tuple[float, float]:
    """Ends [s0, s1] of the interval where x -> P_d(u,v)(x) is positive
    definite on Gamma(a, b)."""
    r = 2.0 * math.sqrt((a - 1) * (b - 1))
    return (2 - a - b) / r, (a * b - a - b + 2) / r


def relabel_table(table: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Rename the group elements by a random permutation pi:
    T'[pi(x), pi(y)] = pi(T[x, y]).  Returns (T', pi)."""
    n = table.shape[0]
    pi = rng.permutation(n)
    out = np.empty_like(table)
    out[pi[:, None], pi[None, :]] = pi[table]
    return out, pi


def dihedral_table(m: int) -> np.ndarray:
    """Multiplication table of the dihedral group of order 2m; element
    k + m e stands for r^k s^e."""
    idx = np.arange(2 * m)
    k, e = idx % m, idx // m
    kk = (k[:, None] + np.where(e[:, None] == 1, -k[None, :], k[None, :])) % m
    return kk + m * (e[:, None] ^ e[None, :])


def dihedral_input(m: int, rng) -> tuple[np.ndarray, list]:
    """Relabeled D_m table and a random reflection subgroup {1, s r^j}."""
    table, pi = relabel_table(dihedral_table(m), rng)
    j = int(rng.integers(m))
    return table, sorted([int(pi[0]), int(pi[m + j])])


def symmetric_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(perms, table) of S_k acting on {0..k-1}; table[a, b] = perm a after b."""
    perms = np.array(list(itertools.permutations(range(k))))
    n = len(perms)
    comp = perms[np.arange(n)[:, None, None], perms[None, :, :]]
    weights = k ** np.arange(k)
    lookup = np.full(k ** k, -1, dtype=np.int64)
    lookup[(perms * weights).sum(-1)] = np.arange(n)
    return perms, lookup[(comp * weights).sum(-1)]


def young_input(k: int, part: int, rng) -> tuple[np.ndarray, list]:
    """Relabeled S_k table and the Young subgroup S_{k-part} x S_part fixing a
    random part-subset setwise (a Gelfand pair, so the scheme commutes)."""
    perms, table = symmetric_table(k)
    subset = set(int(v) for v in rng.choice(k, size=part, replace=False))
    cols = sorted(subset)
    keep = [i for i, p in enumerate(perms) if set(p[cols].tolist()) == subset]
    table, pi = relabel_table(table, rng)
    return table, sorted(int(pi[i]) for i in keep)


def cycle_labels(m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Distance scheme of the m-cycle on randomly permuted points, relations
    renamed by a random permutation fixing 0.  Returns (label, rel_of_dist)."""
    d = m // 2 + 1
    rel_of_dist = np.concatenate([[0], 1 + rng.permutation(d - 1)])
    pts = rng.permutation(m)
    diff = np.abs(pts[:, None] - pts[None, :])
    dist = np.minimum(diff, m - diff)
    return rel_of_dist[dist], rel_of_dist


def cycle_hypergroup_dict(m: int, rng) -> dict:
    """File form of the m-cycle distance hypergroup, built from the walk
    picture: delta_i * delta_j is the law of the distance of x +- i +- j with
    independent fair signs."""
    d = m // 2 + 1
    _, rel = cycle_labels(m, rng)
    conv = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                r = (s1 * i + s2 * j) % m
                conv[rel[i]][rel[j]][rel[min(r, m - r)]] += Fraction(1, 4)
    return {"n": d, "identity": 0, "involution": list(range(d)),
            "conv": [[[f"{c.numerator}/{c.denominator}" if c.denominator != 1
                       else c.numerator for c in row] for row in plane]
                     for plane in conv]}


def canonical_kernels(label: np.ndarray) -> np.ndarray:
    """Kernels K_i = A_i / valency_i of a relation labeling."""
    d = int(label.max()) + 1
    adj = np.stack([(label == i).astype(float) for i in range(d)])
    return adj / adj.sum(axis=2, keepdims=True)


def step_law(rng, support: list, denom: int) -> dict:
    """Random rational law on `support` with masses k/denom, each k >= 1.
    With denom prime every mass keeps the denominator denom, so exact powers
    of the law cost about the same whichever masses the seed draws."""
    cuts = np.sort(rng.choice(np.arange(1, denom), size=len(support) - 1,
                              replace=False))
    ks = np.diff(np.concatenate([[0], cuts, [denom]]))
    return {int(h): Fraction(int(k), denom) for h, k in zip(support, ks)}


def law_arg(law: dict) -> str:
    """CLI spelling of a step law, e.g. '1:1/3,2:2/3'."""
    return ",".join(f"{h}:{m.numerator}/{m.denominator}" for h, m in law.items())
