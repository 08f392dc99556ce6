"""Finite association schemes: verification, double-coset construction,
generalized (kernel-deformed) schemes, rigidity and translation checks.

All counting data (intersection numbers, valencies) is exact integer/rational
arithmetic.  User-supplied stochastic kernels are floats and compared with an
absolute tolerance of 1e-9.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

KERNEL_TOL = 1e-9


def _physical_memory() -> int:
    """Bytes of physical memory, which the size guards compare against."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class CheckFailure(Exception):
    """A check ran on well-formed input and failed.  Every check failure of
    the library derives from it, and every input error from ValueError."""

    def results(self) -> dict:
        """What a report says about the failure."""
        return {"message": str(self)}


class AxiomViolation(CheckFailure):
    """A partition / kernel family fails one of the scheme axioms.

    axiom_id identifies the failed axiom; witness holds the indices that
    exhibit the failure (contents depend on the axiom).
    """

    def __init__(self, axiom_id: str, witness=None, message: str = ""):
        self.axiom_id = axiom_id
        self.witness = witness
        super().__init__(message or f"axiom {axiom_id} violated, witness {witness}")

    def results(self) -> dict:
        return {"axiom": self.axiom_id, "witness": list(self.witness or []),
                "message": str(self)}


class NotAGroup(CheckFailure):
    pass


class NotASubgroup(CheckFailure):
    pass


class NotUnimodular(CheckFailure):
    pass


@dataclass(frozen=True)
class RelationPartition:
    """A labeling of X x X by relation indices.

    label[x, y] = i means (x, y) lies in relation i.  Index 0 is reserved
    for the identity relation (the diagonal); constructors relabel inputs
    that use a different convention.
    """

    n_points: int
    n_relations: int
    label: np.ndarray
    identity_relation: int = field(default=0, init=False)

    def __post_init__(self):
        lab = np.array(self.label, dtype=np.int64)      # a copy no caller holds
        if lab.shape != (self.n_points, self.n_points):
            raise ValueError(f"label matrix must be {self.n_points}x{self.n_points}")
        if lab.min() < 0 or lab.max() >= self.n_relations:
            raise ValueError("relation index out of range")
        object.__setattr__(self, "label", lab)
        lab.setflags(write=False)

    def adjacency(self, i: int) -> np.ndarray:
        return (self.label == i).astype(np.int64)


@dataclass(frozen=True)
class AssociationScheme:
    """A verified finite association scheme.

    p[i, j, k] are the intersection numbers, valency[i] = p[i, inv(i), e].
    Instances are produced by verify_scheme and never built raw.
    """

    partition: RelationPartition
    involution: np.ndarray
    p: np.ndarray
    valency: np.ndarray

    @property
    def n_relations(self) -> int:
        return self.partition.n_relations

    @property
    def n_points(self) -> int:
        return self.partition.n_points

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.p, self.p.transpose(1, 0, 2)))

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.involution, np.arange(self.n_relations)))

    def is_unimodular(self) -> bool:
        return bool(np.array_equal(self.valency, self.valency[self.involution]))

    def stochastic_matrix(self, i: int) -> np.ndarray:
        """Renormalized adjacency A_i / valency_i (float)."""
        return self.partition.adjacency(i) / float(self.valency[i])


@dataclass(frozen=True)
class GeneralizedScheme:
    """A partition together with a family of stochastic kernels S_i and a
    positive point weight omega_x satisfying the adjoint relation.

    kernels and omega_x are read-only float64 copies no caller holds, so
    the family verifies once: verified is computed on first use and kept,
    and a family that fails raises again on every use."""

    partition: RelationPartition
    kernels: np.ndarray  # shape (n_relations, n_points, n_points)
    omega_x: np.ndarray  # shape (n_points,)

    def __post_init__(self):
        self._hold(np.array(self.kernels, dtype=float),
                   np.array(self.omega_x, dtype=float))

    @classmethod
    def _adopt(cls, partition: RelationPartition, kernels: np.ndarray,
               omega_x: np.ndarray) -> "GeneralizedScheme":
        """The family of float64 arrays that the library has just built and
        no one else holds, taken over without a copy."""
        gs = object.__new__(cls)
        object.__setattr__(gs, "partition", partition)
        gs._hold(kernels, omega_x)
        return gs

    def _hold(self, k: np.ndarray, w: np.ndarray):
        """Check the shapes of k and w and keep them, read-only."""
        n, d = self.partition.n_points, self.partition.n_relations
        if k.shape != (d, n, n):
            raise ValueError(f"kernels must have shape ({d}, {n}, {n})")
        if w.shape != (n,):
            raise ValueError(f"omega_x must have shape ({n},)")
        for name, a in (("kernels", k), ("omega_x", w)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def verified(self) -> tuple[AssociationScheme, np.ndarray]:
        """(scheme, p~): the partition's scheme from verify_scheme and the
        read-only deformed tensor of _verify_kernels; see verify_generalized."""
        scheme = verify_scheme(self.partition)
        ptilde = _verify_kernels(self, scheme)
        for a in (scheme.involution, scheme.p, scheme.valency, ptilde):
            a.setflags(write=False)
        return scheme, ptilde


def _representatives(partition: RelationPartition) -> tuple[np.ndarray, np.ndarray]:
    """(rx, ry): the first row-major cell of each relation."""
    flat = partition.label.ravel()
    labels, first = np.unique(flat, return_index=True)
    if labels.size < partition.n_relations:
        missing = np.setdiff1d(np.arange(partition.n_relations), labels)
        i = int(missing[0])
        raise AxiomViolation("relation-empty", (i,), f"relation {i} never occurs")
    return np.divmod(first, partition.n_points)


def _recover_involution(partition: RelationPartition, rx: np.ndarray,
                        ry: np.ndarray) -> np.ndarray:
    """Derive i -> bar(i) from label(y,x) at the representatives (rx, ry) of
    the relations, then verify it holds globally.  As every relation occurs,
    lab.T == inv[lab] makes inv an involution: inv[inv[lab]] = inv[lab.T] = lab."""
    lab = partition.label
    inv = lab[ry, rx]
    if not np.array_equal(lab.T, inv[lab]):
        bad = np.argwhere(lab.T != inv[lab])[0]
        raise AxiomViolation("involution", tuple(int(v) for v in bad),
                             "transpose labeling is not a relabeling by an involution")
    return inv


# float64 holds every integer below 2**53 exactly, and an entry of A_i A_j
# counts at most n points, so the BLAS products below are exact counts.
_EXACT_FLOAT_COUNT = 2 ** 53


def _generators(num: np.ndarray):
    """Yield, in increasing order, the i whose slices num[i] must be checked;
    the caller stops at the first that fails.

    num is a hypergroup tensor or a scheme's p.  Slice x passes iff delta_x
    lies in the left nucleus (Teichmueller identity), or A_x maps the
    Bose-Mesner span into itself: a subalgebra either way, so once the
    yielded slices pass, so does that of every x their deltas or A_x
    generate.  Those x are found by closure: x is generated when it is the
    one support point of num[y, z], for generated y and z, not yet generated.
    """
    n = num.shape[0]
    support = num.reshape(n * n, n) != 0       # [(y, z), x]
    # score[(y, z)] + 1 counts the support points of num[y, z] not yet
    # generated, plus n + 1 for each of y, z not yet generated.  So 0 marks
    # a pair that generates one more element, and a pair with nothing left to
    # generate wraps to the top of uint32.  Generating x lowers score by gain[x]
    gain = support.T.astype(np.uint32, order="C")
    score = gain.sum(axis=0, dtype=np.uint32) + 2 * n + 1
    at = np.arange(n)
    gain.reshape(n, n, n)[at, at, :] += n + 1      # the pairs (x, z)
    gain.reshape(n, n, n)[at, :, at] += n + 1      # the pairs (y, x)
    fresh = np.ones(n, dtype=bool)             # not yet generated
    for i in range(n):
        if not fresh[i]:
            continue
        yield i
        x = i
        while x is not None:
            fresh[x] = False
            score -= gain[x]
            pair = score.argmin()
            x = int((support[pair] & fresh).argmax()) if score[pair] == 0 else None


def verify_scheme(partition: RelationPartition) -> AssociationScheme:
    """Check the association scheme axioms and compute p-tensor and valencies.

    p[i, j, k] = #{z : label(rx_k, z) = i, label(z, ry_k) = j} is read at the
    first row-major cell (rx_k, ry_k) of each relation k.  The counting axiom
    A_i A_j = sum_k p[i, j, k] A_k is checked, one float64 BLAS product per
    j, only on the slices i != e that _generators(p) yields (A_e = I); they
    prove the rest.  Memory is O(n^2 + d^3): ValueError, before p is
    allocated, when its 13 d^3 bytes with _generators exceed the physical
    memory.  Raises AxiomViolation (with axiom id and witness) if the
    partition is not a scheme.
    """
    lab = partition.label
    n, d = partition.n_points, partition.n_relations
    e = partition.identity_relation
    if n >= _EXACT_FLOAT_COUNT:
        raise ValueError(f"{n} points: float64 counts are exact only below 2**53")

    diag = np.diag(lab)
    if not np.all(diag == e):
        x = int(np.nonzero(diag != e)[0][0])
        raise AxiomViolation("diagonal", (x, x), "label(x,x) != identity relation")
    off = lab == e
    np.fill_diagonal(off, False)
    if off.any():
        x, y = map(int, np.argwhere(off)[0])
        raise AxiomViolation("diagonal", (x, y), "identity relation off the diagonal")

    rx, ry = _representatives(partition)
    inv = _recover_involution(partition, rx, ry)

    need, have = 13 * d ** 3, _physical_memory()   # 8 bytes p, 5 _generators
    if need > have:
        raise ValueError(f"{d} relations: p needs {need / 2**30:.3g} GiB with its "
                         f"check, more than the {have / 2**30:.3g} GiB of memory")
    p = np.zeros((d, d, d), dtype=np.int64)
    np.add.at(p, (lab[rx], lab[:, ry].T, np.arange(d)[:, None]), 1)
    for i in _generators(p):
        if i == e:
            continue
        a_i = (lab == i).astype(float)
        for j in range(d):
            prod = a_i @ (lab == j).astype(float)
            bad = prod != p[i, j][lab]
            if bad.any():
                k = int(lab[bad].min())
                xb, yb = map(int, np.argwhere(bad & (lab == k))[0])
                x0, y0 = int(rx[k]), int(ry[k])
                raise AxiomViolation(
                    "counting", (i, j, k, x0, y0, xb, yb),
                    f"p_({i},{j})^{k} is not constant: "
                    f"{int(p[i, j, k])} at ({x0},{y0}) vs {int(prod[xb, yb])} "
                    f"at ({xb},{yb})")

    valency = p[np.arange(d), inv, e]
    return AssociationScheme(partition=partition, involution=inv, p=p, valency=valency)


def _verify_group_table(cayley: np.ndarray) -> int:
    """Check a multiplication table is a group; return the identity index.

    Associativity is Light's test over a greedy generating set: an element a
    passes when (x a) y = x (a y) for all x, y.  Elements that pass are
    closed under the product, so when every generator passes, every element
    does.  Each new generator at least doubles the subgroup reached, so a
    group costs O(n^2 log n) rather than n^3.
    """
    t = np.asarray(cayley, dtype=np.int64)
    n = t.shape[0]
    if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
        raise NotAGroup("table is not square over valid indices")
    ar = np.arange(n)
    is_ident = (t == ar).all(axis=1) & (t.T == ar).all(axis=1)
    if not is_ident.any():
        raise NotAGroup("no identity element")
    ident = int(np.argmax(is_ident))
    has_inv = (t == ident).any(axis=1)
    if not has_inv.all():
        raise NotAGroup(f"element {int(np.argmin(has_inv))} has no inverse")

    reached = np.zeros(n, dtype=bool)
    gens = []
    while not reached.all():
        a = int(np.argmin(reached))
        if not np.array_equal(t[t[:, a]], t[:, t[a]]):
            raise NotAGroup(f"associativity fails involving element {a}")
        gens.append(a)
        # close the reached set under right multiplication by the generators
        reached[a] = True
        frontier = np.flatnonzero(reached)
        while frontier.size:
            nxt = np.unique(t[np.ix_(frontier, gens)])
            frontier = nxt[~reached[nxt]]
            reached[frontier] = True
    return ident


def from_double_cosets(cayley: np.ndarray, subgroup) -> tuple[np.ndarray, AssociationScheme]:
    """Scheme of the coset space G/H with relations the double cosets HgH.

    Returns (coset_of: array mapping group elements to coset indices, scheme).
    """
    t = np.asarray(cayley, dtype=np.int64)
    ident = _verify_group_table(t)
    H = np.array(sorted(set(int(h) for h in subgroup)), dtype=np.int64)
    if ((H < 0) | (H >= len(t))).any():
        raise ValueError(f"subgroup indices must lie in 0..{len(t) - 1}")
    if ident not in H:
        raise NotASubgroup("identity not in subgroup")
    inverse = np.argmax(t == ident, axis=1)
    inv_out = ~np.isin(inverse[H], H)
    prod_out = ~np.isin(t[np.ix_(H, H)], H)
    bad = inv_out | prod_out.any(axis=1)
    if bad.any():
        a = int(np.argmax(bad))
        if inv_out[a]:
            raise NotASubgroup(f"{H[a]} has inverse outside the subset")
        raise NotASubgroup(f"{H[a]}*{H[np.argmax(prod_out[a])]} leaves the subset")

    # left cosets gH, numbered by their smallest element
    coset_min = t[:, H].min(axis=1)
    reps, coset_of = np.unique(coset_min, return_inverse=True)
    n_cosets = reps.size

    # double cosets HgH, numbered by their smallest element except that H
    # itself gets index 0
    dmin = coset_min[t[H]].min(axis=0)
    firsts, rank = np.unique(dmin, return_inverse=True)
    h_rank = rank[ident]
    dcoset_of = np.where(rank == h_rank, 0, rank + (rank < h_rank))
    n_dcosets = firsts.size

    lab = dcoset_of[t[np.ix_(inverse[reps], reps)]]
    partition = RelationPartition(n_points=n_cosets, n_relations=n_dcosets, label=lab)
    return coset_of, verify_scheme(partition)


def canonical_generalized(scheme: AssociationScheme) -> GeneralizedScheme:
    """The canonical kernel family S_i = A_i / valency_i with counting omega_x."""
    if not scheme.is_unimodular():
        raise NotUnimodular("canonical kernels need a unimodular scheme")
    kernels = np.empty((scheme.n_relations, scheme.n_points, scheme.n_points))
    for i in range(scheme.n_relations):
        kernels[i] = scheme.stochastic_matrix(i)
    return GeneralizedScheme._adopt(scheme.partition, kernels,
                                    np.ones(scheme.n_points))


def verify_generalized(gs: GeneralizedScheme) -> np.ndarray:
    """Check the generalized-scheme axioms; return the deformed tensor p~.

    Axiom ids follow the five conditions of the definition: (1) constant
    counting on the partition, (2) support matching, (3) nonnegative span
    closure, (4) identity kernel, (5) adjoint relation.  The checks run once
    per family, in gs.verified; each call returns a copy of p~ of its own.
    """
    # (1) underlying partition is a scheme (checked explicitly; see Remark 4.6
    # style open question -- never assumed)
    return gs.verified[1].copy()


def _verify_kernels(gs: GeneralizedScheme, scheme: AssociationScheme) -> np.ndarray:
    """Axioms (2)-(5) of verify_generalized for kernels on a partition that
    verify_scheme already turned into scheme; returns p~.  Only
    GeneralizedScheme.verified calls it."""
    part = gs.partition
    n, d = part.n_points, part.n_relations
    e = part.identity_relation
    lab = part.label
    S = gs.kernels

    # (2) support condition and row-stochasticity; each test is written so
    # that NaN fails it, which leaves every kernel finite after this loop
    for i in range(d):
        pos = ~(S[i] <= KERNEL_TOL)
        want = lab == i
        if not np.array_equal(pos, want):
            x, y = map(int, np.argwhere(pos != want)[0])
            raise AxiomViolation("2", (i, x, y),
                                 f"support of kernel {i} does not match relation {i}")
        rows = S[i].sum(axis=1)
        if not np.abs(rows - 1.0).max() <= 1e-8:
            x = int(np.argmax(np.abs(rows - 1.0)))
            raise AxiomViolation("2", (i, x), f"kernel {i} row {x} not stochastic")
        if S[i].min() < -KERNEL_TOL:
            x, y = map(int, np.argwhere(S[i] < -KERNEL_TOL)[0])
            raise AxiomViolation("2", (i, x, y), "negative kernel entry")

    # (4) identity kernel
    if np.abs(S[e] - np.eye(n)).max() > KERNEL_TOL:
        raise AxiomViolation("4", (e,), "identity kernel is not the identity matrix")

    # (5) adjoint relation, recovering the involution from the partition
    inv = scheme.involution
    w = gs.omega_x
    if not ((w > 0) & (w < np.inf)).all():
        raise AxiomViolation("5", None, "omega_x must be finite and strictly positive")
    for i in range(d):
        lhs = w[:, None] * S[inv[i]]            # omega(y) * S_bar(i)(y, x)
        rhs = (w[:, None] * S[i]).T             # omega(x) * S_i(x, y), transposed
        bad = np.abs(lhs - rhs) > KERNEL_TOL * max(1.0, w.max())
        if bad.any():
            y, x = map(int, np.argwhere(bad)[0])
            raise AxiomViolation("5", (i, x, y), "adjoint relation fails")

    # (3) span closure: read each coefficient off one representative entry
    # (the largest S_k entry of relation k), then verify the whole matrix
    # identity against coeff[label] * S[label]
    rx, ry = np.unravel_index(
        [np.argmax(np.where(lab == k, S[k], -np.inf)) for k in range(d)], (n, n))
    s_rep = S[np.arange(d), rx, ry]
    s_lab = np.take_along_axis(S, lab[None], axis=0)[0]
    ptilde = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            prod = S[i] @ S[j]
            coeff = prod[rx, ry] / s_rep
            if (coeff < -KERNEL_TOL).any():
                k = int(np.argmax(coeff < -KERNEL_TOL))
                raise AxiomViolation("3", (i, j, k), "negative span coefficient")
            coeff = np.where(0.0 > coeff, 0.0, coeff)   # max(coeff, 0.0), -0.0 kept
            ptilde[i, j] = coeff
            resid = np.abs(prod - coeff[lab] * s_lab)
            if resid.max() > 1e-8:
                x, y = map(int, np.argwhere(resid > 1e-8)[0])
                raise AxiomViolation("3", (i, j, int(lab[x, y]), x, y),
                                     "kernel product leaves the span of the family")
    return ptilde


def finite_rigidity_check(gs: GeneralizedScheme) -> bool:
    """True iff every kernel equals the renormalized adjacency of its relation.

    The finite rigidity theorem predicts this holds for every input accepted
    by verify_generalized, which verifies the partition; the adjacency of
    relation i is renormalized here by its row counts, the valency on a
    scheme.
    """
    lab = gs.partition.label
    adj = lab[None] == np.arange(gs.partition.n_relations)[:, None, None]
    stochastic = adj / np.maximum(adj.sum(axis=2, keepdims=True), 1)
    return bool((np.abs(gs.kernels - stochastic).max(axis=(1, 2)) <= 1e-8).all())


def translation_property_check(scheme: AssociationScheme) -> tuple[bool, bool]:
    """Check the two translation properties on a unimodular scheme.

    T1: for all h, x and indicators f = 1_{r}, f_h(pi(x,.)) == T_h(f(pi(x,.)))
    exactly, with the hypergroup convolution on the label side.
    T2: sum_h valency_h * S_h(x, .) is the counting-measure row for all x.
    Both computed in exact integer arithmetic.
    """
    if not scheme.is_unimodular():
        raise NotUnimodular("translation properties are defined for unimodular schemes")
    d = scheme.n_relations
    inv, p, w = scheme.involution, scheme.p, scheme.valency

    # T1 reduces to (1/w_h) p_{r, bar h}^{label(x,y)} == (delta_label * delta_h)({r})
    # == (w_r / (w_label w_h)) p_{label, h}^{r}; times w_h w_k, over the
    # integers at [h, r, k = label(x, y)]
    lhs = p[:, inv, :].transpose(1, 0, 2) * w[None, None, :]
    rhs = w[None, :, None] * p.transpose(1, 2, 0)
    t1 = bool(np.array_equal(lhs, rhs))

    # T2: sum_h w_h * A_h / w_h = sum_h A_h = all-ones matrix
    t2 = bool((sum(scheme.partition.adjacency(h) for h in range(d)) == 1).all())
    return t1, t2
