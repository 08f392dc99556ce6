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
ROW_SUM_TOL = 1e-8      # a kernel row adds up to n entries, each given with its own rounding


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

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, order): relation i's flat cells are order[starts[i]:starts[i + 1]]."""
        flat = self.label.ravel()       # sorted stably, so each relation's cells ascend
        starts = np.concatenate(([0], np.bincount(flat, minlength=self.n_relations).cumsum()))
        # in the narrowest unsigned dtype: a radix sort below 2**16 relations
        keys = flat.astype(np.min_scalar_type(self.n_relations - 1))
        return starts, np.argsort(keys, kind="stable")

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

    @cached_property
    def _order(self) -> tuple:
        """_generation(p) in full, kept: it reads only the support of p, which
        from_scheme's tensor shares, so that hypergroup keeps it too."""
        return tuple(_generation(self.p))


@dataclass(frozen=True, init=False)
class GeneralizedScheme:
    """A partition with stochastic kernels S_i and a positive point weight
    omega_x satisfying the adjoint relation, held as read-only float64
    copies no caller holds: omega_x and W(x, y) = S_label(x,y)(x, y).  So
    the family verifies once: verified is computed on first use and kept,
    and a family that fails raises again on every use."""

    partition: RelationPartition
    W: np.ndarray        # shape (n_points, n_points)
    omega_x: np.ndarray  # shape (n_points,)
    # W holds no entry of S_i off relation i.  For the first S_i given one
    # outside +-KERNEL_TOL, or NaN: (i, the args of its axiom (2) AxiomViolation)
    _stray: tuple = field(repr=False)
    # the two families a product or join was built from (see _scheme), or ()
    _factors: tuple = field(repr=False)

    def __init__(self, partition: RelationPartition, kernels, omega_x):
        k = np.asarray(kernels, dtype=float)
        n, d, lab = partition.n_points, partition.n_relations, partition.label
        if k.shape != (d, n, n):
            raise ValueError(f"kernels must have shape ({d}, {n}, {n})")
        stray = next(((i, _support_failure(i, k[i], lab)) for i in range(d)
                      if (~(np.abs(k[i]) <= KERNEL_TOL) & (lab != i)).any()), ())
        self._hold(partition, np.take_along_axis(k, lab[None], axis=0)[0],
                   np.array(omega_x, dtype=float), stray)

    @classmethod
    def _adopt(cls, partition: RelationPartition, W: np.ndarray, omega_x: np.ndarray,
               scheme: AssociationScheme | None = None,
               factors: tuple = ()) -> "GeneralizedScheme":
        """The family of float64 arrays that the library has just built and
        no one else holds, taken over without a copy; with the verified
        scheme of partition, or the factors it was built from (see _scheme)."""
        gs = object.__new__(cls)
        gs._hold(partition, W, omega_x, (), factors)
        if scheme is not None:
            vars(gs)["_scheme"] = scheme
        return gs

    def _hold(self, partition: RelationPartition, W: np.ndarray, w: np.ndarray, stray,
              factors=()):
        """Check the shape of w and keep the arrays, read-only."""
        if w.shape != (partition.n_points,):
            raise ValueError(f"omega_x must have shape ({partition.n_points},)")
        for a in (W, w):
            a.setflags(write=False)
        vars(self).update(partition=partition, W=W, omega_x=w, _stray=stray,
                          _factors=factors)

    def _weights(self) -> np.ndarray:
        """W; a family given a stray entry (see _stray) raises its first verified failure."""
        if self._stray:
            self.verified
        return self.W

    @property
    def kernels(self) -> np.ndarray:
        """The S_i, from W: a new read-only (n_relations, n, n) array."""
        S = np.zeros((self.partition.n_relations, *self.W.shape))
        np.put_along_axis(S, self.partition.label[None], self._weights()[None], axis=0)
        S.setflags(write=False)
        return S

    def _kernel(self, i: int) -> np.ndarray:
        """S_i alone: W's cells of relation i, scattered into zeros."""
        starts, order = self.partition._index
        cells, S = order[starts[i]:starts[i + 1]], np.zeros(self.W.size)
        S[cells] = self.W.ravel()[cells]
        return S.reshape(self.W.shape)

    @cached_property
    def _scheme(self) -> AssociationScheme:
        """The partition's verified scheme, kept apart from p~.  A canonical
        family holds the scheme it was built from.  A product or join of two
        families whose partitions are schemes is a scheme (Bannai and Ito,
        Algebraic Combinatorics I, 1984), so it takes the structural pass of
        verify_scheme alone: the counting check is proved.  Every other
        family, and one whose factor fails, runs verify_scheme, whose
        failure it raises."""
        try:
            for factor in self._factors:
                factor._scheme
        except (AxiomViolation, ValueError):
            return verify_scheme(self.partition)
        return _structure(self.partition) if self._factors else verify_scheme(self.partition)

    @cached_property
    def verified(self) -> tuple[AssociationScheme, np.ndarray]:
        """(scheme, p~): the partition's scheme (see _scheme) and the
        read-only deformed tensor of _verify_kernels; see verify_generalized."""
        scheme = self._scheme
        ptilde = _verify_kernels(self, scheme)
        ptilde.setflags(write=False)
        return scheme, ptilde


def _representatives(partition: RelationPartition) -> tuple[np.ndarray, np.ndarray]:
    """(rx, ry): the first row-major cell of each relation."""
    starts, order = partition._index
    if (starts[:-1] == starts[1:]).any():
        i = int(np.argmax(starts[:-1] == starts[1:]))
        raise AxiomViolation("relation-empty", (i,), f"relation {i} never occurs")
    return np.divmod(order[starts[:-1]], partition.n_points)


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


# float32 holds every integer up to 2**24 exactly, and every partial sum of
# an entry of A_i A_j counts at most n points, so the single-precision BLAS
# products below are exact counts while n < 2**24, in any summation order.
_EXACT_FLOAT_COUNT = 2 ** 24


def _generation(num: np.ndarray):
    """Yield (x, pair) for every slice x of num, in the order the closure
    below reaches them: pair is None for a slice that must be checked, and
    (y, z) for a slice generated by two slices yielded before it.  The
    caller may stop at any slice; _generators gives the checked ones.

    num is a hypergroup tensor or a scheme's p.  Slice x passes iff delta_x
    lies in the left nucleus (Teichmueller identity), or A_x maps the
    Bose-Mesner span into itself: a subalgebra either way, so once the
    checked slices pass, so does that of every x their deltas or A_x
    generate.  Those x are found by closure: x is generated when it is the
    one support point of num[y, z], for generated y and z, not yet generated.
    """
    n = num.shape[0]
    support = num.reshape(n * n, n) != 0       # [(y, z), x]
    # score[(y, z)] + 1 counts the support points of num[y, z] not yet
    # generated, plus n + 1 for each of y, z not yet generated.  So 0 marks
    # a pair that generates one more element, and a pair with nothing left to
    # generate wraps to the top of the type.  Generating x lowers score by
    # gain[x].  Scores stay at most 3n + 1 (gains 2n + 3) until they wrap,
    # within uint16 for every d that verify_scheme admits
    gain = support.T.astype(np.uint16, order="C")
    score = gain.sum(axis=0, dtype=np.uint16) + 2 * n + 1
    at = np.arange(n)
    gain.reshape(n, n, n)[at, at, :] += n + 1      # the pairs (x, z)
    gain.reshape(n, n, n)[at, :, at] += n + 1      # the pairs (y, x)
    fresh = np.ones(n, dtype=bool)             # not yet generated
    for i in range(n):
        if not fresh[i]:
            continue
        x, pair = i, None
        while True:
            yield x, pair
            fresh[x] = False
            score -= gain[x]
            yz = int(score.argmin())
            if score[yz] != 0:
                break
            x, pair = int((support[yz] & fresh).argmax()), divmod(yz, n)


def _generators(of) -> list:
    """The i whose slices must be checked (see _generation), in increasing
    order; the caller stops at the first that fails.  of is a tensor, or an
    AssociationScheme or FiniteHypergroup, whose kept _order is read.  A
    list, so a closure's 3 d^3 bytes are freed before any slice product is
    made."""
    order = _generation(of) if isinstance(of, np.ndarray) else of._order
    return [x for x, pair in order if pair is None]


def _intersections(lab: np.ndarray, rx: np.ndarray, ry: np.ndarray,
                   weights: np.ndarray | None = None) -> np.ndarray:
    """[i, j, k] -> the sum of weights[k * n + z] (1 if None) over the z with
    label(rx_k, z) = i and label(z, ry_k) = j, in ascending z, by one
    bincount: p at the first cells, p~ W(rx_k, ry_k) at the first maxima."""
    d = len(rx)
    keys = (lab[rx] * d + lab[:, ry].T) * d + np.arange(d)[:, None]   # z's bin, per k
    return np.bincount(keys.ravel(), weights, minlength=d ** 3).reshape(d, d, d)


def _structure(partition: RelationPartition) -> AssociationScheme:
    """verify_scheme without its counting check: the size guards, the
    diagonal, relation-empty and involution axioms, and p and the
    valencies, read-only, at each relation's representative.  p is a
    scheme's intersection numbers only once the counting check passes, or
    is proved."""
    lab = partition.label
    n, d = partition.n_points, partition.n_relations
    e = partition.identity_relation
    if n >= _EXACT_FLOAT_COUNT:
        raise ValueError(f"{n} points: float32 counts are exact only below 2**24")
    if 3 * d + 1 >= 2 ** 16:
        raise ValueError(f"{d} relations: _generators' uint16 scores need 3d + 1 < 2**16")

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

    need, have = 11 * d ** 3, _physical_memory()   # 8 bytes p, 3 _generators
    if need > have:
        raise ValueError(f"{d} relations: p needs {need / 2**30:.3g} GiB with its "
                         f"check, more than the {have / 2**30:.3g} GiB of memory")
    p = _intersections(lab, rx, ry)
    valency = p[np.arange(d), inv, e]
    for a in (inv, p, valency):
        a.setflags(write=False)
    return AssociationScheme(partition=partition, involution=inv, p=p, valency=valency)


def verify_scheme(partition: RelationPartition) -> AssociationScheme:
    """Check the association scheme axioms and compute p-tensor and valencies.

    The structural pass (_structure) checks the diagonal, that every
    relation occurs and the involution, and reads p[i, j, k] = #{z :
    label(rx_k, z) = i, label(z, ry_k) = j} at the first row-major cell
    (rx_k, ry_k) of each relation k, in O(n^2 + d n).  The counting axiom
    A_i A_j = sum_k p[i, j, k] A_k is then checked, one float32 BLAS
    product of 0/1 matrices per j != e, exact as its counts stay below n <
    2^24, only on the slices i != e that _generators lists (A_e = I); they
    prove the rest.  The scheme keeps that generating order (_order).  Once
    the diagonal axiom holds, p[i, e, k] = delta_ik, so A_i A_e = A_i =
    p[i, e][lab] needs no product.  Memory is O(n^2 + d^3): ValueError,
    before p is allocated, when its 8 d^3 bytes and the 3 d^3 of
    _generators exceed the physical memory, or when 3d + 1 >= 2^16 would
    overflow _generators' uint16 scores.  Raises AxiomViolation (with axiom
    id and witness) if the partition is not a scheme.  p, the involution
    and the valencies are read-only.
    """
    scheme = _structure(partition)
    lab, p, d = partition.label, scheme.p, partition.n_relations
    e = partition.identity_relation
    for i in _generators(scheme):
        if i == e:
            continue
        a_i = (lab == i).astype(np.float32)
        for j in range(d):
            if j == e:
                continue
            prod = a_i @ (lab == j).astype(np.float32)
            bad = prod != p[i, j].astype(np.float32)[lab]
            if bad.any():
                k = int(lab[bad].min())
                xb, yb = map(int, np.argwhere(bad & (lab == k))[0])
                rx, ry = _representatives(partition)
                x0, y0 = int(rx[k]), int(ry[k])
                raise AxiomViolation(
                    "counting", (i, j, k, x0, y0, xb, yb),
                    f"p_({i},{j})^{k} is not constant: "
                    f"{int(p[i, j, k])} at ({x0},{y0}) vs {int(prod[xb, yb])} "
                    f"at ({xb},{yb})")
    return scheme


def _group_table(cayley: np.ndarray) -> tuple[int, np.ndarray]:
    """Check a multiplication table is a group; return the identity index
    and the table in the narrowest unsigned dtype that holds n - 1, which
    moves a quarter or less of int64's bytes through the gathers below.

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
    t = t.astype(np.min_scalar_type(n - 1))
    ar = np.arange(n, dtype=t.dtype)
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
            nxt = np.bincount(t[np.ix_(frontier, gens)].ravel(), minlength=n) > 0
            frontier = np.flatnonzero(nxt & ~reached)
            reached[frontier] = True
    return ident, t


def from_double_cosets(cayley: np.ndarray, subgroup) -> tuple[np.ndarray, AssociationScheme]:
    """Scheme of the coset space G/H with relations the double cosets HgH.

    Returns (coset_of: array mapping group elements to coset indices, scheme).
    """
    ident, t = _group_table(cayley)
    H = np.array(sorted(set(int(h) for h in subgroup)), dtype=np.int64)
    if ((H < 0) | (H >= len(t))).any():
        raise ValueError(f"subgroup indices must lie in 0..{len(t) - 1}")
    if ident not in H:
        raise NotASubgroup("identity not in subgroup")
    inverse = np.argmax(t == ident, axis=1)
    member = np.zeros(len(t), dtype=bool)      # not np.isin: its sort path
    member[H] = True                           # imports numpy.ma on first use
    inv_out = ~member[inverse[H]]
    prod_out = ~member[t[np.ix_(H, H)]]
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
    """The canonical kernel family S_i = A_i / valency_i with counting omega_x,
    on the partition of scheme, which it keeps as verified."""
    if not scheme.is_unimodular():
        raise NotUnimodular("canonical kernels need a unimodular scheme")
    return GeneralizedScheme._adopt(scheme.partition,
                                    1.0 / scheme.valency[scheme.partition.label],
                                    np.ones(scheme.n_points), scheme=scheme)


def verify_generalized(gs: GeneralizedScheme) -> np.ndarray:
    """Check the generalized-scheme axioms; return the deformed tensor p~.

    Axiom ids follow the five conditions of the definition: (1) constant
    counting on the partition, (2) support matching, (3) nonnegative span
    closure, (4) identity kernel, (5) adjoint relation.  The checks run once
    per family, in gs.verified; each call returns a copy of p~ of its own,
    read as p is (_intersections) at each relation's first largest W.
    (1) is verify_scheme on the partition, unless the family took its
    scheme from verified inputs: canonical_generalized's scheme, or a
    product or join of families whose partitions are schemes, which is one
    by theorem, so only the structural pass runs (see GeneralizedScheme._scheme).

    A family within _CANONICAL_DEVIATION of the canonical one, W(x, y) =
    (1 + eta) / valency_label(x,y) with |eta| <= 1e-9 and no stray entry,
    passes (2) and (3) by the proof in _verify_kernels: only (4), (5) and
    p~ are computed for it, and no kernel is built.  This is the finite
    rigidity theorem's case: every family that passes is the canonical one.

    On every other family span closure, S_i S_j = sum_k p~[i, j, k] S_k
    within SPAN_TOL at every entry, is checked for every (i, j) without a
    product of kernels: each entry of S_i S_j on the support of p[i, j] is
    summed from the k_i cells of relation i in its row (see _verify_kernels),
    and every other entry is 0.  On a failure the witness is the first
    failing (i, j), then the row-major first (x, y).  p~ >= 0 holds without
    a test: past (2) every kernel entry is a nonnegative double, and so are
    their products.  The kernels are built one at a time, for (2) alone.
    """
    return gs.verified[1].copy()


def _support_failure(i: int, S_i: np.ndarray, lab: np.ndarray):
    """The AxiomViolation arguments of kernel i's first axiom (2) failure, or None."""
    off = ~(S_i <= KERNEL_TOL) != (lab == i)
    if off.any():
        x, y = map(int, np.argwhere(off)[0])
        return "2", (i, x, y), f"support of kernel {i} does not match relation {i}"
    rows = np.abs(S_i.sum(axis=1) - 1.0)
    if not rows.max() <= ROW_SUM_TOL:
        x = int(np.argmax(rows))
        return "2", (i, x), f"kernel {i} row {x} not stochastic"
    if S_i.min() < -KERNEL_TOL:
        x, y = map(int, np.argwhere(S_i < -KERNEL_TOL)[0])
        return "2", (i, x, y), "negative kernel entry"


# A family within this relative deviation of the canonical one on a
# verified scheme, |W(x, y) k_label(x,y) - 1| <= _CANONICAL_DEVIATION at
# every cell, passes axioms (2) and (3); the proof is in _verify_kernels.
_CANONICAL_DEVIATION = 1e-9


def _canonical(W: np.ndarray, count: np.ndarray) -> bool:
    """|W count - 1| <= _CANONICAL_DEVIATION at every cell; NaN fails it."""
    return bool(np.abs(W * count - 1.0).max() <= _CANONICAL_DEVIATION)


# Span closure's absolute tolerance: entries of S_i S_j are at most 1, and
# any sum of n < 2**24 of their terms rounds by less than 1.87e-9 of it.
SPAN_TOL = 1e-8

# The bytes one block of span closure's scan may take, at about 40 per
# term: rows * k_i * n terms, or one row's cells z in parts of cols * n.
_SPAN_BLOCK_BYTES = 2 ** 21


def _verify_kernels(gs: GeneralizedScheme, scheme: AssociationScheme) -> np.ndarray:
    """Axioms (2)-(5) of verify_generalized for kernels on a partition that
    is already proved a scheme (GeneralizedScheme._scheme); returns p~.  Only
    GeneralizedScheme.verified calls it.

    A family with no stray entry whose deviation delta = max |W(x, y)
    k_label(x,y) - 1| from the canonical family A_i / k_i is at most
    _CANONICAL_DEVIATION passes (2) and (3) without a test: write S_i =
    (A_i / k_i)(1 + eta) with |eta| <= delta, u = 2^-53 and gamma_n = n u /
    (1 - n u), below 1.87e-9 as n < 2^24.  (2): every entry on relation i
    is at least (1 - delta) / n > KERNEL_TOL, none lies off it, and a row
    sum of k_i nonnegative terms is within delta + gamma_n (1 + delta) of 1
    in any order.  (3): for (x, y) in relation k, (S_i S_j)(x, y) sums
    p[i, j, k] terms (1 + eta)(1 + eta') / (k_i k_j), so it is c (1 + theta)
    with c = p[i, j, k] / (k_i k_j) <= 1 (sum_k p[i, j, k] k_k = k_i k_j)
    and |theta| <= 2 delta + delta^2, and any sum of these nonnegative
    terms, in any order, p~'s bincount in ascending z included, is within
    gamma_n of it.  The fit p~[i, j, k] W(x, y) is c (1 + theta_k)(1 +
    eta) / (1 + eta_k), theta_k and eta_k read at (rx_k, ry_k), up to
    gamma_n and the division and product that round it; the subtraction
    rounds once more.  So every residual is at most c (6 delta + 2 gamma_n
    + 3u + O(delta^2)) < 9.8e-9 < SPAN_TOL, and delta is measured within
    2^-52.  Such a family skips the axiom (2) scan and span closure's
    scan; (4), (5) and p~ run as on every family, so p~ is the same bit
    for bit, and a failure, which only (4) or (5) can give, the same one.

    Every other family takes the checks below.  (3) scans every slice i in
    order, in blocks of rows x: the k_i cells z of relation i in row x, read
    in order from the partition index, put W(x, z) W(z, y) into the bin
    (x, y, j = label(z, y)), so that bin holds (S_i S_j)(x, y), summed in z
    order (a row past the block budget in parts of cells z, whose sums
    add), and is compared with p~[i, j, label(x, y)] W(x, y).  On the
    verified scheme the bins of (x, y) are exactly the j of the support of
    p[i, :, label(x, y)], where p~ has its support; every other entry of S_i
    S_j, and of its fit, is 0.  The witness is the smallest failing (i, j),
    then the row-major first (x, y), as in the check of all d^2 products."""
    part = gs.partition
    n, d = part.n_points, part.n_relations
    lab, W = part.label, gs.W
    proved = not gs._stray and _canonical(W, scheme.valency[lab])
    if not proved:
        # (2) support condition and row-stochasticity; each test is written
        # so that NaN fails it, which leaves every kernel finite after this
        # loop.  The recorded stray kernel fails here, so after it W holds
        # every kernel
        for i in range(d):
            fail = (gs._stray[1] if gs._stray[:1] == (i,)
                    else _support_failure(i, gs._kernel(i), lab))
            if fail:
                raise AxiomViolation(*fail)

    # (4) identity kernel, the diagonal of W
    e = part.identity_relation
    if np.abs(np.diag(W) - 1.0).max() > KERNEL_TOL:
        raise AxiomViolation("4", (e,), "identity kernel is not the identity matrix")

    # (5) adjoint relation omega(y) W(y, x) = omega(x) W(x, y) at all pairs;
    # the witness (i, x, y) is the first of kernel i = label(x, y), the
    # smallest i that fails
    w = gs.omega_x
    if not ((w > 0) & (w < np.inf)).all():
        raise AxiomViolation("5", None, "omega_x must be finite and strictly positive")
    flow = w[:, None] * W
    bad = np.abs(flow - flow.T) > KERNEL_TOL * max(1.0, w.max())
    if bad.any():
        i = int(lab.T[bad].min())
        y, x = map(int, np.argwhere(bad & (lab.T == i))[0])
        raise AxiomViolation("5", (i, x, y), "adjoint relation fails")

    # (3) span closure; p~ is read at each relation's largest W entry
    starts, cells = part._index
    vals = W.ravel()[cells]     # W is finite and no relation is empty here
    hits = np.flatnonzero(vals == np.maximum.reduceat(vals, starts[:-1]).repeat(np.diff(starts)))
    rx, ry = np.divmod(cells[hits[np.searchsorted(hits, starts[:-1])]], n)  # first maxima
    ptilde = _intersections(lab, rx, ry, (W[rx] * W[:, ry].T).ravel())
    ptilde /= W[rx, ry]
    if proved:
        return ptilde

    for i in range(d):
        # bin s of a cell of relation h holds the s-th j with p[i, j, h] > 0
        support = scheme.p[i] != 0                  # [j, h]
        slot = support.cumsum(axis=0) - 1
        hs, js = np.nonzero(support.T)
        m = int(slot[-1].max()) + 1
        bin_j, bin_fit = np.zeros((d, m), dtype=np.intp), np.zeros((d, m))
        at = hs, slot[js, hs]
        bin_j[at], bin_fit[at] = js, ptilde[i, js, hs]

        z = cells[starts[i]:starts[i + 1]]          # row-major, k cells in each row
        k = z.size // n
        w_xz = W.ravel()[z].reshape(n, k, 1)
        z = (z % n).reshape(n, k)
        rows = _SPAN_BLOCK_BYTES // (40 * k * n)    # 0: a row past the budget, cols cells z at a time
        rows, cols = (rows, k) if rows else (1, max(1, _SPAN_BLOCK_BYTES // (40 * n)))
        worst = (d,)        # (j, x, y) of the smallest failing j, first row-major
        for x0 in range(0, n, rows):
            lab_xy = lab[x0:x0 + rows]
            b = len(lab_xy)
            bins = np.zeros((b, n, m))
            for c0 in range(0, k, cols):
                zb = z[x0:x0 + b, c0:c0 + cols]
                key = slot[lab[zb], lab_xy[:, None]]    # [x, z, y] -> bin of label(z, y)
                key += (np.arange(b * n) * m).reshape(b, 1, n)
                terms = W[zb]
                terms *= w_xz[x0:x0 + b, c0:c0 + cols]
                bins += np.bincount(key.ravel(), terms.ravel(), b * n * m).reshape(b, n, m)
            fit = bin_fit[lab_xy]
            fit *= W[x0:x0 + b, :, None]
            bins -= fit
            bad = np.abs(bins, out=bins) > SPAN_TOL
            if bad.any():
                j_bad = np.where(bad, bin_j[lab_xy], d)
                j = int(j_bad.min())
                if j < worst[0]:
                    x, y = map(int, np.argwhere((j_bad == j).any(axis=2))[0])
                    worst = (j, x0 + x, y)
        if worst[0] < d:
            j, x, y = worst
            raise AxiomViolation("3", (i, j, int(lab[x, y]), x, y),
                                 "kernel product leaves the span of the family")
    return ptilde


def finite_rigidity_check(gs: GeneralizedScheme) -> bool:
    """True iff every kernel equals the renormalized adjacency of its relation.

    The finite rigidity theorem predicts this holds for every input accepted
    by verify_generalized, which verifies the partition.  W(x, y) is
    compared with 1 / #{z : label(x, z) = label(x, y)}, the valency on a
    scheme, by the kernel check's early test (_canonical), in O(n^2) as d
    <= n there; a family given a stray entry fails.
    """
    lab = gs.partition.label
    key = np.arange(lab.shape[0])[:, None] * gs.partition.n_relations + lab
    count = np.bincount(key.ravel())[key]
    return not gs._stray and _canonical(gs.W, count)


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
    # integers at [r, k = label(x, y)], one h at a time, to the first mismatch
    t1 = all(np.array_equal(p[:, inv[h], :] * w, w[:, None] * p[:, h, :].T)
             for h in range(d))

    # T2: sum_h w_h * A_h / w_h = sum_h A_h = all-ones matrix
    t2 = bool((sum(scheme.partition.adjacency(h) for h in range(d)) == 1).all())
    return t1, t2
