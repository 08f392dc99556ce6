"""Reference oracle: the scalar-loop verifiers the array kernels replaced.

The loops are kept as they were, without type hints and exception messages,
so the differential tests can assert that the array kernels return the same
tensors, the same first failure and the same witness.  Not part of the
library; d^3 masked scans, d^4 tensors, all d associativity slices, an n^3
group-table scan, one character refinement matvec per eigenvector and
operator, and a per-row Python sort key for the character order.
"""

import numpy as np
import scipy.linalg

from hyperscheme.hypergroup import (TOL, CharacterTable, DegenerateSpectrum,
                                    HypergroupReport, NotCommutative, _absmax,
                                    _int_dtype, haar)
from hyperscheme.scheme import (AssociationScheme, AxiomViolation, NotAGroup,
                                NotASubgroup, RelationPartition)


def representatives(partition):
    """The first row-major cell of each relation, by np.unique over the
    flat labels, as verify_scheme found them before the relation index."""
    flat = partition.label.ravel()
    labels, first = np.unique(flat, return_index=True)
    if labels.size < partition.n_relations:
        missing = np.setdiff1d(np.arange(partition.n_relations), labels)
        i = int(missing[0])
        raise AxiomViolation("relation-empty", (i,), f"relation {i} never occurs")
    return np.divmod(first, partition.n_points)


def recover_involution(partition):
    lab = partition.label
    d = partition.n_relations
    inv = np.full(d, -1, dtype=np.int64)
    for i in range(d):
        xs, ys = np.nonzero(lab == i)
        if xs.size == 0:
            raise AxiomViolation("relation-empty", (i,), f"relation {i} never occurs")
        inv[i] = lab[ys[0], xs[0]]
    if not np.array_equal(lab.T, inv[lab]):
        bad = np.argwhere(lab.T != inv[lab])[0]
        raise AxiomViolation("involution", tuple(int(v) for v in bad),
                             "transpose labeling is not a relabeling by an involution")
    if not np.array_equal(inv[inv], np.arange(d)):
        raise AxiomViolation("involution", None, "relation map is not an involution")
    return inv


def verify_scheme(partition):
    lab = partition.label
    n, d = partition.n_points, partition.n_relations
    e = partition.identity_relation

    diag = np.diag(lab)
    if not np.all(diag == e):
        x = int(np.nonzero(diag != e)[0][0])
        raise AxiomViolation("diagonal", (x, x), "label(x,x) != identity relation")
    off = lab == e
    np.fill_diagonal(off, False)
    if off.any():
        x, y = map(int, np.argwhere(off)[0])
        raise AxiomViolation("diagonal", (x, y), "identity relation off the diagonal")

    inv = recover_involution(partition)

    adj = np.stack([partition.adjacency(i) for i in range(d)])
    p = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            prod = adj[i] @ adj[j]
            for k in range(d):
                mask = lab == k
                vals = prod[mask]
                v0 = vals[0]
                if not np.all(vals == v0):
                    xs, ys = np.nonzero(mask)
                    bad = int(np.nonzero(vals != v0)[0][0])
                    witness = (i, j, k, int(xs[0]), int(ys[0]),
                               int(xs[bad]), int(ys[bad]))
                    raise AxiomViolation("counting", witness)
                p[i, j, k] = v0

    valency = np.array([p[i, inv[i], e] for i in range(d)], dtype=np.int64)
    return AssociationScheme(partition=partition, involution=inv, p=p, valency=valency)


def verify_group_table(cayley):
    t = np.asarray(cayley, dtype=np.int64)
    n = t.shape[0]
    if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
        raise NotAGroup("table is not square over valid indices")
    ident = None
    for g in range(n):
        if np.array_equal(t[g], np.arange(n)) and np.array_equal(t[:, g], np.arange(n)):
            ident = g
            break
    if ident is None:
        raise NotAGroup("no identity element")
    for g in range(n):
        if ident not in t[g]:
            raise NotAGroup(f"element {g} has no inverse")
    for g in range(n):
        if not np.array_equal(t[t[g]], t[g][t]):
            raise NotAGroup(f"associativity fails involving element {g}")
    return ident


def from_double_cosets(cayley, subgroup):
    t = np.asarray(cayley, dtype=np.int64)
    n = t.shape[0]
    ident = verify_group_table(t)
    H = sorted(set(int(h) for h in subgroup))
    if ident not in H:
        raise NotASubgroup("identity not in subgroup")
    inverse = np.empty(n, dtype=np.int64)
    for g in range(n):
        inverse[g] = int(np.nonzero(t[g] == ident)[0][0])
    for h1 in H:
        if inverse[h1] not in H:
            raise NotASubgroup(f"{h1} has inverse outside the subset")
        for h2 in H:
            if t[h1, h2] not in H:
                raise NotASubgroup(f"{h1}*{h2} leaves the subset")

    coset_of = np.full(n, -1, dtype=np.int64)
    reps = []
    for g in range(n):
        if coset_of[g] < 0:
            idx = len(reps)
            reps.append(g)
            for h in H:
                coset_of[t[g, h]] = idx
    n_cosets = len(reps)

    dcoset_of = np.full(n, -1, dtype=np.int64)
    n_dcosets = 0
    for g in [ident] + [g for g in range(n) if g != ident]:
        if dcoset_of[g] < 0:
            idx = n_dcosets
            n_dcosets += 1
            for h1 in H:
                for h2 in H:
                    dcoset_of[t[t[h1, g], h2]] = idx

    lab = np.empty((n_cosets, n_cosets), dtype=np.int64)
    for x, gx in enumerate(reps):
        for y, gy in enumerate(reps):
            lab[x, y] = dcoset_of[t[inverse[gx], gy]]
    partition = RelationPartition(n_points=n_cosets, n_relations=n_dcosets, label=lab)
    return coset_of, verify_scheme(partition)


def verify_generalized(gs, tol=1e-9):
    part = gs.partition
    n, d = part.n_points, part.n_relations
    e = part.identity_relation
    lab = part.label
    S = gs.kernels

    scheme = verify_scheme(part)

    for i in range(d):
        pos = ~(S[i] <= tol)            # a NaN entry is in no support
        want = lab == i
        if not np.array_equal(pos, want):
            x, y = map(int, np.argwhere(pos != want)[0])
            raise AxiomViolation("2", (i, x, y))
        rows = S[i].sum(axis=1)
        if not np.abs(rows - 1.0).max() <= 1e-8:
            x = int(np.argmax(np.abs(rows - 1.0)))
            raise AxiomViolation("2", (i, x))
        if S[i].min() < -tol:
            x, y = map(int, np.argwhere(S[i] < -tol)[0])
            raise AxiomViolation("2", (i, x, y))

    if np.abs(S[e] - np.eye(n)).max() > tol:
        raise AxiomViolation("4", (e,))

    inv = scheme.involution
    w = gs.omega_x
    if w.min() <= 0:
        raise AxiomViolation("5", None)
    for i in range(d):
        lhs = w[:, None] * S[inv[i]]
        rhs = (w[:, None] * S[i]).T
        if np.abs(lhs - rhs).max() > tol * max(1.0, w.max()):
            y, x = map(int, np.argwhere(np.abs(lhs - rhs) > tol * max(1.0, w.max()))[0])
            raise AxiomViolation("5", (i, x, y))

    ptilde = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            prod = S[i] @ S[j]
            recon = np.zeros((n, n))
            for k in range(d):
                mask = lab == k
                sk = np.where(mask, S[k], 0.0)
                if not mask.any():
                    continue
                flat = np.argmax(np.where(mask, S[k], -np.inf))
                x, y = np.unravel_index(flat, (n, n))
                coeff = prod[x, y] / S[k][x, y]
                if coeff < -tol:
                    raise AxiomViolation("3", (i, j, k))
                coeff = max(coeff, 0.0)
                ptilde[i, j, k] = coeff
                recon += coeff * sk
            if np.abs(prod - recon).max() > 1e-8:
                x, y = map(int, np.argwhere(np.abs(prod - recon) > 1e-8)[0])
                raise AxiomViolation("3", (i, j, int(lab[x, y]), x, y))
    return ptilde


def gathered(lab, W, rx, ry):
    """[i, j, k] -> (S_i S_j)(rx_k, ry_k), for the kernels S_i that W holds
    on the partition lab, from one d x n by n x d product per relation k:
    the rows S_i(rx_k, .) by the columns S_j(., ry_k), row rx_k and column
    ry_k of W spread over their labels.  The BLAS fill that p~ came from
    before one bincount read it; d^3 n flops, in an order BLAS chooses."""
    n, d = W.shape[0], len(rx)
    at, out = np.arange(n), np.empty((d, d, d))
    for k, (x, y) in enumerate(zip(rx, ry)):
        rows, cols = np.zeros((n, d)), np.zeros((n, d))
        rows[at, lab[x]] = W[x]
        cols[at, lab[:, y]] = W[:, y]
        out[:, :, k] = rows.T @ cols
    return out


def verify_hypergroup(h, tol=1e-9):
    """Never raises; returns the report with every failure."""
    c = h.conv_f
    n, e, inv = h.n, h.identity, h.involution
    failures = []

    if c.min() < -tol:
        i, j, k = map(int, np.argwhere(c < -tol)[0])
        failures.append(AxiomViolation("nonnegative", (i, j, k)))
    sums = c.sum(axis=2)
    if np.abs(sums - 1.0).max() > 1e-8:
        i, j = map(int, np.argwhere(np.abs(sums - 1.0) > 1e-8)[0])
        failures.append(AxiomViolation("normalization", (i, j)))

    for x in range(n):
        want = np.zeros(n)
        want[x] = 1.0
        if np.abs(c[x, e] - want).max() > tol or np.abs(c[e, x] - want).max() > tol:
            failures.append(AxiomViolation("identity", (x,)))

    for x in range(n):
        for y in range(n):
            has_e = c[x, y, e] > tol
            if has_e != (y == inv[x]):
                failures.append(AxiomViolation("support-of-identity", (x, y)))

    for x in range(n):
        for y in range(n):
            lhs = c[x, y]
            rhs = c[inv[y], inv[x]][inv]
            if np.abs(lhs - rhs).max() > tol:
                failures.append(AxiomViolation("involution-compat", (x, y)))

    assoc_lhs = np.einsum("ijm,mlk->ijlk", c, c)
    assoc_rhs = np.einsum("jlm,imk->ijlk", c, c)
    if np.abs(assoc_lhs - assoc_rhs).max() > 1e-8:
        i, j, l, k = map(int, np.argwhere(np.abs(assoc_lhs - assoc_rhs) > 1e-8)[0])
        failures.append(AxiomViolation("associativity", (i, j, l, k)))

    return HypergroupReport(ok=not failures, commutative=h.is_commutative(),
                            symmetric=h.is_symmetric(), failures=failures)


def verify_hypergroup_slices(h):
    """The array verifier before associativity was proved on a generating
    set: every slice i is checked, O(d^5) time and O(d^3) memory.  Never
    raises."""
    exact = h.is_exact
    c, one = (h.num, h.den) if exact else (h.conv_f, 1.0)
    n, e, inv = h.n, h.identity, h.involution
    failures = []

    def far(x, y, limit):
        return x != y if exact else np.abs(x - y) > limit

    if not exact and not np.isfinite(c).all():
        i, j, k = map(int, np.argwhere(~np.isfinite(c))[0])
        failures.append(AxiomViolation("finite", (i, j, k)))
    eps = 0 if exact else TOL
    if c.min() < -eps:
        i, j, k = map(int, np.argwhere(c < -eps)[0])
        failures.append(AxiomViolation("nonnegative", (i, j, k)))
    sums = c.sum(axis=2, dtype=_int_dtype(n * _absmax(c)) if exact else None)
    bad_sums = far(sums, one, 1e-8)
    if bad_sums.any():
        i, j = map(int, np.argwhere(bad_sums)[0])
        failures.append(AxiomViolation("normalization", (i, j)))

    eye = np.eye(n, dtype=c.dtype) * one
    bad_ident = far(c[:, e], eye, TOL).any(axis=1) | far(c[e], eye, TOL).any(axis=1)
    for x in np.flatnonzero(bad_ident):
        failures.append(AxiomViolation("identity", (int(x),)))

    wants_e = np.arange(n)[None, :] == inv[:, None]
    for x, y in np.argwhere((c[:, :, e] > eps) != wants_e):
        failures.append(AxiomViolation("support-of-identity", (int(x), int(y))))

    c_bar = c[np.ix_(inv, inv, inv)].transpose(1, 0, 2)
    for x, y in np.argwhere(far(c, c_bar, TOL).any(axis=2)):
        failures.append(AxiomViolation("involution-compat", (int(x), int(y))))

    exact_gemm = exact and n * _absmax(h.num) ** 2 < 2 ** 53
    a = h.num.astype(float) if exact_gemm else h.conv_f
    rows, cols = a.reshape(n, n * n), a.reshape(n * n, n)
    for i in range(n):
        lhs = (a[i] @ rows).reshape(n, n, n)
        rhs = (cols @ a[i]).reshape(n, n, n)
        bad = lhs != rhs if exact_gemm else np.abs(lhs - rhs) > 1e-8
        if bad.any():
            j, l, k = map(int, np.argwhere(bad)[0])
            failures.append(AxiomViolation("associativity", (i, j, l, k)))
            break

    return HypergroupReport(ok=not failures, commutative=h.is_commutative(),
                            symmetric=h.is_symmetric(), failures=failures)


def _char_sort_key(row):
    key = [-round(row[1].real, 9)] if row.size > 1 else [0.0]
    for v in row:
        key.extend((-round(v.real, 9), -round(v.imag, 9)))
    return tuple(key)


def characters(h, seed=0x5EED, max_retries=5):
    """The library's characters before the Hermitian split: eig of seeded
    random mixtures of the B_i, retried on a close pair, and one refinement
    matvec per (eigenvector, B_i)."""
    if not h.is_commutative():
        raise NotCommutative("character theory requires a commutative hypergroup")
    n, e = h.n, h.identity
    c = h.conv_f
    B = [c[i] for i in range(n)]
    rng = np.random.Generator(np.random.Philox(seed))
    last_err = None
    for _ in range(max_retries):
        wts = rng.dirichlet(np.ones(n))
        M = sum(wt * Bi for wt, Bi in zip(wts, B))
        vals, vecs = scipy.linalg.eig(M)
        order = np.argsort(-vals.real)
        gaps = np.abs(np.diff(np.sort_complex(vals)))
        if gaps.size and gaps.min() < 1e-8:
            last_err = DegenerateSpectrum("eigenvalue gap below 1e-8")
            continue
        rows = []
        ok = True
        for idx in order:
            v = vecs[:, idx]
            if abs(v[e]) < 1e-12:
                ok = False
                break
            alpha = v / v[e]
            avals = np.array([(Bi @ alpha)[e] for Bi in B])
            resid = max(np.abs(Bi @ alpha - avals[i] * alpha).max()
                        for i, Bi in enumerate(B))
            if resid > 1e-9:
                ok = False
                break
            rows.append(avals)
        if not ok:
            last_err = DegenerateSpectrum("eigenvector refinement failed")
            continue
        chars = np.array(sorted(rows, key=_char_sort_key))
        left, _, _ = haar(h)
        omega = np.array([float(v) for v in left])
        omega = omega / omega[e]
        norms = (omega[None, :] * np.abs(chars) ** 2).sum(axis=1)
        return CharacterTable(chars=chars, haar=omega, plancherel=1.0 / norms)
    raise last_err or DegenerateSpectrum("joint diagonalization failed")


def finite_rigidity_check(gs):
    """Renormalized adjacency from a second verify_scheme, as before."""
    scheme = verify_scheme(gs.partition)
    for i in range(gs.partition.n_relations):
        adj = gs.partition.adjacency(i)
        if np.abs(gs.kernels[i] - adj / float(scheme.valency[i])).max() > 1e-8:
            return False
    return True


def translation_property_check(scheme):
    """T1 with its two sides built as whole d^3 int64 tensors, and T2, as
    before T1 was compared one h at a time."""
    d = scheme.n_relations
    inv, p, w = scheme.involution, scheme.p, scheme.valency
    lhs = p[:, inv, :].transpose(1, 0, 2) * w[None, None, :]
    rhs = w[None, :, None] * p.transpose(1, 2, 0)
    t1 = bool(np.array_equal(lhs, rhs))
    t2 = bool((sum(scheme.partition.adjacency(h) for h in range(d)) == 1).all())
    return t1, t2


def add_at_p(partition):
    """verify_scheme's p as np.add.at filled it at the first row-major cell
    of each relation, before one bincount did."""
    lab, d = partition.label, partition.n_relations
    rx, ry = representatives(partition)
    p = np.zeros((d, d, d), dtype=np.int64)
    np.add.at(p, (lab[rx], lab[:, ry].T, np.arange(d)[:, None]), 1)
    return p


def generation(num):
    """scheme._generation as it was with uint32 scores and gains (5 d^3
    bytes of bookkeeping), before they became uint16."""
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
        x, pair = i, None
        while True:
            yield x, pair
            fresh[x] = False
            score -= gain[x]
            yz = int(score.argmin())
            if score[yz] != 0:
                break
            x, pair = int((support[yz] & fresh).argmax()), divmod(yz, n)
