"""Time and memory of the exact-algebra kernels against their size.

- verify_scheme on the m-cycles and the D_m double-coset schemes (both
  d = m // 2 + 1) for m in 50, 100, 200, 400, with d, |G| (the slices of
  the generating set, the identity's included) and the tracemalloc peak.
- verify_hypergroup on exact hypergroups: the D_m double-coset hypergroups
  (d = m // 2 + 1) up to m = 200, direct products of two of them up to
  d = 120, and iterated joins of Z_2, whose greedy generating set is all of
  D (the worst case of the generating-set proof).  Each point is timed with
  the library and with the check of all d slices it replaced
  (verify_hypergroup_slices in tests/reference_verifiers.py), with |G| and
  the tracemalloc peak of each.
- characters on the D_m hypergroups against d, with the character order by
  one np.lexsort against the per-row sort key of the reference.
- io.dumps against json.dumps(indent=1, default=encode_number) on the JSON
  form of hypergroups, against the number of conv entries.

Old and new run in turn; times are medians of at least five runs and
0.3 s, peaks those of one more, traced run; BLAS runs on one thread.

    python3 tools/exact_algebra_scaling.py

prints one JSON object of rows.
"""

import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import hyperscheme as hs  # noqa: E402
import reference_verifiers as ref  # noqa: E402
from hyperscheme import io as hio  # noqa: E402
from hyperscheme.hypergroup import _char_order, _generators  # noqa: E402

SCHEME_SIZES = (50, 100, 200, 400)
DIHEDRAL = (6, 20, 40, 60, 100, 140, 200)
PRODUCTS = ((8, 10), (12, 14), (12, 22), (14, 28))
JOIN_CHAIN = (10, 18, 26)      # 27 leaves the exact float64 products


def timed(*fns):
    """(median seconds, tracemalloc peak MiB) of each function: they are
    called in turn, at least five times each and for at least 0.3 s, and
    then once more each, traced."""
    times = [[] for _ in fns]
    start = time.perf_counter()
    while len(times[0]) < 5 or time.perf_counter() - start < 0.3:
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
    out = []
    for fn, ts in zip(fns, times):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.append((round(statistics.median(ts), 6), round(peak / 2 ** 20, 3)))
    return out


def dihedral_scheme(m):
    idx = np.arange(2 * m)
    k, e = idx % m, idx // m
    kk = (k[:, None] + np.where(e[:, None] == 1, -k[None, :], k[None, :])) % m
    table = kk + m * (e[:, None] ^ e[None, :])
    return hs.from_double_cosets(table, [0, m])[1]


def dihedral(m):
    return hs.from_scheme(dihedral_scheme(m))


def cycle_partition(m):
    x = np.arange(m)
    dist = np.abs(x[:, None] - x[None, :])
    return hs.RelationPartition(m, m // 2 + 1, np.minimum(dist, m - dist))


def scheme_row(family, m, partition):
    ((s, peak),) = timed(lambda: hs.verify_scheme(partition))
    return {"family": family, "case": f"{family[0].upper()}{m}",
            "n": partition.n_points, "d": partition.n_relations,
            "generators": len(list(_generators(hs.verify_scheme(partition).p))),
            "s": s, "peak_mib": peak}


def join_chain(d):
    z2 = hs.from_scheme(hs.from_double_cosets(np.array([[0, 1], [1, 0]]), [0])[1])
    h = z2
    while h.n < d:
        h = hs.join(h, z2)
    return h


def verify_row(family, case, h):
    (old_s, old_peak), (new_s, new_peak) = timed(
        lambda: ref.verify_hypergroup_slices(h), lambda: hs.verify_hypergroup(h))
    if not (hs.verify_hypergroup(h).ok and ref.verify_hypergroup_slices(h).ok):
        raise SystemExit(f"{case} fails the hypergroup axioms")
    return {"family": family, "case": case, "d": h.n,
            "generators": len(list(_generators(h.num))),
            "old_s": old_s, "new_s": new_s,
            "old_peak_mib": old_peak, "new_peak_mib": new_peak}


def characters_row(m):
    h = dihedral(m)
    rows = hs.characters(h).chars[::-1].copy()
    (old_s, _), (new_s, _), (chars_s, chars_peak) = timed(
        lambda: np.array(sorted(rows, key=ref._char_sort_key)),
        lambda: rows[_char_order(rows)], lambda: hs.characters(h))
    return {"case": f"D{m}", "d": h.n, "characters_s": chars_s,
            "characters_peak_mib": chars_peak,
            "order_old_s": old_s, "order_new_s": new_s}


def dumps_row(h, case):
    data = hio.hypergroup_to_dict(h)
    (old_s, _), (new_s, _) = timed(
        lambda: json.dumps(data, indent=1, default=hio.encode_number),
        lambda: hio.dumps(data))
    if hio.dumps(data) != json.dumps(data, indent=1, default=hio.encode_number):
        raise SystemExit(f"dumps differs from json.dumps on {case}")
    return {"case": case, "entries": h.n ** 3, "old_s": old_s, "new_s": new_s}


def main():
    schemes = [scheme_row("cycle", m, cycle_partition(m)) for m in SCHEME_SIZES]
    schemes += [scheme_row("dihedral", m, dihedral_scheme(m).partition)
                for m in SCHEME_SIZES]
    for row in schemes:
        print(row, file=sys.stderr)
    verify = [verify_row("dihedral", f"D{m}", dihedral(m)) for m in DIHEDRAL]
    verify += [verify_row("product", f"D{m1}xD{m2}",
                          hs.direct_product(dihedral(m1), dihedral(m2)))
               for m1, m2 in PRODUCTS]
    verify += [verify_row("join-chain", f"Z2 joined {d - 1} times", join_chain(d))
               for d in JOIN_CHAIN]
    for row in verify:
        print(row, file=sys.stderr)
    chars = [characters_row(m) for m in DIHEDRAL]
    dumps = [dumps_row(dihedral(m), f"D{m}") for m in DIHEDRAL[:5]]
    dumps += [dumps_row(hs.direct_product(dihedral(m1), dihedral(m2)), f"D{m1}xD{m2}")
              for m1, m2 in PRODUCTS[:2]]
    print(json.dumps({"verify_scheme": schemes, "verify_hypergroup": verify,
                      "characters": chars, "dumps": dumps}, indent=1))


if __name__ == "__main__":
    main()
