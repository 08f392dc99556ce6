"""Time and memory of verifying a generalized scheme and building its
hypergroup, against the number of points n and relations d.

Each case builds the canonical kernel family of a direct product or a join
of two cycle schemes (C_m: d = m // 2 + 1), timing that construction from
the two factor families, then times a fresh family through
`verify_generalized` followed by `from_generalized`, the way a caller that
checks a family and then uses its hypergroup does.  Products have
n = m1 m2 and d = d1 d2; joins have n = m1 m2 and d = d1 + d2 - 1.
A verification reads p~ from d^2 row gathers, d x n by n x n products, and
checks span closure on full n x n products only for the slices of a
generating set and for those whose carried residual bound exceeds 1e-8;
`generators` is the number of slices that `scheme._generators` yields for
the scheme's p, which is where those checks start.  The first four cases
are the families of the float-spectral benchmark workload.

Times are medians of three runs; the tracemalloc peak of the construction
and of each of the two calls comes from a fourth, traced run.  Every case
runs in its own process with BLAS on one thread, and the cases run under
each SRC in turn, so two source trees (a parent and a change) see the same
machine state.

    python3 tools/generalized_scaling.py [SRC ...]

imports hyperscheme from each SRC (default: the src directory of this
checkout) and prints one JSON object, SRC -> list of rows.
"""

import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

CASES = ([("product", 5, 6), ("product", 5, 8), ("join", 6, 12), ("join", 8, 10)]
         + [("product", 3, m) for m in (10, 20, 34)]
         + [("product", 5, m) for m in (20, 30, 40)]
         + [("join", m1, m2) for m1, m2 in ((5, 6), (10, 15), (12, 20), (16, 25))])


def cycle_family(hs, m: int):
    import numpy as np

    x = np.arange(m)
    dist = np.abs(x[:, None] - x[None, :])
    part = hs.RelationPartition(m, m // 2 + 1, np.minimum(dist, m - dist))
    return hs.canonical_generalized(hs.verify_scheme(part))


def measure(kind: str, m1: int, m2: int) -> dict:
    import hyperscheme as hs
    from hyperscheme.scheme import _generators

    build = hs.direct_product_scheme if kind == "product" else hs.join_scheme
    factors = cycle_family(hs, m1), cycle_family(hs, m2)

    def timed_build():
        t0 = time.perf_counter()
        build(*factors)
        return time.perf_counter() - t0

    build_s = statistics.median(timed_build() for _ in range(3))
    tracemalloc.start()
    gs = build(*factors)
    build_peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()

    def fresh():    # a family no call has checked yet
        return hs.GeneralizedScheme(gs.partition, gs.kernels, gs.omega_x)

    def run():
        g = fresh()
        t0 = time.perf_counter()
        hs.verify_generalized(g)
        t1 = time.perf_counter()
        hs.from_generalized(g)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1

    runs = [run() for _ in range(3)]
    g, peaks = fresh(), []
    for fn in (hs.verify_generalized, hs.from_generalized):
        tracemalloc.start()
        fn(g)
        peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        tracemalloc.stop()
    verify_s, from_s = (statistics.median(r[i] for r in runs) for i in (0, 1))
    return {"kind": kind, "m1": m1, "m2": m2, "n": gs.partition.n_points,
            "d": gs.partition.n_relations,
            "generators": len(list(_generators(hs.verify_scheme(gs.partition).p))),
            "build_s": build_s,
            "build_peak_mib": build_peak, "verify_generalized_s": verify_s,
            "from_generalized_s": from_s, "total_s": verify_s + from_s,
            "verify_generalized_peak_mib": peaks[0],
            "from_generalized_peak_mib": peaks[1]}


def main():
    if sys.argv[1:2] == ["--one"]:
        kind, m1, m2 = sys.argv[2], *map(int, sys.argv[3:5])
        print(json.dumps(measure(kind, m1, m2)))
        return
    srcs = sys.argv[1:] or [str(Path(__file__).resolve().parents[1] / "src")]
    out = {src: [] for src in srcs}
    for case in CASES:
        for src in srcs:
            env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
                   "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
            res = subprocess.run([sys.executable, __file__, "--one", *map(str, case)],
                                 env=env, capture_output=True, text=True, check=True)
            out[src].append(json.loads(res.stdout))
            print(src, out[src][-1], file=sys.stderr)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
