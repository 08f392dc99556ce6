"""Time and memory of a ball walk against the ball size n, and of the
walk sampler against the kernel row width.

A walk builds the kernel rows of its step law on their first need, so
every row times the family's build with its first walk, `first_walk_s`,
and beside it `walk_s`, the median of three later walks on the same
family, which read built rows.

Ball size: for each ball, a fresh `build_ball`, then
`KernelFamily.from_ball` and a 2-step `simulate_walk` (mu = 1/2 on steps
1 and 2, 30 000 trials, seed 0) with `propagate_and_project`.  The balls
are Gamma(3, 2) with R = 4..16, where n doubles with R up to
n = 196 606 at R = 16, the largest ball under the vertex cap, and the path
Gamma(2, 2) with R in {50, 100, 200, 300}, where n = 2R + 1 and a term in
n R^2 would show.

Row width: `KernelFamily.from_ball` of the Gamma(3, 2) ball of radius 10,
then `simulate_walk` alone (30 000 trials, seed 0) with one step label
h = 1..6, R // h steps, so every row read has width w_h = 3 * 2^(h-1),
3..96; then the complete graphs K_300 and K_1000
(`KernelFamily.from_generalized`, mu = delta_1, 2 steps, row width m - 1).

Times are medians of three runs; the tracemalloc peak is that of a
fourth, traced run.  Every case runs in its own process, so one case's
memory does not carry into the next, with its address space capped at
ADDRESS_LIMIT.  A case that the library refuses (BallTooLarge) or that
does not fit the cap (MemoryError) gives a row with "refused" and the
error in place of its measurements, so code that builds dense n x n
kernels reports its large balls as refused instead of swapping.

    python3 tools/ball_walk_scaling.py [SRC]

imports hyperscheme from SRC (default: the src directory of this checkout)
and prints one JSON list of rows.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

CASES = ([("ball", 3, 2, R) for R in range(4, 17)]
         + [("ball", 2, 2, R) for R in (50, 100, 200, 300)]
         + [("width", h) for h in range(1, 7)]
         + [("complete", m) for m in (300, 1000)])
TRIALS = 30_000
WIDTH_RADIUS = 10
ADDRESS_LIMIT = 2 * 2**30


def _timed(run, row: dict) -> dict:
    """Median times of three runs of run(), which returns a dict of
    durations, then the tracemalloc peak of a fourth and the process's
    peak RSS, added to row."""
    runs = [run() for _ in range(3)]
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    row.update({k: statistics.median(r[k] for r in runs) for k in runs[0]})
    row["tracemalloc_peak_mib"] = peak / 2**20
    row["max_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return row


def _walks(build, walk) -> dict:
    """first_walk_s: build() and the first walk(family), which builds the
    kernels it reads; walk_s: the median of three later walks."""
    t0 = time.perf_counter()
    fam = build()
    walk(fam)
    first = time.perf_counter() - t0
    later = []
    for _ in range(3):
        t0 = time.perf_counter()
        walk(fam)
        later.append(time.perf_counter() - t0)
    return {"first_walk_s": first, "walk_s": statistics.median(later)}


def measure_ball(a: int, b: int, R: int) -> dict:
    import hyperscheme as hs

    params = hs.DTParams(a, b)
    mu = hs.StepDistribution({1: Fraction(1, 2), 2: Fraction(1, 2)})

    def walk(fam):
        hs.simulate_walk(fam, mu, 2, TRIALS, 0)
        hs.propagate_and_project(fam, mu, 2)

    def run():
        ball = hs.build_ball(params, R)
        return _walks(lambda: hs.KernelFamily.from_ball(ball), walk)

    return _timed(run, {"a": a, "b": b, "R": R,
                        "n": hs.dtgraph.ball_size(params, R)})


def _walk_only(hs, build, mu, steps: int, row: dict) -> dict:
    def run():
        return _walks(build, lambda fam: hs.simulate_walk(fam, mu, steps, TRIALS, 0))

    row = _timed(run, {**row, "steps": steps, "trials": TRIALS})
    row["ns_per_trial_step"] = 1e9 * row["walk_s"] / (TRIALS * steps)
    return row


def measure_width(h: int) -> dict:
    import hyperscheme as hs

    params = hs.DTParams(3, 2)
    ball = hs.build_ball(params, WIDTH_RADIUS)
    return _walk_only(hs, lambda: hs.KernelFamily.from_ball(ball),
                      hs.StepDistribution({h: 1}), WIDTH_RADIUS // h,
                      {"a": 3, "b": 2, "R": WIDTH_RADIUS, "h": h,
                       "width": int(hs.haar_weight(h, params))})


def measure_complete(m: int) -> dict:
    import numpy as np

    import hyperscheme as hs

    label = (np.arange(m)[:, None] != np.arange(m)[None, :]).astype(int)
    gs = hs.canonical_generalized(hs.verify_scheme(
        hs.RelationPartition(n_points=m, n_relations=2, label=label)))
    return _walk_only(hs, lambda: hs.KernelFamily.from_generalized(gs),
                      hs.StepDistribution({1: 1}), 2, {"complete": m, "width": m - 1})


MEASURE = {"ball": measure_ball, "width": measure_width, "complete": measure_complete}


def main():
    if sys.argv[1:2] == ["--one"]:
        from hyperscheme.dtgraph import BallTooLarge

        kind, args = sys.argv[2], list(map(int, sys.argv[3:]))
        try:
            row = MEASURE[kind](*args)
        except (BallTooLarge, MemoryError) as exc:
            row = {"case": [kind, *args],
                   "refused": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(row))
        return
    src = sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    rows = []
    for case in CASES:
        out = subprocess.run([sys.executable, __file__, "--one", *map(str, case)],
                             env=env, capture_output=True, text=True, check=True,
                             preexec_fn=lambda: resource.setrlimit(
                                 resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT)))
        rows.append(json.loads(out.stdout))
        print(rows[-1], file=sys.stderr)
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
