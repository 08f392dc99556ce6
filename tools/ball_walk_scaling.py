"""Time and memory of a ball walk against the ball size n.

For each ball, a fresh `build_ball`, then `KernelFamily.from_ball`, then a
2-step `simulate_walk` (mu = 1/2 on steps 1 and 2, 30 000 trials, seed 0)
and `propagate_and_project`.  Times are medians of three runs; the
tracemalloc peak is that of a fourth, traced run.  Every ball runs in its
own process, so one ball's memory does not carry into the next.  The
balls are Gamma(3, 2) with R = 4..10, where n doubles with R, and the path
Gamma(2, 2) with R in {50, 100, 200, 300}, where n = 2R + 1 and a term in
n R^2 would show.

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

CASES = [(3, 2, R) for R in range(4, 11)] + [(2, 2, R) for R in (50, 100, 200, 300)]
TRIALS = 30_000


def measure(a: int, b: int, R: int) -> dict:
    import hyperscheme as hs

    params = hs.DTParams(a, b)
    mu = hs.StepDistribution({1: Fraction(1, 2), 2: Fraction(1, 2)})

    def run():
        ball = hs.build_ball(params, R)
        t0 = time.perf_counter()
        fam = hs.KernelFamily.from_ball(ball)
        t1 = time.perf_counter()
        hs.simulate_walk(fam, mu, 2, TRIALS, 0)
        hs.propagate_and_project(fam, mu, 2)
        return ball.n, t1 - t0, time.perf_counter() - t1

    runs = [run() for _ in range(3)]
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"a": a, "b": b, "R": R, "n": runs[0][0],
            "from_ball_s": statistics.median(r[1] for r in runs),
            "walk_s": statistics.median(r[2] for r in runs),
            "tracemalloc_peak_mib": peak / 2**20,
            "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main():
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(measure(*map(int, sys.argv[2:5]))))
        return
    src = sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    rows = []
    for case in CASES:
        out = subprocess.run([sys.executable, __file__, "--one", *map(str, case)],
                             env=env, capture_output=True, text=True, check=True)
        rows.append(json.loads(out.stdout))
        print(rows[-1], file=sys.stderr)
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
