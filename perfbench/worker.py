"""Run one workload in a fresh process and print its report as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --until T
        [--rounds R] [--trace] [--setup-only] [--smoke]

Set-up imports the library from the checkout's src/, generates the inputs
of R rounds from the seed and writes the input files.  The report's
"ready" field is the CLOCK_MONOTONIC reading when set-up ended, so the
parent can time set-up from before the process started.  Its "probe_s"
field lists the times of a fixed loop run between jobs (or, with
--setup-only, after set-up), from which run.py reads the host's speed.

Untraced, the worker runs its rounds, but starts a round only when the
longest round so far, checks included, would still end before the
CLOCK_MONOTONIC reading --until.  With --trace it runs round 0 with span
tracing (times, calls, sizes) and round 1 with tracemalloc peaks as well.
run.py is the entry point; this file is its worker.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE_LOOPS = 200_000
SETUP_PROBES = 10


def probe() -> float:
    """Seconds one fixed pure-Python integer loop takes: the host's speed at
    this moment.  It calls no library code and touches almost no memory."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def import_library():
    sys.path.insert(0, str(SRC))
    import hyperscheme
    where = Path(hyperscheme.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"hyperscheme imported from {where}, not from {SRC}")


def build_rounds(workload: str, seed: int, n_rounds: int, workdir: str,
                 smoke: bool, f_points: list):
    import numpy as np
    import workloads as wl

    index = wl.WORKLOADS.index(workload)
    rounds = []
    for r in range(n_rounds):
        rng = np.random.default_rng([seed, index, r])
        if workload == "exact-algebra":
            rounds.append(wl.exact_algebra(rng, r, workdir, smoke))
        elif workload == "ball-walk":
            rounds.append(wl.ball_walk(rng, r, workdir, smoke))
        else:
            rounds.append(wl.float_spectral(rng, r, workdir, smoke, f_points))
    return rounds


def run_rounds(rounds, until: float, tracer):
    """Run the jobs round by round.  A round after the first starts only if
    the longest round so far would end before the monotonic time `until`.
    Each round starts from an empty collector, and a speed probe precedes
    every job; neither is timed.  Failures are recorded, never raised.
    Returns (records, round times, probe times)."""
    records, round_times, probes = [], [], []
    longest = 0.0
    for r, jobs in enumerate(rounds):
        started = time.monotonic()
        if round_times and started + longest > until:
            break
        gc.collect()
        total = 0.0
        for job in jobs:
            rec = {"id": job.id, "kind": job.kind, "sizes": job.sizes, "ok": True}
            probes.append(probe())
            if tracer:
                tracer.job = job.id
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a failed job is a measured outcome
                out, rec["ok"] = None, False
                rec["error"] = f"run: {type(exc).__name__}: {exc}"[:300]
            rec["time_s"] = time.perf_counter() - t0
            total += rec["time_s"]
            if rec["ok"]:
                if tracer:
                    tracer.paused = True
                try:
                    rec["info"] = job.check(out) or {}
                except Exception as exc:
                    rec["ok"] = False
                    rec["error"] = f"check: {type(exc).__name__}: {exc}"[:300]
                finally:
                    if tracer:
                        tracer.paused = False
            if r > 0:  # the digest reads round 0 only
                rec.get("info", {}).pop("exact", None)
            records.append(rec)
        round_times.append(total)
        longest = max(longest, time.monotonic() - started)
        jobs.clear()  # frees what the round's jobs share, such as balls
    return records, round_times, probes


def exact_digest(records) -> str:
    """sha256 of the "p/q" JSON of round 0's exact outputs."""
    exact = [[r["id"], r["info"]["exact"]] for r in records
             if r["id"].startswith("r0.") and "exact" in r.get("info", {})]
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()


def timed(rounds, until: float) -> dict:
    planned = sum(len(jobs) for jobs in rounds)
    records, round_times, probes = run_rounds(rounds, until, None)
    return {"jobs": records, "round_s": round_times, "probe_s": probes,
            "digest": exact_digest(records), "planned_jobs": planned,
            "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced(rounds, f_points: list, args) -> dict:
    """Round 0 with spans, then round 1 with tracemalloc peaks as well."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    records, round_times, _ = run_rounds(rounds[:1], math.inf, tracer)
    timing_spans, points = tracer.spans, f_points[0]
    tracer.spans, tracer.peaks_on = [], True
    records += run_rounds(rounds[1:2], math.inf, tracer)[0]
    peak_spans, tracer.spans = tracer.spans, timing_spans
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(str(spans), peak_spans)
    return {"jobs": records, "round_s": round_times,
            "digest": exact_digest(records),
            "layers": tracer.layer_metrics(points, peak_spans),
            "spans_file": str(spans.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--until", type=float, default=math.inf,
                    help="CLOCK_MONOTONIC reading by which a started round "
                         "should end")
    ap.add_argument("--rounds", type=int,
                    help="rounds to set up (default: the workload's timed rounds)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import_library()
    import workloads
    n_rounds = args.rounds or workloads.ROUNDS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        f_points = [0]
        rounds = build_rounds(args.workload, args.seed, n_rounds, str(workdir),
                              args.smoke, f_points)
        import numpy
        import scipy
        gc.collect()
        gc.freeze()  # set-up objects stay out of the timed rounds' collections
        report = {"ready": time.monotonic(),
                  "versions": {"python": sys.version.split()[0],
                               "numpy": numpy.__version__, "scipy": scipy.__version__}}
        if args.trace:
            report.update(traced(rounds, f_points, args))
        elif args.setup_only:
            report["probe_s"] = [probe() for _ in range(SETUP_PROBES)]
        else:
            report.update(timed(rounds, args.until))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
