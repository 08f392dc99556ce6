"""Benchmark entry point.

    python3 perfbench/run.py --workload {exact-algebra,ball-walk,float-spectral}
        --seed N --seconds S --trace {0,1} [--smoke]

Runs from the root of a source checkout and imports the library from its
src/ directory.  Every workload run is a fresh worker process (worker.py)
with BLAS threads pinned; set-up is timed in further fresh processes that
stop when set-up ends.  With --trace 0 the last line of standard output is
the JSON result with the end-to-end metrics, whose times are scaled to
reference speed by a probe loop timed beside them; with --trace 1 a second,
traced worker runs after an untraced one and the result holds the
per-layer metrics.  Lines before the last one describe the run for people.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-algebra", "ball-walk", "float-spectral")
SETUP_RUNS = 3          # set-up samples per run, the timed worker's included
DEADLINE_S = 170        # the whole run, set-up samples and workers included
BLAS_THREADS = "1"      # one thread: steadier timings on a shared machine
TAIL_MIN_BEYOND = 10
DIGEST_SEED = 0         # digests.json holds this seed's exact outputs
# Seconds the workers' speed probe (worker.probe) takes at reference speed:
# about its median on an idle 2-vCPU x86-64 VM with Python 3.11.  A job's
# time is scaled by REF_PROBE_S / (median of the PROBE_WINDOW probes around
# it), a set-up's by the median of its own process's probes.
REF_PROBE_S = 0.0125
PROBE_WINDOW = 5


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, deadline: float, *extra) -> tuple[dict, float]:
    """Run worker.py to completion; returns (report, monotonic start)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("error: worker exceeded the run deadline")
    finally:  # also on SIGTERM or ^C: never leave a worker running
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_MIN_BEYOND of n samples
    beyond it (nearest rank); 50 when there are too few samples."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= TAIL_MIN_BEYOND:
            return p
    return 50


def nearest_rank(values: list, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def load_digests() -> dict:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)


def at_ref(seconds: float, probes: list) -> float:
    """`seconds` scaled to reference speed by the median of `probes`."""
    return seconds * REF_PROBE_S / statistics.median(probes)


def end_to_end(report: dict, setups: list) -> tuple[dict, dict]:
    """The metrics and a note on each.  `setups` holds (seconds, probes) of
    each set-up.  report["probe_s"] holds one probe before each job."""
    raw = [j["time_s"] for j in report["jobs"]]
    probes = report["probe_s"]
    half = PROBE_WINDOW // 2
    times = [at_ref(t, probes[max(0, i - half):max(0, i - half) + PROBE_WINDOW])
             for i, t in enumerate(raw)]
    per_round = len(times) // len(report["round_s"])
    rounds = [sum(times[k:k + per_round]) for k in range(0, len(times), per_round)]
    # p follows the planned job count, so that it stays the same when a
    # slow machine runs fewer rounds
    p = tail_percentile(report["planned_jobs"])
    metrics = {
        "setup_s": (statistics.median(at_ref(t, pr) for t, pr in setups), "s"),
        "wall_s": (statistics.median(rounds), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (nearest_rank(times, p), "s"),
        "peak_rss_mb": (report["maxrss_mib"], "MiB"),
    }
    measured = {
        "setup_s": statistics.median(t for t, _ in setups),
        "wall_s": statistics.median(report["round_s"]),
        "job_p50_s": statistics.median(raw),
        "job_tail_s": nearest_rank(raw, p),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(rounds)} rounds, summed job times",
        "job_p50_s": f"{len(times)} jobs",
        "job_tail_s": f"p{p}, {len(times) - math.ceil(p * len(times) / 100)} "
                      f"of {len(times)} jobs beyond it",
        "peak_rss_mb": "ru_maxrss of the timed worker",
    }
    for k, v in measured.items():
        notes[k] += f"; measured {v:.6g} s"
    all_probes = probes + [x for _, pr in setups[:-1] for x in pr]
    notes["speed"] = (f"median probe {statistics.median(all_probes) * 1e3:.4g} ms "
                      f"over {len(all_probes)} probes, reference "
                      f"{REF_PROBE_S * 1e3:.4g} ms")
    return metrics, notes


def describe(args, report: dict):
    jobs = report["jobs"]
    failed = [j for j in jobs if not j["ok"]]
    v = report["versions"]
    print(f"# {args.workload} seed {args.seed}: python {v['python']}, numpy {v['numpy']}, "
          f"scipy {v['scipy']}, nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}, "
          f"{len(report['round_s'])} rounds, {len(jobs)} jobs, "
          f"fail_frac {len(failed) / len(jobs):.4f}")
    for j in failed:
        print(f"# FAILED {j['id']}: {j['error']}")
    for j in jobs:
        info = j.get("info", {})
        if "tv" in info:
            print(f"# walk {j['id']}: TV {info['tv']:.5f}, expected Monte Carlo TV "
                  f"{info['expected_tv']:.5f}, {info['trials']} trials")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DIGEST_SEED)
    ap.add_argument("--seconds", type=float, default=42,
                    help="a round starts only if it can end within this many "
                         "seconds of the start, set-up samples included")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal sizes, one round; for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hyperscheme" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'hyperscheme'}",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if args.trace:
        # round 0 untraced, then round 0 traced and round 1 with peaks
        plain, _ = run_worker(args, deadline, "--rounds", "1")
        traced, _ = run_worker(args, deadline, "--rounds", "2", "--trace")
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["round_s"][0] - plain["round_s"][0], "s")
        report = dict(traced, jobs=plain["jobs"] + traced["jobs"])
        print(f"# spans written to {traced['spans_file']}")
    else:
        rounds = ["--rounds", "1"] if args.smoke else []
        setups = []
        for _ in range(SETUP_RUNS - 1):
            setup_only, started = run_worker(args, deadline, *rounds, "--setup-only")
            setups.append((setup_only["ready"] - started, setup_only["probe_s"]))
        report, started = run_worker(args, deadline, *rounds,
                                     "--until", str(start + args.seconds))
        setups.append((report["ready"] - started, report["probe_s"][:PROBE_WINDOW]))
        metrics, notes = end_to_end(report, setups)
        print(f"# host speed: {notes['speed']}")
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value:.6g} {unit} ({notes[name]})")

    describe(args, report)
    failed = sum(1 for j in report["jobs"] if not j["ok"])
    correct = failed == 0
    want = load_digests().get(args.workload)
    if args.seed == DIGEST_SEED and not args.smoke and want is not None:
        match = report["digest"] == want
        print(f"# exact-output digest {'matches' if match else 'DIFFERS: ' + report['digest']}")
        correct = correct and match
    print(json.dumps({"correct": correct, "attempted": len(report["jobs"]),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
