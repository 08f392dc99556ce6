"""Smoke test of the benchmark at minimal sizes.

    python3 perfbench/smoke.py

Runs every workload with --smoke, untraced and traced, and asserts that the
result line has the contract's keys, that every job passed, and that every
metric BENCHMARK.json names is printed with its unit.  Also asserts that
run.py refuses to run, without a result, in a copy holding only the
benchmark and no library source.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stdout
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], set(units) ^ set(expected[trace])
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            print(f"ok {workload} trace={trace}: {result['attempted']} jobs, "
                  f"{len(units)} metrics")

    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "--workload", "ball-walk", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok refuses to run without the library source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
