"""The benchmark's smoke run passes: every workload runs at minimal sizes,
traced and untraced, against the library in this tree.  It is what checks
that the library still has the names the benchmark calls, such as
build_ball's R, Ball.dist_matrix, BoundaryRay(ball) and
KernelFamily.matrices/valid/labels."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-4000:]
