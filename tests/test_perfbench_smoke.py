"""The benchmark's names in this library.  The smoke run passes: every
workload runs at minimal sizes, traced and untraced, against the library in
this tree (about 12 s).  The tracer's lookups are also checked on their
own, in well under a second, from perfbench/tracing.py loaded without
installing it: every owner attribute its SPEC wraps, such as the
KernelFamily.from_* classmethods and the Ball.dist_matrix property, and
the family sizes it reads through KernelFamily.matrices, valid and
labels."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import hyperscheme as hs

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    """perfbench/tracing.py as a module of its own; its Tracer is not installed."""
    name = "perfbench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "tracing.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_tracer_owner_attributes_exist():
    """Each SPEC path with an owner names a classmethod, property or
    function in the owner class's own __dict__, where install wraps it, and
    each other path a module attribute."""
    for layer, fns in _tracing().SPEC.items():
        module = importlib.import_module(f"hyperscheme.{layer}")
        for path, _ in fns:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                raw = getattr(module, owner_name).__dict__[attr]
                assert isinstance(raw, (classmethod, property)) or callable(raw), path
            else:
                assert callable(getattr(module, attr)), path


def test_tracer_family_sizes(z4_scheme):
    """_family_sizes on a ball, a deformed and a generalized family stores
    labels n^2 entries, and its useful entries are the nonzeros of the
    valid rows."""
    ball = hs.build_ball(hs.DTParams(3, 2), 3)
    families = [hs.KernelFamily.from_ball(ball),
                hs.KernelFamily.from_deformed(
                    hs.deform_ball_kernels(ball, hs.BoundaryRay(ball), 0.3)),
                hs.KernelFamily.from_generalized(hs.canonical_generalized(z4_scheme))]
    family_sizes = _tracing()._family_sizes
    for fam in families:
        n = fam.labels.shape[0]
        sizes = family_sizes(fam)
        assert (sizes["points"], sizes["labels"]) == (n, len(fam))
        assert sizes["stored"] == len(fam) * n * n
        # a row outside valid holds no entry
        assert sizes["useful"] == sum(int(np.count_nonzero(fam.rows(h)[2])) for h in fam)


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-4000:]
