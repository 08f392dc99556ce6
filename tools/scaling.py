"""Time and memory of the library's kernels against their size, one curve
at a time.

    python3 tools/scaling.py CURVE [SRC ...]

runs every case of CURVE RUNS = 3 times under each SRC (default: the src
directory of this checkout), case by case and the trees in turn, so two
source trees see the same machine state, and prints one JSON object, SRC
-> list of rows, each float field the median of its three runs.  Each case
runs in its own process, with BLAS on one thread and the address space
capped at ADDRESS_LIMIT; a case that the library refuses (BallTooLarge,
DomainError) or that does not fit (MemoryError) gives a row with "refused"
and the error.

Timing: a case's blocks are timed in turn, interleaved, in at least three
rounds and for at least 0.3 s, and each time is the median over the rounds;
a peak is the tracemalloc peak of a block, from its start, in one more,
traced round.  Rows with old_* and new_* fields time the oracle of
tests/reference_*.py that the library replaced beside the library.

Curves:
- ball: a fresh build_ball, then KernelFamily.from_ball and a 2-step walk
  (mu = 1/2 on steps 1 and 2, 30 000 trials, seed 0) with
  propagate_and_project, on Gamma(3, 2) with R = 4..16 (n doubles with R,
  up to n = 196 606 under BALL_CAP) and the path Gamma(2, 2) with R in
  {50, 100, 200, 300} (n = 2R + 1).  first_walk_s is the family's build
  with its first walk, which builds the kernel rows it reads, walk_s a
  later walk on the same family; the peak and max RSS are the whole
  round's.
- width: the same on the Gamma(3, 2) ball of radius 10, simulate_walk
  alone with one step label h = 1..6, R // h steps, rows of width
  w_h = 3 * 2^(h-1).
- complete: the same on the complete graphs K_300 and K_1000
  (KernelFamily.from_generalized, mu = delta_1, 2 steps, width m - 1).
- deform: on Gamma(3, 2) with R = 4..13, a built ball, BoundaryRay, then
  deform_ball_kernels at c = DEFORM_C, the first read of its
  max_row_sum_error (which builds the rows of K_1 .. K_R), and a 3-step
  delta_1 walk of 30 000 trials on the deformed family, each with its
  tracemalloc peak.
- verify_scheme: the m-cycles and the D_m double-coset schemes (both
  d = m // 2 + 1), with |G| the checked slices of the generating order
  the verified scheme keeps.
- verify_hypergroup: D_m double-coset hypergroups, direct products of two,
  and iterated joins of Z_2 (whose greedy generating set is all of D),
  against verify_hypergroup_slices, the check of all d slices.  That oracle
  is timed in the first run under the first SRC only; every other run
  repeats its old_* fields.
- characters: on the D_m hypergroups up to D_800 (d = 401), and the
  character order by one np.lexsort against the reference's per-row sort
  key.
- dumps: io.dumps against json.dumps(indent=1, default=encode_number).
- io: the exact tensor across the JSON boundary, as `product --json --out`
  moves it, on direct products of two cycle hypergroups, d = 12..110:
  hypergroup_to_dict, dumps of the CLI report, save, load and
  hypergroup_from_dict of the saved file, each with its tracemalloc peak.
- convolution_power: on Gamma(3, 2) against t, the exact law
  {1: 3/7, 2: 4/7} against reference_exact.poly_power, results checked
  equal; then the library alone on exact, float, deformed and sparse laws,
  the deformed ones at x_c(0.1) and at x0 = 1, where alpha0(h) falls below
  the normal doubles at h = 2063.
- generalized: the canonical family of a product or join of two cycle
  schemes, its build from the factors, then verify_generalized and
  from_generalized on it, with |G| the slices of the generating order its
  verified scheme keeps; the first four cases are the float-spectral
  benchmark's families, and C5 x C80 and C20 x C20 have n = 400.  Then the canonical families of the cycles C100,
  C200 and C400 (m2 null), built from their verified schemes, which pass
  the canonical early test of the kernel check, and the "perturbed cycle"
  families of C100 and C200: a symmetric rectangle of RECTANGLE_T on
  relation m / 4 puts them past that test, so they take the full check.
- gram_min_eig: as `dtgraph --report psd` runs it, build_ball, then the
  minimum Gram eigenvalue at s0, 0 and s1, on Gamma(3, 2) with R = 4..16
  and the path Gamma(2, 2) up to R = 1000, where the blocks are
  (R + 1) x (R + 1).
- from_double_cosets: the D_m schemes on the cosets of {e, s} against
  |G| = 2m, with the verify_scheme inside it timed apart on its partition.
- ortho: ortho_measure_integrate of P_m P_m on Gamma(a, b), a, b in
  {2, 3, 4}, 2m in {0, 4, 8, 12}, against reference_spectral's
  nested_midpoint_integrate (results checked equal), with the final node
  count and the calls to f; cli_s is an in-process `dtgraph --report ortho`
  on the same (a, b).
"""

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_LIMIT = 2 * 2**30
MIN_ROUNDS, MIN_SECONDS = 3, 0.3
TRIALS = 30_000
WIDTH_RADIUS = 10
DEFORM_C = 0.3
RECTANGLE_T = 1e-9      # a relative deviation of 2e-9, past scheme._CANONICAL_DEVIATION
RUNS = 3
POWER_LAWS = {"exact": ({1: Fraction(3, 7), 2: Fraction(4, 7)}, None),
              "float delta_1": ({1: 1.0}, None),
              "deformed at x_c(0.1)": ({1: 1 / 3, 2: 2 / 3}, 0.1),
              # deformation_point(-log sqrt 2) = 1.0 on Gamma(3, 2)
              "deformed at x0 = 1": ({1: 1.0}, -math.log(math.sqrt(2))),
              "sparse exact": ({0: Fraction(1, 2), 5000: Fraction(1, 2)}, None)}


class _Clock:
    """Times the blocks of one round, `with clock(name)`; when traced, each
    block's tracemalloc peak, from its start."""

    def __init__(self, traced: bool):
        self.traced, self.times, self.peaks = traced, {}, {}

    def __call__(self, name: str) -> "_Clock":
        self.name = name
        return self

    def __enter__(self):
        if self.traced:
            tracemalloc.start()
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.times[self.name] = time.perf_counter() - self.t0
        if self.traced:
            self.peaks[self.name] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()


def timed(run, peaks=()) -> dict:
    """{name: median seconds} of the blocks that run(clock) times, over at
    least MIN_ROUNDS rounds and MIN_SECONDS; then, for each name in peaks,
    name[:-1] + "peak_mib" from one more, traced round."""
    rounds, start = [], time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < MIN_SECONDS:
        clock = _Clock(False)
        run(clock)
        rounds.append(clock.times)
    row = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    if peaks:
        clock = _Clock(True)
        run(clock)
        row.update({name[:-1] + "peak_mib": clock.peaks[name] for name in peaks})
    return row


def _each(fns: dict, peaks=()) -> dict:
    """The timed fields of calling each function of fns in turn."""
    def run(clock):
        for name, fn in fns.items():
            with clock(name):
                fn()
    return timed(run, peaks)


# ball, width, complete

def _walk_row(row: dict, run, steps=None) -> dict:
    """row with the times of run and the tracemalloc peak of one more,
    traced round, builds outside its blocks included."""
    row.update(timed(run))
    tracemalloc.start()
    try:
        run(_Clock(False))
        row["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    row["max_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if steps:
        row["ns_per_trial_step"] = 1e9 * row["walk_s"] / (TRIALS * steps)
    return row


def _first_and_later(clock, build, walk):
    with clock("first_walk_s"):
        fam = build()
        walk(fam)
    with clock("walk_s"):
        walk(fam)


def ball(a: int, b: int, R: int) -> dict:
    import hyperscheme as hs

    params = hs.DTParams(a, b)
    mu = hs.StepDistribution({1: Fraction(1, 2), 2: Fraction(1, 2)})

    def walk(fam):
        hs.simulate_walk(fam, mu, 2, TRIALS, 0)
        hs.propagate_and_project(fam, mu, 2)

    def run(clock):
        built = hs.build_ball(params, R)
        _first_and_later(clock, lambda: hs.KernelFamily.from_ball(built), walk)

    return _walk_row({"a": a, "b": b, "R": R, "n": hs.dtgraph.ball_size(params, R)}, run)


def _walk_only(build, mu, steps: int, row: dict) -> dict:
    import hyperscheme as hs

    def run(clock):
        _first_and_later(clock, build, lambda fam: hs.simulate_walk(fam, mu, steps, TRIALS, 0))

    return _walk_row({**row, "steps": steps, "trials": TRIALS}, run, steps)


def width(h: int) -> dict:
    import hyperscheme as hs

    params = hs.DTParams(3, 2)
    built = hs.build_ball(params, WIDTH_RADIUS)
    return _walk_only(lambda: hs.KernelFamily.from_ball(built),
                      hs.StepDistribution({h: 1}), WIDTH_RADIUS // h,
                      {"a": 3, "b": 2, "R": WIDTH_RADIUS, "h": h,
                       "width": int(hs.haar_weight(h, params))})


def complete(m: int) -> dict:
    import hyperscheme as hs

    label = (np.arange(m)[:, None] != np.arange(m)[None, :]).astype(int)
    gs = hs.canonical_generalized(hs.verify_scheme(
        hs.RelationPartition(n_points=m, n_relations=2, label=label)))
    return _walk_only(lambda: hs.KernelFamily.from_generalized(gs),
                      hs.StepDistribution({1: 1}), 2, {"complete": m, "width": m - 1})


def deform(a: int, b: int, R: int) -> dict:
    import hyperscheme as hs

    params = hs.DTParams(a, b)
    built = hs.build_ball(params, R)
    mu = hs.StepDistribution({1: 1})

    def run(clock):
        with clock("ray_s"):
            ray = hs.BoundaryRay(built)
        with clock("deform_s"):
            dk = hs.deform_ball_kernels(built, ray, DEFORM_C)
        with clock("max_row_sum_error_s"):
            dk.max_row_sum_error
        with clock("walk_s"):
            hs.simulate_walk(hs.KernelFamily.from_deformed(dk), mu, 3, TRIALS, 0)

    names = ("ray_s", "deform_s", "max_row_sum_error_s", "walk_s")
    return {"a": a, "b": b, "R": R, "n": built.n, "c": DEFORM_C, **timed(run, peaks=names)}


# exact algebra

def _dihedral_table(m: int) -> np.ndarray:
    """D_m of order 2m; element k + m e stands for r^k s^e."""
    idx = np.arange(2 * m)
    k, e = idx % m, idx // m
    kk = (k[:, None] + np.where(e[:, None] == 1, -k[None, :], k[None, :])) % m
    return kk + m * (e[:, None] ^ e[None, :])


def _cycle_partition(m: int):
    import hyperscheme as hs

    x = np.arange(m)
    dist = np.abs(x[:, None] - x[None, :])
    return hs.RelationPartition(m, m // 2 + 1, np.minimum(dist, m - dist))


def _hypergroup(family: str, *ms: int) -> tuple:
    """(case name, hypergroup): D_m, D_m1 x D_m2, or Z_2 joined until d >= ms[0]."""
    import hyperscheme as hs

    def dihedral(m):
        return hs.from_scheme(hs.from_double_cosets(_dihedral_table(m), [0, m])[1])

    if family == "dihedral":
        return f"D{ms[0]}", dihedral(ms[0])
    if family == "product":
        return f"D{ms[0]}xD{ms[1]}", hs.direct_product(*map(dihedral, ms))
    z2 = hs.from_scheme(hs.from_double_cosets(np.array([[0, 1], [1, 0]]), [0])[1])
    h = z2
    while h.n < ms[0]:
        h = hs.join(h, z2)
    return f"Z2 joined {ms[0] - 1} times", h


def _generator_count(of) -> int:
    """|G|: the checked slices of the generating order that a scheme or
    hypergroup keeps, or, under a source tree whose objects keep none, of
    scheme._generators on its tensor."""
    from hyperscheme.scheme import _generators

    if hasattr(of, "_order"):
        return sum(pair is None for _, pair in of._order)
    return len(_generators(of.p if hasattr(of, "p") else of.num))


def verify_scheme(family: str, m: int) -> dict:
    import hyperscheme as hs

    partition = _cycle_partition(m) if family == "cycle" else \
        hs.from_double_cosets(_dihedral_table(m), [0, m])[1].partition
    return {"family": family, "case": f"{family[0].upper()}{m}",
            "n": partition.n_points, "d": partition.n_relations,
            "generators": _generator_count(hs.verify_scheme(partition)),
            **_each({"s": lambda: hs.verify_scheme(partition)}, peaks=("s",))}


def verify_hypergroup(family: str, *ms: int, time_oracle: bool = True) -> dict:
    """old_* fields only with time_oracle: the oracle is the same under
    every SRC."""
    import hyperscheme as hs
    import reference_verifiers as ref

    case, h = _hypergroup(family, *ms)
    fns = {"new_s": lambda: hs.verify_hypergroup(h)}
    if time_oracle:
        fns = {"old_s": lambda: ref.verify_hypergroup_slices(h), **fns}
    if not all(fn().ok for fn in fns.values()):
        raise SystemExit(f"{case} fails the hypergroup axioms")
    return {"family": family, "case": case, "d": h.n,
            "generators": _generator_count(h), **_each(fns, peaks=tuple(fns))}


def characters(m: int) -> dict:
    import hyperscheme as hs
    import reference_verifiers as ref
    from hyperscheme.hypergroup import _char_order

    case, h = _hypergroup("dihedral", m)
    rows = hs.characters(h).chars[::-1].copy()
    return {"case": case, "d": h.n,
            **_each({"characters_s": lambda: hs.characters(h),
                     "order_old_s": lambda: np.array(sorted(rows, key=ref._char_sort_key)),
                     "order_new_s": lambda: rows[_char_order(rows)]},
                    peaks=("characters_s",))}


def dumps(family: str, *ms: int) -> dict:
    from hyperscheme import io as hio

    case, h = _hypergroup(family, *ms)
    data = hio.hypergroup_to_dict(h)
    if hio.dumps(data) != json.dumps(data, indent=1, default=hio.encode_number):
        raise SystemExit(f"dumps differs from json.dumps on {case}")
    return {"case": case, "entries": h.n ** 3,
            **_each({"old_s": lambda: json.dumps(data, indent=1, default=hio.encode_number),
                     "new_s": lambda: hio.dumps(data)})}


def io_round_trip(m1: int, m2: int) -> dict:
    import argparse
    import tempfile

    import hyperscheme as hs
    from hyperscheme import cli, io as hio

    h1, h2 = (hs.from_scheme(hs.verify_scheme(_cycle_partition(m))) for m in (m1, m2))
    h = hs.direct_product(h1, h2)
    args = argparse.Namespace(command="product", json=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "product.json")

        def run(clock):
            with clock("to_dict_s"):
                data = hio.hypergroup_to_dict(h)
            with clock("dumps_s"):
                cli._report(args, "pass", {"hypergroup": data})
            with clock("save_s"):
                hio.save(path, data)
            with clock("load_s"):
                back = hio.load(path)
            with clock("from_dict_s"):
                hio.hypergroup_from_dict(back)

        names = ("to_dict_s", "dumps_s", "save_s", "load_s", "from_dict_s")
        row = timed(run, peaks=names)
        size = os.path.getsize(path)
    return {"case": f"C{m1}xC{m2}", "d": h.n, "entries": h.n ** 3, "file_bytes": size,
            **row}


def convolution_power(case: str, t: int, vs_reference: bool) -> dict:
    """A fresh hypergroup on each call, so that no coefficient cache carries
    over."""
    import hyperscheme as hs

    params = hs.DTParams(3, 2)
    law, c = POWER_LAWS[case]
    x0 = None if c is None else hs.deformation_point(c, params)

    def power():
        return hs.PolyHypergroup(params, x0=x0).power(law, t)

    row = {"case": case, "t": t, "atoms": len(power())}
    if not vs_reference:
        return {**row, **_each({"s": power}, peaks=("s",))}
    import reference_exact

    if power() != reference_exact.poly_power(3, 2, law, t):
        raise SystemExit(f"convolution_power differs from poly_power at t = {t}")
    return {**row, **_each({"old_s": lambda: reference_exact.poly_power(3, 2, law, t),
                            "new_s": power}, peaks=("old_s", "new_s"))}


def from_double_cosets(m: int) -> dict:
    import hyperscheme as hs

    table = _dihedral_table(m)
    partition = hs.from_double_cosets(table, [0, m])[1].partition
    return {"group": f"D{m}", "order": 2 * m, "n": partition.n_points,
            "d": partition.n_relations,
            **_each({"from_double_cosets_s": lambda: hs.from_double_cosets(table, [0, m]),
                     "verify_scheme_s": lambda: hs.verify_scheme(partition)},
                    peaks=("from_double_cosets_s", "verify_scheme_s"))}


# generalized schemes and Gram spectra

def _rectangle_perturbed(scheme):
    """A builder of the canonical family of the m-cycle, 4 | m, with
    RECTANGLE_T added to S_i at (0, i), (2i, 3i) and their transposes and
    taken from (0, 3i), (2i, i) and theirs, i = m / 4: rows, columns and
    symmetry are kept, and the deviation from the canonical family is
    2 RECTANGLE_T."""
    import hyperscheme as hs

    m = scheme.n_points
    i = m // 4
    kernels = hs.canonical_generalized(scheme).kernels.copy()
    for x, y, sign in ((0, i, 1), (2 * i, 3 * i, 1), (0, 3 * i, -1), (2 * i, i, -1)):
        kernels[i, [x, y], [y, x]] += sign * RECTANGLE_T
    return lambda: hs.GeneralizedScheme(scheme.partition, kernels, np.ones(m))


def generalized(kind: str, m1: int, m2: int) -> dict:
    import hyperscheme as hs

    def cycle_family(m):
        return hs.canonical_generalized(hs.verify_scheme(_cycle_partition(m)))

    if kind == "cycle":
        build, factors = hs.canonical_generalized, (hs.verify_scheme(_cycle_partition(m1)),)
    elif kind == "perturbed cycle":
        build, factors = _rectangle_perturbed(hs.verify_scheme(_cycle_partition(m1))), ()
    else:
        build = hs.direct_product_scheme if kind == "product" else hs.join_scheme
        factors = cycle_family(m1), cycle_family(m2)
    gs = build(*factors)

    def run(clock):
        with clock("build_s"):
            gs = build(*factors)     # a family no call has checked yet
        with clock("verify_generalized_s"):
            hs.verify_generalized(gs)
        with clock("from_generalized_s"):
            hs.from_generalized(gs)

    row = timed(run, peaks=("build_s", "verify_generalized_s", "from_generalized_s"))
    return {"kind": kind, "m1": m1, "m2": m2, "n": gs.partition.n_points,
            "d": gs.partition.n_relations, "generators": _generator_count(gs.verified[0]),
            **row, "total_s": row["verify_generalized_s"] + row["from_generalized_s"]}


def gram_min_eig(a: int, b: int, R: int) -> dict:
    import hyperscheme as hs

    params = hs.DTParams(a, b)
    s0, s1 = hs.special_points(params)
    eigs = []

    def run(clock):
        with clock("build_ball_s"):
            built = hs.build_ball(params, R)
        with clock("gram_min_eig_s"):
            eigs[:] = [hs.gram_min_eig(x, built) for x in (s0, 0.0, s1)]

    row = timed(run, peaks=("build_ball_s", "gram_min_eig_s"))
    return {"a": a, "b": b, "R": R, "n": hs.dtgraph.ball_size(params, R), "block": R + 1,
            **row, "min_eig": dict(zip(("s0", "0", "s1"), eigs))}


def ortho(a: int, b: int, degree: int) -> dict:
    import hyperscheme as hs
    from hyperscheme import cli
    from reference_spectral import nested_midpoint_integrate

    params = hs.DTParams(a, b)
    m = degree // 2

    def f(x):
        return hs.poly_eval(m, x, params) * hs.poly_eval(m, x, params)

    seen = []
    new = hs.ortho_measure_integrate(lambda x: seen.append(np.size(x)) or f(x), params)
    if new != nested_midpoint_integrate(f, params):
        raise SystemExit(f"ortho_measure_integrate differs from the oracle on {a, b, m}")
    argv = ["dtgraph", "--a", str(a), "--b", str(b), "--report", "ortho", "--json"]

    def report():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)

    return {"a": a, "b": b, "m": m, "nodes": sum(seen) - (b > a),
            "f_calls": len(seen),
            **_each({"old_s": lambda: nested_midpoint_integrate(f, params),
                     "new_s": lambda: hs.ortho_measure_integrate(f, params),
                     "cli_s": report})}


CURVES = {
    "ball": ([(3, 2, R) for R in range(4, 17)]
             + [(2, 2, R) for R in (50, 100, 200, 300)], ball),
    "width": ([(h,) for h in range(1, 7)], width),
    "complete": ([(300,), (1000,)], complete),
    "deform": ([(3, 2, R) for R in range(4, 14)], deform),
    "verify_scheme": ([(family, m) for family in ("cycle", "dihedral")
                       for m in (50, 100, 200, 400)] + [("cycle", 800)], verify_scheme),
    "verify_hypergroup": ([("dihedral", m) for m in (6, 20, 40, 60, 100, 140, 200, 400)]
                          + [("product", *ms) for ms in ((8, 10), (12, 14), (12, 22), (14, 28))]
                          # past 26, join-chain products leave exact float64
                          + [("join-chain", d) for d in (10, 18, 26)], verify_hypergroup),
    "characters": ([(m,) for m in (6, 20, 40, 60, 100, 140, 200, 400, 800)], characters),
    "dumps": ([("dihedral", m) for m in (6, 20, 40, 60, 100)]
              + [("product", 8, 10), ("product", 12, 14)], dumps),
    # d = k (k + 1): C_2(k-1) has k relations, C_2k has k + 1
    "io": ([(2 * k - 2, 2 * k) for k in range(3, 11)], io_round_trip),
    "convolution_power": ([("exact", t, True) for t in (25, 50, 100, 200)]
                          + [("exact", t, False) for t in (75, 300, 1000)]
                          + [("float delta_1", t, False) for t in (1000, 3000)]
                          + [("deformed at x_c(0.1)", t, False) for t in (300, 1000)]
                          + [("deformed at x0 = 1", t, False) for t in (1000, 3000)]
                          + [("sparse exact", 2, False)], convolution_power),
    "generalized": ([("product", 5, 6), ("product", 5, 8), ("join", 6, 12), ("join", 8, 10)]
                    + [("product", 3, m) for m in (10, 20, 34)]
                    + [("product", 5, m) for m in (20, 30, 40, 80)] + [("product", 20, 20)]
                    + [("join", *ms) for ms in ((5, 6), (10, 15), (12, 20), (16, 25))]
                    + [("cycle", m, None) for m in (100, 200, 400)]
                    + [("perturbed cycle", m, None) for m in (100, 200)], generalized),
    "gram_min_eig": ([(3, 2, R) for R in range(4, 17)]
                     + [(2, 2, R) for R in (50, 100, 200, 500, 1000)], gram_min_eig),
    "from_double_cosets": ([(m,) for m in (50, 100, 200, 400)], from_double_cosets),
    "ortho": ([(a, b, degree) for a in (2, 3, 4) for b in (2, 3, 4)
               for degree in (0, 4, 8, 12)], ortho),
}


def run_case(curve: str, case, **options) -> dict:
    """The row of one case, or its refusal; options go to the curve's
    function."""
    from hyperscheme.dtgraph import BallTooLarge, DomainError

    try:
        return CURVES[curve][1](*case, **options)
    except (BallTooLarge, DomainError, MemoryError) as exc:
        return {"case": [curve, *case], "refused": f"{type(exc).__name__}: {exc}"}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def _with_oracle(row: dict, first: dict) -> dict:
    """row with the old_* fields of first, in first's field order."""
    if "refused" in row or "refused" in first:
        return row
    return {k: first[k] if k.startswith("old_") else row[k] for k in first}


def _median_row(rows: list) -> dict:
    """Each float field's median over the runs of one case; every other
    field as in the first run.  A refusal in any run is the row."""
    refused = [row for row in rows if "refused" in row]
    if refused:
        return refused[0]
    return {k: statistics.median(row[k] for row in rows) if isinstance(v, float) else v
            for k, v in rows[0].items()}


def main(argv: list) -> None:
    if argv[:1] == ["--one"]:
        options = {"time_oracle": False} if argv[3:] == ["--no-oracle"] else {}
        print(json.dumps(run_case(argv[1], json.loads(argv[2]), **options)))
        return
    if not argv or argv[0] not in CURVES:
        print(f"usage: scaling.py CURVE [SRC ...]; curves: {', '.join(CURVES)}",
              file=sys.stderr)
        sys.exit(2)
    curve, srcs = argv[0], argv[1:] or [str(ROOT / "src")]
    out = {src: [] for src in srcs}
    envs = {src: {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(ROOT / "tests")]),
                  "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"} for src in srcs}
    for case in CURVES[curve][0]:
        runs = {src: [] for src in srcs}
        for run in range(RUNS):
            for k, src in enumerate(srcs):
                once = curve == "verify_hypergroup" and (run, k) != (0, 0)
                res = subprocess.run([sys.executable, __file__, "--one", curve,
                                      json.dumps(case)] + ["--no-oracle"] * once,
                                     env=envs[src], stdout=subprocess.PIPE, text=True,
                                     check=True, preexec_fn=_limit_address_space)
                row = json.loads(res.stdout)
                runs[src].append(_with_oracle(row, runs[srcs[0]][0]) if once else row)
        for src in srcs:
            out[src].append(_median_row(runs[src]))
            print(src, out[src][-1], file=sys.stderr)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
