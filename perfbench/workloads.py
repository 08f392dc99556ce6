"""The three benchmark workloads as lists of jobs.

A job is one user-level task that ends in a verified result: one library
pipeline or one in-process CLI invocation.  `run` is timed; `check` is not,
and raises CheckFailed (or anything else) when the output is wrong.  Checks
read outputs through the public API and the JSON file formats and compare
them with facts the benchmark derives without the library (valencies of
the cycle and Johnson schemes, Haar weights, exact mass 1, Monte Carlo
bounds), so they hold for any correct implementation.

Every round of a workload runs the same sizes with fresh seeded inputs, so
rounds cost the same and a round's time is comparable across seeds.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import hyperscheme as hs
from hyperscheme import cli
from hyperscheme import io as hsio

import inputs as gen

WORKLOADS = ("exact-algebra", "ball-walk", "float-spectral")
# most rounds a timed run sets up, each about 5-10 s with its checks
ROUNDS = {"exact-algebra": 5, "ball-walk": 4, "float-spectral": 7}

PSD_FLOOR = 1e-8
ROW_SUM_TOL = 1e-12
ORTHO_TOL = 1e-6
PLANCHEREL_TOL = 1e-8


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Job:
    id: str
    kind: str
    sizes: dict
    run: Callable[[], object]
    check: Callable[[object], dict]


def frac(v) -> Fraction:
    """Parse a number in the library's file encoding ("p/q", int or float)."""
    if isinstance(v, str):
        return Fraction(v)
    return Fraction(v) if isinstance(v, int) else v


def pq(v) -> str:
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def exact_law_json(law: dict) -> dict:
    require(all(isinstance(v, (Fraction, int)) for v in law.values()),
            "exact law has non-rational masses")
    require(sum(law.values()) == 1, "exact law does not sum to 1")
    require(all(v >= 0 for v in law.values()), "negative mass")
    return {str(k): pq(v) for k, v in sorted(law.items())}


def ratio(v) -> tuple[int, int]:
    """(numerator, denominator) of an entry in the file encoding ("p/q" or int)."""
    if isinstance(v, str):
        p, _, q = v.partition("/")
        return int(p), int(q or 1)
    require(isinstance(v, int), "tensor entry not a rational")
    return v, 1


def check_tensor_rows(hdict: dict) -> None:
    """Every row c[i][j][.] of an exact tensor sums to exactly 1.  The sum is
    taken in integers over the row's common denominator: the same test as
    a Fraction sum, without a gcd per addition."""
    for plane in hdict["conv"]:
        for row in plane:
            pairs = [ratio(c) for c in row]
            require(all(p >= 0 and q > 0 for p, q in pairs),
                    "tensor entry not a nonnegative rational")
            common = math.lcm(*(q for _, q in pairs))
            require(sum(p * (common // q) for p, q in pairs) == common,
                    "convolution row does not sum to 1")


def run_cli(argv: list) -> dict:
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--json"])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_report(res: dict) -> dict:
    require(res["rc"] == 0, f"exit code {res['rc']}: {res['stderr'][-200:]}")
    rep = json.loads(res["stdout"])
    require(rep["status"] == "pass", f"status {rep['status']}")
    return rep["results"]


def check_walk_tv(tv: float, law: dict, trials: int) -> dict:
    require(tv <= gen.TV_LIMIT, f"Monte Carlo TV {tv:.4f} > {gen.TV_LIMIT}")
    return {"tv": tv, "expected_tv": gen.expected_tv(law, trials),
            "trials": trials}


# ----------------------------------------------------------------------
# exact-algebra


def scheme_pipeline(table, subgroup, law, t):
    _, sch = hs.from_double_cosets(table, subgroup)
    h = hs.from_scheme(sch)
    rep = hs.verify_hypergroup(h)
    left, _, unimodular = hs.haar(h)
    chars = hs.characters(h)
    power = hs.convolution_power(h, hs.StepDistribution(law), t)
    return sch, h, rep, left, unimodular, chars, power


def check_scheme_pipeline(out, n_points: int, valencies: list) -> dict:
    sch, h, rep, left, unimodular, chars, power = out
    require(sch.n_points == n_points, "wrong number of cosets")
    val = [int(v) for v in sch.valency]
    require(sorted(val) == sorted(valencies), "valencies differ from theory")
    require(rep.ok, "verify_hypergroup reported failures")
    hd = hsio.hypergroup_to_dict(h)
    check_tensor_rows(hd)
    require(all(Fraction(w) == v for w, v in zip(left, val)) and unimodular,
            "Haar weights differ from the valencies")
    require(abs(float(np.sum(chars.plancherel)) - 1) <= PLANCHEREL_TOL,
            "Plancherel weights do not sum to 1")
    return {"exact": {"conv": hd["conv"], "haar": [pq(w) for w in left],
                      "power": exact_law_json(power)}}


def build_factor(m: int, rng):
    table, sub = gen.dihedral_input(m, rng)
    _, sch = hs.from_double_cosets(table, sub)
    return sch, hs.from_scheme(sch)


def product_job(m1, m2, rng):
    seeds = rng.integers(1 << 32, size=2)

    def run():
        s1, h1 = build_factor(m1, np.random.default_rng(seeds[0]))
        s2, h2 = build_factor(m2, np.random.default_rng(seeds[1]))
        p = hs.direct_product(h1, h2)
        rep = hs.verify_hypergroup(p)
        left, _, _ = hs.haar(p)
        chars = hs.characters(p)
        return s1, s2, p, rep, left, chars

    def check(out):
        s1, s2, p, rep, left, chars = out
        d1, d2 = s1.n_relations, s2.n_relations
        require(p.n == d1 * d2 and rep.ok, "product size or axioms wrong")
        hd = hsio.hypergroup_to_dict(p)
        check_tensor_rows(hd)
        want = [Fraction(int(s1.valency[i])) * int(s2.valency[j])
                for i in range(d1) for j in range(d2)]
        require(list(left) == want, "product Haar is not the product of Haars")
        require(abs(float(np.sum(chars.plancherel)) - 1) <= PLANCHEREL_TOL,
                "Plancherel weights do not sum to 1")
        return {"exact": {"conv": hd["conv"], "haar": [pq(w) for w in left]}}

    d = (m1 // 2 + 1) * (m2 // 2 + 1)
    return run, check, {"relations": d}


def join_job(m1, m2, rng):
    seeds = rng.integers(1 << 32, size=2)

    def run():
        s1, h1 = build_factor(m1, np.random.default_rng(seeds[0]))
        s2, h2 = build_factor(m2, np.random.default_rng(seeds[1]))
        j = hs.join(h1, h2)
        rep = hs.verify_hypergroup(j)
        left, _, _ = hs.haar(j)
        return s1, s2, j, rep, left

    def check(out):
        s1, s2, j, rep, left = out
        require(j.n == s1.n_relations + s2.n_relations - 1 and rep.ok,
                "join size or axioms wrong")
        hd = hsio.hypergroup_to_dict(j)
        check_tensor_rows(hd)
        return {"exact": {"conv": hd["conv"], "haar": [pq(w) for w in left]}}

    return run, check, {"relations": (m1 // 2 + 1) + (m2 // 2)}


def poly_job(a, b, t, law):
    def run():
        ph = hs.PolyHypergroup(hs.DTParams(a, b))
        return hs.convolution_power(ph, hs.StepDistribution(law), t)

    def check(power):
        require(max(power) <= t * max(law), "support beyond t * max step")
        return {"exact": {"power": exact_law_json(power)}}

    return run, check


def io_job(m, path, rng):
    hdict = gen.cycle_hypergroup_dict(m, rng)
    label, _ = gen.cycle_labels(m, rng)
    sdict = {"n_points": m, "relations": label.tolist(),
             "kernels": gen.canonical_kernels(label).tolist(),
             "omega_x": np.ones(m).tolist()}

    def run():
        h = hsio.hypergroup_from_dict(hdict)
        hsio.save(path, hsio.hypergroup_to_dict(h))
        h_back = hsio.load(path)
        gs = hsio.scheme_from_dict(sdict)
        s_back = hsio.scheme_to_dict(gs)
        return h_back, s_back

    def check(out):
        h_back, s_back = out
        for key in ("n", "identity", "involution"):
            require(h_back[key] == hdict[key], f"hypergroup {key} changed")
        got = [[[frac(c) for c in row] for row in plane] for plane in h_back["conv"]]
        want = [[[frac(c) for c in row] for row in plane] for plane in hdict["conv"]]
        require(got == want, "hypergroup tensor changed in a round trip")
        require(s_back == sdict, "scheme file changed in a round trip")
        return {"exact": {"conv": h_back["conv"]}}

    return run, check


def cycle_valencies(m: int) -> list:
    return [1] + [2] * ((m - 1) // 2) + ([1] if m % 2 == 0 else [])


def dihedral_case(m, t, rng):
    """(run, check) of the pipeline on D_m with a random reflection subgroup."""
    table, sub = gen.dihedral_input(m, rng)
    d = m // 2 + 1
    law = gen.step_law(rng, sorted(rng.choice(np.arange(1, d), 2, replace=False)), 7)
    return (lambda: scheme_pipeline(table, sub, law, t),
            lambda out: check_scheme_pipeline(out, m, cycle_valencies(m)))


def young_case(k, part, t, rng):
    """(run, check) of the pipeline on S_k / (S_{k-part} x S_part)."""
    table, sub = gen.young_input(k, part, rng)
    support = sorted(rng.choice(np.arange(1, part + 1), min(2, part), replace=False))
    law = gen.step_law(rng, support, 7) if len(support) > 1 else {int(support[0]): Fraction(1)}
    val = [math.comb(part, i) * math.comb(k - part, i) for i in range(part + 1)]
    return (lambda: scheme_pipeline(table, sub, law, t),
            lambda out: check_scheme_pipeline(out, math.comb(k, part), val))


def combined(parts):
    """Run several (run, check) pairs as one job."""
    def run():
        return [p[0]() for p in parts]

    def check(outs):
        infos = [p[1](o) for p, o in zip(parts, outs)]
        return {"exact": [i.get("exact") for i in infos]}

    return run, check


# Jobs last roughly 0.1-1 s each: on a shared machine shorter job times are
# dominated by noise, which would make the median job time unsteady.
def exact_algebra(rng, r: int, workdir: str, smoke: bool) -> list:
    jobs = []
    families = (((6, 4),), ((8, 5),)) if smoke else \
        (((20, 20), (30, 30), (40, 40)), ((50, 50),), ((60, 60),))
    for fam in families:
        run, check = combined([dihedral_case(m, t, rng) for m, t in fam])
        ms = "-".join(str(m) for m, _ in fam)
        jobs.append(Job(f"r{r}.dihedral.{ms}", "dihedral",
                        {"points": [m for m, _ in fam],
                         "relations": [m // 2 + 1 for m, _ in fam],
                         "steps": [t for _, t in fam]}, run, check))

    young = ((4, 1), (4, 2)) if smoke else ((5, 1), (5, 2), (6, 2))
    run, check = combined([young_case(k, part, 3 if smoke else 40, rng)
                           for k, part in young])
    jobs.append(Job(f"r{r}.young", "young",
                    {"group": [math.factorial(k) for k, _ in young],
                     "points": [math.comb(k, p) for k, p in young],
                     "relations": [p + 1 for _, p in young]}, run, check))

    # dihedral factors of order m give d = m // 2 + 1 relations
    small = ((4, 4), (4, 4)) if smoke else ((8, 10), (10, 12))
    parts = [product_job(m1, m2, rng) for m1, m2 in small]
    parts += [join_job(m1, m2, rng) for m1, m2 in (((4, 4),) if smoke else ((8, 4), (6, 10)))]
    run, check = combined([p[:2] for p in parts])
    jobs.append(Job(f"r{r}.constructions", "constructions",
                    {"relations": [p[2]["relations"] for p in parts]}, run, check))
    if not smoke:
        run, check, sizes = product_job(12, 14, rng)
        jobs.append(Job(f"r{r}.product.12x14", "product", sizes, run, check))

    polys = (((3, 2, 5),), ((2, 3, 5),)) if smoke else \
        (((3, 2, 75),), ((4, 2, 60), (2, 3, 50), (3, 3, 45)))
    for group in polys:
        run, check = combined([poly_job(a, b, t, gen.step_law(rng, [1, 2], 7))
                               for a, b, t in group])
        jobs.append(Job(f"r{r}.poly." + "-".join(f"{a}{b}" for a, b, _ in group), "poly",
                        {"params": [[a, b] for a, b, _ in group],
                         "steps": [t for _, _, t in group]}, run, check))

    ms = (8, 10) if smoke else (40, 60)
    run, check = combined([io_job(m, os.path.join(workdir, f"r{r}-io{i}.json"), rng)
                           for i, m in enumerate(ms)])
    jobs.append(Job(f"r{r}.io", "io", {"points": list(ms),
                                       "relations": [m // 2 + 1 for m in ms]},
                    run, check))

    jobs.extend(exact_cli_jobs(rng, r, workdir, smoke))
    return jobs


def write_json(path: str, data: dict) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def exact_cli_jobs(rng, r, workdir, smoke) -> list:
    jobs = []
    m = 8 if smoke else 50
    label, _ = gen.cycle_labels(m, rng)
    kfile = write_json(os.path.join(workdir, f"r{r}-verify.json"),
                       {"n_points": m, "relations": label.tolist()})

    def check_verify(res, m=m):
        out = cli_report(res)
        require(sorted(out["valency"]) == sorted(cycle_valencies(m)),
                "CLI verify valencies differ from theory")
        return {}

    jobs.append(Job(f"r{r}.cli-verify.{m}", "cli-verify",
                    {"points": m, "relations": m // 2 + 1},
                    lambda f=kfile: run_cli(["verify", f]), check_verify))

    table, sub = gen.dihedral_input(m, rng)
    gfile = write_json(os.path.join(workdir, f"r{r}-group.json"),
                       {"n": len(table), "table": table.tolist()})

    def check_cosets(res, m=m):
        out = cli_report(res)
        require(out["n_cosets"] == m, "CLI cosets: wrong number of cosets")
        return {}

    jobs.append(Job(f"r{r}.cli-cosets.{m}", "cli-cosets",
                    {"group": 2 * m, "points": m, "relations": m // 2 + 1},
                    lambda f=gfile, s=sub: run_cli(["cosets", f, ",".join(map(str, s))]),
                    check_cosets))

    m1, m2 = (4, 4) if smoke else (10, 12)
    h1 = write_json(os.path.join(workdir, f"r{r}-h1.json"), gen.cycle_hypergroup_dict(m1, rng))
    h2 = write_json(os.path.join(workdir, f"r{r}-h2.json"), gen.cycle_hypergroup_dict(m2, rng))
    d = (m1 // 2 + 1) * (m2 // 2 + 1)

    def check_product(res, d=d):
        out = cli_report(res)["hypergroup"]
        require(out["n"] == d, "CLI product: wrong size")
        check_tensor_rows(out)
        return {"exact": {"conv": out["conv"]}}

    jobs.append(Job(f"r{r}.cli-product.{d}", "cli-product", {"relations": d},
                    lambda a=h1, b=h2: run_cli(["product", a, b]), check_product))

    m = 8 if smoke else 40
    label, _ = gen.cycle_labels(m, rng)
    wfile = write_json(os.path.join(workdir, f"r{r}-walk.json"),
                       {"n_points": m, "relations": label.tolist()})
    dd = m // 2 + 1
    law = gen.step_law(rng, sorted(rng.choice(np.arange(1, dd), 2, replace=False)), 5)
    t = 4 if smoke else 30

    def check_walk(res):
        out = cli_report(res)
        total = sum(out["exact_projection"].values())
        require(abs(total - 1) <= ROW_SUM_TOL, "CLI walk --exact law does not sum to 1")
        return {}

    jobs.append(Job(f"r{r}.cli-walk-exact.{m}", "cli-walk",
                    {"points": m, "relations": dd, "steps": t},
                    lambda: run_cli(["walk", wfile, "--mu", gen.law_arg(law),
                                     "--steps", str(t), "--exact"]),
                    check_walk))
    return jobs


# ----------------------------------------------------------------------
# ball-walk


def ball_walk_step(fam, hgroup, law, steps, trials, seed):
    mu = hs.StepDistribution(law)
    walk = hs.simulate_walk(fam, mu, steps, trials, seed)
    tv = hs.projection_check(walk, fam, hgroup, mu, steps)
    exact = hs.convolution_power(hgroup, mu, steps)
    return tv, exact


def walk_plan(rng, support, steps):
    law = gen.step_law(rng, support, 7) if len(support) > 1 else {support[0]: Fraction(1)}
    trials = gen.mc_trials(max(support) * steps + 1)
    return law, steps, trials, int(rng.integers(1 << 30))


def check_ball_walk(out, law, steps, trials, exact_json=True) -> dict:
    tv, exact = out
    info = check_walk_tv(tv, {k: float(v) for k, v in exact.items()}, trials)
    if exact_json:
        info["exact"] = {"power": exact_law_json(exact)}
    else:
        require(abs(sum(float(v) for v in exact.values()) - 1) <= ROW_SUM_TOL,
                "deformed law does not sum to 1")
    return info


# (a, b, R), walk in the ball job, optional walk sharing the ball, optional
# deformed walk (b = 2 only).  A walk of s steps with largest step h stays
# inside the ball when s * h <= R.
BALL_PLANS = (
    ((3, 2, 8), ([1, 2], 2), None, ([1], 3)),
    ((4, 2, 5), ([1], 3), None, None),
    ((2, 3, 8), ([1, 2], 2), ([1], 3), None),
    ((3, 3, 4), ([1], 2), None, None),
)
SMOKE_BALL_PLANS = (
    ((3, 2, 3), ([1], 2), ([1], 1), ([1], 2)),
    ((2, 3, 3), ([1], 2), None, None),
)


def ball_walk(rng, r: int, workdir: str, smoke: bool) -> list:
    jobs = []
    for (a, b, R), walk_a, walk_b, walk_c in (SMOKE_BALL_PLANS if smoke else BALL_PLANS):
        shared = {}
        n = gen.ball_size(a, b, R)
        law, steps, trials, seed = walk_plan(rng, *walk_a)

        def run_ball(a=a, b=b, R=R, law=law, steps=steps, trials=trials,
                     seed=seed, shared=shared):
            params = hs.DTParams(a, b)
            ball = hs.build_ball(params, R)
            fam = hs.KernelFamily.from_ball(ball)
            shared.update(ball=ball, fam=fam, hg=hs.PolyHypergroup(params))
            return ball_walk_step(fam, shared["hg"], law, steps, trials, seed)

        jobs.append(Job(f"r{r}.ball.{a}-{b}-{R}", "ball",
                        {"params": [a, b], "radius": R, "vertices": n,
                         "steps": steps, "trials": trials},
                        run_ball,
                        lambda o, l=law, s=steps, t=trials: check_ball_walk(o, l, s, t)))
        if walk_b is not None:
            law, steps, trials, seed = walk_plan(rng, *walk_b)
            jobs.append(Job(
                f"r{r}.walk.{a}-{b}-{R}", "shared-walk",
                {"params": [a, b], "radius": R, "vertices": n, "steps": steps,
                 "trials": trials},
                lambda sh=shared, l=law, s=steps, t=trials, sd=seed:
                    ball_walk_step(sh["fam"], sh["hg"], l, s, t, sd),
                lambda o, l=law, s=steps, t=trials: check_ball_walk(o, l, s, t)))
        if walk_c is not None:
            law, steps, trials, seed = walk_plan(rng, *walk_c)
            c = float(rng.uniform(-0.5, 0.5))

            def run_deform(sh=shared, law=law, steps=steps, trials=trials,
                           seed=seed, c=c):
                ball = sh["ball"]
                ray = hs.BoundaryRay(ball)
                dk = hs.deform_ball_kernels(ball, ray, c)
                fam = hs.KernelFamily.from_deformed(dk)
                hgroup = hs.PolyHypergroup(ball.params, x0=dk.x_c)
                return dk.max_row_sum_error, ball_walk_step(fam, hgroup, law,
                                                            steps, trials, seed)

            def check_deform(out, law=law, steps=steps, trials=trials):
                err, walk_out = out
                require(err <= ROW_SUM_TOL, f"max_row_sum_error {err:.2e}")
                info = check_ball_walk(walk_out, law, steps, trials, exact_json=False)
                info["max_row_sum_error"] = err
                return info

            jobs.append(Job(f"r{r}.deform.{a}-{b}-{R}", "deform",
                            {"params": [a, b], "radius": R, "vertices": n,
                             "steps": steps, "trials": trials, "c": c},
                            run_deform, check_deform))

    cli_plans = ((3, 2, 2, True), (2, 3, 2, False)) if smoke else \
        ((3, 2, 6, True), (2, 3, 6, False))
    for a, b, R, deformed in cli_plans:
        law, steps, trials, seed = walk_plan(rng, [1], 2)
        spec = f"{a},{b},{R}"
        if deformed:
            spec += f",{rng.uniform(-0.5, 0.5):.6f}"
        argv = ["walk", "--dtgraph", spec, "--mu", gen.law_arg(law), "--steps",
                str(steps), "--trials", str(trials), "--seed", str(seed)]

        def check_cli_walk(res, trials=trials):
            out = cli_report(res)
            law_f = {k: float(v) for k, v in out["exact_projection"].items()}
            return check_walk_tv(out["tv"], law_f, trials)

        jobs.append(Job(f"r{r}.cli-walk.{spec}", "cli-walk",
                        {"params": [a, b], "radius": R, "steps": steps,
                         "trials": trials},
                        lambda argv=argv: run_cli(argv), check_cli_walk))
    return jobs


# ----------------------------------------------------------------------
# float-spectral


def gram_job(a, b, R, rng, n_inside, n_outside):
    params = hs.DTParams(a, b)
    s0, s1 = gen.special_points(a, b)
    width = s1 - s0
    inside = rng.uniform(s0 + 0.02 * width, s1 - 0.02 * width, n_inside)
    margins = rng.uniform(0.2, 0.6, n_outside)
    outside = np.where(np.arange(n_outside) % 2 == 0, s0 - margins, s1 + margins)

    def run():
        ball = hs.build_ball(params, R)
        return ([hs.gram_min_eig(float(x), ball) for x in inside],
                [hs.gram_min_eig(float(x), ball) for x in outside])

    def check(out):
        eig_in, eig_out = out
        require(min(eig_in) >= -PSD_FLOOR, "Gram not PSD inside [s0, s1]")
        require(max(eig_out) < -PSD_FLOOR, "Gram PSD outside [s0, s1]")
        return {"min_eig_inside": min(eig_in), "max_eig_outside": max(eig_out)}

    return run, check


def gs_job(kind, m1, m2, rng):
    l1, _ = gen.cycle_labels(m1, rng)
    l2, _ = gen.cycle_labels(m2, rng)
    coef_seed = int(rng.integers(1 << 30))

    def run():
        factors = []
        for lab in (l1, l2):
            part = hs.RelationPartition(n_points=len(lab),
                                        n_relations=int(lab.max()) + 1, label=lab)
            factors.append(hs.canonical_generalized(hs.verify_scheme(part)))
        build = hs.direct_product_scheme if kind == "product" else hs.join_scheme
        gs = build(*factors)
        hs.verify_generalized(gs)
        rigid = hs.finite_rigidity_check(gs)
        h = hs.from_generalized(gs)
        table = hs.characters(h)
        trivial = next(row.real for row in table.chars
                       if np.abs(row.imag).max() <= 1e-9 and row.real.min() > 0)
        deformed = hs.semicharacter_deform(h, trivial)
        coefs = np.random.default_rng(coef_seed).uniform(0.1, 1.0, h.n)
        f_pd = coefs @ table.chars.real
        f_not = f_pd - 2 * coefs.max() * h.n * table.chars[-1].real
        pd_yes, _ = hs.positive_definite_check(h, f_pd, table)
        pd_no, _ = hs.positive_definite_check(h, f_not, table)
        return gs, rigid, h, table, deformed, pd_yes, pd_no

    def check(out):
        gs, rigid, h, table, deformed, pd_yes, pd_no = out
        require(rigid, "finite rigidity fails")
        require(abs(float(np.sum(table.plancherel)) - 1) <= PLANCHEREL_TOL,
                "Plancherel weights do not sum to 1")
        conv = np.array(hsio.hypergroup_to_dict(deformed)["conv"], dtype=float)
        require(np.abs(conv.sum(axis=2) - 1).max() <= 1e-9,
                "deformed rows do not sum to 1")
        require(pd_yes and not pd_no, "positive-definiteness verdicts wrong")
        return {}

    return run, check


def ortho_job(a, b, pairs, counter):
    params = hs.DTParams(a, b)

    def run():
        out = []
        for m, n in pairs:
            def f(x, m=m, n=n):
                counter[0] += np.size(x)
                return hs.poly_eval(m, x, params) * hs.poly_eval(n, x, params)
            out.append(hs.ortho_measure_integrate(f, params))
        return out

    def check(vals):
        errs = [abs(v - ((1.0 / gen.sphere_size(a, b, n)) if m == n else 0.0))
                for v, (m, n) in zip(vals, pairs)]
        require(max(errs) <= ORTHO_TOL, f"orthogonality error {max(errs):.2e}")
        return {"max_orthogonality_error": max(errs)}

    return run, check


def float_spectral(rng, r: int, workdir: str, smoke: bool, f_points: list) -> list:
    jobs = []
    grams = ((3, 2, 3), (2, 3, 3)) if smoke else \
        ((3, 2, 8), (2, 3, 7), (4, 2, 5), (3, 3, 4))
    for a, b, R in grams:
        run, check = gram_job(a, b, R, rng, 2 if smoke else 5, 2 if smoke else 3)
        n = gen.ball_size(a, b, R)
        jobs.append(Job(f"r{r}.gram.{a}-{b}-{R}", "gram",
                        {"params": [a, b], "radius": R, "vertices": n}, run, check))

    gss = (("product", 3, 4),) if smoke else \
        (("product", 5, 6), ("product", 5, 8), ("join", 6, 12), ("join", 8, 10))
    for kind, m1, m2 in gss:
        run, check = gs_job(kind, m1, m2, rng)
        d1, d2 = m1 // 2 + 1, m2 // 2 + 1
        jobs.append(Job(f"r{r}.gs-{kind}.{m1}-{m2}", f"gs-{kind}",
                        {"points": m1 * m2,
                         "relations": d1 * d2 if kind == "product" else d1 + d2 - 1},
                        run, check))

    # one job per a, over b = 2, 3, 4; each (a, b) integrates three (m, n)
    # pairs from every stratum of total degree m + n, so a job's cost does not
    # depend on the seed
    pairs_by_degree = sorted(((m, n) for m in range(7) for n in range(m, 7)),
                             key=sum)
    strata = np.array_split(np.arange(len(pairs_by_degree)), 2 if smoke else 5)
    for a in ((2,) if smoke else (2, 3, 4)):
        bs = (2, 3) if smoke else (2, 3, 4)
        parts = [ortho_job(a, b, [pairs_by_degree[int(rng.choice(s))]
                                  for s in strata for _ in range(3)], f_points)
                 for b in bs]
        jobs.append(Job(f"r{r}.ortho.{a}", "ortho",
                        {"params": [[a, b] for b in bs],
                         "integrals": 3 * len(strata) * len(bs)},
                        lambda parts=parts: [p[0]() for p in parts],
                        lambda outs, parts=parts: {
                            "max_orthogonality_error": max(
                                p[1](o)["max_orthogonality_error"]
                                for p, o in zip(parts, outs))}))

    m = 6 if smoke else 12
    label, _ = gen.cycle_labels(m, rng)
    gfile = write_json(os.path.join(workdir, f"r{r}-gs.json"),
                       {"n_points": m, "relations": label.tolist(),
                        "kernels": gen.canonical_kernels(label).tolist(),
                        "omega_x": np.ones(m).tolist()})
    d = m // 2 + 1
    law = gen.step_law(rng, sorted(rng.choice(np.arange(1, d), 2, replace=False)), 7)
    steps = 2 if smoke else 3
    trials = gen.mc_trials(d)
    argv = ["walk", gfile, "--mu", gen.law_arg(law), "--steps", str(steps),
            "--trials", str(trials), "--seed", str(int(rng.integers(1 << 30)))]

    def check_walk(res, trials=trials):
        out = cli_report(res)
        law_f = {k: float(v) for k, v in out["exact_projection"].items()}
        return check_walk_tv(out["tv"], law_f, trials)

    jobs.append(Job(f"r{r}.cli-walk.gs{m}", "cli-walk",
                    {"points": m, "relations": d, "steps": steps, "trials": trials},
                    lambda: run_cli(argv), check_walk))

    a, b, R = (3, 2, 3) if smoke else (3, 2, 8)
    s0, s1 = gen.special_points(a, b)
    lo, hi = s0 + 0.05 * (s1 - s0), s1 - 0.05 * (s1 - s0)
    shift = rng.uniform(0, 0.05 * (s1 - s0))
    psd_argv = ["dtgraph", "--a", str(a), "--b", str(b), "--radius", str(R),
                "--report", "psd", f"--grid={lo + shift}:{hi - shift}:4"]

    def check_psd(res):
        out = cli_report(res)
        require(all(row["psd"] for row in out["psd"]), "CLI psd row not PSD")
        return {}

    jobs.append(Job(f"r{r}.cli-psd.{a}-{b}-{R}", "cli-dtgraph",
                    {"params": [a, b], "radius": R}, lambda: run_cli(psd_argv),
                    check_psd))

    a, b = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    ortho_argv = ["dtgraph", "--a", str(a), "--b", str(b), "--report", "ortho"]

    def check_ortho(res):
        out = cli_report(res)
        require(out["max_orthogonality_error"] <= ORTHO_TOL, "CLI ortho error")
        return {}

    jobs.append(Job(f"r{r}.cli-ortho.{a}-{b}", "cli-dtgraph", {"params": [a, b]},
                    lambda: run_cli(ortho_argv), check_ortho))
    return jobs
