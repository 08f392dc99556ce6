"""Command-line entry point: file verification, coset schemes, character
tables, dual convolutions, deformations, clique-tree graph reports,
products/joins, and random walks.

Exit codes: 0 pass, 1 failed check or axiom violation, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from . import constructions, dtgraph, io, scheme, walks
from . import hypergroup as hg
from .hypergroup import TOL, PSD_FLOOR

EXIT = {"pass": 0, "fail": 1, "error": 2}


def _number(text: str) -> Fraction:
    """A command-line number as an exact rational: 3, 1/2, 0.5 or 1e-3.
    nan, inf and a zero denominator raise ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _human_lines(obj, indent=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                yield f"{indent}{k}:"
                yield from _human_lines(v, indent + "  ")
            else:
                yield f"{indent}{k}: {v}"
    elif isinstance(obj, list):
        for v in obj:
            yield from _human_lines(v, indent)
    else:
        yield f"{indent}{obj}"


def _complex_to_jsonable(z):
    if abs(z.imag) < 1e-12:
        return float(z.real)
    return {"re": float(z.real), "im": float(z.imag)}


def cmd_verify(args):
    obj = io.scheme_from_dict(io.load(args.file))
    if isinstance(obj, scheme.GeneralizedScheme):
        ptilde = scheme.verify_generalized(obj)
        rigid = scheme.finite_rigidity_check(obj)
        return "pass", {"kind": "generalized", "p_tilde": ptilde.tolist(),
                        "rigidity": rigid}
    sch = scheme.verify_scheme(obj)
    return "pass", {
        "kind": "scheme",
        "n_relations": sch.n_relations,
        "involution": sch.involution.tolist(),
        "valency": sch.valency.tolist(),
        "p": sch.p.tolist(),
        "commutative": sch.is_commutative(),
        "symmetric": sch.is_symmetric(),
        "unimodular": sch.is_unimodular(),
    }


def cmd_cosets(args):
    table = io.group_from_dict(io.load(args.group_file))
    subgroup = [int(s) for s in args.subgroup.split(",")]
    coset_of, sch = scheme.from_double_cosets(table, subgroup)
    results = {
        "n_cosets": sch.n_points,
        "n_double_cosets": sch.n_relations,
        "coset_of": coset_of.tolist(),
        "valency": sch.valency.tolist(),
        "scheme": io.scheme_to_dict(sch),
    }
    if args.out:
        io.save(args.out, results["scheme"])
    return "pass", results


def _load_hypergroup(path: str) -> hg.FiniteHypergroup:
    """A hypergroup file, verified against the hypergroup axioms."""
    h = io.hypergroup_from_dict(io.load(path))
    hg.verify_hypergroup(h)
    return h


def cmd_characters(args):
    table = hg.characters(_load_hypergroup(args.file), seed=args.seed)
    return "pass", {
        "chars": [[_complex_to_jsonable(z) for z in row] for row in table.chars],
        "haar": table.haar.tolist(),
        "plancherel": table.plancherel.tolist(),
    }


def cmd_dual(args):
    h = _load_hypergroup(args.file)
    table = hg.characters(h, seed=args.seed)
    coeffs = hg.dual_convolution(h, table, args.i, args.j)
    nonneg = bool(coeffs.real.min() >= -1e-9)
    results = {"coefficients": [_complex_to_jsonable(z) for z in coeffs],
               "sum": float(coeffs.real.sum()), "nonnegative": nonneg}
    return ("pass" if (not h.scheme_derived or nonneg) else "fail"), results


def cmd_deform(args):
    h = _load_hypergroup(args.file)
    alpha = [_number(v) for v in args.alpha.split(",")]
    out = io.hypergroup_to_dict(hg.semicharacter_deform(h, alpha))
    if args.out:
        io.save(args.out, out)
    return "pass", {"hypergroup": out}


def _parse_grid(spec: str):
    lo, hi, n = spec.split(":")
    if int(n) < 1:
        raise ValueError(f"--grid needs at least one point, got {spec!r}")
    return np.linspace(float(lo), float(hi), int(n))


def cmd_dtgraph(args):
    params = dtgraph.DTParams(args.a, args.b)
    dtgraph.sphere_labels(args.radius)
    s0, s1 = dtgraph.special_points(params)
    results = {"params": {"a": args.a, "b": args.b}, "s0": s0, "s1": s1}
    status = "pass"
    xs = None
    if args.x is not None and args.grid is not None:
        raise ValueError("give --x or --grid, not both")
    if args.x is not None:
        xs = [args.x]
    elif args.grid is not None:
        xs = _parse_grid(args.grid).tolist()
    if xs is not None and not all(map(math.isfinite, xs)):
        raise ValueError("--x and --grid need finite values")

    if args.report == "psd":
        ball = dtgraph.build_ball(params, args.radius)
        rows = []
        for x in xs or [s0, 0.0, s1]:
            eig = dtgraph.gram_min_eig(x, ball)
            ok = eig >= -PSD_FLOOR
            rows.append({"x": x, "min_eig": eig, "psd": ok})
            if not ok:
                status = "fail"
        results["psd"] = rows
    elif args.report == "ortho":
        errs = []
        for m in range(0, 6):
            for n in range(0, 6):
                val = dtgraph.ortho_measure_integrate(
                    lambda t: dtgraph.poly_eval(m, t, params)
                    * dtgraph.poly_eval(n, t, params), params)
                want = (1.0 / dtgraph.haar_weight(n, params)) if m == n else 0.0
                errs.append(abs(val - want))
        results["max_orthogonality_error"] = max(errs)
        if max(errs) > 1e-6:
            status = "fail"
    elif args.report == "deform":
        ball = dtgraph.build_ball(params, args.radius)
        ray = dtgraph.BoundaryRay(ball)
        dk = dtgraph.deform_ball_kernels(ball, ray, args.deform_c)
        results["x_c"] = dk.x_c
        results["max_row_sum_error"] = dk.max_row_sum_error
        results["skipped_rows"] = {str(k): v for k, v in dk.skipped.items()}
        if dk.max_row_sum_error > 1e-12:
            status = "fail"
    elif args.report == "pushforward":
        pf1, haar1 = dtgraph.pushforward_vs_haar(params, args.deform_c)
        results["pushforward_1"] = pf1
        results["haar_1"] = haar1
        results["equal"] = abs(pf1 - haar1) <= 1e-10
    else:
        # default: evaluate the polynomials on the requested points
        if xs:
            results["values"] = []
            for x in xs:
                P = dtgraph.poly_values(args.radius, x, params)
                if not np.isfinite(P).all():
                    raise dtgraph.DomainError(
                        f"P_n({x!r}) leaves double range for n <= {args.radius}")
                results["values"].append({"x": x, "P": P.tolist()})
    return status, results


def cmd_construction(args):
    """product or join, after args.command, of two hypergroup files or two
    kernel-family scheme files.  Both inputs are read before either is
    verified, so a malformed file is an input error even beside a failing
    one; then the result is verified too."""
    d1, d2 = io.load(args.file1), io.load(args.file2)
    if ("conv" in d1) != ("conv" in d2):
        raise ValueError("both inputs must be the same kind of file")
    kind = "hypergroup" if "conv" in d1 else "scheme"
    product = args.command == "product"
    if kind == "hypergroup":
        h1, h2 = io.hypergroup_from_dict(d1), io.hypergroup_from_dict(d2)
        for h in (h1, h2):
            hg.verify_hypergroup(h)
        result = (constructions.direct_product if product else constructions.join)(h1, h2)
        hg.verify_hypergroup(result)
        out = io.hypergroup_to_dict(result)
    else:
        g1, g2 = io.scheme_from_dict(d1), io.scheme_from_dict(d2)
        if not all(isinstance(g, scheme.GeneralizedScheme) for g in (g1, g2)):
            raise ValueError("scheme files need kernels for constructions")
        for g in (g1, g2):
            scheme.verify_generalized(g)
        result = (constructions.direct_product_scheme if product
                  else constructions.join_scheme)(g1, g2)
        scheme.verify_generalized(result)
        out = io.scheme_to_dict(result)
    if args.out:
        io.save(args.out, out)
    return "pass", {kind: out}


def _parse_mu(spec: str) -> walks.StepDistribution:
    weights = {}
    for part in spec.split(","):
        label, v = part.split(":")
        k = int(label)
        if k in weights:
            raise ValueError(f"step law label {k} appears twice in {spec!r}")
        weights[k] = _number(v)
    return walks.StepDistribution(weights)


def _walk_inputs(args):
    """The step law, kernel family (None with --exact) and hypergroup."""
    mu = _parse_mu(args.mu)
    if args.dtgraph and args.scheme_file:
        raise ValueError("give a scheme file or --dtgraph, not both")
    if args.dtgraph:
        fields = args.dtgraph.split(",")
        if len(fields) not in (3, 4):
            raise ValueError(f"--dtgraph needs a,b,R[,c], got {args.dtgraph!r}")
        # int, not float: a non-integer a, b or R is an input error
        a, b, radius = (int(v) for v in fields[:3])
        c = float(fields[3]) if len(fields) == 4 else None
        params = dtgraph.DTParams(a, b)
        x_c = None if c is None else dtgraph.deformation_point(c, params)
        labels = dtgraph.sphere_labels(radius)
        hgroup = dtgraph.PolyHypergroup(params, x0=x_c)
        hgroup.alpha0(radius)   # K_R's scale; a power checks each alpha0 it uses
        if not args.exact:
            ball = dtgraph.build_ball(params, radius)
            kernels = walks.KernelFamily.from_ball(ball) if c is None else \
                walks.KernelFamily.from_deformed(
                    dtgraph.deform_ball_kernels(ball, dtgraph.BoundaryRay(ball), c))
    else:
        if not args.scheme_file:
            raise ValueError("either a scheme file or --dtgraph is required")
        # one verify_scheme; canonical kernels are valid by construction
        gs = io.scheme_from_dict(io.load(args.scheme_file))
        if isinstance(gs, scheme.GeneralizedScheme):
            sch = scheme.verify_scheme(gs.partition)
            scheme._verify_kernels(gs, sch)
        else:
            sch = scheme.verify_scheme(gs)
            gs = None if args.exact else scheme.canonical_generalized(sch)
        labels = range(sch.n_relations)
        hgroup = hg.from_scheme(sch)
        if not args.exact:
            kernels = walks.KernelFamily.from_generalized(gs)
    missing = sorted(h for h in mu.weights if h not in labels)
    if missing:
        raise ValueError(f"step law labels {missing} have no kernel; the family "
                         f"has labels {labels[0]}..{labels[-1]}")
    return mu, None if args.exact else kernels, hgroup


def cmd_walk(args):
    mu, kernels, hgroup = _walk_inputs(args)
    if args.exact:
        exact = walks.convolution_power(hgroup, mu, args.steps)
        results = {"exact_projection": {int(k): float(v) for k, v in exact.items()}}
        tv = 0.0
    else:
        walk = walks.simulate_walk(kernels, mu, args.steps, args.trials, args.seed)
        exact, projected = walks._projected_laws(walk, kernels, hgroup, mu)
        tv = walks.tv_distance(projected, exact)
        results = {
            "empirical": {str(k): v for k, v in sorted(projected.items())},
            "exact_projection": {str(k): v for k, v in sorted(exact.items())},
            "tv": tv,
        }
    results["params"] = {"mu": args.mu, "steps": args.steps,
                         "trials": args.trials}
    return ("pass" if tv <= 0.02 else "fail"), results


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperscheme",
        description="Finite association schemes, hypergroups, clique-tree "
                    "graph deformations, and random walks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, seed=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")
        if seed:
            p.add_argument("--seed", type=int, default=hg.DEFAULT_SEED)
        p.set_defaults(fn=fn)
        return p

    p = command("verify", cmd_verify, "verify a scheme or kernel-family file")
    p.add_argument("file")

    p = command("cosets", cmd_cosets, "double-coset scheme of a group")
    p.add_argument("group_file")
    p.add_argument("subgroup", help="comma-separated element indices")
    p.add_argument("--out")

    p = command("characters", cmd_characters, "character table of a hypergroup",
                seed=True)
    p.add_argument("file")

    p = command("dual", cmd_dual, "dual convolution of two characters", seed=True)
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)

    p = command("deform", cmd_deform, "semicharacter deformation")
    p.add_argument("file")
    p.add_argument("--alpha", required=True, help="comma-separated values")
    p.add_argument("--out")

    p = command("dtgraph", cmd_dtgraph, "clique-tree graph family reports")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--x", type=float)
    p.add_argument("--grid", help="lo:hi:n")
    p.add_argument("--deform-c", type=float, default=0.0)
    p.add_argument("--report", choices=["psd", "ortho", "deform", "pushforward"])

    for name in ("product", "join"):
        p = command(name, cmd_construction, f"{name} of two hypergroups or schemes")
        p.add_argument("file1")
        p.add_argument("file2")
        p.add_argument("--out")

    p = command("walk", cmd_walk, "random walk with projection check", seed=True)
    p.add_argument("scheme_file", nargs="?")
    p.add_argument("--dtgraph", help="a,b,R[,c]")
    p.add_argument("--mu", required=True, help="index:mass,... step law")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--exact", action="store_true",
                   help="skip simulation, report the exact projection only")
    return ap


def _report(args, status: str, results: dict) -> str:
    """The text of the one report: a JSON document under --json, else the
    status line and the results."""
    if not args.json:
        return "\n".join([f"[{status}] {args.command}",
                          *_human_lines(results, indent="  ")])
    rep = {"command": args.command, "status": status, "results": results,
           "tolerances": {"abs": TOL, "psd_floor": -PSD_FLOOR}}
    if "seed" in args:
        rep["seed"] = args.seed
    return io.dumps(rep)


def main(argv=None) -> int:
    """Run one subcommand and print its one report.  Every command returns
    (status, results) or raises; main maps an unreadable or malformed input
    (OSError, KeyError, ValueError), or a command or report too large for
    memory (MemoryError), to "error" and a CheckFailure to "fail", and the
    status to the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT["pass"] if exc.code == 0 else EXIT["error"]
    try:
        status, results = args.fn(args)
        text = _report(args, status, results)
    except (OSError, KeyError, ValueError, MemoryError) as exc:
        status = "error"
        text = _report(args, status, {"message": str(exc) or type(exc).__name__})
    except scheme.CheckFailure as exc:
        status = "fail"
        text = _report(args, status, exc.results())
    print(text)
    return EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
