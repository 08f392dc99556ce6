"""Command-line entry point: file verification, coset schemes, character
tables, dual convolutions, deformations, clique-tree graph reports,
products/joins, and random walks.

Exit codes: 0 pass, 1 failed check or axiom violation, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import constructions, dtgraph, io, scheme, walks
from . import hypergroup as hg
from .hypergroup import TOL, PSD_FLOOR

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _report(args, command: str, status: str, results: dict, seed=None) -> dict:
    rep = {
        "command": command,
        "status": status,
        "results": results,
        "tolerances": {"abs": TOL, "psd_floor": -PSD_FLOOR},
    }
    if seed is not None:
        rep["seed"] = seed
    return rep


def _emit(args, rep: dict):
    if args.json:
        print(json.dumps(rep, indent=1, default=io.encode_number))
    else:
        print(f"[{rep['status']}] {rep['command']}")
        _print_human(rep["results"], indent="  ")


def _print_human(obj, indent=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_human(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            _print_human(v, indent)
    else:
        print(f"{indent}{obj}")


def _complex_to_jsonable(z):
    if abs(z.imag) < 1e-12:
        return float(z.real)
    return {"re": float(z.real), "im": float(z.imag)}


def cmd_verify(args) -> int:
    data = io.load(args.file)
    obj = io.scheme_from_dict(data)
    try:
        if isinstance(obj, scheme.GeneralizedScheme):
            ptilde = scheme.verify_generalized(obj)
            rigid = scheme.finite_rigidity_check(obj)
            results = {"kind": "generalized", "p_tilde": ptilde.tolist(),
                       "rigidity": rigid}
        else:
            sch = scheme.verify_scheme(obj)
            results = {
                "kind": "scheme",
                "n_relations": sch.n_relations,
                "involution": sch.involution.tolist(),
                "valency": sch.valency.tolist(),
                "p": sch.p.tolist(),
                "commutative": sch.is_commutative(),
                "symmetric": sch.is_symmetric(),
                "unimodular": sch.is_unimodular(),
            }
    except scheme.AxiomViolation as exc:
        _emit(args, _report(args, "verify", "fail", {
            "axiom": exc.axiom_id, "witness": list(exc.witness or []),
            "message": str(exc)}))
        return EXIT_FAIL
    _emit(args, _report(args, "verify", "pass", results))
    return EXIT_PASS


def cmd_cosets(args) -> int:
    data = io.load(args.group_file)
    table = io.group_from_dict(data)
    try:
        subgroup = [int(s) for s in args.subgroup.split(",")]
        coset_of, sch = scheme.from_double_cosets(table, subgroup)
    except ValueError as exc:
        _emit(args, _report(args, "cosets", "error", {"message": str(exc)}))
        return EXIT_USAGE
    except (scheme.NotAGroup, scheme.NotASubgroup, scheme.AxiomViolation) as exc:
        _emit(args, _report(args, "cosets", "fail", {"message": str(exc)}))
        return EXIT_FAIL
    results = {
        "n_cosets": sch.n_points,
        "n_double_cosets": sch.n_relations,
        "coset_of": coset_of.tolist(),
        "valency": sch.valency.tolist(),
        "scheme": io.scheme_to_dict(sch),
    }
    if args.out:
        io.save(args.out, io.scheme_to_dict(sch))
    _emit(args, _report(args, "cosets", "pass", results))
    return EXIT_PASS


def cmd_characters(args) -> int:
    h = io.hypergroup_from_dict(io.load(args.file))
    try:
        table = hg.characters(h, seed=args.seed)
    except (hg.NotCommutative, hg.DegenerateSpectrum) as exc:
        _emit(args, _report(args, "characters", "fail",
                            {"message": str(exc)}, seed=args.seed))
        return EXIT_FAIL
    results = {
        "chars": [[_complex_to_jsonable(z) for z in row] for row in table.chars],
        "haar": table.haar.tolist(),
        "plancherel": table.plancherel.tolist(),
    }
    _emit(args, _report(args, "characters", "pass", results, seed=args.seed))
    return EXIT_PASS


def cmd_dual(args) -> int:
    h = io.hypergroup_from_dict(io.load(args.file))
    try:
        table = hg.characters(h, seed=args.seed)
        coeffs = hg.dual_convolution(h, table, args.i, args.j)
    except (hg.NotCommutative, hg.DegenerateSpectrum) as exc:
        _emit(args, _report(args, "dual", "fail", {"message": str(exc)},
                            seed=args.seed))
        return EXIT_FAIL
    nonneg = bool(coeffs.real.min() >= -1e-9)
    results = {"coefficients": [_complex_to_jsonable(z) for z in coeffs],
               "sum": float(coeffs.real.sum()), "nonnegative": nonneg}
    status = "pass" if (not h.scheme_derived or nonneg) else "fail"
    _emit(args, _report(args, "dual", status, results, seed=args.seed))
    return EXIT_PASS if status == "pass" else EXIT_FAIL


def cmd_deform(args) -> int:
    h = io.hypergroup_from_dict(io.load(args.file))
    alpha = [io.decode_number(v) for v in args.alpha.split(",")]
    try:
        deformed = hg.semicharacter_deform(h, alpha)
    except hg.NotASemicharacter as exc:
        _emit(args, _report(args, "deform", "fail",
                            {"message": str(exc), "residual": repr(exc.residual)}))
        return EXIT_FAIL
    out = io.hypergroup_to_dict(deformed)
    if args.out:
        io.save(args.out, out)
    _emit(args, _report(args, "deform", "pass", {"hypergroup": out}))
    return EXIT_PASS


def _parse_grid(spec: str):
    lo, hi, n = spec.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def cmd_dtgraph(args) -> int:
    params = dtgraph.DTParams(args.a, args.b)
    s0, s1 = dtgraph.special_points(params)
    results = {"params": {"a": args.a, "b": args.b}, "s0": s0, "s1": s1}
    status = "pass"
    xs = None
    if args.x is not None:
        xs = [args.x]
    elif args.grid is not None:
        xs = _parse_grid(args.grid).tolist()

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
            results["values"] = [
                {"x": x, "P": [dtgraph.poly_eval(n, x, params)
                               for n in range(args.radius + 1)]} for x in xs]
    _emit(args, _report(args, "dtgraph", status, results))
    return EXIT_PASS if status == "pass" else EXIT_FAIL


def _load_pair(f1: str, f2: str):
    d1, d2 = io.load(f1), io.load(f2)
    kind = "hypergroup" if "conv" in d1 else "scheme"
    if ("conv" in d2) != (kind == "hypergroup"):
        raise ValueError("both inputs must be the same kind of file")
    return kind, d1, d2


def _binary_construction(args, op_name: str) -> int:
    try:
        kind, d1, d2 = _load_pair(args.file1, args.file2)
        if kind == "hypergroup":
            h1, h2 = io.hypergroup_from_dict(d1), io.hypergroup_from_dict(d2)
            fn = constructions.direct_product if op_name == "product" \
                else constructions.join
            result = fn(h1, h2)
            hg.verify_hypergroup(result)
            out = io.hypergroup_to_dict(result)
        else:
            g1, g2 = io.scheme_from_dict(d1), io.scheme_from_dict(d2)
            for g in (g1, g2):
                if not isinstance(g, scheme.GeneralizedScheme):
                    raise ValueError("scheme files need kernels for constructions")
            fn = constructions.direct_product_scheme if op_name == "product" \
                else constructions.join_scheme
            result = fn(g1, g2)
            scheme.verify_generalized(result)
            out = io.scheme_to_dict(result)
    except (scheme.AxiomViolation, ValueError) as exc:
        _emit(args, _report(args, op_name, "fail", {"message": str(exc)}))
        return EXIT_FAIL
    if args.out:
        io.save(args.out, out)
    _emit(args, _report(args, op_name, "pass", {kind: out}))
    return EXIT_PASS


def cmd_product(args) -> int:
    return _binary_construction(args, "product")


def cmd_join(args) -> int:
    return _binary_construction(args, "join")


def _parse_mu(spec: str) -> walks.StepDistribution:
    weights = {}
    for part in spec.split(","):
        k, v = part.split(":")
        weights[int(k)] = io.decode_number(v)
    return walks.StepDistribution(weights)


def _walk_inputs(args):
    """The step law, kernel family and hypergroup named by walk arguments."""
    mu = _parse_mu(args.mu)
    if args.dtgraph:
        vals = [float(v) for v in args.dtgraph.split(",")]
        if len(vals) < 3:
            raise ValueError(f"--dtgraph needs a,b,R[,c], got {args.dtgraph!r}")
        a, b, radius = int(vals[0]), int(vals[1]), int(vals[2])
        c = vals[3] if len(vals) > 3 else None
        params = dtgraph.DTParams(a, b)
        ball = dtgraph.build_ball(params, radius)
        if c is None:
            kernels = walks.KernelFamily.from_ball(ball)
            hgroup = dtgraph.PolyHypergroup(params)
        else:
            ray = dtgraph.BoundaryRay(ball)
            dk = dtgraph.deform_ball_kernels(ball, ray, c)
            kernels = walks.KernelFamily.from_deformed(dk)
            hgroup = dtgraph.PolyHypergroup(params, x0=dk.x_c)
    else:
        if not args.scheme_file:
            raise ValueError("either a scheme file or --dtgraph is required")
        gs = io.scheme_from_dict(io.load(args.scheme_file))
        if isinstance(gs, scheme.GeneralizedScheme):
            sch = scheme.verify_scheme(gs.partition)
        else:
            sch = scheme.verify_scheme(gs)
            gs = scheme.canonical_generalized(sch)
        scheme.verify_generalized(gs)
        kernels = walks.KernelFamily.from_generalized(gs)
        hgroup = hg.from_scheme(sch)
    missing = sorted(set(mu.weights) - set(kernels.matrices))
    if missing:
        raise ValueError(f"step law labels {missing} have no kernel; the family "
                         f"has labels {min(kernels.matrices)}..{max(kernels.matrices)}")
    return mu, kernels, hgroup


def cmd_walk(args) -> int:
    start = 0
    try:
        mu, kernels, hgroup = _walk_inputs(args)
        exact = walks.convolution_power(hgroup, mu, args.steps)
        exact_f = {int(k): float(v) for k, v in exact.items()}
        if args.exact:
            results = {"exact_projection": exact_f}
            tv = 0.0
        else:
            walk = walks.simulate_walk(kernels, mu, args.steps, args.trials,
                                       args.seed, start=start)
            tv = walks.projection_check(walk, kernels, hgroup, mu, args.steps)
            projected: dict = {}
            for x, m in walk.empirical.items():
                k = int(kernels.labels[start, x])
                projected[k] = projected.get(k, 0.0) + m
            results = {
                "empirical": {str(k): v for k, v in sorted(projected.items())},
                "exact_projection": {str(k): v for k, v in sorted(exact_f.items())},
                "tv": tv,
            }
    except (ValueError, dtgraph.DomainError, dtgraph.BallTooLarge) as exc:
        _emit(args, _report(args, "walk", "error", {"message": str(exc)},
                            seed=args.seed))
        return EXIT_USAGE
    except (walks.WalkWouldExitBall, walks.SupportCap, walks.ParameterMismatch,
            scheme.AxiomViolation, scheme.NotUnimodular) as exc:
        _emit(args, _report(args, "walk", "fail", {"message": str(exc)},
                            seed=args.seed))
        return EXIT_FAIL
    results["params"] = {"mu": args.mu, "steps": args.steps,
                         "trials": args.trials}
    status = "pass" if tv <= 0.02 else "fail"
    _emit(args, _report(args, "walk", status, results, seed=args.seed))
    return EXIT_PASS if status == "pass" else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperscheme",
        description="Finite association schemes, hypergroups, clique-tree "
                    "graph deformations, and random walks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")
        p.add_argument("--seed", type=int, default=hg.DEFAULT_SEED)

    p = sub.add_parser("verify", help="verify a scheme or kernel-family file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cosets", help="double-coset scheme of a group")
    p.add_argument("group_file")
    p.add_argument("subgroup", help="comma-separated element indices")
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_cosets)

    p = sub.add_parser("characters", help="character table of a hypergroup")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_characters)

    p = sub.add_parser("dual", help="dual convolution of two characters")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    common(p)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("deform", help="semicharacter deformation")
    p.add_argument("file")
    p.add_argument("--alpha", required=True, help="comma-separated values")
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("dtgraph", help="clique-tree graph family reports")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--x", type=float)
    p.add_argument("--grid", help="lo:hi:n")
    p.add_argument("--deform-c", type=float, default=0.0)
    p.add_argument("--report", choices=["psd", "ortho", "deform", "pushforward"])
    common(p)
    p.set_defaults(fn=cmd_dtgraph)

    for name, fn in (("product", cmd_product), ("join", cmd_join)):
        p = sub.add_parser(name, help=f"{name} of two hypergroups or schemes")
        p.add_argument("file1")
        p.add_argument("file2")
        p.add_argument("--out")
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("walk", help="random walk with projection check")
    p.add_argument("scheme_file", nargs="?")
    p.add_argument("--dtgraph", help="a,b,R[,c]")
    p.add_argument("--mu", required=True, help="index:mass,... step law")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--exact", action="store_true",
                   help="skip simulation, report the exact projection only")
    common(p)
    p.set_defaults(fn=cmd_walk)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
