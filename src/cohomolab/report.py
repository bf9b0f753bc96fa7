"""Machine-readable reports: classification table, quantization report, checks.

Report payloads are plain dicts of JSON-serializable values; rationals are
rendered as 'num/den' strings and polynomials and operators in their
canonical text forms.  Serialization sorts keys, so a payload determines its
byte representation and identical configurations reproduce identical output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import __version__
from .ansatz import impose_cocycle, matched_case, recurrence_solutions
from .cocycles import (
    OneCocycle,
    bilinear_cocycle,
    builtin_c1,
    builtin_c2,
    class_proportionality,
    cocycle_check,
    coboundary_solve,
    field_columns,
)
from .operators import (
    PolyDiffOp,
    affine_equivariant_basis,
    divergence_diffop,
    euler_diffop,
    module_action,
    monomials_up_to,
    op_str,
)
from .poly import (
    Poly,
    ResourceLimitError,
    StructureError,
    poly_str,
    rat,
    rat_str,
    single_ring,
)
from .quantization import (
    normal_order_section,
    quantization_projected_cocycle,
    quantization_top_cocycle,
)
from .symbols import schouten_bracket, sl_generators


@dataclass
class RunConfig:
    n: int
    max_symbol_degree: int = 5
    max_vf_degree: int = 3

    def __post_init__(self):
        if self.n < 2:
            raise StructureError("configuration requires dimension >= 2")
        if self.max_symbol_degree < 0:
            raise StructureError("the symbol degree bound must be nonnegative")
        if self.max_vf_degree < 2:
            raise StructureError("the vector-field degree bound must be at least 2")

    def to_json(self) -> dict:
        return {
            "dim": self.n,
            "max_symbol_degree": self.max_symbol_degree,
            "max_vf_degree": self.max_vf_degree,
        }


def certify_class(c: OneCocycle, max_vf_degree: int, reference: OneCocycle | None = None):
    """Identity check, coboundary result and class proportionality of c: S_k -> S_ell.

    The identity is checked on fields up to max_vf_degree.  Triviality is
    decided against the affine-equivariant basis of order 2(k - ell), and the
    optional reference class is matched against c modulo that basis (None
    without a reference); both solve on fields up to min(max_vf_degree, 3),
    from one set of candidate and target columns.  For c vanishing on the
    affine fields "no-witness" proves the class nontrivial (coboundary_solve).
    """
    identity = cocycle_check(c, max_vf_degree)
    basis = affine_equivariant_basis(c.n, c.k, c.ell, 2 * (c.k - c.ell))
    columns = field_columns(c, basis, min(max_vf_degree, 3))
    cob = coboundary_solve(columns, "affine-equivariant basis")
    prop = None if reference is None else class_proportionality(columns, reference)
    return identity, cob, prop


def expected_relative_dimension(k: int, ell: int) -> int:
    if k - ell == 2:
        return 1
    if k - ell == 1 and ell != 0:
        return 1
    return 0


def cohomology_table(config: RunConfig) -> dict:
    """Dimensions of the relative classification for all (k, ell) cells.

    Each nonzero cell carries a verified witness line: the solver output is
    wrapped as a cocycle, its identity is checked at the configured field
    degree, non-triviality is certified against the affine-equivariant
    candidate space, and the class is matched against the corresponding
    built-in cocycle.  Cells that blow the resource budget are reported as
    explicit gaps instead of aborting the table.
    """
    n = config.n
    entries = []
    all_match = True
    for k in range(config.max_symbol_degree + 1):
        for p in range(k + 1):
            ell = k - p
            cell: dict = {"k": k, "ell": ell, "p": p,
                          "matched_paper_case": matched_case(k, p)}
            try:
                space = impose_cocycle(recurrence_solutions(n, k, p))
                cell["dimension"] = space.dimension
                cell["expected"] = expected_relative_dimension(k, ell)
                cell["matches_expected"] = space.dimension == cell["expected"]
                all_match = all_match and cell["matches_expected"]
                cell["basis"] = [c.normalized().to_json() for c in space.basis]
                cell["provenance"] = "solver"
                if space.dimension == 1:
                    cell["witness"] = _witness_verdict(n, k, p, space, config)
            except ResourceLimitError as exc:
                cell["error"] = f"resource-limit: {exc}"
                all_match = False
            entries.append(cell)
    return {
        "dim": n,
        "max_symbol_degree": config.max_symbol_degree,
        "expected_pattern": "1 if k-ell=2; 1 if k-ell=1 and ell!=0; 0 otherwise",
        "entries": entries,
        "all_match_expected": all_match,
        "note": ("for k = ell the full, non-relative first cohomology on flat "
                 "space is the one-dimensional divergence line; closed-form "
                 "corrections from nontrivial topology are out of scope"),
    }


def _witness_verdict(n, k, p, space, config) -> dict:
    c = bilinear_cocycle(n, space.basis[0].normalized(), "solver")
    reference = builtin_c1(n, k) if p == 1 else builtin_c2(n, k)
    identity, cob, prop = certify_class(c, config.max_vf_degree, reference)
    return {
        "cocycle_identity_holds": identity.holds,
        "max_vf_degree": identity.max_vf_degree,
        "nontrivial": not cob.is_coboundary,
        "matches_builtin": prop is not None and prop[0] != 0,
        "builtin_scalar": rat_str(prop[0]) if prop is not None else None,
    }


def quantization_report(n: int, k: int, weight, max_vf_degree: int) -> dict:
    """Symbol projections of the density-operator sequence at one weight.

    The top projection S_k -> S_(k-1) is certified and matched against the
    first class c1.  Where it is trivial, its splitting witness forms the
    projected cocycle S_k -> S_(k-2), certified on fields up to
    min(max_vf_degree, 3).
    """
    if k < 2:
        raise StructureError("the quantization report needs --order >= 2")
    weight = rat(weight)
    identity, cob, prop = certify_class(quantization_top_cocycle(n, k, weight),
                                        max_vf_degree, builtin_c1(n, k))
    out = {
        "lambda": rat_str(weight),
        "source_degree": k,
        "cocycle_identity_holds": identity.holds,
        "max_vf_degree": max_vf_degree,
        "top_symbol_trivial": cob.is_coboundary,
        "proportional_to_first_class": prop is not None,
        "first_class_scalar": rat_str(prop[0]) if prop is not None else None,
    }
    if cob.is_coboundary:
        out["splitting_witness"] = op_str(cob.witness)
        proj = quantization_projected_cocycle(n, k, weight, cob.witness)
        proj_identity, proj_cob, _ = certify_class(proj, min(max_vf_degree, 3))
        out["projected_cocycle"] = {
            "identity_holds": proj_identity.holds,
            "nontrivial": not proj_cob.is_coboundary,
        }
    return out


def check_relation(n: int, max_total_degree: int = 6) -> dict:
    """Exact verification of the quadratic-generator commutation relation."""
    if max_total_degree < 0:
        raise StructureError("the monomial degree bound must be nonnegative")
    ring = single_ring(n)
    fam = sl_generators(n)
    D = divergence_diffop(ring)
    E = euler_diffop(ring)
    I = PolyDiffOp.identity(ring)
    results = []
    ok = True
    for i in range(n):
        lhs = module_action(fam.quadratic[i], D)
        rhs = (E.scale(2) + I.scale(n + 1)).compose(
            PolyDiffOp.derivative(ring, ring.xi(i)))
        normal_equal = lhs == rhs
        mono_equal = True
        counterexample = None
        for exp in monomials_up_to(2 * n, max_total_degree):
            m = Poly.monomial(ring, exp)
            if lhs.apply(m) != rhs.apply(m):
                mono_equal = False
                counterexample = poly_str(m)
                break
        ok = ok and normal_equal and mono_equal
        results.append({
            "generator": f"Q {i + 1}",
            "normal_forms_equal": normal_equal,
            "agrees_on_monomials": mono_equal,
            "monomial_degree_bound": max_total_degree,
            "counterexample": counterexample,
        })
    return {"dim": n, "holds": ok, "generators": results}


# -- randomized invariant suite --------------------------------------------------


def _random_poly(rng, ring, max_degree=6, max_terms=4, coeff_bound=10**6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.randint(-coeff_bound, coeff_bound)
    return Poly(ring, terms)


def _random_field(rng, ring, max_x=3):
    out = Poly.zero(ring)
    for _ in range(rng.randint(1, 3)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_x)):
            exp[ring.x(rng.randrange(ring.n))] += 1
        exp[ring.xi(rng.randrange(ring.n))] += 1
        out = out + Poly.monomial(ring, tuple(exp), rng.randint(-9, 9))
    return out


def _random_op(rng, ring, max_order=2):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        mu = [0] * ring.nvars
        for _ in range(rng.randint(0, max_order)):
            mu[rng.randrange(ring.nvars)] += 1
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, 2)):
            exp[rng.randrange(ring.nvars)] += 1
        coeff = Poly.monomial(ring, tuple(exp), rng.randint(-5, 5))
        key = tuple(mu)
        terms[key] = terms.get(key, Poly.zero(ring)) + coeff
    return PolyDiffOp(ring, terms)


def _random_symbol(rng, ring, k, max_x=3):
    exp = [0] * ring.nvars
    for _ in range(rng.randint(0, max_x)):
        exp[ring.x(rng.randrange(ring.n))] += 1
    for _ in range(k):
        exp[ring.xi(rng.randrange(ring.n))] += 1
    return Poly.monomial(ring, tuple(exp), rng.randint(1, 9))


def run_property_suite(seed: int = 2024, count: int = 100, n: int = 2) -> list[dict]:
    """The randomized exact-invariant suite; every instance must hold exactly."""
    if count < 1:
        raise StructureError("the property suite needs at least one instance")
    ring = single_ring(n)
    rng = random.Random(seed)
    results = []

    def record(name, fn):
        failures = 0
        for _ in range(count):
            if not fn():
                failures += 1
        results.append({"name": name, "instances": count,
                        "failures": failures, "passed": failures == 0})

    def ring_axioms():
        a, b, c = (_random_poly(rng, ring, max_degree=4) for _ in range(3))
        return (a + b == b + a and (a + b) + c == a + (b + c)
                and a * b == b * a and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c)

    def leibniz():
        a, b = _random_poly(rng, ring), _random_poly(rng, ring)
        var = rng.randrange(ring.nvars)
        return (a * b).diff(var) == a.diff(var) * b + a * b.diff(var)

    def jacobi():
        f, g, h = (_random_poly(rng, ring, max_degree=4, max_terms=3)
                   for _ in range(3))
        return (schouten_bracket(f, schouten_bracket(g, h))
                + schouten_bracket(g, schouten_bracket(h, f))
                + schouten_bracket(h, schouten_bracket(f, g))).is_zero()

    def module_axiom():
        X, Y = _random_field(rng, ring), _random_field(rng, ring)
        A = _random_op(rng, ring)
        lhs = (module_action(X, module_action(Y, A))
               - module_action(Y, module_action(X, A)))
        return lhs == module_action(schouten_bracket(X, Y), A)

    def section_property():
        k = rng.randint(0, 4)
        P = _random_symbol(rng, ring, k)
        return normal_order_section(P, 0).principal_symbol(k) == P

    E, D = euler_diffop(ring), divergence_diffop(ring)

    def euler_divergence():
        m = _random_poly(rng, ring, max_degree=6, max_terms=2)
        return E.apply(D.apply(m)) - D.apply(E.apply(m)) == -D.apply(m)

    record("ring-axioms", ring_axioms)
    record("leibniz-rule", leibniz)
    record("jacobi-identity", jacobi)
    record("module-action-axiom", module_axiom)
    record("section-property", section_property)
    record("euler-divergence-commutator", euler_divergence)
    return results


def emit_report(payload: dict, fmt: str = "json") -> str:
    """Deterministic serialization of a report payload."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "text":
        lines: list[str] = []
        _render_text(payload, lines, 0)
        return "\n".join(lines)
    raise StructureError(f"unknown report format {fmt!r}")


def _render_text(value, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                _render_text(sub, lines, depth + 1)
            else:
                lines.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                _render_text(item, lines, depth + 1)
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")


def wrap_report(config_echo: dict, result: dict, timings_ms: dict) -> dict:
    return {
        "tool": "cohomolab",
        "version": __version__,
        "config": config_echo,
        "result": result,
        "timings_ms": timings_ms,
    }
