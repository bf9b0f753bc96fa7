"""First-class 1-cocycles on vector fields with operator values, and their checks.

A OneCocycle packages a linear evaluation rule  X |-> A_X  where A_X maps
degree-k symbols to degree-ell symbols.  The cocycle identity

    c([X, Y]) = X.c(Y) - Y.c(X),        X.A = L_X o A - A o L_X,

is verified exactly: both sides are normalized and compared through the
degree-k canonical form, over all pairs of monomial vector fields up to a
configurable coefficient degree.  The coboundary solver looks for a witness
B with c(X) = X.B inside a finite candidate space; for cocycles vanishing on
the affine fields the affine-equivariant basis is a complete candidate
space, because a cobounding operator would itself be affine-equivariant,
hence a multiple of the divergence power (coboundary_solve).

Every built-in cocycle but div is a line of the bilinear ansatz family
(ansatz.py) and is evaluated by one constructor, bilinear_cocycle: c2, and
c1 and gamma1 through two identities.  For a field X and a symbol P:

  * Hessian.  alpha_2 = 2 on (k, p = 1) is the term Dxeta^2, which puts
    d_x^i d_x^j on X and d_eta_i d_eta_j on P; restricted to the diagonal it
    is sum (d_i d_j X) d_xi_i d_xi_j P, hessian_contraction_op, term for
    term and on every symbol.  So gamma1 is that line.
  * Trace.  beta_2 = 1 is Dxxi Dxeta, sum (d_j div X) d_xi_j P.  The trace
    part sum (d_i div X) xi_l d_xi_i d_xi_l P applies xi_l d_xi_l, the Euler
    operator, to d_xi_i P, which has xi-degree k-1 when P is in S_k; so on
    S_k it is (k-1) Dxxi Dxeta.  Hence c1 = Hessian - 2/(n+1) trace is the
    line alpha_2 = 2, beta_2 = -2(k-1)/(n+1).  The beta_2 term's
    coefficients d_j div X are x-only where the trace part's carry a factor
    xi_l, so c1's raw operator differs from the definitional one; its
    canonical form on S_k is the same.

hessian_contraction_op and trace_contraction_op stay as the definitional
forms those two lines are proved equal to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .ansatz import AnsatzCoefficients, build_bilinear, field_monomials
from .linalg import keyed_rows, solve
from .operators import (
    PolyDiffOp,
    SymbolMap,
    commutator_sum,
    lie_derivative_op,
    linear_combination,
    module_action,
    monomials_up_to,
    op_str,
    unit_deriv,
)
from .poly import Poly, StructureError, poly_str, rat, rat_str, single_ring
from .symbols import (divergence, divergence_cocycle, is_closed, schouten_bracket,
                      sl_generators)


@dataclass
class OneCocycle:
    """A linear map from vector fields to operators on degree-k symbols."""

    n: int
    k: int
    ell: int
    name: str
    rule: Callable[[Poly], PolyDiffOp]
    _cache: dict = field(default_factory=dict, repr=False)

    def evaluate(self, X: Poly) -> PolyDiffOp:
        key = X
        hit = self._cache.get(key)
        if hit is None:
            hit = self.rule(X)
            self._cache[key] = hit
        return hit

    def symbol_map(self, X: Poly) -> SymbolMap:
        return self.evaluate(X).symbol_map(self.k)


def monomial_fields(n: int, max_degree: int) -> list[Poly]:
    """All monomial vector fields x^u xi_m with |u| <= max_degree, canonical order."""
    return field_monomials(n, monomials_up_to(n, max_degree))


@dataclass
class IdentityCheck:
    holds: bool
    max_vf_degree: int
    pairs_checked: int
    counterexample: dict | None = None

    def to_json(self) -> dict:
        out = {"holds": self.holds, "max_vf_degree": self.max_vf_degree,
               "pairs_checked": self.pairs_checked}
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


def _nonzero_witness(defect: SymbolMap, n: int) -> tuple[Poly, Poly]:
    """A monomial symbol on which a nonzero defect map takes a nonzero value."""
    ring = single_ring(n)
    max_alpha = max((sum(alpha) for (_, _, alpha, _) in defect.entries), default=0)
    for v in sorted({v for (v, _, _, _) in defect.entries}):
        for u in monomials_up_to(n, max_alpha + 1):
            P = Poly.monomial(ring, tuple(u) + v)
            val = defect.apply(P)
            if not val.is_zero():
                return P, val
    raise StructureError("nonzero canonical form with no monomial witness")


def cocycle_check(c: OneCocycle, max_vf_degree: int = 4) -> IdentityCheck:
    """Verify the cocycle identity on all monomial field pairs up to a degree.

    Operator equality is exact equality of degree-k canonical forms.  Each
    pair's defect c([X, Y]) + [c(Y), L_X] + [L_Y, c(X)] is formed as one
    commutator_sum, so both commutators and the bracket value merge in one
    accumulator with one term-budget check.  The first failing pair in
    canonical order is reported with a monomial symbol on which the defect
    evaluates to something nonzero.
    """
    if max_vf_degree < 2:
        raise StructureError("the check needs fields of degree at least 2")

    fields = monomial_fields(c.n, max_vf_degree)
    lie_ops = [lie_derivative_op(X) for X in fields]
    values = [c.evaluate(X) for X in fields]
    pairs = 0
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            pairs += 1
            bracket = schouten_bracket(fields[i], fields[j])
            base = c.evaluate(bracket) if not bracket.is_zero() else None
            defect = commutator_sum([(values[j], lie_ops[i]), (lie_ops[j], values[i])],
                                    base=base)
            sm = defect.symbol_map(c.k)
            if not sm.is_zero():
                P, val = _nonzero_witness(sm, c.n)
                return IdentityCheck(False, max_vf_degree, pairs, {
                    "X": poly_str(fields[i]),
                    "Y": poly_str(fields[j]),
                    "symbol": poly_str(P),
                    "defect_value": poly_str(val),
                })
    return IdentityCheck(True, max_vf_degree, pairs)


def vanishes_on_sl(c: OneCocycle) -> bool:
    """True iff the cocycle kills every projective generator."""
    fam = sl_generators(c.n)
    return all(c.symbol_map(X).is_zero() for X in fam.all())


@dataclass
class CoboundaryResult:
    witness: PolyDiffOp | None
    candidate_description: str
    fields_checked: int

    @property
    def is_coboundary(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        return {
            "verdict": "witness-found" if self.is_coboundary
                       else "no-witness-in-candidate-space",
            "witness": op_str(self.witness) if self.witness is not None else None,
            "candidate_space": self.candidate_description,
            "fields_checked": self.fields_checked,
        }


@dataclass
class FieldColumns:
    """The columns of c(X) = X.B on every monomial field up to a degree.

    candidate_columns[j] and target map (field index, canonical-form key) to
    the entries of X.B_j and of c(X).  Built by field_columns; one set of
    columns serves both coboundary_solve and class_proportionality.
    """

    c: OneCocycle
    candidates: list[PolyDiffOp]
    fields: list[Poly]
    candidate_columns: list[dict]
    target: dict


def _column(symbol_maps) -> dict:
    """Entries of the per-field canonical forms, keyed by (field index, key)."""
    return {(f_idx, key): v for f_idx, sm in enumerate(symbol_maps)
            for key, v in sm.entries.items()}


def field_columns(c: OneCocycle, candidates: list[PolyDiffOp],
                  max_vf_degree: int) -> FieldColumns:
    """Candidate and target columns on all monomial fields up to max_vf_degree.

    The degree must be at least 2: a cocycle vanishing on the affine fields
    (c1 does) would otherwise be cobounded by zero.  Each field contributes
    one row per entry of the degree-k canonical forms involved.
    """
    if max_vf_degree < 2:
        raise StructureError("coboundary verdicts need fields of degree at least 2")
    fields = monomial_fields(c.n, max_vf_degree)
    candidate_columns = [_column(module_action(X, B).symbol_map(c.k) for X in fields)
                         for B in candidates]
    return FieldColumns(c, candidates, fields, candidate_columns,
                        _column(map(c.symbol_map, fields)))


def _solve_on_fields(columns: FieldColumns, references: list[OneCocycle]):
    """Exact mu, b with c(X) = sum mu_i ref_i(X) + X.(sum b_j B_j) on every field.

    Returns the solution vector (mu followed by b, free variables zero), or
    None when the system has no solution.
    """
    ref_columns = [_column(map(ref.symbol_map, columns.fields)) for ref in references]
    rows = keyed_rows(ref_columns + columns.candidate_columns + [columns.target])
    ncols = len(ref_columns) + len(columns.candidate_columns)
    rhs = [row.pop(ncols, 0) for row in rows]
    return solve(rows, rhs, ncols)


def coboundary_solve(columns: FieldColumns,
                     candidate_description: str = "custom") -> CoboundaryResult:
    """Solve c(X) = X.B for B in the span of the candidates, exactly.

    columns is field_columns(c, candidates, max_vf_degree): the system runs
    over every monomial field up to that degree, so a returned witness
    satisfies the coboundary equation on that whole family, and an empty
    answer proves no witness exists in the span.

    For a cocycle vanishing on the affine fields, an empty answer against
    affine_equivariant_basis of order >= 2(k - ell) is complete: a cobounding
    B has X.B = c(X) = 0 for affine X, so on S_k it is c D^(k - ell), which
    that basis spans, and "no-witness" proves the class nontrivial.
    """
    sol = _solve_on_fields(columns, [])
    witness = None if sol is None \
        else linear_combination(single_ring(columns.c.n), columns.candidates, sol)
    return CoboundaryResult(witness, candidate_description, len(columns.fields))


def class_proportionality(columns: FieldColumns, reference: OneCocycle):
    """Exact scalar mu and witness B with c(X) = mu ref(X) + X.B, or None.

    columns is field_columns(c, candidates, max_vf_degree).  Solvability says
    the two cocycles represent proportional cohomology classes relative to
    the candidate coboundary space.
    """
    c = columns.c
    if (c.n, c.k, c.ell) != (reference.n, reference.k, reference.ell):
        raise StructureError("cocycle shapes differ")
    sol = _solve_on_fields(columns, [reference])
    if sol is None:
        return None
    return rat(sol[0]), linear_combination(single_ring(c.n), columns.candidates, sol[1:])


# -- built-in cocycles ---------------------------------------------------------


def _check_shape(n: int, k: int, min_k: int) -> None:
    if n < 2:
        raise StructureError("cocycles are defined for dimension >= 2")
    if k < min_k:
        raise StructureError(f"this cocycle needs symbol degree >= {min_k}")


def hessian_contraction_op(X: Poly) -> PolyDiffOp:
    """P |-> sum (d_i d_j X) d_xi_i d_xi_j, contraction with the field's Hessian.

    The definitional form of gamma1, which builtin_gamma1_flat evaluates as
    the ansatz line alpha_2 = 2 instead; the tests and the benchmark gate
    (perfbench/tests/test_bench_gate.py) read this form to check that line.
    """
    ring = X.ring
    n = ring.n
    terms: dict = {}
    for i in range(n):
        for j in range(n):
            coeff = X.diff(ring.x(i)).diff(ring.x(j))
            if coeff.is_zero():
                continue
            key = unit_deriv(ring, ring.xi(i), ring.xi(j))
            prev = terms.get(key)
            terms[key] = coeff if prev is None else prev + coeff
    return PolyDiffOp(ring, terms)


def trace_contraction_op(X: Poly) -> PolyDiffOp:
    """P |-> sum (d_i div X) xi_l d_xi_i d_xi_l, the trace part of the contraction.

    With hessian_contraction_op, the definitional form of c1, which
    builtin_c1 evaluates as an ansatz line instead; on S_k this equals
    (k-1) Dxxi Dxeta (module docstring).  The tests and the benchmark gate
    (perfbench/tests/test_bench_gate.py) read this form to check that line.
    """
    ring = X.ring
    n = ring.n
    div_X = divergence(X)
    terms: dict = {}
    for i in range(n):
        di_div = div_X.diff(ring.x(i))
        if di_div.is_zero():
            continue
        for ell in range(n):
            coeff = di_div * Poly.variable(ring, ring.xi(ell))
            key = unit_deriv(ring, ring.xi(i), ring.xi(ell))
            prev = terms.get(key)
            terms[key] = coeff if prev is None else prev + coeff
    return PolyDiffOp(ring, terms)


def builtin_gamma1_flat(n: int, k: int) -> OneCocycle:
    """Contraction with the Lie derivative of the flat connection (Hessian tensor).

    The ansatz line alpha_2 = 2, whose one term is Dxeta^2: it puts two
    x-derivatives on X and two xi-derivatives on P, which is
    hessian_contraction_op term for term (module docstring).
    """
    _check_shape(n, k, 2)
    return bilinear_cocycle(n, AnsatzCoefficients(k, 1, alpha={2: 2}), "gamma1")


def builtin_c1(n: int, k: int) -> OneCocycle:
    """The projectively invariant degree-lowering cocycle S_k -> S_(k-1).

    Contraction with the trace-adjusted Hessian tensor of the field, the
    Hessian part plus -2/(n+1) times the trace part; that coefficient is
    what makes every projective generator die.  It is the ansatz line
    alpha_2 = 2, beta_2 = -2(k-1)/(n+1): alpha_2 = 2 is the Hessian part,
    and the trace part sum (d_i div X) xi_l d_xi_i d_xi_l equals
    (k-1) Dxxi Dxeta on S_k, because xi_l d_xi_l is the Euler operator on
    d_xi_i P in S_(k-1) (module docstring).  The two forms have the same
    canonical form on S_k, though their raw operators differ.
    """
    _check_shape(n, k, 2)
    line = AnsatzCoefficients(k, 1, alpha={2: 2}, beta={2: Fraction(-2 * (k - 1), n + 1)})
    return bilinear_cocycle(n, line, "c1")


def second_class_coefficients(n: int, k: int) -> AnsatzCoefficients:
    """The verified coefficient line of the order-two-lowering cocycle."""
    return AnsatzCoefficients(
        k, 2,
        alpha={} if k == 2 else {2: 2, 3: 2 * k + n + 1},
        beta={2: 1, 3: 2},
        gamma={2: -(2 * k + n - 3)})


def builtin_c2(n: int, k: int) -> OneCocycle:
    """The projectively invariant cocycle lowering the symbol degree by two."""
    _check_shape(n, k, 2)
    return bilinear_cocycle(n, second_class_coefficients(n, k), "c2")


def builtin_div(n: int, k: int, a, omega: list[Poly]) -> OneCocycle:
    """Multiplication by a div(X) + i_X omega, acting on degree-k symbols."""
    _check_shape(n, k, 0)
    ring = single_ring(n)
    if not is_closed(omega, ring):
        raise StructureError("divergence cocycle requires a closed 1-form")
    a = rat(a)

    def rule(X: Poly) -> PolyDiffOp:
        value = divergence_cocycle(a, omega, X)
        return PolyDiffOp(ring, {(0,) * ring.nvars: value})

    return OneCocycle(n, k, k, f"div(a={rat_str(a)})", rule)


def bilinear_cocycle(n: int, coeffs: AnsatzCoefficients, name: str) -> OneCocycle:
    """The cocycle X |-> C(X, .) of an ansatz coefficient family, S_k -> S_(k-p)."""
    return OneCocycle(n, coeffs.k, coeffs.k - coeffs.p, name,
                      build_bilinear(coeffs, n).operator_for_field)


# -- reporting ------------------------------------------------------------------


@dataclass
class CocycleReport:
    name: str
    n: int
    k: int
    ell: int
    identity: IdentityCheck
    sl_vanishing: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dim": self.n,
            "source_degree": self.k,
            "target_degree": self.ell,
            "cocycle_identity": self.identity.to_json(),
            "vanishes_on_sl": self.sl_vanishing,
        }


def build_report(c: OneCocycle, max_vf_degree: int = 4) -> CocycleReport:
    identity = cocycle_check(c, max_vf_degree)
    return CocycleReport(c.name, c.n, c.k, c.ell, identity, vanishes_on_sl(c))
