"""First-class 1-cocycles on vector fields with operator values, and their checks.

A OneCocycle packages a linear evaluation rule  X |-> A_X  where A_X maps
degree-k symbols to degree-ell symbols.  The cocycle identity

    c([X, Y]) = X.c(Y) - Y.c(X),        X.A = L_X o A - A o L_X,

is verified exactly: both sides are normalized and compared through the
degree-k canonical form, over all pairs of monomial vector fields up to a
configurable coefficient degree, or over a pair set proved complete for a
cochain that vanishes on the affine fields and is affine-equivariant
(cocycle_check).  The coboundary solver looks for a witness B with
c(X) = X.B inside a finite candidate space; for cocycles vanishing on the
affine fields the affine-equivariant basis is a complete candidate space,
because a cobounding operator would itself be affine-equivariant, hence a
multiple of the divergence power (coboundary_solve).

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
from itertools import combinations
from math import comb
from typing import Callable, Iterable

from .ansatz import FAMILIES, AnsatzCoefficients, build_bilinear, cocycle_defects, field_monomials
from .linalg import keyed_rows, solve
from .operators import (
    PolyDiffOp,
    SymbolMap,
    linear_combination,
    module_action,
    monomials_up_to,
    op_str,
)
from .poly import (Poly, StructureError, budget_scope, check_int, check_term_budget,
                   check_vector_field, poly_str, rat, rat_str, single_ring, unit_deriv)
from .symbols import divergence, divergence_cocycle, is_closed, sl_generators


@dataclass
class OneCocycle:
    """A linear map from vector fields to operators on degree-k symbols.

    The rule must be linear: cocycle_check evaluates it on coefficient-1
    monomial fields only and takes its value at a bracket sum_m c_m x^m as
    sum_m c_m rule(x^m) (ansatz.cocycle_defects).  evaluate memoizes it by
    the field, in a memo that holds only values the rule returned: it is
    no constructor argument, so no caller can seed it.

    affine_natural marks a proof, not an option: the rule vanishes on the
    affine fields A and is affine-equivariant, [L_A, c(X)] = c([A, X]).
    Only two constructors set it, each from its own proof:
    bilinear_cocycle for a line with no s <= 1 coefficient, and
    quantization.quantization_projected_cocycle for an affine-equivariant
    splitting.  It is no constructor argument and no writable attribute,
    but a read-only property over a slot only they set: so
    OneCocycle(..., affine_natural=True) raises TypeError,
    c.affine_natural = True raises AttributeError, and a rule built
    elsewhere stays unmarked; report.certify_class refuses a cocycle
    without it.
    """

    n: int
    k: int
    ell: int
    name: str
    rule: Callable[[Poly], PolyDiffOp]
    _natural: bool = field(default=False, init=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def affine_natural(self) -> bool:
        return self._natural

    def evaluate(self, X: Poly) -> PolyDiffOp:
        key = X
        hit = self._cache.get(key)
        if hit is None:
            hit = self.rule(X)
            self._cache[key] = hit
        return hit

    def symbol_map(self, X: Poly) -> SymbolMap:
        return self.evaluate(X).symbol_map(self.k)


def _field_count(n: int, max_degree: int) -> int:
    """The number n * C(n + max_degree, n) of monomial_fields, checked against the term budget.

    The dimension and the degree are checked before comb sees them.
    """
    single_ring(n)
    count = n * comb(n + check_int(max_degree, 0, "the vector-field degree bound"), n)
    check_term_budget(count, f"monomial test fields (n = {n}, degree <= {max_degree})")
    return count


def monomial_fields(n: int, max_degree: int) -> list[Poly]:
    """All monomial vector fields x^u xi_m with |u| <= max_degree, canonical order.

    Their count (_field_count) is checked against the term budget before any
    is listed.  They are field_monomials' interned objects, the same on
    every call, so they must not be mutated.
    """
    _field_count(n, max_degree)
    return field_monomials(n, monomials_up_to(n, max_degree))


@dataclass
class IdentityCheck:
    """The verdict of cocycle_check on the pairs it covered.

    pairs_checked counts the pairs drawn, up to and including the first
    failing one: each was evaluated or, for an affine-natural cocycle,
    settled by the proof in cocycle_check ("Pairs with an affine member").
    """

    holds: bool
    max_vf_degree: int
    pairs_checked: int
    counterexample: dict | None = None

    def to_json(self) -> dict:
        """The fields by name, leaving out a None counterexample (never an empty dict)."""
        return {name: value for name, value in vars(self).items() if value is not None}


def _nonzero_witness(defect: SymbolMap, n: int) -> Poly:
    """A monomial symbol on which a nonzero defect map takes a nonzero value.

    Take v the lex-first xi-exponent among the entries, alpha the lex-first
    x-derivative among that v's entries, and P = x^alpha xi^v.  An entry
    (v, w, alpha', a) contributes c x^a d^alpha'(x^alpha) xi^w, which
    vanishes unless alpha' <= alpha componentwise, and such an alpha' other
    than alpha is lex-before alpha.  So the value is alpha! sum c x^a xi^w
    over the entries (v, w, alpha, a): distinct monomials, nonzero.  By the
    same argument every x^u xi^v with u lex-before alpha maps to 0, so P is
    the first monomial with a nonzero value in lex order of (v, u).
    """
    v, alpha = min((v, alpha) for (v, _, alpha, _) in defect.entries)
    return Poly.monomial(single_ring(n), alpha + v)


@budget_scope
def cocycle_check(c: OneCocycle, max_vf_degree: int,
                  pairs: Iterable[tuple[Poly, Poly]] | None = None) -> IdentityCheck:
    """Verify the cocycle identity on a set of monomial field pairs.

    The pairs default to every pair of monomial fields up to max_vf_degree,
    in the order of combinations over monomial_fields: a bounded check, and
    the one verify-cocycle reports.  The field count F and then the pair
    count C(F, 2) are checked against the term budget before any field is
    built (_field_count).  A caller may pass a pair set it has
    proved complete instead; max_vf_degree is then only the degree the
    result states, and each member is checked to be a vector field
    (poly.check_vector_field) as its pair is drawn.

    Complete pair sets.  ansatz.impose_cocycle's proof uses only that the
    cochain C vanishes on the affine fields and is affine-equivariant, the
    two facts OneCocycle.affine_natural marks.  For such a C it makes
    ansatz.cocycle_filter_pairs(n, p) complete: dC = 0 there gives dC = 0
    on every pair of polynomial fields.  An ansatz line with no s <= 1
    coefficient is one: every term differentiates the field at least twice
    in x (the alpha_s and gamma_s terms carry Dxeta^s, the beta_s term
    Dxxi Dxeta^(s-1): s x-derivatives each), and every term is
    affine-equivariant (ansatz.solve_equivariant_direct, step 2).  So is
    the projected quantization cocycle of an affine-equivariant splitting
    (quantization.quantization_projected_cocycle).  The quadratic block is
    two pairs, which generate every pair of quadratic fields under gl(n)
    (impose_cocycle's proof, step 3).  Those pairs have |u|, |v| <= p, so
    the default pairs at any degree >= max(2, p) contain them, and a pass
    there is complete for such a cochain too.  report.certify_class passes
    the proved set.

    Pairs with an affine member.  For an affine-natural c the defect of a
    pair with an affine member A (total_degree() <= 2: every term has
    |u| <= 1) is zero on S_k, and is not formed.  That is steps 1-2 of
    impose_cocycle's proof, which use only the two marked facts: c(A) = 0
    on S_k and [L_A, c(Z)] = c([A, Z]), so dc(A, Z) = c([A, Z]) -
    [L_A, c(Z)] + [L_Z, c(A)] = 0, and dc(Z, A) = 0 by antisymmetry.
    pairs_checked counts the pairs covered, each evaluated or settled so:
    a pass reports every pair drawn, C(F, 2) by default, and a failing
    pair, which by this has no affine member, keeps its index in the draw
    order.  A passed member is checked to be a vector field before its
    degree is read.  An unmarked cocycle (div, a custom rule, a line with
    an s <= 1 term) has every pair evaluated; cocycle_filter_pairs has no
    pair with an affine member, so on it nothing is settled.

    Operator equality is exact equality of degree-k canonical forms.  Each
    evaluated pair's defect c([X, Y]) + [L_Y, c(X)] + [c(Y), L_X] is the
    one operator ansatz.cocycle_defects([c.evaluate], X, Y) returns, so
    both commutators and the bracket value, sum_m c_m c(x^m) over the
    bracket's monomials, merge in one accumulator with one term-budget
    check; c is evaluated once per monomial field of an evaluated pair.
    The pairs are drawn lazily, so the check draws no pair past the first
    failing one.  That pair is reported with a monomial symbol on which
    the defect evaluates to something nonzero (_nonzero_witness), and the
    defect operator's value there: the canonical form is faithful on S_k,
    so that is the map's value.
    """
    check_int(max_vf_degree, 2, "the vector-field degree bound")

    if pairs is None:
        check_term_budget(comb(_field_count(c.n, max_vf_degree), 2), "pairs of monomial test"
                          f" fields (n = {c.n}, degree <= {max_vf_degree})")
        pairs = combinations(monomial_fields(c.n, max_vf_degree), 2)
    else:
        pairs = ((check_vector_field(X), check_vector_field(Y)) for X, Y in pairs)
    checked = 0
    for checked, (X, Y) in enumerate(pairs, 1):
        if c.affine_natural and min(X.total_degree(), Y.total_degree()) <= 2:
            continue
        [defect] = cocycle_defects([c.evaluate], X, Y)
        sm = defect.symbol_map(c.k)
        if not sm.is_zero():
            P = _nonzero_witness(sm, c.n)
            return IdentityCheck(False, max_vf_degree, checked, {
                "X": poly_str(X),
                "Y": poly_str(Y),
                "symbol": poly_str(P),
                "defect_value": poly_str(defect.apply(P)),
            })
    return IdentityCheck(True, max_vf_degree, checked)


@budget_scope
def vanishes_on_sl(c: OneCocycle) -> bool:
    """True iff the cocycle kills every projective generator."""
    fam = sl_generators(c.n)
    return all(c.symbol_map(X).is_zero() for X in fam.all())


@dataclass
class CoboundaryResult:
    witness: PolyDiffOp | None
    fields_checked: int

    @property
    def is_coboundary(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        return {
            "verdict": "witness-found" if self.is_coboundary
                       else "no-witness-in-candidate-space",
            "witness": op_str(self.witness) if self.witness is not None else None,
            "fields_checked": self.fields_checked,
        }


@dataclass
class FieldColumns:
    """The columns of c(X) = X.B on a list of fields.

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


@budget_scope
def field_columns(c: OneCocycle, candidates: list[PolyDiffOp],
                  fields: list[Poly]) -> FieldColumns:
    """Candidate and target columns on the given fields.

    The caller chooses the fields and proves what they cover:
    monomial_fields(n, d) for every field up to degree d (coboundary-test,
    which refuses d < 2: a cocycle vanishing on the affine fields, as c1
    does, would otherwise be cobounded by zero), or the one field
    x1^D xi1 of report.certify_class.  Each field contributes one row per
    entry of the degree-k canonical forms involved.
    """
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
    unknowns = ref_columns + columns.candidate_columns
    return solve(keyed_rows(unknowns + [columns.target]), len(unknowns))


def coboundary_solve(columns: FieldColumns) -> CoboundaryResult:
    """Solve c(X) = X.B for B in the span of the candidates, exactly.

    columns is field_columns(c, candidates, fields): the system runs over
    those fields, so a returned witness satisfies the coboundary equation
    on each of them, and an empty answer proves no witness exists in the
    span.

    For a cocycle vanishing on the affine fields, an empty answer against
    affine_equivariant_basis is complete: a cobounding B has X.B = c(X) = 0
    for affine X, so on S_k it is c D^(k - ell), which that basis spans, and
    "no-witness" proves the class nontrivial.
    """
    sol = _solve_on_fields(columns, [])
    witness = None if sol is None \
        else linear_combination(single_ring(columns.c.n), columns.candidates, sol)
    return CoboundaryResult(witness, len(columns.fields))


def class_proportionality(columns: FieldColumns, reference: OneCocycle):
    """Exact scalar mu and witness B with c(X) = mu ref(X) + X.B, or None.

    columns is field_columns(c, candidates, fields).  Solvability says
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


def hessian_contraction_op(X: Poly) -> PolyDiffOp:
    """P |-> sum (d_i d_j X) d_xi_i d_xi_j, contraction with the field's Hessian.

    The definitional form of gamma1, which builtin_gamma1_flat evaluates as
    the ansatz line alpha_2 = 2 instead; the tests and the benchmark gate
    (perfbench/tests/test_bench_gate.py) read this form to check that line.
    Every (i, j) adds its coefficient at d_xi_i d_xi_j, so (i, j) and (j, i)
    sum, and the checking PolyDiffOp constructor drops the zero ones.
    """
    ring = X.ring
    terms: dict = {}
    for i in range(ring.n):
        for j in range(ring.n):
            key = unit_deriv(ring, ring.xi(i), ring.xi(j))
            terms[key] = terms.get(key, Poly.zero(ring)) + X.diff(ring.x(i)).diff(ring.x(j))
    return PolyDiffOp(ring, terms)


def trace_contraction_op(X: Poly) -> PolyDiffOp:
    """P |-> sum (d_i div X) xi_l d_xi_i d_xi_l, the trace part of the contraction.

    With hessian_contraction_op, the definitional form of c1, which
    builtin_c1 evaluates as an ansatz line instead; on S_k this equals
    (k-1) Dxxi Dxeta (module docstring).  The tests and the benchmark gate
    (perfbench/tests/test_bench_gate.py) read this form to check that line.
    Every (i, l) adds its coefficient at d_xi_i d_xi_l, as in
    hessian_contraction_op, and the checking constructor drops the zero ones.
    """
    ring = X.ring
    div_X = divergence(X)
    terms: dict = {}
    for i in range(ring.n):
        di_div = div_X.diff(ring.x(i))
        for ell in range(ring.n):
            key = unit_deriv(ring, ring.xi(i), ring.xi(ell))
            terms[key] = (terms.get(key, Poly.zero(ring))
                          + di_div * Poly.variable(ring, ring.xi(ell)))
    return PolyDiffOp(ring, terms)


def builtin_gamma1_flat(n: int, k: int) -> OneCocycle:
    """Contraction with the Lie derivative of the flat connection (Hessian tensor).

    The ansatz line alpha_2 = 2, whose one term is Dxeta^2: it puts two
    x-derivatives on X and two xi-derivatives on P, which is
    hessian_contraction_op term for term (module docstring).
    """
    check_int(k, 2, "the symbol degree")
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
    check_int(k, 2, "the symbol degree")
    single_ring(n)  # rejects n < 2 before the division by n + 1
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
    check_int(k, 2, "the symbol degree")
    return bilinear_cocycle(n, second_class_coefficients(n, k), "c2")


def builtin_div(n: int, k: int, a, omega: list[Poly]) -> OneCocycle:
    """Multiplication by a div(X) + i_X omega, acting on degree-k symbols."""
    check_int(k, 0, "the symbol degree")
    ring = single_ring(n)
    if not is_closed(omega, ring):
        raise StructureError("divergence cocycle requires a closed 1-form")
    a = rat(a)

    def rule(X: Poly) -> PolyDiffOp:
        value = divergence_cocycle(a, omega, X)
        return PolyDiffOp(ring, {(0,) * ring.nvars: value})

    return OneCocycle(n, k, k, f"div(a={rat_str(a)})", rule)


def bilinear_cocycle(n: int, coeffs: AnsatzCoefficients, name: str) -> OneCocycle:
    """The cocycle X |-> C(X, .) of an ansatz coefficient family, S_k -> S_(k-p).

    It is marked affine_natural iff the line has no s <= 1 coefficient
    (cocycle_check, "Complete pair sets").
    """
    c = OneCocycle(n, coeffs.k, coeffs.k - coeffs.p, name,
                   build_bilinear(coeffs, n).operator_for_field)
    c._natural = all(s >= 2 for kind in FAMILIES for s in getattr(coeffs, kind))
    return c


# -- reporting ------------------------------------------------------------------


@dataclass
class CocycleReport:
    """A cocycle's identity check and sl-vanishing verdict.

    The report keeps the cocycle itself, and to_json reads its name, n, k
    and ell from it, so the report holds no copy of them.
    """

    c: OneCocycle
    identity: IdentityCheck
    sl_vanishing: bool

    def to_json(self) -> dict:
        c = self.c
        return {
            "name": c.name,
            "dim": c.n,
            "source_degree": c.k,
            "target_degree": c.ell,
            "cocycle_identity": self.identity.to_json(),
            "vanishes_on_sl": self.sl_vanishing,
        }


@budget_scope
def build_report(c: OneCocycle, max_vf_degree: int) -> CocycleReport:
    identity = cocycle_check(c, max_vf_degree)
    return CocycleReport(c, identity, vanishes_on_sl(c))
