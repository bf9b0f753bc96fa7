"""Classification of projectively equivariant bilinear symbol operators.

A linear map  c : Vect(R^n) -> D(S_k, S_{k-p})  vanishing on the projective
subalgebra corresponds to a bilinear map  C : S_1 (x) S_k -> S_{k-p}.  Every
affine-invariant bilinear differential operator is a polynomial in the four
two-point contractions

    Dxxi = d/dx^i d/dxi_i     (divergence in the first slot)
    Dyeta = d/dy^i d/deta_i   (divergence in the second slot)
    Dxeta = d/dx^i d/deta_i   (cross contraction)
    Dyxi = d/dy^i d/dxi_i     (cross contraction)

restricted to the diagonal y = x, eta = xi.  The candidate family is

    C = sum_s  alpha_s / (s! (p-s+1)!)        Dxeta^s Dyeta^(p-s+1)
      + sum_s  beta_s  / ((s-1)! (p-s+1)!)    Dxxi Dxeta^(s-1) Dyeta^(p-s+1)
      + sum_s  gamma_s / (s! (p-s)!)          Dyxi Dxeta^s Dyeta^(p-s)

with the alpha family dropped when k = p (those terms apply p+1 eta
derivatives to an eta-degree-k argument and die on the relevant subspace).

Two independent solvers compute the equivariant subspace: one solves the
closed-form recurrence system for the coefficients, the other imposes the
equivariance identity itself and extracts an exact nullspace.  The cocycle
filter impose_cocycle then keeps the relative cocycles of a space.  The
direct solver and the filter both impose their identities exactly on S_k,
on a proved finite set of monomial test fields or field pairs, so both
answers are exact.  The solvers' agreement, together with the filter,
reproduces the case classification (a)-(d) of the relative cohomology
computation.

cocycle_defects is the one home of the cocycle defect: the filter
impose_cocycle and the identity check cocycles.cocycle_check both loop
over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, takewhile
from math import factorial
from typing import Callable, Iterable, Iterator

from .linalg import RowReducer, keyed_rows, nullspace, same_span
from .operators import (PolyDiffOp, commutator_sum, lie_derivative_op, operator_from_sum,
                        unit_deriv, xi_simplex)
from .poly import (Coeff, Poly, Ring, StructureError, add_scaled_terms, doubled_ring,
                   norm_coeff, rat, rat_str, single_ring)
from .symbols import GeneratorFamily, schouten_bracket, sl_generators

AnsatzIndex = tuple[str, int]


@dataclass(frozen=True)
class AnsatzCoefficients:
    """Coefficient arrays of the bilinear candidate family for given (k, p)."""

    k: int
    p: int
    alpha: dict[int, Coeff] = field(default_factory=dict)
    beta: dict[int, Coeff] = field(default_factory=dict)
    gamma: dict[int, Coeff] = field(default_factory=dict)

    def get(self, kind: str, s: int) -> Coeff:
        return getattr(self, kind).get(s, 0)

    def as_vector(self, indices: list[AnsatzIndex]) -> list[Coeff]:
        return [self.get(kind, s) for kind, s in indices]

    @staticmethod
    def from_vector(k: int, p: int, indices: list[AnsatzIndex],
                    vec: list[Coeff]) -> "AnsatzCoefficients":
        data: dict[str, dict[int, Coeff]] = {"alpha": {}, "beta": {}, "gamma": {}}
        for (kind, s), c in zip(indices, vec):
            if c != 0:
                data[kind][s] = norm_coeff(c)
        return AnsatzCoefficients(k, p, data["alpha"], data["beta"], data["gamma"])

    def scale(self, c) -> "AnsatzCoefficients":
        c = rat(c)
        return AnsatzCoefficients(
            self.k, self.p,
            {s: norm_coeff(v * c) for s, v in self.alpha.items()},
            {s: norm_coeff(v * c) for s, v in self.beta.items()},
            {s: norm_coeff(v * c) for s, v in self.gamma.items()})

    def normalized(self) -> "AnsatzCoefficients":
        """Scale so the first nonzero coefficient in canonical order is 1."""
        for kind, s in full_indices(self.k, self.p):
            v = self.get(kind, s)
            if v != 0:
                return self.scale(Fraction(1) / Fraction(v))
        return self

    def display_normalized(self) -> "AnsatzCoefficients":
        """Scale to the conventional presentation of the classified lines.

        Degree drop two is anchored at beta_2 = 1 (making the alpha pair
        (2, 2k+n+1) integral); everything else anchors the first nonzero
        coefficient at 1.
        """
        if self.p == 2 and self.get("beta", 2) != 0:
            return self.scale(Fraction(1) / Fraction(self.get("beta", 2)))
        return self.normalized()

    def to_json(self) -> dict:
        return {
            "k": self.k, "p": self.p,
            "alpha": {str(s): rat_str(v) for s, v in sorted(self.alpha.items())},
            "beta": {str(s): rat_str(v) for s, v in sorted(self.beta.items())},
            "gamma": {str(s): rat_str(v) for s, v in sorted(self.gamma.items())},
        }


def full_indices(k: int, p: int) -> list[AnsatzIndex]:
    """All ansatz indices: alpha_0..p+1 (absent when k = p), beta_1..p+1, gamma_0..p."""
    out: list[AnsatzIndex] = []
    if k != p:
        out.extend(("alpha", s) for s in range(0, p + 2))
    out.extend(("beta", s) for s in range(1, p + 2))
    out.extend(("gamma", s) for s in range(0, p + 1))
    return out


def reduced_indices(k: int, p: int) -> list[AnsatzIndex]:
    """Indices surviving the affine-vanishing normalization (s >= 2)."""
    out: list[AnsatzIndex] = []
    if k != p:
        out.extend(("alpha", s) for s in range(2, p + 2))
    out.extend(("beta", s) for s in range(2, p + 2))
    out.extend(("gamma", s) for s in range(2, p + 1))
    return out


# -- the bilinear operators ---------------------------------------------------


@lru_cache(maxsize=None)
def _pair_contraction(ring: Ring, first: str, second: str) -> PolyDiffOp:
    """One of the four contractions as a doubled-ring operator."""
    blocks = {"x": 0, "xi": 1, "y": 2, "eta": 3}
    n = ring.n
    one = Poly.constant(ring, 1)
    terms = {unit_deriv(ring, blocks[first] * n + i, blocks[second] * n + i): one
             for i in range(n)}
    return PolyDiffOp(ring, terms, _clean=True)


def contraction_ops(n: int) -> dict[str, PolyDiffOp]:
    ring = doubled_ring(n)
    return {
        "Dxxi": _pair_contraction(ring, "x", "xi"),
        "Dyeta": _pair_contraction(ring, "y", "eta"),
        "Dxeta": _pair_contraction(ring, "x", "eta"),
        "Dyxi": _pair_contraction(ring, "y", "xi"),
    }


@lru_cache(maxsize=None)
def ansatz_term_op(n: int, kind: str, s: int, p: int) -> PolyDiffOp:
    """The normalized doubled-ring operator attached to one ansatz index."""
    ops = contraction_ops(n)
    if kind == "alpha":
        op = ops["Dxeta"].power(s).compose(ops["Dyeta"].power(p - s + 1))
        norm = Fraction(1, factorial(s) * factorial(p - s + 1))
    elif kind == "beta":
        op = ops["Dxxi"].compose(ops["Dxeta"].power(s - 1)).compose(
            ops["Dyeta"].power(p - s + 1))
        norm = Fraction(1, factorial(s - 1) * factorial(p - s + 1))
    elif kind == "gamma":
        op = ops["Dyxi"].compose(ops["Dxeta"].power(s)).compose(
            ops["Dyeta"].power(p - s))
        norm = Fraction(1, factorial(s) * factorial(p - s))
    else:
        raise StructureError(f"unknown ansatz family {kind!r}")
    return op.scale(norm)


class BilinearOp:
    """A bilinear map S_1 (x) S_k -> S_{k-p}: doubled operator plus restriction.

    The doubled operator's coefficients must be constant, checked once here.
    `parts` groups its terms c * dx^a dxi^b dy^g deta^h by the derivative
    part (a, b) that lands on the field, once, in the operator's term
    order: one ((a, b), |a| + |b|, [((g, h), c), ...]) per distinct (a, b).
    """

    def __init__(self, n: int, op: PolyDiffOp):
        if op.ring != doubled_ring(n):
            raise StructureError("bilinear operators live in the doubled ring")
        self.n = n
        self.op = op
        const = (0,) * 4 * n
        grouped: dict[tuple, list] = {}
        for mu, coeff in op.terms.items():
            if coeff.terms.keys() != {const}:
                raise StructureError("bilinear operators need constant coefficients")
            grouped.setdefault(mu[:2 * n], []).append((mu[2 * n:], coeff.terms[const]))
        self.parts = [(a_b, sum(a_b), rest) for a_b, rest in grouped.items()]

    def __call__(self, X: Poly, P: Poly) -> Poly:
        return self.op.apply(
            X.embed_first_slot() * P.embed_second_slot()).restrict_diagonal()

    def operator_for_field(self, X: Poly) -> PolyDiffOp:
        """The single-ring operator P |-> C(X, P), for a fixed vector field.

        For a doubled term c * dx^a dxi^b dy^g deta^h the x and xi
        derivatives land on X and the y, eta derivatives pass to the symbol
        slot, so the restriction is the single-ring operator
        (c * d^a d^b X) * dx^g dxi^h.  Each distinct part (a, b) takes one
        derivative d^a d^b X, whose terms, scaled by each c, are added raw
        into the coefficients of their (g, h); a part with |a| + |b| above
        the total degree of X has d^a d^b X = 0 and is skipped.  The sum
        becomes an operator through operators.operator_from_sum, as in
        compose, under the same term-budget check.
        """
        degree = X.total_degree()
        acc: dict[tuple, dict] = {}
        for a_b, order, rest in self.parts:
            if order > degree:
                continue
            dX = X.diff_multi(a_b).terms.items()
            if not dX:
                continue
            for g_h, c in rest:
                add_scaled_terms(acc.setdefault(g_h, {}), dX, c)
        return operator_from_sum(single_ring(self.n), acc)


def build_bilinear(coeffs: AnsatzCoefficients, n: int) -> BilinearOp:
    """Assemble the candidate operator with the factorial normalizations."""
    k, p = coeffs.k, coeffs.p
    ring = doubled_ring(n)
    op = PolyDiffOp.zero(ring)
    for kind, s in full_indices(k, p):
        c = coeffs.get(kind, s)
        if c != 0:
            op = op + ansatz_term_op(n, kind, s, p).scale(c)
    return BilinearOp(n, op)


# -- solution spaces ----------------------------------------------------------


def matched_case(k: int, p: int) -> str:
    """Which branch of the case analysis (a)-(d) a pair (k, p) falls in."""
    if p == 0 or (p == 1 and k == 1):
        return "a"
    if p == 1:
        return "b"
    if p == k:
        return "d"
    return "c"


@dataclass
class SolutionSpace:
    n: int
    k: int
    p: int
    basis: list[AnsatzCoefficients]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def vectors(self) -> list[list[Coeff]]:
        idx = full_indices(self.k, self.p)
        return [c.as_vector(idx) for c in self.basis]

    def same_span_as(self, other: "SolutionSpace") -> bool:
        if (self.n, self.k, self.p) != (other.n, other.k, other.p):
            return False
        return same_span(self.vectors(), other.vectors())

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "basis": [c.to_json() for c in self.basis],
            "matched_paper_case": matched_case(self.k, self.p),
        }


def recurrence_solutions(n: int, k: int, p: int) -> SolutionSpace:
    """Solve the closed-form recurrence system for the equivariant coefficients.

    Unknowns are the s >= 2 coefficients.  The constraints are the
    quadratic-generator vanishing condition

        (k-p) alpha_2 + (n+1) beta_2 + (p-1) gamma_2 = 0

    and, for 2 <= s <= p, the three recurrences

        (s-1) alpha_{s+1} - (2k+n-p+s-1) alpha_s - gamma_s = 0   (dropped if k = p)
        (s-1) beta_{s+1}  - (2k+n-p+s-1) beta_s  - gamma_s = 0
        (s-2) gamma_s     - (2k+n-p+s-1) gamma_{s-1}       = 0

    The fourth recurrence of the original system is implied by these and is
    checked separately (see sys4_residuals).
    """
    _validate(n, k, p)
    indices = reduced_indices(k, p)
    pos = {idx: i for i, idx in enumerate(indices)}
    rows = []

    def row_of(entries: dict[AnsatzIndex, Coeff]) -> dict[int, Coeff]:
        return {pos[idx]: c for idx, c in entries.items() if idx in pos and c != 0}

    rows.append(row_of({("alpha", 2): k - p, ("beta", 2): n + 1, ("gamma", 2): p - 1}))
    for s in range(2, p + 1):
        lam = 2 * k + n - p + s - 1
        if k != p:
            rows.append(row_of({("alpha", s + 1): s - 1, ("alpha", s): -lam,
                                ("gamma", s): -1}))
        rows.append(row_of({("beta", s + 1): s - 1, ("beta", s): -lam,
                            ("gamma", s): -1}))
        rows.append(row_of({("gamma", s): s - 2, ("gamma", s - 1): -lam}))

    basis = [AnsatzCoefficients.from_vector(k, p, indices, v)
             for v in nullspace(rows, len(indices))]
    return SolutionSpace(n, k, p, basis)


def sys4_residuals(n: int, k: int, p: int,
                   coeffs: AnsatzCoefficients) -> list[Coeff]:
    """Values of the redundant fourth recurrence on a coefficient family."""
    out = []
    for s in range(2, p + 1):
        val = ((k - p) * rat(coeffs.get("alpha", s + 1))
               + (n + 1) * rat(coeffs.get("beta", s + 1))
               + (p - s) * rat(coeffs.get("gamma", s + 1))
               + (k - p + s) * rat(coeffs.get("gamma", s)))
        out.append(norm_coeff(val))
    return out


def _validate(n: int, k: int, p: int) -> None:
    if n < 2:
        raise StructureError("the classification needs dimension >= 2")
    if not 0 <= p <= k:
        raise StructureError(f"need 0 <= p <= k, got p={p}, k={k}")


# -- direct solver -------------------------------------------------------------


def field_monomials(n: int, shapes: list[tuple[int, ...]]) -> list[Poly]:
    ring = single_ring(n)
    out = []
    for u in shapes:
        for m in range(n):
            exp = list(u) + [0] * n
            exp[n + m] = 1
            out.append(Poly.monomial(ring, tuple(exp)))
    return out


def _add_rows(reducer: RowReducer, ops: list[PolyDiffOp], k: int) -> None:
    """Add one row per key of the canonical forms of ops on S_k.

    ops[j] is the operator of unknown j, so each row is one SymbolMap
    entry's coefficients across the unknowns; both solvers feed their rows
    here.  The rows are exact on S_k: SymbolMap is faithful on S_k and
    from_operator is linear, so sum_j c_j ops[j] vanishes on S_k iff every
    row vanishes at c.
    """
    for row in keyed_rows([op.symbol_map(k).entries for op in ops]):
        reducer.add_row(row)


def _add_vanishing_rows(reducer: RowReducer, rules: list[Callable[[Poly], PolyDiffOp]],
                        fam: GeneratorFamily, k: int) -> None:
    """Add the rows of C(G, .) = 0 on S_k for every projective generator G.

    rules[j] is the rule F |-> C_j(F, .) of unknown j.  The generators span
    sl(n+1), so the rows hold at c iff sum_j c_j C_j vanishes on sl(n+1).
    Both solvers start from these rows.
    """
    for G in fam.all():
        _add_rows(reducer, [r(G) for r in rules], k)


def _monomial_terms(F: Poly, memo: dict) -> list[tuple[Coeff, Poly]]:
    """F = sum_m c_m x^m as its (c_m, x^m) pairs, each x^m a coefficient-1 monomial.

    memo maps an exponent m to the one Poly x^m built for it, so a rule
    memoized by its field meets one key per monomial, hashed once.
    """
    out = []
    for e, c in F.terms.items():
        unit = memo.get(e)
        if unit is None:
            unit = memo[e] = Poly(F.ring, {e: 1}, _clean=True)
        out.append((c, unit))
    return out


def cocycle_defects(rules: list[Callable[[Poly], PolyDiffOp]],
                    pairs: Iterable[tuple[Poly, Poly]]) -> Iterator[list[PolyDiffOp]]:
    """The cocycle defect operators of each rule, one list per field pair.

    For a pair (Y, Z) and a rule r : X |-> r(X), a linear map from vector
    fields to operators, the defect of the identity
    r([Y, Z]) = Y.r(Z) - Z.r(Y), with X.A = [L_X, A], is

        D_r = r([Y, Z]) + [L_Z, r(Y)] + [r(Z), L_Y],

    formed as one commutator_sum; r is a cocycle on the pairs iff every D_r
    is zero.  The rule is evaluated on monomial fields only: r is linear, so
    [Y, Z] = sum_m c_m x^m gives r([Y, Z]) = sum_m c_m r(x^m) exactly, and
    the pairs (c_m, r(x^m)) are the commutator_sum's base (_monomial_terms,
    one memo per call).  A bracket of two monomial fields has at most two
    terms; a vanishing bracket gives an empty base.  L_F =
    lie_derivative_op(F) is memoized for this call; a rule that should
    build each field's operator once is memoized by the caller.  Pairs are
    formed only as the caller draws them.
    """
    lie = cache(lie_derivative_op)
    units: dict = {}
    for Y, Z in pairs:
        L_Y, L_Z = lie(Y), lie(Z)
        bracket = _monomial_terms(schouten_bracket(Y, Z), units)
        yield [commutator_sum([(L_Z, r(Y)), (r(Z), L_Y)],
                              base=[(c, r(m)) for c, m in bracket])
               for r in rules]


def solve_equivariant_direct(n: int, k: int, p: int) -> SolutionSpace:
    """Classify the equivariant family by imposing the defining identities.

    The space is that of the coefficient vectors whose candidate C vanishes
    on sl(n+1) and is sl(n+1)-equivariant on S_k: with X.A = [L_X, A],

      vanishing:    C(G, .) = 0 on S_k for every G in sl(n+1)
      equivariance: E(X, Y) = [L_X, C(Y, .)] - C([X, Y], .) = 0 on S_k
                    for every X in sl(n+1) and every polynomial field Y.

    Rows are imposed exactly on S_k (_add_rows) on a finite field set that
    is proved complete below: the vanishing rows on every projective
    generator G (_add_vanishing_rows, shared with impose_cocycle), and the
    equivariance rows E(X, Y) for the one generator
    X = Xbar_1 = x^1 (x^j xi_j) against every monomial field Y = x^u xi_m
    with 2 <= |u| <= p.  So the returned space is exactly the true one;
    for p <= 1 there is no equivariance row at all.

    Proof of completeness.  The vanishing rows give C = 0 on the span of the
    generators, all of sl(n+1).  Under x -> tx, xi -> xi/t a field x^u xi_m
    has weight |u| - 1, L_F raises weight by that of the field F, and each
    ansatz term has weight 0 (every contraction pairs a d/dx with a d/dxi).
    So E(X, Y) has weight |u| for a quadratic X, of weight 1.  Fix
    X = Xbar_1.

    1. Rows with |u| <= 1 follow from the vanishing rows: Y and [X, Y] lie
       in sl(n+1), so C(Y, .) = C([X, Y], .) = 0 on S_k, and L_X preserves
       S_k.
    2. The affine part holds term by term: each ansatz term is a
       constant-coefficient, gl(n)-invariant contraction, so E(A, Y) = 0
       for every affine field A, every Y and every coefficient vector.
    3. Translation step.  For an affine field A, L_{[A, X]} = [L_A, L_X],
       [L_A, C(Z, .)] = C([A, Z], .) (that is, 2) and the Jacobi identity
       give
           [L_A, E(X, Y)] = E([A, X], Y) + E(X, [A, Y]).
       For a translation T the field [T, X] is affine, so the first term
       is 0 by 2.  If E(X, .) vanishes on the fields of degree d, then for
       |u| = d + 1 the field [T, Y] has degree d and E(X, Y) commutes with
       every L_T on S_k: it is translation-invariant.
    4. Weight bound.  A translation-invariant map S_k -> S_{k-p} has
       constant x-coefficients, and its term with d_x^alpha has weight
       p - |alpha| <= p.  So a translation-invariant E(X, Y) of weight
       |u| > p is 0.  By induction on |u|, starting from 1 and the rows
       with 2 <= |u| <= p, E(X, .) vanishes on every monomial field, hence
       on every polynomial field.
    5. One generator suffices.  3's identity holds for the linear field
       A = x^i xi_1, and [A, Xbar_1] = Xbar_i.  So E(Xbar_1, .) = 0 gives
       E(Xbar_i, .) = 0 for every i, which with 2 covers all of sl(n+1).

    The tests check the ingredients: 2 on every ansatz term, the bracket of
    5 for n = 2, 3, 4, and that the bound of 4 is tight (dropping the
    degree-p fields enlarges the space).

    Per field Y and ansatz term t, the defect operator E_t(X, Y) is formed
    once, as one commutator_sum; since {X, g} = L_X g for a vector field
    X, it is the equivariance defect exactly.  It is not the cocycle
    defect of cocycle_defects: that would add [L_Y, C_t(X, .)], which lies
    in the span of the vanishing rows and roughly doubles the solver's
    time.  As there, C_t([X, Y], .) enters as the linear combination
    sum_m -c_m C_t(x^m, .) over the bracket's monomials (_monomial_terms),
    so each term's rule F |-> C_t(F, .), memoized by the field F, is built
    on generators and monomial fields only, once each; a vanishing bracket
    gives an empty combination.
    """
    _validate(n, k, p)
    indices = full_indices(k, p)
    rules = [cache(BilinearOp(n, ansatz_term_op(n, kind, s, p)).operator_for_field)
             for kind, s in indices]
    fam = sl_generators(n)
    reducer = RowReducer(len(indices))
    _add_vanishing_rows(reducer, rules, fam, k)

    X = fam.quadratic[0]
    L_X = lie_derivative_op(X)
    units: dict = {}
    for Y in field_monomials(n, [u for d in range(2, p + 1) for u in xi_simplex(n, d)]):
        bracket = _monomial_terms(schouten_bracket(X, Y), units)
        _add_rows(reducer, [commutator_sum([(L_X, r(Y))],
                                           base=[(-c, r(m)) for c, m in bracket])
                            for r in rules], k)

    basis = [AnsatzCoefficients.from_vector(k, p, indices, v)
             for v in reducer.nullspace()]
    return SolutionSpace(n, k, p, basis)


def cocycle_filter_pairs(n: int, p: int) -> Iterator[tuple[Poly, Poly]]:
    """The field pairs impose_cocycle imposes the cocycle identity on, in order.

    Every unordered pair of monomial fields (x^u xi_m, x^v xi_l) with
    |u|, |v| >= 2 and |u| + |v| <= p + 2, drawn lazily in ascending
    |u| + |v|; none for p <= 1.  Within one |u| + |v| the pairs come in
    the order of combinations over the fields sorted by degree.
    """
    fields = [(d, Y) for d in range(2, p + 1) for Y in field_monomials(n, xi_simplex(n, d))]
    for total in range(4, p + 3):
        yield from ((Y, Z) for (d, Y), (e, Z) in combinations(fields, 2) if d + e == total)


def impose_cocycle(space: SolutionSpace) -> SolutionSpace:
    """The relative cocycles in the span of a space of ansatz maps.

    For C in the span, write dC(Y, Z) = C([Y, Z], .) - [L_Y, C(Z, .)] +
    [L_Z, C(Y, .)], the defect of the identity C([Y, Z], P) = Y.(C(Z, P)) -
    Z.(C(Y, P)) under the natural action on operator values.  The returned
    space holds exactly the C in the span that vanish on sl(n+1) and have
    dC = 0 on S_k for every pair of polynomial fields; n, k and p are the
    space's.  Any basis of ansatz vectors is allowed: it need not be
    equivariant, nor vanish on sl(n+1).

    Two row sets are imposed, each exactly on S_k (_add_rows): the
    vanishing rows C(G, .) = 0 for every projective generator G
    (_add_vanishing_rows, shared with solve_equivariant_direct), and the
    rows dC(Y, Z) = 0 on the pairs of cocycle_filter_pairs, the monomial
    pairs x^u xi_m, x^v xi_l with |u|, |v| >= 2 and |u| + |v| <= p + 2.
    Every row is necessary, and the set is proved complete below.

    Proof of completeness.  Let C satisfy every row.  Weights are those of
    solve_equivariant_direct's proof: x^u xi_m has weight |u| - 1 and each
    ansatz term weight 0, so dC(Y, Z) has weight |u| + |v| - 2.

    1. Every ansatz vector is affine-equivariant, term by term
       (solve_equivariant_direct, step 2): [L_A, C(Z, .)] = C([A, Z], .)
       for every affine field A and every field Z.
    2. Given the vanishing rows, C(A, .) = 0 on S_k for affine A, so by 1
       dC(A, Z) = C([A, Z], .) - [L_A, C(Z, .)] + [L_Z, C(A, .)] = 0.  By
       antisymmetry every pair with an affine member has zero defect.
    3. Translation step.  1 says the Lie derivative of the cochain C along
       an affine A is 0; it commutes with d, so for a translation T
           [L_T, dC(Y, Z)] = dC([T, Y], Z) + dC(Y, [T, Z]).
       Induct on |u| + |v| over monomial pairs.  A pair with |u| <= 1 or
       |v| <= 1 has an affine member (2), and one with |u|, |v| >= 2 and
       |u| + |v| <= p + 2 is a row.  Otherwise |u| + |v| > p + 2, and
       [T, Y], [T, Z] are combinations of monomial fields one degree lower,
       so the right side is 0 by induction: dC(Y, Z) is a
       translation-invariant map S_k -> S_{k-p} of weight |u| + |v| - 2 > p,
       hence 0 (solve_equivariant_direct, step 4).

    So dC vanishes on every monomial pair, hence on every pair of
    polynomial fields.  Only vanishing on the affine fields enters the
    proof; the quadratic generators' vanishing rows make the answer the
    relative cocycles, as the classification wants.  At p <= 1 no pair is
    drawn, so every map of the span that vanishes on sl(n+1) is a cocycle;
    at p = 2 the pairs are those of quadratic monomial fields.  The tests
    check 1 on every ansatz term and that the bound is tight at p = 2.

    Each basis map's rule F |-> C_b(F, .) is memoized for this call and,
    through cocycle_defects, evaluated on the generators, the pairs' fields
    and the monomials of their brackets only, once each; a vanishing
    bracket builds none.  Pairs are drawn only while the rank is below
    full, so no defect past the pair that completes it is formed.
    """
    n, k, p = space.n, space.k, space.p
    _validate(n, k, p)
    rules = [cache(build_bilinear(c, n).operator_for_field) for c in space.basis]
    reducer = RowReducer(len(rules))
    _add_vanishing_rows(reducer, rules, sl_generators(n), k)
    pairs = takewhile(lambda _: reducer.rank < len(rules), cocycle_filter_pairs(n, p))
    for defects in cocycle_defects(rules, pairs):
        _add_rows(reducer, defects, k)

    basis = [AnsatzCoefficients.from_vector(
                 k, p, full_indices(k, p),
                 [sum(c * b for c, b in zip(combo, col)) for col in zip(*space.vectors())])
             for combo in reducer.nullspace()]
    return SolutionSpace(n, k, p, basis)
