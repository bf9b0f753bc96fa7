"""Classification of projectively equivariant bilinear symbol operators.

A linear map  c : Vect(R^n) -> D(S_k, S_{k-p})  vanishing on the projective
subalgebra corresponds to a bilinear map  C : S_1 (x) S_k -> S_{k-p}.  Every
affine-invariant bilinear differential operator is a polynomial in the four
two-point contractions

    Dxxi = d/dx^i d/dxi_i     (divergence in the first slot)
    Dyeta = d/dy^i d/deta_i   (divergence in the second slot)
    Dxeta = d/dx^i d/deta_i   (cross contraction)
    Dyxi = d/dy^i d/dxi_i     (cross contraction)

restricted to the diagonal y = x, eta = xi.  They act on single_ring(2n),
the symbol ring of T*R^n x T*R^n = T*R^(2n), whose variables are x, y, xi,
eta in that order (y_i is x_(n+i), eta_i is xi_(n+i)); its xi-degree is
the total (xi, eta) degree.  The candidate family is

    C = sum_s  alpha_s / (s! (p-s+1)!)        Dxeta^s Dyeta^(p-s+1)
      + sum_s  beta_s  / ((s-1)! (p-s+1)!)    Dxxi Dxeta^(s-1) Dyeta^(p-s+1)
      + sum_s  gamma_s / (s! (p-s)!)          Dyxi Dxeta^s Dyeta^(p-s)

with the alpha family dropped when k = p (those terms apply p+1 eta
derivatives to an eta-degree-k argument and die on the relevant subspace).
Each denominator is a! b! for the term's powers a of Dxeta and b of Dyeta.
ansatz_term_op is the integer contraction product and term_norm its factor
1/(a! b!), the one place it lives.  A line's integer form (integer_form) is
the integer combination of those products times one rational scale;
build_bilinear applies the scale.  The two solvers feed integer rows and
apply each unknown's scale once, to the nullspace (_scaled_nullspace).

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
over it.  The rule of every solver unknown and of every ansatz-line
cocycle is BilinearOp.operator_for_field, which takes only the field
derivatives that survive (_lower_indices).
build_bilinear and the two drivers impose_cocycle and
solve_equivariant_direct read the term budget once per call tree
(poly.budget_scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, product, takewhile
from math import comb, factorial, lcm, perm, prod
from operator import sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .linalg import RowReducer, keyed_rows, nullspace, same_span
from .operators import (PolyDiffOp, commutator_sum, hamiltonian_op, lie_derivative_op,
                        linear_combination, operator_from_sum, xi_simplex)
from .poly import (Coeff, Exponent, Poly, Ring, StructureError, add_scaled_terms, budget_scope,
                   check_int, check_term_budget, check_vector_field, norm_coeff, rat, rat_str,
                   single_ring, unit_deriv)
from .symbols import schouten_bracket, sl_generators

AnsatzIndex = tuple[str, int]
FAMILIES = ("alpha", "beta", "gamma")


@dataclass(frozen=True)
class AnsatzCoefficients:
    """Coefficient arrays of the bilinear candidate family for given (k, p).

    Each family is a read-only map from index to nonzero exact coefficient:
    every value is read by poly.rat and zeros are dropped, so a zero entry
    and no entry make equal lines, with equal hashes.  k and p must be ints.
    """

    k: int
    p: int
    alpha: Mapping[int, Coeff] = field(default_factory=dict)
    beta: Mapping[int, Coeff] = field(default_factory=dict)
    gamma: Mapping[int, Coeff] = field(default_factory=dict)

    def __post_init__(self):
        check_int(self.k, check_int(self.p, 0, "degree drop p"), "symbol degree k")
        legal = full_indices(self.p + 1, self.p)  # alpha too: its terms vanish on S_k at k = p
        for kind in FAMILIES:
            values = {}
            for s, v in getattr(self, kind).items():
                if type(s) is not int or (kind, s) not in legal:
                    raise StructureError(f"{kind}_{s} is not an ansatz index for p = {self.p}")
                if v := rat(v):
                    values[s] = v
            object.__setattr__(self, kind, MappingProxyType(values))

    def __hash__(self) -> int:
        return hash((self.k, self.p,
                     *(frozenset(getattr(self, kind).items()) for kind in FAMILIES)))

    def get(self, kind: str, s: int) -> Coeff:
        return getattr(self, kind).get(s, 0)

    def as_vector(self, indices: list[AnsatzIndex]) -> list[Coeff]:
        return [self.get(kind, s) for kind, s in indices]

    @staticmethod
    def from_vector(k: int, p: int, indices: list[AnsatzIndex],
                    vec: list[Coeff]) -> "AnsatzCoefficients":
        data: dict[str, dict[int, Coeff]] = {kind: {} for kind in FAMILIES}
        for (kind, s), c in zip(indices, vec):
            data[kind][s] = c
        return AnsatzCoefficients(k, p, **data)

    def scale(self, c) -> "AnsatzCoefficients":
        c = rat(c)
        return AnsatzCoefficients(self.k, self.p, **{
            kind: {s: v * c for s, v in getattr(self, kind).items()}
            for kind in FAMILIES})

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
        return {"k": self.k, "p": self.p, **{
            kind: {str(s): rat_str(v) for s, v in sorted(getattr(self, kind).items())}
            for kind in FAMILIES}}


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
    return [(kind, s) for kind, s in full_indices(k, p) if s >= 2]


# -- the bilinear operators ---------------------------------------------------


def contraction_ops(n: int) -> dict[str, PolyDiffOp]:
    """The four contractions as single_ring(2n) operators (blocks: x 0, y 1, xi 2, eta 3)."""
    ring = single_ring(2 * n)
    one = Poly.constant(ring, 1)
    return {name: PolyDiffOp(ring, {unit_deriv(ring, first * n + i, second * n + i): one
                                    for i in range(n)}, _clean=True)
            for name, first, second in (("Dxxi", 0, 2), ("Dyeta", 1, 3), ("Dxeta", 0, 3),
                                        ("Dyxi", 1, 2))}


def _term_factors(kind: str, s: int, p: int) -> tuple[str | None, int, int]:
    """(the leading Dxxi or Dyxi or None, the power of Dxeta, the power of Dyeta) of one index."""
    if kind == "alpha":
        return None, s, p - s + 1
    if kind == "beta":
        return "Dxxi", s - 1, p - s + 1
    if kind == "gamma":
        return "Dyxi", s, p - s
    raise StructureError(f"unknown ansatz family {kind!r}")


def term_norm(kind: str, s: int, p: int) -> Coeff:
    """The normalization 1/(a! b!) of one ansatz index, a and b its powers of Dxeta and Dyeta."""
    _, a, b = _term_factors(kind, s, p)
    return norm_coeff(Fraction(1, factorial(a) * factorial(b)))


@lru_cache(maxsize=None)
def ansatz_term_op(n: int, kind: str, s: int, p: int) -> PolyDiffOp:
    """The integer contraction product of one ansatz index, before its term_norm.

    Its terms are the derivatives dx^c dy^d deta^(c + d) with |c| = a and
    |d| = b, each times d/dx^i d/dxi_i (lead Dxxi) or d/dy^i d/dxi_i (lead
    Dyxi) for one i.  They are all distinct, so there are m(a) m(b) of them,
    n times as many with a lead, where m(d) = C(n + d - 1, d).  That count is
    checked against the term budget before anything is composed, so a large
    n fails at once instead of filling memory.
    """
    lead, a, b = _term_factors(kind, s, p)
    check_term_budget((n if lead else 1) * comb(n + a - 1, a) * comb(n + b - 1, b),
                      f"terms of the ansatz term {kind}_{s} (n = {n}, p = {p})")
    ops = contraction_ops(n)
    op = ops["Dxeta"].power(a)
    if lead:
        op = ops[lead].compose(op)
    return op.compose(ops["Dyeta"].power(b))


class BilinearOp:
    """A bilinear map S_1 (x) S_k -> S_{k-p}: a single_ring(2n) operator plus restriction.

    The operator's coefficients must be constant, checked once here.
    `parts` groups its terms c * dx^a dy^g dxi^b deta^h by the derivative
    part (a, b) that lands on the field, once, in the operator's term
    order: parts[(a, b)] = [((g, h), c), ...].
    """

    def __init__(self, n: int, op: PolyDiffOp):
        if op.ring != single_ring(2 * n):
            raise StructureError(f"bilinear operators live in single_ring({2 * n})")
        self.n = n
        self.op = op
        const = (0,) * 4 * n
        self.parts: dict[tuple, list] = {}
        for mu, coeff in op.terms.items():
            if coeff.terms.keys() != {const}:
                raise StructureError("bilinear operators need constant coefficients")
            self.parts.setdefault(mu[:n] + mu[2 * n:3 * n], []).append(
                (mu[n:2 * n] + mu[3 * n:], coeff.terms[const]))

    def operator_for_field(self, X: Poly) -> PolyDiffOp:
        """The single_ring(n) operator P |-> C(X, P), for a fixed vector field.

        X must be a vector field (poly.check_vector_field).  For a term
        c * dx^a dy^g dxi^b deta^h the x and xi derivatives land on X and
        the y, eta derivatives pass to the symbol slot, so the restriction
        is the single_ring(n) operator (c * d^a d^b X) * dx^g dxi^h.  Only
        the derivatives that survive are taken: d^s x^e is
        falling(e, s) x^(e - s) for s <= e and 0 otherwise, so each term
        c_e x^e of X adds c_e falling(e, s) x^(e - s), scaled by each c of
        the part s, into the raw coefficient of its (g, h), for every
        s <= e that is a part (_lower_indices).  No part whose derivative
        kills the field is differentiated.  The sum becomes an operator
        through operators.operator_from_sum, as in linear_combination,
        under the term-budget check of compose.
        """
        parts = self.parts
        acc: dict[tuple, dict] = {}
        for e, c_e in check_vector_field(X).terms.items():
            for s, rest, falling in _lower_indices(e):
                part = parts.get(s)
                if part is not None:
                    term = ((rest, c_e * falling),)
                    for g_h, c in part:
                        add_scaled_terms(acc.setdefault(g_h, {}), term, c)
        return operator_from_sum(single_ring(self.n), acc)


@lru_cache(maxsize=None)
def _lower_indices(e: Exponent) -> tuple[tuple[Exponent, Exponent, int], ...]:
    """(s, e - s, falling(e, s)) for every s <= e.

    falling(e, s) = prod_i e_i! / (e_i - s_i)!, so d^s x^e is
    falling(e, s) x^(e - s); every other s has d^s x^e = 0.  Keyed by the
    exponent alone, so one table serves every operator; an s that is no
    part of an operator is one failed lookup in its parts.
    """
    return tuple((s, tuple(map(sub, e, s)), prod(map(perm, e, s)))
                 for s in product(*(range(m + 1) for m in e)))


def integer_form(coeffs: AnsatzCoefficients, n: int) -> tuple[PolyDiffOp, Coeff]:
    """An integer-coefficient operator B and a scale: the candidate operator is scale * B.

    The weights coeff * term_norm of the nonzero indices are multiplied by
    the lcm D of their denominators, B is the sum of those integer weights
    times the ansatz_term_ops, and scale = 1/D, an int when D = 1.
    """
    k, p = coeffs.k, coeffs.p
    nonzero = [(kind, s) for kind, s in full_indices(k, p) if coeffs.get(kind, s) != 0]
    weights = [Fraction(coeffs.get(kind, s)) * term_norm(kind, s, p) for kind, s in nonzero]
    D = lcm(*(w.denominator for w in weights))
    op = linear_combination(single_ring(2 * n),
                            [ansatz_term_op(n, kind, s, p) for kind, s in nonzero],
                            [w.numerator * (D // w.denominator) for w in weights])
    return op, norm_coeff(Fraction(1, D))


@budget_scope
def build_bilinear(coeffs: AnsatzCoefficients, n: int) -> BilinearOp:
    """The candidate operator with its factorial normalizations: integer_form times its scale."""
    op, scale = integer_form(coeffs, n)
    return BilinearOp(n, op.scale(scale))


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


@dataclass(frozen=True)
class SolutionSpace:
    """An immutable space of ansatz lines; a basis given as a list is stored as a tuple."""

    n: int
    k: int
    p: int
    basis: tuple[AnsatzCoefficients, ...]

    def __post_init__(self):
        """Reject a line of another (k, p) and a dependent basis (a zero line is one)."""
        object.__setattr__(self, "basis", tuple(self.basis))
        for line in self.basis:
            if (line.k, line.p) != (self.k, self.p):
                raise StructureError(f"a line with (k, p) = ({line.k}, {line.p}) in a space"
                                     f" with (k, p) = ({self.k}, {self.p})")
        if nullspace(keyed_rows([dict(enumerate(v)) for v in self.vectors()]), self.dimension):
            raise StructureError("the basis of a solution space must be linearly independent")

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

    The fourth recurrence of the original system is implied by these;
    tests/test_acceptance.py::test_criterion_09_redundant_recurrence checks
    it on every solution for n = 2, 3 and k <= 5.
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


def _validate(n: int, k: int, p: int) -> None:
    single_ring(n)  # rejects n < 2
    AnsatzCoefficients(k, p)  # rejects p outside 0..k


# -- direct solver -------------------------------------------------------------


@lru_cache(maxsize=None)
def _unit_monomial(ring: Ring, e: Exponent) -> Poly:
    """The coefficient-1 monomial x^e of ring, one Poly per (ring, e) per process.

    The intern table of the monomial fields and of the bracket monomials
    (field_monomials, _monomial_terms).  A field's L_X (hamiltonian_op's
    _ham slot), its Leibniz table and its hash are kept on the object, so
    each is built once per process.  Callers pass a checked exponent.
    """
    return Poly(ring, {e: 1}, _clean=True)


def field_monomials(n: int, shapes: list[tuple[int, ...]]) -> list[Poly]:
    """The monomial fields x^u xi_m for u in shapes and m = 0..n-1, in that order.

    Each is the one interned Poly of its exponent (_unit_monomial), checked
    by Ring.exponent before the lookup, so every call returns the same
    objects and a field is differentiated once per process.  The fields are
    shared and must not be mutated.
    """
    ring = single_ring(n)
    return [_unit_monomial(ring, ring.exponent(tuple(u) + unit_deriv(ring, ring.xi(m))[n:]))
            for u in shapes for m in range(n)]


def _add_rows(reducer: RowReducer, ops: list[PolyDiffOp], k: int) -> None:
    """Add one row per key of the canonical forms of ops[j] on S_k.

    ops[j] is the operator of unknown j, so each row is one SymbolMap
    entry's coefficients across the unknowns; both solvers feed their rows
    here.  The rows are exact on S_k: SymbolMap is faithful on S_k and
    from_operator is linear, so sum_j c_j ops[j] vanishes on S_k iff every
    row vanishes at c.
    """
    for row in keyed_rows([op.symbol_map(k).entries for op in ops]):
        reducer.add_row(row)


def _vanishing_system(n: int, k: int, forms: list[tuple[PolyDiffOp, Coeff]]
                      ) -> tuple[list[Callable[[Poly], PolyDiffOp]], RowReducer]:
    """The rules of the unknowns and a RowReducer holding their vanishing rows.

    forms[j] = (B_j, s_j) is unknown j's integer operator and scale, its
    operator s_j B_j.  The rule F |-> B_j(F, .) is memoized for this call,
    and the rows of sum_j v_j B_j(G, .) = 0 on S_k are added for the one
    generator G = Xbar_1 = x^1 (x^j xi_j).  They hold at v iff
    C = sum_j v_j B_j vanishes on sl(n+1), by the lemma below.  Both
    solvers start from these rows and read their basis through
    _scaled_nullspace.

    Lemma.  For every coefficient vector, C(Xbar_1, .) = 0 on S_k implies
    C(G, .) = 0 on S_k for every G in sl(n+1).  Every ansatz term is a
    constant-coefficient, gl(n)-invariant contraction, so for every affine
    field A and every field G, [L_A, C(G, .)] = C([A, G], .)
    (solve_equivariant_direct, step 2).  L_A preserves S_k, so the G with
    C(G, .) = 0 on S_k form a subspace W stable under [A, .] for every
    affine A.  Xbar_1 in W then reaches every generator:
        [x^a xi_1, Xbar_1] = Xbar_a,
        [xi_j, Xbar_a] = delta_ja E + x^a xi_j   (E = x^j xi_j),
    which summed over a = j is (n + 1) E, so E and with it every linear
    field x^a xi_j lies in W, and [xi_k, x^a xi_j] = delta_ka xi_j gives
    the translations.  So the rows of Xbar_1 and the rows of every
    generator cut out the same nullspace, and the RowReducer holds the
    same reduced echelon form, rank and pivots.  cocycles.vanishes_on_sl
    checks every generator, as it checks cocycles that are not
    affine-equivariant, such as div.
    """
    rules = [cache(BilinearOp(n, op).operator_for_field) for op, _ in forms]
    reducer = RowReducer(len(forms))
    G = sl_generators(n).quadratic[0]
    _add_rows(reducer, [r(G) for r in rules], k)
    return rules, reducer


def _scaled_nullspace(reducer: RowReducer, scales: list[Coeff]) -> list[list[Coeff]]:
    """The nullspace of the scaled system, read from the reducer of the integer one.

    The reducer holds the rows of the integer operators B_j, the unknowns
    are those of the operators s_j B_j.  Each row entry is linear in its
    unknown's operator (its rule value, defect and SymbolMap are), so the
    scaled system is the integer one with column j multiplied by s_j != 0.
    Scaling a column by a nonzero constant keeps every linear relation
    among the columns, and a pivot column is one that is no combination of
    the columns before it, so the rank and the pivot columns are kept, and
    with them the pairs impose_cocycle draws.  The scaled nullspace is
    {(v_j / s_j) : v in the integer nullspace}, and its canonical vector
    for a free column f, the one with c_f = 1, is c_j = v_j s_f / s_j for
    the reducer's canonical vector v of f (v_f = 1).
    """
    free = [f for f in range(reducer.ncols) if f not in reducer.pivot_rows]
    return [[norm_coeff(Fraction(v) * scales[f] / s) for v, s in zip(vec, scales)]
            for f, vec in zip(free, reducer.nullspace())]


def _monomial_terms(F: Poly) -> list[tuple[Coeff, Poly]]:
    """F = sum_m c_m x^m as its (c_m, x^m) pairs, each x^m the interned monomial.

    x^m comes from _unit_monomial, the table of field_monomials, so a rule
    memoized by its field meets one key per monomial per process, hashed
    once, and a monomial that is also a test field is that field.  F's keys
    are clean exponents, so they go to the table unchecked.
    """
    ring = F.ring
    return [(c, _unit_monomial(ring, e)) for e, c in F.terms.items()]


def cocycle_defects(rules: list[Callable[[Poly], PolyDiffOp]],
                    pairs: Iterable[tuple[Poly, Poly]]
                    ) -> Iterator[tuple[Poly, Poly, list[PolyDiffOp]]]:
    """(Y, Z, the cocycle defect operators of each rule) for each field pair (Y, Z).

    For a pair (Y, Z) and a rule r : X |-> r(X), a linear map from vector
    fields to operators, the defect of the identity
    r([Y, Z]) = Y.r(Z) - Z.r(Y), with X.A = [L_X, A], is

        D_r = r([Y, Z]) + [L_Z, r(Y)] + [r(Z), L_Y],

    formed as one commutator_sum; r is a cocycle on the pairs iff every D_r
    is zero.  The rule is evaluated on monomial fields only: r is linear, so
    [Y, Z] = sum_m c_m x^m gives r([Y, Z]) = sum_m c_m r(x^m) exactly, and
    the pairs (c_m, r(x^m)) are the commutator_sum's base, each x^m the
    interned monomial of _monomial_terms.  A bracket of two monomial fields
    has at most two terms; a vanishing bracket gives an empty base.  L_F is
    hamiltonian_op(F), kept in F's _ham slot, and the bracket
    schouten_bracket(Y, Z) applies that same L_Y, so each field is
    differentiated once, not once per pair; the fields of field_monomials
    are interned, so once per process.

    The pairs must be vector fields (xi-degree 1): the defect above is the
    cocycle identity only for them, and hamiltonian_op, unlike
    lie_derivative_op, does not check the degree.  Both callers satisfy
    this, as both draw their pairs from field_monomials, whose fields are
    x^u xi_m: impose_cocycle through cocycle_filter_pairs, and
    cocycles.cocycle_check through cocycles.monomial_fields or, for the
    affine-natural cocycles report.certify_class checks, through
    cocycle_filter_pairs, which is complete for them.  A rule that should
    build each field's operator once is memoized by the caller.  Pairs are
    formed only as the caller draws them.
    """
    for Y, Z in pairs:
        L_Y, L_Z = hamiltonian_op(Y), hamiltonian_op(Z)
        bracket = _monomial_terms(schouten_bracket(Y, Z))
        yield Y, Z, [commutator_sum([(L_Z, r(Y)), (r(Z), L_Y)],
                                    base=[(c, r(m)) for c, m in bracket])
                     for r in rules]


@budget_scope
def solve_equivariant_direct(n: int, k: int, p: int) -> SolutionSpace:
    """Classify the equivariant family by imposing the defining identities.

    The space is that of the coefficient vectors whose candidate C vanishes
    on sl(n+1) and is sl(n+1)-equivariant on S_k: with X.A = [L_X, A],

      vanishing:    C(G, .) = 0 on S_k for every G in sl(n+1)
      equivariance: E(X, Y) = [L_X, C(Y, .)] - C([X, Y], .) = 0 on S_k
                    for every X in sl(n+1) and every polynomial field Y.

    Rows are imposed exactly on S_k (_add_rows) on a finite field set that
    is proved complete below: the vanishing rows on the one generator
    X = Xbar_1 = x^1 (x^j xi_j), which give vanishing on all of sl(n+1)
    (_vanishing_system and its lemma, shared with impose_cocycle), and the
    equivariance rows E(X, Y) for that same X against every monomial
    field Y = x^u xi_m with 2 <= |u| <= p.  So the returned space is
    exactly the true one; for p <= 1 there is no equivariance row at all.

    Proof of completeness.  The vanishing rows give C = 0 on all of
    sl(n+1) (_vanishing_system's lemma).  Under x -> tx, xi -> xi/t a
    field x^u xi_m has weight |u| - 1, L_F raises weight by that of the
    field F, and each ansatz term has weight 0 (every contraction pairs a
    d/dx with a d/dxi).  So E(X, Y) has weight |u| for a quadratic X, of
    weight 1.  Fix X = Xbar_1.

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
    5. One generator suffices, as in _vanishing_system's lemma.  3's
       identity holds for the linear field A = x^i xi_1, and
       [A, Xbar_1] = Xbar_i.  So E(Xbar_1, .) = 0 gives E(Xbar_i, .) = 0
       for every i, which with 2 covers all of sl(n+1).

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
    on Xbar_1 and monomial fields only, once each; a vanishing bracket
    gives an empty combination.  The rule of term t is that of the integer
    ansatz_term_op(t); its term_norm(t) is applied once, to the nullspace
    (_scaled_nullspace).
    """
    _validate(n, k, p)
    indices = full_indices(k, p)
    forms = [(ansatz_term_op(n, kind, s, p), term_norm(kind, s, p)) for kind, s in indices]
    rules, reducer = _vanishing_system(n, k, forms)

    X = sl_generators(n).quadratic[0]
    L_X = lie_derivative_op(X)
    for Y in field_monomials(n, [u for d in range(2, p + 1) for u in xi_simplex(n, d)]):
        bracket = _monomial_terms(schouten_bracket(X, Y))
        _add_rows(reducer, [commutator_sum([(L_X, r(Y))],
                                           base=[(-c, r(m)) for c, m in bracket])
                            for r in rules], k)

    basis = [AnsatzCoefficients.from_vector(k, p, indices, v)
             for v in _scaled_nullspace(reducer, [scale for _, scale in forms])]
    return SolutionSpace(n, k, p, basis)


def cocycle_filter_pairs(n: int, p: int) -> Iterator[tuple[Poly, Poly]]:
    """The field pairs impose_cocycle imposes the cocycle identity on, in order.

    None for p <= 1.  For p >= 2 the quadratic block, |u| = |v| = 2, is the
    two pairs (x1^2 xi1, x1 x2 xi1) and (x1^2 xi1, x2^2 xi2), which generate
    every pair of quadratic fields under gl(n) (impose_cocycle, step 3), so
    the block is 2 pairs at every n.  Then every unordered pair of monomial
    fields (x^u xi_m, x^v xi_l) with |u|, |v| >= 2 and
    5 <= |u| + |v| <= p + 2, drawn lazily in ascending |u| + |v|; within
    one |u| + |v| the pairs come in the order of combinations over the
    fields sorted by degree.  Every field is field_monomials' interned one.
    """
    if p < 2:
        return
    x1x1, x1x2, x2x2 = (field_monomials(n, [u + (0,) * (n - 2)])
                        for u in ((2, 0), (1, 1), (0, 2)))
    yield from ((x1x1[0], x1x2[0]), (x1x1[0], x2x2[1]))
    fields = [(d, Y) for d in range(2, p + 1) for Y in field_monomials(n, xi_simplex(n, d))]
    for total in range(5, p + 3):
        yield from ((Y, Z) for (d, Y), (e, Z) in combinations(fields, 2) if d + e == total)


@budget_scope
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
    vanishing rows C(Xbar_1, .) = 0, which give C = 0 on all of sl(n+1)
    for every ansatz vector (_vanishing_system and its lemma, shared with
    solve_equivariant_direct), and the rows dC(Y, Z) = 0 on the pairs of
    cocycle_filter_pairs: the two quadratic pairs (x1^2 xi1, x1 x2 xi1)
    and (x1^2 xi1, x2^2 xi2), and the monomial pairs x^u xi_m, x^v xi_l
    with |u|, |v| >= 2 and 5 <= |u| + |v| <= p + 2.  The set is proved
    complete below.

    Proof of completeness.  Let C satisfy every row.  Weights are those of
    solve_equivariant_direct's proof: x^u xi_m has weight |u| - 1 and each
    ansatz term weight 0, so dC(Y, Z) has weight |u| + |v| - 2.

    1. Every ansatz vector is affine-equivariant, term by term
       (solve_equivariant_direct, step 2): [L_A, C(Z, .)] = C([A, Z], .)
       for every affine field A and every field Z.  So the Lie derivative
       of the cochain C along A is 0; it commutes with d, so
           [L_A, dC(Y, Z)] = dC([A, Y], Z) + dC(Y, [A, Z]).
    2. Given the vanishing rows, C(A, .) = 0 on S_k for affine A
       (_vanishing_system's lemma), so by 1
       dC(A, Z) = C([A, Z], .) - [L_A, C(Z, .)] + [L_Z, C(A, .)] = 0.  By
       antisymmetry every pair with an affine member has zero defect.
    3. Quadratic block.  Let V2 be the span of the quadratic fields x^u xi_m,
       |u| = 2, and E_ij = x^i xi_j, which span gl(n) and act on the
       exterior square of V2 by E.(Y ^ Z) = [E, Y] ^ Z + Y ^ [E, Z].
       a. Submodule.  L_E preserves S_k and S_{k-p}, so by 1's identity
          the w with dC(w) = 0 on S_k form a gl(n)-submodule W; this holds
          for every C of the span, cocycle or not.  The two quadratic rows
          put both pairs in W.
       b. Closure.  At n = 2 and 3 the exact gl(n)-closure of the two pairs
          is the whole exterior square, of dimension 15 and 153.  Neither
          pair generates it alone.
       c. Permutations.  A permutation matrix is an element of GL+(n)
          times a diagonal sign matrix, which scales each monomial pair, a
          weight vector of the diagonal E_ii, by +-1; so W is stable under
          the permutations of the coordinates.  So b at n = 3, on the
          gl(3) of the first three coordinates, puts in W every monomial
          pair that uses at most three coordinates, for every n >= 3.
       d. Index reduction.  A pair (Y, Z) = (x^u xi_m, x^v xi_l) has six
          slots: two x-slots and the xi-slot of each field.  If it uses
          four coordinates or more, one of them fills exactly one slot,
          and by antisymmetry that slot is the xi-slot of Z or an x-slot
          of Y.  If it is l, then for any used a != m, l
              Y ^ Z = -E_al.(Y ^ x^v xi_a);
          if it is x_b in u, then for any used a != b not in v
              Y ^ Z = E_ba.(x^(u - e_b + e_a) xi_m ^ Z) / (u_a + 1).
          Each right-hand pair uses one coordinate fewer, so by induction
          from c every monomial pair lies in W.
       So dC = 0 on every pair of quadratic fields.
    4. Translation step.  For a translation T, 1 gives
           [L_T, dC(Y, Z)] = dC([T, Y], Z) + dC(Y, [T, Z]).
       Induct on |u| + |v| over monomial pairs.  A pair with |u| <= 1 or
       |v| <= 1 has an affine member (2), one with |u| = |v| = 2 is
       covered by 3, and one with |u|, |v| >= 2 and
       5 <= |u| + |v| <= p + 2 is a row.  Otherwise |u| + |v| > p + 2, and
       [T, Y], [T, Z] are combinations of monomial fields one degree lower,
       so the right side is 0 by induction: dC(Y, Z) is a
       translation-invariant map S_k -> S_{k-p} of weight |u| + |v| - 2 > p,
       hence 0 (solve_equivariant_direct, step 4).

    So dC vanishes on every monomial pair, hence on every pair of
    polynomial fields.  Only vanishing on the affine fields enters the
    proof; that the rows of Xbar_1 give vanishing on all of sl(n+1), the
    quadratic generators included (_vanishing_system's lemma), makes the
    answer the relative cocycles, as the classification wants.  At p <= 1
    no pair is drawn, so every map of the span that vanishes on sl(n+1) is
    a cocycle; at p = 2 the two quadratic pairs are all.  The tests check
    1 on every ansatz term, 1's identity on S_k and the moves of d on the
    kernels, the closures of b (and that of n = 4), that either pair alone
    fails, and that the bound is tight at p = 2.

    Each basis map's rule F |-> C_b(F, .) is memoized for this call and,
    through cocycle_defects, evaluated on Xbar_1, the pairs' fields and
    the monomials of their brackets only, once each; a vanishing bracket
    builds none.  Pairs are drawn only while the rank is below
    full, so no defect past the pair that completes it is formed.  The
    rule of a basis map is that of its integer_form; its scale is applied
    once, to the nullspace (_scaled_nullspace), which keeps the rank, so the
    pairs drawn are those of the scaled rules.
    """
    n, k, p = space.n, space.k, space.p
    _validate(n, k, p)
    forms = [integer_form(c, n) for c in space.basis]
    rules, reducer = _vanishing_system(n, k, forms)
    pairs = takewhile(lambda _: reducer.rank < len(rules), cocycle_filter_pairs(n, p))
    for _, _, defects in cocycle_defects(rules, pairs):
        _add_rows(reducer, defects, k)

    basis = [AnsatzCoefficients.from_vector(
                 k, p, full_indices(k, p),
                 [sum(c * b for c, b in zip(combo, col)) for col in zip(*space.vectors())])
             for combo in _scaled_nullspace(reducer, [scale for _, scale in forms])]
    return SolutionSpace(n, k, p, basis)
