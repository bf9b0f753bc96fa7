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
equivariance identity itself on monomial test data and extracts an exact
nullspace.  Their agreement, together with the cocycle filter, reproduces
the case classification (a)-(d) of the relative cohomology computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial

from .linalg import RowReducer, keyed_rows, nullspace, same_span
from .operators import PolyDiffOp, commutator_sum, lie_derivative_op, unit_deriv
from .poly import (Coeff, Poly, Ring, StructureError, doubled_ring, norm_coeff,
                   rat, rat_str, single_ring)
from .symbols import schouten_bracket, sl_generators

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
    `terms` splits each term c * dx^a dxi^b dy^g deta^h once, in the
    operator's term order, into ((a, b), |a| + |b|, (g, h), c).
    """

    def __init__(self, n: int, op: PolyDiffOp):
        if op.ring != doubled_ring(n):
            raise StructureError("bilinear operators live in the doubled ring")
        self.n = n
        self.op = op
        const = (0,) * 4 * n
        self.terms = []
        for mu, coeff in op.terms.items():
            if coeff.terms.keys() != {const}:
                raise StructureError("bilinear operators need constant coefficients")
            a_b = mu[:2 * n]
            self.terms.append((a_b, sum(a_b), mu[2 * n:], coeff.terms[const]))

    def __call__(self, X: Poly, P: Poly) -> Poly:
        return self.op.apply(
            X.embed_first_slot() * P.embed_second_slot()).restrict_diagonal()

    def operator_for_field(self, X: Poly) -> PolyDiffOp:
        """The single-ring operator P |-> C(X, P), for a fixed vector field.

        For a doubled term c * dx^a dxi^b dy^g deta^h the x and xi
        derivatives land on X and the y, eta derivatives pass to the symbol
        slot, so the restriction is the single-ring operator
        (c * d^a d^b X) * dx^g dxi^h.  A term with |a| + |b| above the total
        degree of X contributes d^a d^b X = 0 and is skipped.
        """
        degree = X.total_degree()
        out: dict[tuple, Poly] = {}
        for a_b, order, g_h, c in self.terms:
            if order > degree:
                continue
            dX = X.diff_multi(a_b)
            if dX.is_zero():
                continue
            prev = out.get(g_h)
            contrib = dX.scale(c)
            out[g_h] = contrib if prev is None else prev + contrib
        return PolyDiffOp(single_ring(self.n),
                          {mu: c for mu, c in out.items() if not c.is_zero()}, _clean=True)


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


def _staircase(n: int, dmax: int, width: int) -> list[tuple[int, ...]]:
    """x-exponents a*e1 + b*e2 with a+b <= dmax and b <= width, lex order."""
    out = []
    for a in range(dmax + 1):
        for b in range(min(width, dmax - a) + 1):
            exp = [0] * n
            exp[0] = a
            if n > 1:
                exp[1] = b
            elif b:
                continue
            out.append(tuple(exp))
    return sorted(set(out))


def field_monomials(n: int, shapes: list[tuple[int, ...]]) -> list[Poly]:
    ring = single_ring(n)
    out = []
    for u in shapes:
        for m in range(n):
            exp = list(u) + [0] * n
            exp[n + m] = 1
            out.append(Poly.monomial(ring, tuple(exp)))
    return out


def _symbol_monomials(n: int, x_shapes: list[tuple[int, ...]],
                      xi_slice: list[tuple[int, ...]]) -> list[Poly]:
    ring = single_ring(n)
    return [Poly.monomial(ring, w + v) for w in x_shapes for v in xi_slice]


def _xi_slice(n: int, k: int, max_off_axis: int | None = None) -> list[tuple[int, ...]]:
    """The e1-e2 slice of the degree-k xi simplex (plus an e3 point for n >= 3).

    max_off_axis caps the e2 exponent, thinning the slice for the bulk
    equivariance rows where the full slice is redundant.
    """
    cap = k if max_off_axis is None else min(k, max_off_axis)
    out = []
    for j in range(cap + 1):
        exp = [0] * n
        exp[0] = k - j
        if n > 1:
            exp[1] = j
        elif j:
            continue
        out.append(tuple(exp))
    if n >= 3 and k >= 1:
        exp = [0] * n
        exp[0] = k - 1
        exp[2] = 1
        out.append(tuple(exp))
    return sorted(set(out))


def _add_rows(reducer: RowReducer, ops: list[PolyDiffOp], symbols: list[Poly]) -> None:
    """Per test symbol P, in order, add the rows keyed by the terms of op(P).

    ops[j] is the operator of unknown j, so each row is one monomial's
    coefficients across the unknowns; both solvers feed their rows here.
    """
    for P in symbols:
        for row in keyed_rows([op.apply(P).terms for op in ops]):
            reducer.add_row(row)


def solve_equivariant_direct(n: int, k: int, p: int) -> SolutionSpace:
    """Classify the equivariant family by imposing the defining identities.

    Rows are generated from two exact conditions on the candidate family C:

      vanishing:    C(G, P) = 0 for every projective generator G
      equivariance: L_X(C(Y, P)) = C([X, Y], P) + C(Y, L_X P) for the
                    quadratic generators X

    evaluated on stratified monomial data rich enough in the x-degrees to
    reach every coefficient level (a Dyeta power kills symbols of low
    x-degree, so the symbol family must climb to x-degree about p+1).
    The affine part of the equivariance identity holds term by term for the
    candidate family and contributes nothing; agreement with the recurrence
    solver is enforced separately as an acceptance check.

    Each row is a defect operator applied to a test symbol P.  Per
    generator X, field Y and ansatz term t, the operator
    D_t = [L_X, C_t(Y, .)] - C_t([X, Y], .) is formed once, as one
    commutator_sum; since {X, g} = L_X g for a vector field X, D_t(P) is
    the equivariance defect exactly.  L_X = lie_derivative_op(X) is built once per generator, and
    the operators P |-> C_t(F, P) are memoized by the field F, so a
    generator that is also a test field Y, or a bracket [X, Y] met twice,
    is built once; a vanishing bracket builds none, since C(0, P) = 0.
    """
    _validate(n, k, p)
    indices = full_indices(k, p)
    if not indices:
        return SolutionSpace(n, k, p, [])
    term_ops = [BilinearOp(n, ansatz_term_op(n, kind, s, p))
                for kind, s in indices]
    fam = sl_generators(n)
    reducer = RowReducer(len(indices))

    @cache
    def field_ops(F: Poly) -> list[PolyDiffOp]:
        return [t.operator_for_field(F) for t in term_ops]

    # vanishing rows
    van_symbols = _symbol_monomials(n, _staircase(n, p + 2, width=1),
                                    _xi_slice(n, k))
    for G in fam.all():
        _add_rows(reducer, field_ops(G), van_symbols)

    # equivariance rows along two quadratic generators; the rest follow by
    # the already-imposed linear equivariance and are re-verified in tests
    y_fields = field_monomials(n, _staircase(n, p + 2, width=1))
    eq_symbols = _symbol_monomials(n, _staircase(n, p + 1, width=1),
                                   _xi_slice(n, k, max_off_axis=2))
    generators = fam.quadratic[:2]
    lie_ops = [lie_derivative_op(X) for X in generators]
    for Y in y_fields:
        ops_Y = field_ops(Y)
        for X, L_X in zip(generators, lie_ops):
            bracket = schouten_bracket(X, Y)
            # C(0, P) = 0, so a vanishing bracket needs no operators
            bases = ([None] * len(ops_Y) if bracket.is_zero()
                     else [-opB for opB in field_ops(bracket)])
            defects = [commutator_sum([(L_X, opY)], base=base)
                       for opY, base in zip(ops_Y, bases)]
            _add_rows(reducer, defects, eq_symbols)

    basis = [AnsatzCoefficients.from_vector(k, p, indices, v)
             for v in reducer.nullspace()]
    return SolutionSpace(n, k, p, basis)


def impose_cocycle(space: SolutionSpace, n: int, k: int, p: int) -> SolutionSpace:
    """Intersect an equivariant solution space with the cocycle identity.

    The identity  C([Y,Z], P) = Y.(C(Z,P)) - Z.(C(Y,P))  (with the natural
    action on operator values) is evaluated on pairs of monomial cubic
    fields plus generator-cubic pairs; for maps already equivariant and
    vanishing on the projective subalgebra these pairs carry the only new
    conditions.

    Each processed pair (Y, Z) and basis map b gives one defect operator
    D_b = C_b([Y, Z], .) + [L_Z, C_b(Y, .)] + [C_b(Z, .), L_Y], formed as
    one commutator_sum as in cocycle_check, and each row is D_b applied to
    a test symbol; a pair whose defects all vanish evaluates no symbol.  A
    memo that lives for this call holds, per field X, L_X =
    lie_derivative_op(X) and the operators P |-> C_b(X, P); the operators
    of a bracket [Y, Z] go into the same memo, so a bracket met by two
    pairs is built once, and a vanishing one builds none, since
    C(0, P) = 0.  The memo is filled lazily: the pair loop stops once the
    rank is full, and a field no processed pair touches costs nothing.
    """
    _validate(n, k, p)
    if not space.basis:
        return SolutionSpace(n, k, p, [])
    bilinear = [build_bilinear(c, n) for c in space.basis]
    fam = sl_generators(n)
    cubic_shapes = [s for s in _staircase(n, 3, width=3) if sum(s) == 3]
    if n >= 3:
        mixed = [0] * n
        mixed[0] = mixed[1] = mixed[2] = 1
        skew = [0] * n
        skew[0], skew[2] = 2, 1
        cubic_shapes = sorted(set(cubic_shapes) | {tuple(mixed), tuple(skew)})
    cubics = field_monomials(n, cubic_shapes)
    fields = cubics + list(fam.quadratic)
    pairs = [(i, j) for i in range(len(cubics)) for j in range(i + 1, len(cubics))]
    pairs += [(len(cubics) + g, j) for g in range(len(fam.quadratic))
              for j in range(2 * n)]

    symbols_fam = _symbol_monomials(n, _staircase(n, max(p - 1, 0) + 1, width=1),
                                    _xi_slice(n, k, max_off_axis=2))

    @cache
    def field_ops(F: Poly) -> list[PolyDiffOp]:
        return [b.operator_for_field(F) for b in bilinear]

    @cache
    def lie_op(f: int) -> PolyDiffOp:
        return lie_derivative_op(fields[f])

    reducer = RowReducer(len(bilinear))
    for y, z in pairs:
        if reducer.rank == len(bilinear):
            break
        Y, Z = fields[y], fields[z]
        L_Y, L_Z = lie_op(y), lie_op(z)
        bracket = schouten_bracket(Y, Z)
        # C(0, P) = 0, so a vanishing bracket needs no operators
        ops_bracket = [None] * len(bilinear) if bracket.is_zero() else field_ops(bracket)
        defects = [commutator_sum([(L_Z, opY), (opZ, L_Y)], base=opB)
                   for opY, opZ, opB in zip(field_ops(Y), field_ops(Z), ops_bracket)]
        if all(d.is_zero() for d in defects):
            continue
        _add_rows(reducer, defects, symbols_fam)

    combos = reducer.nullspace()
    idx = full_indices(k, p)
    out = []
    for combo in combos:
        vec = [0] * len(idx)
        for j, c in enumerate(combo):
            if c != 0:
                bvec = space.basis[j].as_vector(idx)
                vec = [norm_coeff(a + rat(c) * rat(b)) for a, b in zip(vec, bvec)]
        out.append(AnsatzCoefficients.from_vector(k, p, idx, vec))
    return SolutionSpace(n, k, p, out)
