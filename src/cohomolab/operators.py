"""Differential operators with polynomial coefficients on symbol spaces.

A PolyDiffOp is stored in normal form: a sparse sum of terms

    coefficient(x, xi) * d^mu,       mu a multi-index over all ring variables,

with all derivatives to the right of coefficients.  Composition re-expands
through the Leibniz rule, so operator equality is decidable by comparing
term maps.  The ring is any single_ring(m): the bilinear operators of
ansatz live in single_ring(2n), whose variables are (x, y, xi, eta), and
there the xi-degree is the total (xi, eta) degree.

For P = sum p_pi d^pi and A = sum a_mu d^mu the Leibniz rule reads

    P o A = sum over pi, mu and rho <= pi of
            binom(pi, rho) p_pi d^rho(a_mu) d^(pi - rho + mu).

Its rho = 0 terms p_pi a_mu d^(pi + mu) are, term for term, the nu = 0
terms a_mu p_pi d^(mu + pi) of A o P, because the coefficient ring is
commutative.  So the commutator is exactly

    [P, A] = (terms of P o A with |rho| >= 1) - (terms of A o P with |nu| >= 1),

and commutator never forms the products that would cancel.

The expansion runs in one pass over pairs of monomial terms.  Each
operator keeps, in one lazily filled slot, a flat Leibniz table: one entry
per monomial term c x^e d^mu, holding mu and e as packed keys, mu shifted
past the exponent fields, c and the supports of mu and e, each support a
bitmask of the variables with a nonzero entry; the table also keeps the
flat (packed key, c) list of the terms.  A packed key holds a multi-index
of m = ring.nvars entries in W = _WIDTH = 16 bits each, e_i << (W i), and
a term's key is (mu << W m) | e; packing and decoding are interned
(_pack, _unpack), so each distinct tuple is packed once and each key
decoded once per process.  An entry of 2^(W - 1) or more is refused with
ResourceLimitError when it is packed, so a sum of two entries stays below
2^W and never carries into the next field.
A left term c x^e d^pi and a right term c' x^e' d^mu
contribute only for the subsets rho <= min(pi, e'), because
d^rho(x^e') = 0 unless rho <= e'; a cache keyed by (pi, e', lowest order,
m), both packed, lists exactly those, each as the packed offset of
(pi - rho, e' - rho) and its factor binom(pi, rho) falling(e', rho).  So
each product's key is e + (mu << W m) + offset: two integer adds.
At lowest order >= 1 a pair whose pi and e' share no variable has
min(pi, e') = 0 and so no subset to expand; one AND of the two supports,
the only skip test, passes it by before the cache is read.  A left term
with pi = 0 and a right term with e' = 0 have an empty support, so at
lowest order >= 1 every pair with one of them is passed by the same way.
Every product is added straight into one flat {packed key: coefficient}
accumulator, and one decode step (_operator_from_packed) groups it by
derivative, unpacks it and builds each Poly coefficient once.  So a
constant right operand costs its rho = 0 products and nothing else, and
the fields L_X and cocycle values that a cocycle check composes for pair
after pair are flattened and packed once, not once per commutator.  The
products do not depend on the tables, the supports or the cache, and no
packed key leaves this module.
commutator_sum is the one defect kernel: it sums any number of
commutators and a base linear combination of operators, sum_j c_j B_j, in
one such accumulator; a commutator with a zero operand adds nothing and is
skipped.  Both row generators and the identity check pass a rule's value
at a field bracket as that combination over the bracket's monomials, so a
rule is evaluated on monomial fields only.  ansatz.cocycle_defects calls
it once per rule for one field pair, and cocycle_check and the cocycle
filter call that on each pair they walk; the direct solver calls it once
per equivariance defect.  The term budget is checked once per call, on
the larger of the output's surviving derivatives and its largest merged
coefficient's term count; the second stands in for a check on every
coefficient product.  That check compares against the budget its driver
read once (poly.budget_scope), not the environment.

hamiltonian_op builds the Hamiltonian field of a symbol once per Poly
object, as an operator kept in the Poly's _ham slot: lie_derivative_op is
that field of a vector field, and symbols.schouten_bracket,
symbols.hamiltonian_action and module_action apply it.  So a field met in
many pairs is differentiated once, not once per bracket.  The test fields
are one object each per process: the monomial fields and bracket
monomials come from one intern table (ansatz.field_monomials) and the
sl(n+1) generators from one family per n (symbols.sl_generators), so each
of their L_X is built once per process, not once per call.

Term differentiation lives in poly.diff_terms, shared with Poly.diff_multi
and PolyDiffOp.apply (which skips a term whose derivative of p is 0).
ansatz.BilinearOp.operator_for_field takes only the field derivatives that
survive, read from a table of the multi-indices below each field exponent,
and builds through operator_from_sum.  Every sum outside _leibniz goes
through one sparse accumulator, poly.add_scaled_terms: linear_combination
(and so PolyDiffOp + and -, and PolyDiffOp.scale, its one-term case) adds
each coefficient raw into a tuple-keyed accumulator, and commutator_sum's
base adds each operator's flat packed term list in one call; apply adds
its products through poly.add_product, the raw product behind
Poly.__mul__; SymbolMap.from_operator and parse_op add their terms
through it too.  op_str and parse_op write and read
derivative factors with poly.monomial_factors and poly.parse_monomial, the
codec of poly_str and parse_poly.

Operators acting on the finite-dimensional xi-monomial slice of fixed degree
k admit an exact canonical form (SymbolMap below): the xi-part becomes a
matrix over the degree-k exponent simplex while the x-part keeps its faithful
normal form.  Two operators agree as maps on degree-k symbols if and only if
their SymbolMaps are equal, which turns every identity check in this package
into a finite exact comparison rather than a sampled one.

The affine-equivariant maps S_k -> S_ell are the multiples of D^(k - ell);
affine_equivariant_basis returns that closed form, with its proof.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, perm, prod
from operator import add, sub
from typing import Iterable

from .poly import (
    Coeff,
    Exponent,
    Poly,
    ResourceLimitError,
    Ring,
    StructureError,
    add_product,
    add_scaled_terms,
    check_int,
    check_same_ring,
    check_term_budget,
    check_vector_field,
    diff_terms,
    monomial_factors,
    norm_coeff,
    parse_monomial,
    parse_poly,
    poly_str,
    rat,
    single_ring,
    unit_deriv,
)

Deriv = tuple[int, ...]


@lru_cache(maxsize=None, typed=True)
def xi_simplex(n: int, k: int) -> tuple[Exponent, ...]:
    """All exponent tuples in n variables of total degree k, lexicographic.

    One table per (n, k) per process: every call returns the same tuple,
    which no caller can edit.  The cache is typed, so a float or bool n or
    k misses the int entry it compares equal to and reaches the check:
    single_ring(n) checks n.
    """
    single_ring(n)
    combos = combinations_with_replacement(range(n), check_int(k, 0, "the symbol degree"))
    return tuple(sorted(tuple(map(combo.count, range(n))) for combo in combos))


def monomials_up_to(n: int, d: int) -> list[Exponent]:
    """All exponent tuples in n variables of total degree <= d, lexicographic."""
    out: list[Exponent] = []
    for k in range(check_int(d, 0, "the degree bound") + 1):
        out.extend(xi_simplex(n, k))
    return sorted(out)


def falling(v: Exponent, beta: Exponent) -> int:
    """Product of falling factorials v_i (v_i - 1) ... (v_i - beta_i + 1)."""
    return prod(map(perm, v, beta))


@lru_cache(maxsize=None, typed=True)
def _symbol_images(n: int, k: int, beta: Exponent) -> tuple:
    """Triples (v, v - beta, falling(v, beta)) for the v of xi_simplex(n, k) with falling != 0.

    d_xi^beta(xi^v) = falling(v, beta) xi^(v - beta) on S_k, the xi-part of
    SymbolMap.from_operator.  Typed like xi_simplex, so a float or bool n
    or k reaches xi_simplex's check.
    """
    return tuple((v, tuple(map(sub, v, beta)), fac) for v in xi_simplex(n, k)
                 if (fac := falling(v, beta)))


def multi_binom(mu: Deriv, nu: Deriv) -> int:
    return prod(map(comb, mu, nu))


_WIDTH = 16


@lru_cache(maxsize=None)
def _pack(e: Exponent) -> int:
    """sum_i e_i << (_WIDTH i): the packed key of an exponent or derivative, interned.

    An entry of 2^(_WIDTH - 1) or more raises ResourceLimitError naming the
    width, so a sum of two packed keys never carries from one field into
    the next.  Each distinct tuple is packed once per process.
    """
    if any(v >> (_WIDTH - 1) for v in e):
        raise ResourceLimitError(f"multi-index {e} has an entry of at least 2^{_WIDTH - 1},"
                                 f" past the packed width of {_WIDTH} bits per variable")
    return sum(v << (_WIDTH * i) for i, v in enumerate(e))


@lru_cache(maxsize=None)
def _unpack(key: int, m: int) -> Exponent:
    """The m-tuple that _pack packs to key, its fields read as _WIDTH-bit ints; interned."""
    mask = (1 << _WIDTH) - 1
    return tuple((key >> (_WIDTH * i)) & mask for i in range(m))


@lru_cache(maxsize=None)
def _leibniz_survivors(mu: int, e: int, lowest: int, m: int) -> tuple:
    """Pairs (offset, binom(mu, s) falling(e, s)) for s <= min(mu, e), |s| >= lowest.

    mu and e are packed m-tuples (_pack), and offset is the packed key of
    (mu - s, e - s): _pack(mu - s) << (_WIDTH m) plus _pack(e - s).  These
    are the subsets s of the Leibniz rule that survive against the monomial
    x^e: d^s(x^e) = falling(e, s) x^(e - s), and it is 0 unless s <= e,
    since d_i^(s_i) kills x_i^(e_i) once s_i > e_i.  They are ordered by
    (|s|, s).
    """
    mu_t, e_t = _unpack(mu, m), _unpack(e, m)
    subs = sorted((sum(s), s) for s in product(*(range(k + 1) for k in map(min, mu_t, e_t)))
                  if sum(s) >= lowest)
    out = []
    for _, s in subs:
        packed = _pack(s)  # s <= mu and s <= e, so no field borrows
        out.append((((mu - packed) << (_WIDTH * m)) + e - packed,
                    multi_binom(mu_t, s) * falling(e_t, s)))
    return tuple(out)


def _support(e: Exponent) -> int:
    """The bitmask of the variables with a nonzero entry in e."""
    return sum(1 << i for i, m in enumerate(e) if m)


def _leibniz(acc: dict, left: "PolyDiffOp", right: "PolyDiffOp", lowest: int,
             sign: int = 1) -> None:
    """Add sign * (left o right) into the flat packed accumulator acc, by the Leibniz rule.

    acc maps a packed key (derivative << _WIDTH m) | exponent, m the number
    of ring variables, to a coefficient; _operator_from_packed decodes it.
    For left terms f d^mu and right terms g d^nu this adds
    binom(mu, s) f d^s(g) d^(mu - s + nu) for every s <= mu with
    |s| >= lowest, one product of monomial terms at a time, and no
    intermediate Poly is built.  Both operands are read as their flat
    Leibniz tables (PolyDiffOp._leibniz_table), one entry per monomial term
    c x^e d^mu.  A pair of terms expands over its survivors only
    (_leibniz_survivors): the s <= min(mu, e_right), because d^s(x^e) = 0
    unless s <= e.  Each survivor's key is the left exponent plus the
    shifted right derivative, one sum per pair, plus the survivor's packed
    offset: every entry is below 2^(_WIDTH - 1) (_pack), so no sum carries.
    At lowest >= 1 a pair whose mu and e_right share no variable has
    min(mu, e_right) = 0 and no survivor; the AND of the two support
    bitmasks in the tables is the one skip test, made per pair before the
    survivor cache is read.  It skips every pair with a left term of order
    0 or a right term of degree 0, whose support is 0, so no operand or
    term has a test of its own.  A pair that passes it at lowest 0 or 1 has
    a survivor (the empty subset at 0, s = e_i for a shared variable i at
    1), and a survivor list that is empty at any lowest adds nothing.

    It keeps its own add-and-drop loop, the one outside
    poly.add_scaled_terms: each product lands at its own key, so a shared
    call here would cost one call per product, on the hottest loop of the
    package.
    """
    rights = right._leibniz_table()[0]
    m = left.ring.nvars
    for mu, fe, _, fc, mu_vars, _ in left._leibniz_table()[0]:
        if sign < 0:
            fc = -fc
        for _, ge, nu_shifted, gc, _, e_vars in rights:
            if lowest and not mu_vars & e_vars:
                continue
            c = fc * gc
            pair = fe + nu_shifted
            for offset, b in _leibniz_survivors(mu, ge, lowest, m):
                key = pair + offset
                # most factors are 1, and c may be a Fraction
                s = acc.get(key, 0) + (c if b == 1 else c * b)
                if s:
                    acc[key] = s
                else:
                    del acc[key]


def _operator_from_packed(ring: Ring, acc: dict) -> "PolyDiffOp":
    """The operator of a flat packed accumulator {key: coefficient}, after one budget check.

    The one decode step of compose and commutator_sum: one pass groups the
    keys by derivative, unpacks each exponent and normalizes each
    coefficient, and then each Poly is built once.  The term budget is
    checked on the larger of the number of surviving derivatives and the
    term count of the largest surviving coefficient, as operator_from_sum
    checks a tuple accumulator.

    An empty accumulator, a sum that cancelled, is the zero operator at
    once, with no grouping pass and no budget check: zero terms never
    exceed a budget, which is at least 1.  So outside every budget scope a
    zero result no longer reads COHOMOLAB_MAX_TERMS; every scoped driver
    still refuses a malformed value as it is entered (poly.budget_scope).
    """
    if not acc:
        return PolyDiffOp.zero(ring)
    m = ring.nvars
    shift = _WIDTH * m
    mask = (1 << shift) - 1
    grouped: dict = {}
    for key, c in acc.items():
        terms = grouped.get(key >> shift)
        if terms is None:
            terms = grouped[key >> shift] = {}
        terms[_unpack(key & mask, m)] = norm_coeff(c)
    check_term_budget(max(len(grouped), max(map(len, grouped.values()), default=0)),
                      "terms of an operator or of its largest coefficient")
    return PolyDiffOp(ring, {_unpack(mu, m): Poly(ring, terms, _clean=True)
                             for mu, terms in grouped.items()}, _clean=True)


def operator_from_sum(ring: Ring, acc: dict) -> "PolyDiffOp":
    """The operator of a raw accumulator {mu: {exponent: coefficient}}, after one budget check.

    The last step of linear_combination, parse_op and
    ansatz.BilinearOp.operator_for_field: the coefficients are normalized
    and empty ones dropped.  The term-budget check is on the larger of the
    operator's surviving term count (its non-empty coefficients, as
    _operator_from_packed counts them) and the term count of its largest
    merged coefficient; the second stands in for the per-product checks
    that a Poly product would make.
    """
    check_term_budget(max(sum(1 for terms in acc.values() if terms),
                          max(map(len, acc.values()), default=0)),
                      "terms of an operator or of its largest coefficient")
    return PolyDiffOp(ring, {mu: Poly(ring, {e: norm_coeff(c) for e, c in terms.items()},
                                      _clean=True)
                             for mu, terms in acc.items() if terms}, _clean=True)


class PolyDiffOp:
    """A differential operator in normal form with Poly coefficients."""

    __slots__ = ("ring", "terms", "_table")

    def __init__(self, ring: Ring, terms: dict[Deriv, Poly], *, _clean: bool = False):
        self.ring = ring
        self._table = None
        if _clean:
            self.terms = terms
        else:
            clean: dict[Deriv, Poly] = {}
            for mu, coeff in terms.items():
                mu = ring.exponent(mu)
                check_same_ring(ring, coeff.ring)
                if not coeff.is_zero():
                    clean[mu] = coeff
            self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "PolyDiffOp":
        return PolyDiffOp(ring, {}, _clean=True)

    @staticmethod
    def identity(ring: Ring) -> "PolyDiffOp":
        return PolyDiffOp(ring, {(0,) * ring.nvars: Poly.constant(ring, 1)}, _clean=True)

    @staticmethod
    def derivative(ring: Ring, var: int) -> "PolyDiffOp":
        return PolyDiffOp(ring, {unit_deriv(ring, var): Poly.constant(ring, 1)},
                          _clean=True)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyDiffOp):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def order(self) -> int:
        return max((sum(mu) for mu in self.terms), default=0)

    def _leibniz_table(self) -> tuple:
        """(entries, flat): the operator as _leibniz and commutator_sum read it.

        One entry per monomial term c x^e d^mu: (_pack(mu), _pack(e),
        _pack(mu) << (_WIDTH m), c, _support(mu), _support(e)), m the number
        of ring variables, and flat the (packed key, c) list of the terms,
        the key as in _leibniz.  Built on first use and kept for the
        operator's life, so an operator composed or summed many times (a
        cached L_X, cocycle value or rule value) is flattened and packed
        once, supports included.  An entry past the packed width raises
        ResourceLimitError (_pack).
        """
        if self._table is None:
            shift = _WIDTH * self.ring.nvars
            entries = []
            for mu, g in self.terms.items():
                packed_mu = _pack(mu)
                mu_shifted, mu_vars = packed_mu << shift, _support(mu)
                for e, c in g.terms.items():
                    entries.append((packed_mu, _pack(e), mu_shifted, c, mu_vars, _support(e)))
            self._table = entries, [(t[2] + t[1], t[3]) for t in entries]
        return self._table

    def __add__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return linear_combination(self.ring, [self, other], [1, 1])

    def __sub__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return linear_combination(self.ring, [self, other], [1, -1])

    def __neg__(self) -> "PolyDiffOp":
        return self.scale(-1)

    def scale(self, c) -> "PolyDiffOp":
        """c * self, as the one-term linear_combination."""
        return linear_combination(self.ring, [self], [c])

    # -- action and composition ----------------------------------------------

    def apply(self, p: Poly) -> Poly:
        """Apply the operator to p: the sum of a_mu * d^mu(p) over its terms, in one pass.

        The terms of each d^mu(p) (poly.diff_terms) are multiplied by a_mu
        straight into a single accumulator (poly.add_product), with no
        intermediate derivative or product polynomial; a term with
        d^mu(p) = 0 is skipped.  The term budget is checked once, on the
        merged sum, as compose and commutator do.
        """
        check_same_ring(self.ring, p.ring)
        acc: dict[Exponent, Coeff] = {}
        pterms = p.terms.items()
        for mu, coeff in self.terms.items():
            if dp := diff_terms(pterms, mu):
                add_product(acc, coeff.terms.items(), dp)
        check_term_budget(len(acc), "terms of an operator's value")
        return Poly(self.ring,
                    {e: norm_coeff(c) for e, c in acc.items()}, _clean=True)

    def compose(self, other: "PolyDiffOp") -> "PolyDiffOp":
        """Normal form of self o other via the Leibniz expansion."""
        check_same_ring(self.ring, other.ring)
        acc: dict = {}
        _leibniz(acc, self, other, 0)
        return _operator_from_packed(self.ring, acc)

    def commutator(self, other: "PolyDiffOp") -> "PolyDiffOp":
        """Normal form of self o other - other o self, without the cancelling products."""
        return commutator_sum([(self, other)])

    def power(self, k: int) -> "PolyDiffOp":
        out = PolyDiffOp.identity(self.ring)
        for _ in range(check_int(k, 0, "the power")):
            out = out.compose(self)
        return out

    # -- canonical form on a fixed symbol degree ------------------------------

    def symbol_map(self, k: int) -> "SymbolMap":
        return SymbolMap.from_operator(self, k)

    def __repr__(self) -> str:
        return f"PolyDiffOp({op_str(self)})"


def commutator_sum(pairs: list[tuple[PolyDiffOp, PolyDiffOp]],
                   base: Iterable[tuple[Coeff, PolyDiffOp]] = ()) -> PolyDiffOp:
    """Normal form of sum_j c_j B_j + sum_i [P_i, A_i], in one flat packed accumulator.

    base is a linear combination of operators, (c_j, B_j) pairs with c_j
    nonzero; each B_j adds its flat packed term list (PolyDiffOp.
    _leibniz_table) scaled by c_j through one poly.add_scaled_terms call, so
    a combination that cancels leaves nothing behind, and a rule value met
    on pair after pair is packed once.  The subset-0 Leibniz terms
    f g d^(mu + nu) of P o A and A o P are equal, so each commutator
    expands only the subsets of order at least 1 (_leibniz), and a
    commutator with a zero operand, checked for its ring, is skipped.
    Every product of terms lands in the same accumulator, and
    _operator_from_packed decodes it in one pass, under one term-budget
    check on the surviving derivatives and the largest surviving
    coefficient: a derivative all of whose terms cancel is not counted.
    pairs must not be empty: the ring is its first operator's, and every
    operator must share it.
    """
    ring = pairs[0][0].ring
    acc: dict = {}
    for c, B in base:
        check_same_ring(ring, B.ring)
        add_scaled_terms(acc, B._leibniz_table()[1], c)
    for P, A in pairs:
        check_same_ring(ring, P.ring)
        check_same_ring(ring, A.ring)
        if P.terms and A.terms:
            _leibniz(acc, P, A, 1)
            _leibniz(acc, A, P, 1, sign=-1)
    return _operator_from_packed(ring, acc)


class SymbolMap:
    """Exact canonical form of an operator restricted to degree-k symbols.

    Entries map (v, w, alpha, a) -> coefficient, encoding the rule

        x^u xi^v  |->  sum  coeff * x^a * d^alpha(x^u) * xi^w .

    The x-part keeps its faithful normal form (a, alpha); the xi-part is a
    matrix over the exponent simplices.  Equality of SymbolMaps is equality
    of the underlying maps on all symbols of degree k.
    """

    __slots__ = ("n", "k", "entries")

    def __init__(self, n: int, k: int, entries: dict):
        self.n = n
        self.k = k
        self.entries = entries

    @staticmethod
    def from_operator(op: PolyDiffOp, k: int) -> "SymbolMap":
        """The canonical form of op on S_k; an entry that sums to 0 is dropped.

        Each derivative part d_xi^beta reads its images on S_k, the
        (v, v - beta, falling(v, beta)) with falling != 0, from one table,
        _symbol_images(n, k, beta), built once per (n, k, beta); a part
        with no image on S_k (|beta| > k) is skipped.  The zero operator is
        the empty map, after the same degree check.
        """
        n = op.ring.n
        if not op.terms:
            xi_simplex(n, k)  # the degree check _symbol_images makes on a nonzero operator
            return SymbolMap(n, k, {})
        entries: dict = {}
        for mu, coeff in op.terms.items():
            alpha, beta = mu[:n], mu[n:]
            images = _symbol_images(n, k, beta)
            if not images:
                continue
            for exp, c in coeff.terms.items():
                a, b = exp[:n], exp[n:]
                add_scaled_terms(entries, [((v, tuple(map(add, v_beta, b)), alpha, a), fac)
                                           for v, v_beta, fac in images], c)
        return SymbolMap(n, k, {key: norm_coeff(c) for key, c in entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolMap):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k) and self.entries == other.entries


def op_str(op: PolyDiffOp) -> str:
    """Canonical operator text: '(coeff) * dx1 * dxi2^2' terms in derivative order."""
    if not op.terms:
        return "(0)"
    return " + ".join(" * ".join([f"({poly_str(op.terms[mu])})",
                                  *monomial_factors(op.ring, mu, "d")])
                      for mu in sorted(op.terms))


def parse_op(ring: Ring, text: str) -> PolyDiffOp:
    """Parse the canonical operator text form produced by op_str.

    Malformed text raises StructureError.  Each term is added raw into one
    {mu: {exponent: coefficient}} accumulator, so a repeated derivative sums
    and a term that cancels leaves nothing; operator_from_sum builds the operator.
    """
    acc: dict = {}
    for part in text.split(" + ("):
        part = part.strip()
        if not part.startswith("("):
            part = "(" + part
        close = part.rfind(")")
        if close < 0:
            raise StructureError(f"no closing parenthesis in operator text {text!r}")
        coeff = parse_poly(ring, part[1:close])
        factors = [f.strip() for f in part[close + 1:].split("*")]
        key = parse_monomial(ring, filter(None, factors), "d")
        add_scaled_terms(acc.setdefault(key, {}), coeff.terms.items(), 1)
    return operator_from_sum(ring, acc)


# -- standard operators ------------------------------------------------------


def euler_diffop(ring: Ring) -> PolyDiffOp:
    """E = xi_i d/dxi_i as a normal-form operator."""
    return PolyDiffOp(ring, {unit_deriv(ring, ring.xi(i)): Poly.variable(ring, ring.xi(i))
                             for i in range(ring.n)})


def divergence_diffop(ring: Ring) -> PolyDiffOp:
    """D = (d/dx^i)(d/dxi_i) as a normal-form operator."""
    one = Poly.constant(ring, 1)
    return PolyDiffOp(ring, {unit_deriv(ring, ring.x(i), ring.xi(i)): one
                             for i in range(ring.n)})


def hamiltonian_op(f: Poly) -> PolyDiffOp:
    """The Hamiltonian field (df/dxi_i) d/dx^i - (df/dx^i) d/dxi_i of a symbol.

    The operator is built on the first call and kept in f's _ham slot, so
    every later call on the same Poly object returns that same operator,
    Leibniz table included: L_X and every bracket {X, .} share one build.
    The slot lives as long as f.  Its cost is one operator of at most 2n
    terms, each a derivative of f, plus its flat Leibniz table once a
    product reads it; a Poly never passed here pays one None.
    """
    if f._ham is not None:
        return f._ham
    ring = f.ring
    terms: dict[Deriv, Poly] = {}
    for i in range(ring.n):
        cx = f.diff(ring.xi(i))
        if not cx.is_zero():
            terms[unit_deriv(ring, ring.x(i))] = cx
        cxi = f.diff(ring.x(i))
        if not cxi.is_zero():
            terms[unit_deriv(ring, ring.xi(i))] = -cxi
    f._ham = PolyDiffOp(ring, terms, _clean=True)
    return f._ham


def lie_derivative_op(X: Poly) -> PolyDiffOp:
    """The Hamiltonian vector field of a degree-1 symbol, as an operator."""
    check_vector_field(X)
    return hamiltonian_op(X)


def linear_combination(ring: Ring, ops: list[PolyDiffOp], weights) -> PolyDiffOp:
    """sum_j weights[j] * ops[j], in one raw accumulator; a zero weight adds nothing.

    Each weight is read by poly.rat, each coefficient of each operator is
    added raw into a {mu: {exponent: coefficient}} accumulator through
    poly.add_scaled_terms, and the sum becomes an operator through
    operator_from_sum, under one term-budget check.  A one-shot sum reads
    no Leibniz table, so nothing is packed.
    """
    acc: dict = {}
    for op, w in zip(ops, weights):
        if c := rat(w):
            check_same_ring(ring, op.ring)
            for mu, coeff in op.terms.items():
                add_scaled_terms(acc.setdefault(mu, {}), coeff.terms.items(), c)
    return operator_from_sum(ring, acc)


def module_action(X: Poly, A: PolyDiffOp) -> PolyDiffOp:
    """The vector-field action X.A = L_X o A - A o L_X on operators.

    commutator_sum checks that A shares X's ring.
    """
    return lie_derivative_op(X).commutator(A)


def affine_equivariant_basis(n: int, k: int, ell: int) -> list[PolyDiffOp]:
    """Basis of the affine-equivariant operators S_k -> S_ell: [D^(k - ell)], or [] if ell > k.

    Proof: translations act as d/dx^i, so an equivariant operator has
    x-constant coefficients, a polynomial in xi, d_x (vectors under the
    linear fields) and d_xi (covectors).  By the first fundamental theorem
    for gl(n), where the Euler field forces as many vector as covector
    slots, it is then a polynomial in E = xi_i d/dxi_i and
    D = d/dx^i d/dxi_i.  E is the scalar k on S_k, so every equivariant map
    S_k -> S_ell is c D^(k - ell), and 0 if ell > k.  A term
    xi^b d_x^alpha d_xi^beta of such a map has |beta| = |b| + k - ell, and
    D^(k - ell) sends x_1^(k - ell) xi_1^k to a nonzero x-free value, which
    needs a term with |alpha| = k - ell: so every representative has order
    >= 2(k - ell), the order of D^(k - ell).  No bound on the order could
    therefore shrink the basis without emptying it, and the basis is the
    complete affine candidate space at every order.
    """
    ring = single_ring(n)  # checked before the empty answer too
    if check_int(ell, 0, "the target degree ell") > check_int(k, 0, "the symbol degree k"):
        return []
    return [divergence_diffop(ring).power(k - ell)]
