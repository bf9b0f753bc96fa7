"""The exact fast paths of the operator kernels, against their definitions.

_leibniz skips a term pair whose derivative and exponent supports are
disjoint, commutator_sum a commutator with a zero operand, apply a term
whose derivative of p is 0, SymbolMap.from_operator reads its xi-images from
a table, and BilinearOp.operator_for_field takes only the field
derivatives that survive, by looking up the parts s <= e of each field
term x^e.  compose and commutator_sum add every product at a packed integer
key, _WIDTH bits per variable, and refuse an entry that could carry from
one field into the next.
Each answer must equal the definition's: exact_helpers.leibniz_reference,
the Leibniz sum over every s <= mu, and exact_helpers.symbol_map_reference,
the canonical form with falling(v, beta) computed term by term.
"""

import random
from fractions import Fraction
from math import comb
from operator import add

import pytest

from cohomolab import operators
from cohomolab.ansatz import AnsatzCoefficients, build_bilinear
from cohomolab.cocycles import second_class_coefficients
from cohomolab.operators import PolyDiffOp, commutator_sum, lie_derivative_op
from cohomolab.poly import Poly, ResourceLimitError, StructureError, single_ring

from exact_helpers import bilinear_value, leibniz_reference, symbol_map_reference
from plane_ring import R2, x, xi
from property_suite import _random_field, _random_op, _random_poly, _random_symbol

R3 = single_ring(3)


def commutator_reference(P, A):
    return leibniz_reference(P, A) - leibniz_reference(A, P)


def apply_reference(A, p):
    """A.apply(p) as the d^0 part of A o p: only s = mu leaves no derivative."""
    ring = A.ring
    composed = leibniz_reference(A, PolyDiffOp(ring, {(0,) * ring.nvars: p}))
    return composed.terms.get((0,) * ring.nvars, Poly.zero(ring))


def field_operator_reference(C, X):
    """C(X, .) by its definition.

    Each term c dx^a dy^g dxi^b deta^h of C's operator adds c d^a d^b X at
    dx^g dxi^h.
    """
    n = C.n
    terms = {}
    for mu, coeff in C.op.terms.items():
        a_b, g_h = mu[:n] + mu[2 * n:3 * n], mu[n:2 * n] + mu[3 * n:]
        term = X.diff_multi(a_b).scale(coeff.terms[(0,) * 4 * n])
        terms[g_h] = terms.get(g_h, Poly.zero(X.ring)) + term
    return PolyDiffOp(X.ring, terms)


def test_compose_and_commutator_sum_match_the_leibniz_definition():
    rng = random.Random(4401)
    for ring in (R2, R3):
        for _ in range(60):
            P, A, B = (_random_op(rng, ring) for _ in range(3))
            L = lie_derivative_op(_random_field(rng, ring))
            assert P.compose(A) == leibniz_reference(P, A)
            assert L.compose(A) == leibniz_reference(L, A)
            c = rng.randint(-3, 3) or 1
            expected = B.scale(c) + commutator_reference(P, A) + commutator_reference(L, P)
            assert commutator_sum([(P, A), (L, P)], base=[(c, B)]) == expected


def test_apply_matches_the_leibniz_definition():
    rng = random.Random(4402)
    for ring in (R2, R3):
        for _ in range(60):
            A = _random_op(rng, ring)
            p = _random_poly(rng, ring, max_degree=4)
            assert A.apply(p) == apply_reference(A, p)
    # d_x2^2 and d_x1 kill x2 xi1, and only d_xi1 leaves it nonzero; all
    # three kill xi2
    A = PolyDiffOp(R2, {(0, 2, 0, 0): x(0), (1, 0, 0, 0): xi(1), (0, 0, 1, 0): x(1)})
    p = x(1) * xi(0)
    assert A.apply(p) == apply_reference(A, p) == x(1) * x(1)
    assert A.apply(xi(1)).is_zero() and apply_reference(A, xi(1)).is_zero()


def test_symbol_map_matches_the_falling_factorial_definition():
    rng = random.Random(4403)
    for ring in (R2, R3):
        for _ in range(60):
            A = _random_op(rng, ring)
            for k in range(5):
                assert A.symbol_map(k).entries == symbol_map_reference(A, k)


def test_operator_for_field_matches_its_definition():
    rng = random.Random(4404)
    lines = [(2, second_class_coefficients(2, 3)), (3, second_class_coefficients(3, 4)),
             (2, AnsatzCoefficients(3, 1, alpha={1: 1, 2: Fraction(1, 2)}, gamma={1: -3}))]
    for n, coeffs in lines:
        C = build_bilinear(coeffs, n)
        ring = single_ring(n)
        for _ in range(15):
            X = _random_field(rng, ring)
            op = C.operator_for_field(X)
            assert op == field_operator_reference(C, X)
            P = _random_symbol(rng, ring, coeffs.k)
            assert op.apply(P) == bilinear_value(C, X, P)


def _fraction_field(rng, ring, degrees):
    """A sum of monomial fields x^u xi_m with |u| in degrees, each with a Fraction coefficient."""
    X = Poly.zero(ring)
    for d in degrees:
        exp = [0] * ring.nvars
        for _ in range(d):
            exp[ring.x(rng.randrange(ring.n))] += 1
        exp[ring.xi(rng.randrange(ring.n))] += 1
        X = X + Poly.monomial(ring, tuple(exp), Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                                         rng.randint(2, 7)))
    return X


def test_operator_for_field_part_lookup_matches_its_definition():
    # the part lookup on fields of several terms with Fraction coefficients,
    # on the zero field and on fields whose degree is above every part order,
    # at n = 2 and 3; the c1 line has the beta part Dxxi Dxeta, which
    # takes a xi-derivative of the field
    rng = random.Random(4406)
    lines = [(2, second_class_coefficients(2, 3)), (3, second_class_coefficients(3, 3)),
             (2, AnsatzCoefficients(3, 1, alpha={2: 2}, beta={2: Fraction(-4, 3)})),
             (3, AnsatzCoefficients(2, 1, alpha={1: 1, 2: Fraction(1, 2)}, gamma={0: 2}))]
    for n, coeffs in lines:
        C = build_bilinear(coeffs, n)
        top = max(map(sum, C.parts))
        ring = single_ring(n)
        zero = Poly.zero(ring)
        assert C.operator_for_field(zero).is_zero()
        assert field_operator_reference(C, zero).is_zero()
        for _ in range(8):
            X = _fraction_field(rng, ring, [rng.randint(0, 3) for _ in range(rng.randint(2, 4))])
            assert len(X.terms) >= 2
            assert C.operator_for_field(X) == field_operator_reference(C, X)
            high = _fraction_field(rng, ring, [top + rng.randint(0, 2)
                                               for _ in range(rng.randint(1, 3))])
            assert high.total_degree() > top
            op = C.operator_for_field(high)
            assert op == field_operator_reference(C, high)
            P = _random_symbol(rng, ring, coeffs.k)
            assert op.apply(P) == bilinear_value(C, high, P)


def test_disjoint_supports_read_no_survivors(monkeypatch):
    # d_x1 and x2 d_x1 share no variable between derivative and exponent,
    # so they commute, and a commutator never asks for their survivors
    asked = []
    survivors = operators._leibniz_survivors

    def recording(mu, e, lowest, m):
        # the survivors are keyed by packed multi-indices: record them as tuples
        asked.append((operators._unpack(mu, m), operators._unpack(e, m), lowest))
        return survivors(mu, e, lowest, m)

    monkeypatch.setattr(operators, "_leibniz_survivors", recording)
    D1 = PolyDiffOp.derivative(R2, 0)
    A = PolyDiffOp(R2, {(1, 0, 0, 0): x(1)})
    assert D1.commutator(A).is_zero() and commutator_reference(D1, A).is_zero()
    assert not asked
    # composition keeps s = 0, so the survivors are still read there
    assert D1.compose(A) == leibniz_reference(D1, A) == PolyDiffOp(R2, {(2, 0, 0, 0): x(1)})
    assert asked == [((1, 0, 0, 0), (0, 1, 0, 0), 0)]
    # d_x1 + d_x2 against x2 d_x1: only the d_x2 term meets x2
    asked.clear()
    P = PolyDiffOp(R2, {(1, 0, 0, 0): Poly.constant(R2, 1), (0, 1, 0, 0): Poly.constant(R2, 1)})
    assert P.commutator(A) == commutator_reference(P, A) == D1
    assert asked == [((0, 1, 0, 0), (0, 1, 0, 0), 1)]


def test_a_zero_operand_adds_nothing_on_either_side():
    rng = random.Random(4405)
    Z = PolyDiffOp.zero(R2)
    for _ in range(20):
        A, B = _random_op(rng, R2), _random_op(rng, R2)
        for pair in ((Z, A), (A, Z), (Z, Z)):
            assert commutator_sum([pair], base=[(2, B)]) == B.scale(2)
            assert commutator_sum([pair, (A, B)]) == commutator_reference(A, B)
        assert Z.compose(A).is_zero() and A.compose(Z).is_zero()
        assert Z.apply(_random_poly(rng, R2)).is_zero()
    # the ring check comes before the skip
    for pair in ((PolyDiffOp.zero(R3), Z), (Z, PolyDiffOp.zero(R3))):
        with pytest.raises(StructureError):
            commutator_sum([pair])


def test_a_derivative_that_kills_all_of_s_k_adds_no_entry():
    # falling(v, (3, 0)) = 0 for every v of degree 2, and falling(v, (1, 2)) too
    for beta in ((3, 0), (1, 2)):
        D = PolyDiffOp(R2, {(0, 0) + beta: x(0) * xi(1)})
        assert D.symbol_map(2).is_zero() and symbol_map_reference(D, 2) == {}
        A = D + PolyDiffOp(R2, {(1, 0, 0, 1): xi(0)})
        assert A.symbol_map(2).entries == symbol_map_reference(A, 2) != {}
        assert D.symbol_map(3).entries == symbol_map_reference(D, 3) != {}
    assert PolyDiffOp.zero(R2).symbol_map(2).is_zero()


def monomial_op(ring, terms):
    """The operator sum c x^e d^mu over (mu, e, c) triples."""
    return PolyDiffOp(ring, {mu: Poly.monomial(ring, e, c) for mu, e, c in terms})


def test_entries_at_the_packed_width_compose_and_commute_exactly():
    # the largest packable entry, in exponents and derivatives: sums of two
    # reach 2^W - 2 in a field, and nothing carries into the next.
    # leibniz_reference sums comb(mu, s) over every s <= mu, too slow at a
    # derivative entry of 2^(W - 1) - 1, so its left operands keep small
    # derivatives, and the products with H on the left are written out
    # term by term from the Leibniz rule
    top = 2 ** (operators._WIDTH - 1) - 1
    P = monomial_op(R2, [((1, 0, 0, 0), (top, 0, 0, 1), 1),
                         ((0, 0, 0, 2), (0, 2, top, 0), Fraction(3, 2))])
    A = monomial_op(R2, [((0, 0, 0, 1), (0, 1, 0, top), -2),
                         ((1, 0, 0, 0), (1, 0, 0, 0), 1)])
    H = monomial_op(R2, [((0, top, 0, top), (top, 2, top, 0), 1)])
    ops = {"P": P, "A": A, "H": H}
    reference = {(left, right): leibniz_reference(ops[left], ops[right])
                 for left in "PA" for right in "PAH"}
    for (left, right), composed in reference.items():
        assert ops[left].compose(ops[right]) == composed
        if right != "H":
            assert ops[left].commutator(ops[right]) == composed - reference[right, left]
    assert P.compose(P).terms[(2, 0, 0, 0)] == Poly.monomial(R2, (2 * top, 0, 0, 2))
    assert A.compose(A).terms[(0, 0, 0, 2)] == Poly.monomial(R2, (0, 2, 0, 2 * top), 4)
    pair = comb(top, 2)
    assert H.compose(H) == monomial_op(R2, [
        ((0, 2 * top, 0, 2 * top), (2 * top, 4, 2 * top, 0), 1),
        ((0, 2 * top - 1, 0, 2 * top), (2 * top, 3, 2 * top, 0), 2 * top),
        ((0, 2 * top - 2, 0, 2 * top), (2 * top, 2, 2 * top, 0), 2 * pair)])
    H_P = monomial_op(R2, [
        ((1, top, 0, top), (2 * top, 2, top, 1), 1),
        ((1, top, 0, top - 1), (2 * top, 2, top, 0), top),
        ((0, top, 0, top + 2), (top, 4, 2 * top, 0), Fraction(3, 2)),
        ((0, top - 1, 0, top + 2), (top, 3, 2 * top, 0), 3 * top),
        ((0, top - 2, 0, top + 2), (top, 2, 2 * top, 0), 3 * pair)])
    assert H.compose(P) == H_P
    assert H.commutator(P) == H_P - reference["P", "H"]
    assert commutator_sum([(P, A), (H, P)], base=[(2, P), (-1, H)]) == (
        P.scale(2) - H + reference["P", "A"] - reference["A", "P"] + H_P - reference["P", "H"])


def test_an_entry_past_the_packed_width_is_refused():
    width = operators._WIDTH
    past = 2 ** (width - 1)
    I = PolyDiffOp.identity(R2)
    high_exponent = monomial_op(R2, [((1, 0, 0, 0), (0, past, 0, 0), 1)])
    high_derivative = monomial_op(R2, [((0, 0, past, 0), (1, 0, 0, 0), 1)])
    for op in (high_exponent, high_derivative):
        for run in (lambda: op.compose(I), lambda: I.compose(op),
                    lambda: op.commutator(high_exponent),
                    lambda: commutator_sum([(I, I)], [(1, op)])):
            with pytest.raises(ResourceLimitError, match=f"packed width of {width} bits"):
                run()
    # a product whose entries reach past the width is exact, and refused
    # when it is composed again: x2^k d_xi1^k o x2^k d_xi1^k = x2^2k d_xi1^2k,
    # since d_xi1 does not touch x2
    below = monomial_op(R2, [((0, 0, past - 1, 0), (0, past - 1, 0, 0), 1)])
    square = below.compose(below)
    assert square == monomial_op(R2, [((0, 0, 2 * past - 2, 0), (0, 2 * past - 2, 0, 0), 1)])
    with pytest.raises(ResourceLimitError, match=f"packed width of {width} bits"):
        square.compose(I)


def test_packing_round_trips_and_a_sum_of_keys_never_carries():
    rng = random.Random(4701)
    top = 2 ** (operators._WIDTH - 1) - 1
    for m in (4, 6, 8):
        for _ in range(40):
            t, u = (tuple(rng.choice((0, 1, rng.randint(0, top), top)) for _ in range(m))
                    for _ in range(2))
            assert operators._unpack(operators._pack(t), m) == t
            assert (operators._unpack(operators._pack(t) + operators._pack(u), m)
                    == tuple(map(add, t, u)))


def test_derivatives_that_cancel_are_not_counted_by_the_term_budget(monkeypatch):
    P = monomial_op(R2, [((1, 0, 0, 0), (0, 1, 0, 1), 1), ((0, 0, 1, 0), (2, 0, 0, 0), 3)])
    A = monomial_op(R2, [((0, 1, 0, 0), (1, 0, 1, 0), 1), ((0, 0, 0, 1), (0, 2, 0, 0), -1)])
    bracket = P.commutator(A)
    assert len(bracket.terms) > 1
    assert max(len(c.terms) for c in bracket.terms.values()) >= 1
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "1")
    # every derivative key of the sum cancels: the zero operator, under a
    # budget of one term
    assert commutator_sum([(P, A)], base=[(-1, bracket)]).is_zero()
    assert commutator_sum([(P, A), (A, P)]).is_zero()
    B = monomial_op(R2, [((1, 0, 0, 0), (0, 1, 0, 0), 1), ((0, 1, 0, 0), (1, 0, 0, 0), 2),
                         ((0, 0, 1, 0), (0, 0, 0, 0), 5)])
    assert commutator_sum([(P, A)], base=[(-1, bracket), (1, B), (-1, B)]).is_zero()
    # one surviving derivative of one term is within the budget, two are not
    one = monomial_op(R2, [((1, 0, 0, 0), (0, 1, 0, 0), 1)])
    assert commutator_sum([(P, A)], base=[(-1, bracket), (1, B), (-1, B), (1, one)]) == one
    two = monomial_op(R2, [((0, 1, 0, 0), (1, 0, 0, 0), 2)])
    with pytest.raises(ResourceLimitError, match="^2 terms of an operator or of its largest"):
        commutator_sum([(P, A)], base=[(-1, bracket), (1, one), (1, two)])
