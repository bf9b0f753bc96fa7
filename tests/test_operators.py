import pickle
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from cohomolab import operators
from cohomolab.ansatz import ansatz_term_op, build_bilinear
from cohomolab.cocycles import second_class_coefficients
from cohomolab.poly import Poly, ResourceLimitError, StructureError, single_ring
from cohomolab.operators import (
    PolyDiffOp,
    affine_equivariant_basis,
    commutator_sum,
    divergence_diffop,
    euler_diffop,
    hamiltonian_op,
    lie_derivative_op,
    linear_combination,
    module_action,
    monomials_up_to,
    op_str,
    parse_op,
    xi_simplex,
)
from cohomolab.symbols import schouten_bracket, sl_generators

from affine_oracle import affine_basis_by_elimination
from exact_helpers import divergence_reference, leibniz_reference, normalized
from plane_ring import R2, x, xi

R3 = single_ring(3)


def random_op(rng, ring, max_order=2, max_coeff_degree=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mu = [0] * ring.nvars
        for _ in range(rng.randint(0, max_order)):
            mu[rng.randrange(ring.nvars)] += 1
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_coeff_degree)):
            exp[rng.randrange(ring.nvars)] += 1
        coeff = Poly.monomial(ring, tuple(exp), rng.randint(-5, 5))
        key = tuple(mu)
        terms[key] = terms.get(key, Poly.zero(ring)) + coeff
    return PolyDiffOp(ring, terms)


def random_poly(rng, ring, max_degree=4):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = rng.randint(-7, 7)
    return Poly(ring, terms)


def test_identity_application():
    rng = random.Random(1)
    A = PolyDiffOp.identity(R2)
    for _ in range(10):
        p = random_poly(rng, R2)
        assert A.apply(p) == p


def apply_reference(A, p):
    # sum over mu of a_mu * d^mu(p), through diff_multi and Poly products
    out = Poly.zero(A.ring)
    for mu, coeff in A.terms.items():
        out = out + coeff * p.diff_multi(mu)
    return out


def test_apply_matches_diff_multi_reference():
    rng = random.Random(23)
    for ring in (R2, R3, single_ring(4)):
        for _ in range(40):
            A = random_op(rng, ring, max_order=3, max_coeff_degree=2)
            A = PolyDiffOp(ring, {mu: c.scale(Fraction(rng.randint(1, 5), rng.randint(1, 7)))
                                  for mu, c in A.terms.items()})
            p = random_poly(rng, ring).scale(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            assert A.apply(p) == apply_reference(A, p)
        p = random_poly(rng, ring)
        assert PolyDiffOp.zero(ring).apply(p).is_zero()
        assert PolyDiffOp.identity(ring).apply(p) == p


def test_apply_cancels_across_terms():
    # (E - k) kills xi-degree-k symbols; x1 d_x1 - x2 d_x2 kills x1 x2
    rng = random.Random(24)
    for ring in (R2, R3):
        for k in range(4):
            A = euler_diffop(ring) - PolyDiffOp.identity(ring).scale(Fraction(k))
            for _ in range(5):
                p = Poly.zero(ring)
                for _ in range(3):
                    exp = [0] * ring.nvars
                    for _ in range(rng.randint(0, 3)):
                        exp[ring.x(rng.randrange(ring.n))] += 1
                    for _ in range(k):
                        exp[ring.xi(rng.randrange(ring.n))] += 1
                    p = p + Poly.monomial(ring, tuple(exp), Fraction(rng.randint(1, 9), 4))
                assert apply_reference(A, p).is_zero()
                assert A.apply(p).is_zero()
                # on xi-degree k + 1, E - k is the identity: (k + 1) c - k c
                # merges to c, normalized
                q = Poly.monomial(ring, (0,) * ring.n + (k + 1,) + (0,) * (ring.n - 1),
                                  Fraction(rng.randint(1, 9), 4))
                value = A.apply(p + q)
                assert value == q and normalized(value.terms.values())
    A = PolyDiffOp(R2, {(1, 0, 0, 0): x(0), (0, 1, 0, 0): -x(1)})
    assert A.apply(x(0) * x(1)).is_zero()
    # two halves merge into the int 1
    half = Poly.constant(R2, Fraction(1, 2))
    B = PolyDiffOp(R2, {(1, 0, 0, 0): half, (0, 1, 0, 0): half})
    value = B.apply((x(0) + x(1)) * xi(0))
    assert value == xi(0) and normalized(value.terms.values())


def test_apply_respects_term_budget(monkeypatch):
    # a monomial operand and monomial coefficients keep every term's
    # contribution at one term, so only the merged sum can hit the cap
    A = PolyDiffOp(R2, {(1, 0, 0, 0): x(1), (0, 0, 0, 1): xi(0).scale(3),
                        (0, 0, 0, 0): Poly.constant(R2, 1)})
    p = Poly.monomial(R2, (2, 0, 0, 1))
    value = A.apply(p)
    assert len(value.terms) == 3
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "3")
    assert A.apply(p) == value
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "2")
    with pytest.raises(ResourceLimitError):
        A.apply(p)


def test_divergence_operator_matches_div_op():
    D = divergence_diffop(R2)
    p = x(0) * xi(0) * xi(0)
    assert D.apply(p) == xi(0).scale(2)
    rng = random.Random(2)
    for _ in range(20):
        q = random_poly(rng, R2)
        assert D.apply(q) == divergence_reference(q)


def test_coefficient_times_derivative():
    A = PolyDiffOp(R2, {(0, 0, 1, 0): xi(0)})
    assert A.apply(xi(0) * xi(1)) == xi(0) * xi(1)


def test_euler_squared_eigenvalue():
    E = euler_diffop(R2)
    assert E.compose(E).apply(xi(0) * xi(1)) == (xi(0) * xi(1)).scale(4)


def test_commutator_euler_divergence_normal_form():
    for ring in (R2, R3):
        E, D = euler_diffop(ring), divergence_diffop(ring)
        assert E.commutator(D) == -D


def test_self_commutator_vanishes():
    rng = random.Random(3)
    for _ in range(10):
        A = random_op(rng, R2)
        assert A.commutator(A).is_zero()


def test_commutator_matches_compose_reference():
    # coefficients draw from every ring variable, so x and xi (and y, eta in single_ring(4))
    rng = random.Random(12)
    for ring in (R2, R3, single_ring(4)):
        for _ in range(60):
            A = random_op(rng, ring, max_order=4, max_coeff_degree=3)
            B = random_op(rng, ring, max_order=4, max_coeff_degree=3)
            assert A.commutator(B) == A.compose(B) - B.compose(A)


def test_commutator_of_constant_coefficient_operators_cancels():
    # every Leibniz term of both products is a cancelling product term
    rng = random.Random(13)
    for ring in (R2, R3, single_ring(4)):
        for _ in range(20):
            A = random_op(rng, ring, max_order=4, max_coeff_degree=0)
            B = random_op(rng, ring, max_order=4, max_coeff_degree=0)
            assert not (A.compose(B) - B.compose(A)).terms
            assert A.commutator(B).is_zero()


def test_module_action_matches_compose_reference():
    rng = random.Random(14)
    for ring in (R2, R3):
        fields = sl_generators(ring.n).all()
        for _ in range(10):
            exp = [0] * ring.nvars
            for _ in range(rng.randint(0, 3)):
                exp[rng.randrange(ring.n)] += 1
            exp[ring.n + rng.randrange(ring.n)] += 1
            fields.append(Poly.monomial(ring, tuple(exp), rng.randint(1, 5)))
        for X in fields:
            L = lie_derivative_op(X)
            A = random_op(rng, ring, max_order=4, max_coeff_degree=3)
            assert module_action(X, A) == L.compose(A) - A.compose(L)


def test_module_action_respects_term_budget(monkeypatch):
    # monomial coefficients keep every coefficient product at one term, so
    # only the commutator's own count of output terms can hit the cap
    X = Poly.monomial(R2, (2, 1, 1, 0))
    A = PolyDiffOp(R2, {(2, 0, 1, 0): x(1), (0, 1, 0, 2): xi(0), (1, 1, 0, 0): x(0)})
    action = module_action(X, A)
    assert len(action.terms) > 1
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", str(len(action.terms)))
    assert module_action(X, A) == action
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "1")
    with pytest.raises(ResourceLimitError):
        module_action(X, A)


def fraction_op(rng, ring):
    A = random_op(rng, ring, max_order=3, max_coeff_degree=3)
    return PolyDiffOp(ring, {mu: c.scale(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 6)))
                             for mu, c in A.terms.items()})


def test_subtraction_matches_adding_the_negation():
    rng = random.Random(33)
    for ring in (R2, R3):
        for _ in range(100):
            A, B = fraction_op(rng, ring), fraction_op(rng, ring)
            diff = A - B
            assert diff == A + (-B) == A + B.scale(-1)
            assert all(c.terms and normalized(c.terms.values())
                       for op in (diff, A + B) for c in op.terms.values())
            assert (A + B) - A == B
            assert not (A - A).terms
    with pytest.raises(StructureError):
        PolyDiffOp.identity(R2) - PolyDiffOp.identity(R3)
    with pytest.raises(StructureError):
        PolyDiffOp.zero(R2) - PolyDiffOp.zero(R3)


def test_commutator_sum_matches_compose_reference():
    rng = random.Random(31)
    for ring in (R2, R3, single_ring(4)):
        for trial in range(30):
            pairs = [(fraction_op(rng, ring), fraction_op(rng, ring))
                     for _ in range(rng.randint(1, 3))]
            reference = PolyDiffOp.zero(ring)
            for P, A in pairs:
                reference = reference + (P.compose(A) - A.compose(P))
            assert commutator_sum(pairs) == reference
            base = fraction_op(rng, ring)
            assert commutator_sum(pairs, base=[(1, base)]) == base + reference
        # [I, I] = 0 leaves the base alone
        base, I = fraction_op(rng, ring), PolyDiffOp.identity(ring)
        assert commutator_sum([(I, I)], base=[(1, base)]) == base


def test_linear_combination_matches_scaled_sums():
    rng = random.Random(34)
    for ring in (R2, R3):
        for _ in range(30):
            ops = [fraction_op(rng, ring) for _ in range(rng.randint(1, 4))]
            weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in ops]
            reference = PolyDiffOp.zero(ring)
            for op, c in zip(ops, weights):
                reference = reference + op.scale(c)
            assert linear_combination(ring, ops, weights) == reference
    # a zero weight adds nothing, also on a term that no other operand has
    A, B = PolyDiffOp.identity(R2), divergence_diffop(R2)
    assert linear_combination(R2, [A, B], [0, 1]) == B
    assert linear_combination(R2, [A, -A], [1, 1]).is_zero()


def test_commutator_sum_cancels_to_zero():
    rng = random.Random(32)
    for ring in (R2, R3, single_ring(4)):
        I = PolyDiffOp.identity(ring)
        for _ in range(10):
            A, B = fraction_op(rng, ring), fraction_op(rng, ring)
            assert commutator_sum([(A, B), (B, A)]).terms == {}
            # base = -[A, B] cancels the one commutator
            assert commutator_sum([(A, B)], base=[(1, B.compose(A) - A.compose(B))]).terms == {}
            # two fractional base terms that cancel leave no term behind
            c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            assert commutator_sum([(I, I)], base=[(c, A), (-c, A)]) == PolyDiffOp.zero(ring)
            assert commutator_sum([(A, B)], base=[(c, A), (-c, A)]) == A.commutator(B)
    # [E, D] = -D, so D + [E, D] is the zero operator
    for ring in (R2, R3):
        E, D = euler_diffop(ring), divergence_diffop(ring)
        assert commutator_sum([(E, D)], base=[(1, D)]).is_zero()


def fresh(op):
    """A copy of op with an empty Leibniz table."""
    return PolyDiffOp(op.ring, dict(op.terms))


def layout(op):
    """op's terms and each coefficient's terms, in dict order."""
    return [(mu, list(c.terms.items())) for mu, c in op.terms.items()]


def test_filled_leibniz_tables_never_change_an_answer():
    rng = random.Random(41)
    for ring in (R2, single_ring(4)):
        for _ in range(12):
            A, B, C = (fraction_op(rng, ring) for _ in range(3))
            texts = [op_str(op) for op in (A, B, C)]
            # the second round reads the tables the first round filled
            for _ in range(2):
                for P, Q in ((A, B), (B, A), (A, A), (C, A)):
                    assert layout(P.compose(Q)) == layout(fresh(P).compose(fresh(Q)))
                    assert layout(P.commutator(Q)) == layout(fresh(P).commutator(fresh(Q)))
                    assert (layout(commutator_sum([(P, Q), (Q, C)], base=[(1, C)]))
                            == layout(commutator_sum([(fresh(P), fresh(Q)), (fresh(Q), fresh(C))],
                                                     base=[(1, fresh(C))])))
                    for lowest, sign in product((0, 1), (1, -1)):
                        filled, reference = {}, {}
                        operators._leibniz(filled, P, Q, lowest, sign)
                        operators._leibniz(reference, fresh(P), fresh(Q), lowest, sign)
                        # the flat packed accumulators, and what they decode to
                        assert list(filled.items()) == list(reference.items())
                        assert (layout(operators._operator_from_packed(P.ring, filled))
                                == layout(operators._operator_from_packed(P.ring, reference)))
            for op, text in zip((A, B, C), texts):
                assert op._table is not None
                assert op == fresh(op) and fresh(op) == op
                assert op_str(op) == text == op_str(fresh(op))
                assert repr(op) == repr(fresh(op))


def test_composition_is_associative_on_reused_operands():
    rng = random.Random(42)
    for ring in (R2, single_ring(4)):
        for _ in range(4):
            A, B, C = (fraction_op(rng, ring) for _ in range(3))
            AB, BC = A.compose(B), B.compose(C)
            # the second round reads the tables the first round filled
            for _ in range(2):
                assert AB.compose(C) == A.compose(BC)
                assert A.compose(B).compose(C) == A.compose(B.compose(C))
                assert C.compose(AB) == C.compose(A).compose(B)


def test_a_repeated_commutator_sum_differentiates_nothing():
    # the kernel differentiates only when it lists the surviving subsets of
    # a new pair of terms, so a second identical sum misses no survivor
    # list, reuses every flat table and returns the same layout
    L = lie_derivative_op(x(0) * x(0) * xi(1) + x(1) * xi(0))
    rng = random.Random(43)
    A = fraction_op(rng, R2)
    B = PolyDiffOp(R2, {(1, 0, 1, 0): x(0) * x(1) * xi(1), (0, 0, 0, 1): x(1) * x(1)})
    pairs = [(L, A), (B, L)]
    survivors = operators._leibniz_survivors
    survivors.cache_clear()
    first = commutator_sum(pairs, base=[(1, B)])
    misses = survivors.cache_info().misses
    assert misses
    tables = [op._table for op in (L, A, B)]
    second = commutator_sum(pairs, base=[(1, B)])
    assert survivors.cache_info().misses == misses
    assert all(op._table is table for op, table in zip((L, A, B), tables))
    assert layout(second) == layout(first)


def oracle_op(rng, ring):
    """Up to three terms with multi-term Fraction coefficients, zero-order terms
    among them; one operator in four has constant coefficients only."""
    constant = rng.random() < 0.25
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mu = [0] * ring.nvars
        for _ in range(rng.choice((0, 1, 2, 3))):
            mu[rng.randrange(ring.nvars)] += 1
        c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 6))
        coeff = Poly.constant(ring, c) if constant else random_poly(rng, ring, 3).scale(c)
        terms[tuple(mu)] = terms.get(tuple(mu), Poly.zero(ring)) + coeff
    return PolyDiffOp(ring, terms)


def test_leibniz_matches_the_definitional_expansion():
    rng = random.Random(46)
    for ring in (R2, R3, single_ring(4)):
        for _ in range(25):
            P, Q = oracle_op(rng, ring), oracle_op(rng, ring)
            for left, right in ((P, Q), (Q, P), (P, P)):
                for lowest, sign in product((0, 1), (1, -1)):
                    acc = {}
                    operators._leibniz(acc, left, right, lowest, sign)
                    assert (operators._operator_from_packed(ring, acc)
                            == leibniz_reference(left, right, lowest, sign))


def test_constant_coefficient_products_list_only_the_empty_subset(monkeypatch):
    # ansatz_term_op composes constant-coefficient contraction operators, so
    # every pair of terms keeps s = 0 alone, with binomial 1
    # with packed keys: the offset of (mu - 0, e - 0) is the packed mu shifted
    # past the exponent fields, plus the packed e
    listed = []
    survivors = operators._leibniz_survivors

    def recording(mu, e, lowest, m):
        out = survivors(mu, e, lowest, m)
        listed.append((mu, e, m, out))
        return out

    monkeypatch.setattr(operators, "_leibniz_survivors", recording)
    for kind, s in (("alpha", 1), ("beta", 2), ("gamma", 0)):
        op = ansatz_term_op.__wrapped__(2, kind, s, 2)
        assert not op.is_zero()
    assert listed
    for mu, e, m, out in listed:
        assert not any(operators._unpack(e, m))
        assert out == (((mu << (operators._WIDTH * m)) + e, 1),)
    # a commutator keeps only |s| >= 1, so a constant right operand is
    # skipped whole and lists nothing
    D = divergence_diffop(single_ring(4))
    D2 = D.power(2)
    before = len(listed)
    assert D.commutator(D2).is_zero()
    assert len(listed) == before


def random_field(rng, ring):
    """A sum of up to three monomial fields x^u xi_m with |u| <= 3."""
    out = Poly.zero(ring)
    for _ in range(rng.randint(1, 3)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, 3)):
            exp[ring.x(rng.randrange(ring.n))] += 1
        exp[ring.xi(rng.randrange(ring.n))] += 1
        out = out + Poly.monomial(ring, tuple(exp), rng.randint(-5, 5) or 1)
    return out


def copy_poly(f):
    """A copy of f with empty lazy slots."""
    return Poly(f.ring, dict(f.terms))


def test_filled_hamiltonian_slots_never_change_an_answer():
    rng = random.Random(44)
    for _ in range(20):
        f = rng.choice((random_poly, random_field))(rng, R2)
        g = random_poly(rng, R2)
        text, rep, key = str(f), repr(f), hash(copy_poly(f))
        H = hamiltonian_op(f)
        assert f._ham is H
        assert hamiltonian_op(f) is H
        assert op_str(H) == op_str(hamiltonian_op(copy_poly(f)))
        # a product fills H's Leibniz table, which the slot keeps
        H.compose(random_op(rng, R2))
        assert f == copy_poly(f) and copy_poly(f) == f
        assert hash(f) == key
        assert str(f) == text and repr(f) == rep
        assert pickle.loads(pickle.dumps(f)) == f
        assert str(pickle.loads(pickle.dumps(f))) == text
        assert schouten_bracket(f, g) == schouten_bracket(copy_poly(f), g)
        if f.xi_degree() == 1:
            assert lie_derivative_op(f) is H
            assert module_action(f, H) == module_action(copy_poly(f), H)


def test_a_repeated_bracket_differentiates_nothing(monkeypatch):
    calls = []
    diff = Poly.diff

    def counting_diff(self, var):
        calls.append(var)
        return diff(self, var)

    monkeypatch.setattr(Poly, "diff", counting_diff)
    rng = random.Random(45)
    Y = random_field(rng, R2)
    L_Y = lie_derivative_op(Y)
    assert calls
    calls.clear()
    for _ in range(6):
        Z = random_field(rng, R2)
        assert schouten_bracket(Y, Z) == L_Y.apply(Z)
    assert module_action(Y, L_Y).is_zero()
    assert lie_derivative_op(Y) is L_Y
    assert calls == []


def _c2_line_and_symbols():
    """Degree-3 monomial symbols of x-degree <= 3, and the c2 line at n=2, k=3."""
    C = build_bilinear(second_class_coefficients(2, 3), 2)
    symbols = [Poly.monomial(R2, u + v)
               for u in monomials_up_to(2, 3) for v in xi_simplex(2, 3)]
    return C, symbols


def test_commutator_sum_evaluates_the_equivariance_defect():
    # the direct solver's row: [L_X, A] - B applied to P is
    # L_X(A P) - A(L_X P) - B P, with A, B the c2 operators of cubic fields
    C, symbols = _c2_line_and_symbols()
    X = sl_generators(2).quadratic[0]
    L_X = lie_derivative_op(X)
    A = C.operator_for_field(x(0) * x(0) * x(1) * xi(0))
    B = C.operator_for_field(x(0) * x(1) * x(1) * xi(1))
    assert not (A.is_zero() or B.is_zero())
    defect = commutator_sum([(L_X, A)], base=[(-1, B)])
    for P in symbols:
        assert defect.apply(P) == (
            L_X.apply(A.apply(P)) - A.apply(L_X.apply(P)) - B.apply(P))


def test_commutator_sum_evaluates_the_cocycle_defect():
    # the cocycle filter's row: [L_Z, A] + [B, L_Y] + C([Y, Z]) applied to P
    C, symbols = _c2_line_and_symbols()
    Y = x(0) * x(0) * x(1) * xi(0)
    Z = x(0) * x(0) * x(0) * xi(1)
    L_Y, L_Z = lie_derivative_op(Y), lie_derivative_op(Z)
    A, B = C.operator_for_field(Y), C.operator_for_field(Z)
    base = C.operator_for_field(schouten_bracket(Y, Z))
    assert not base.is_zero()
    defect = commutator_sum([(L_Z, A), (B, L_Y)], base=[(1, base)])
    for P in symbols:
        assert defect.apply(P) == (
            L_Z.apply(A.apply(P)) - A.apply(L_Z.apply(P))
            + B.apply(L_Y.apply(P)) - L_Y.apply(B.apply(P)) + base.apply(P))


def test_commutator_sum_rejects_mixed_rings():
    E2, E3 = euler_diffop(R2), euler_diffop(R3)
    with pytest.raises(StructureError):
        commutator_sum([(E2, E3)])
    with pytest.raises(StructureError):
        commutator_sum([(E2, E2)], base=[(1, E3)])
    with pytest.raises(StructureError):
        commutator_sum([(E2, E2)], base=[(1, E2), (1, E3)])


def test_commutator_sum_respects_merged_coefficient_budget(monkeypatch):
    # [d_x1 + d_x2, a] is multiplication by d_x1(a) + d_x2(a): one operator
    # term, and every product of terms is one term, so only the term count of
    # the merged coefficient can hit the cap
    P = PolyDiffOp(R2, {(1, 0, 0, 0): Poly.constant(R2, 1),
                        (0, 1, 0, 0): Poly.constant(R2, 1)})
    a = PolyDiffOp(R2, {(0, 0, 0, 0): x(0) * x(0) + x(1) * x(1)})
    value = commutator_sum([(P, a)])
    assert value == PolyDiffOp(R2, {(0, 0, 0, 0): x(0).scale(2) + x(1).scale(2)})
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "2")
    assert commutator_sum([(P, a)]) == value
    assert P.commutator(a) == value
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "1")
    with pytest.raises(ResourceLimitError):
        commutator_sum([(P, a)])
    with pytest.raises(ResourceLimitError):
        P.commutator(a)
    # a base operator's coefficient terms count towards the merged sum too;
    # [I, I] adds no term
    I = PolyDiffOp.identity(R2)
    with pytest.raises(ResourceLimitError):
        commutator_sum([(I, I)], base=[(1, a)])
    # an operator sum is built through the same check: P + a and P - a have
    # three operator terms
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "3")
    assert len((P + a).terms) == len((P - a).terms) == 3
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "2")
    with pytest.raises(ResourceLimitError):
        P + a
    with pytest.raises(ResourceLimitError):
        P - a


def test_an_operator_sum_counts_only_its_surviving_derivatives(monkeypatch):
    # P - P cancels at both derivatives, so under a budget of 1 it is the
    # zero operator, as the packed decode of commutator_sum gives it; P + P
    # keeps two derivatives with one-term coefficients and is refused
    P = parse_op(R2, "(1*x2) * dx1 + (1*x1) * dx2")
    I = PolyDiffOp.identity(R2)
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "1")
    assert (P - P) == commutator_sum([(I, I)], base=[(1, P), (-1, P)]) == PolyDiffOp.zero(R2)
    assert linear_combination(R2, [P, P], [1, -1]).is_zero()
    with pytest.raises(ResourceLimitError, match=r"^2 terms of an operator"):
        P + P
    with pytest.raises(ResourceLimitError, match=r"^2 terms of an operator"):
        commutator_sum([(I, I)], base=[(1, P), (1, P)])


def test_a_cancelled_packed_sum_is_zero_before_any_budget_is_read(monkeypatch):
    # an empty packed accumulator decodes to the zero operator with no budget
    # check, so outside every scope a malformed budget is not read there; a
    # scoped driver still refuses it as it is entered (tests/test_poly.py)
    P = parse_op(R2, "(1*x2) * dx1 + (1*x1) * dx2")
    I = PolyDiffOp.identity(R2)
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "abc")
    assert commutator_sum([(I, I)], base=[(1, P), (-1, P)]) == PolyDiffOp.zero(R2)
    assert P.commutator(PolyDiffOp.identity(R2)).is_zero()
    with pytest.raises(StructureError, match="^COHOMOLAB_MAX_TERMS must be an integer"):
        commutator_sum([(I, I)], base=[(1, P)])


def test_negative_power_is_rejected():
    D = PolyDiffOp.derivative(R2, 0)
    assert D.power(0) == PolyDiffOp.identity(R2)
    with pytest.raises(StructureError):
        D.power(-2)


def test_compose_agrees_with_iterated_apply():
    rng = random.Random(4)
    for _ in range(100):
        A = random_op(rng, R2)
        B = random_op(rng, R2)
        P = random_poly(rng, R2)
        assert A.compose(B).apply(P) == A.apply(B.apply(P))


def test_normalization_is_order_independent():
    rng = random.Random(6)
    for _ in range(10):
        parts = [random_op(rng, R2) for _ in range(4)]
        forward = PolyDiffOp.zero(R2)
        for p in parts:
            forward = forward + p
        backward = PolyDiffOp.zero(R2)
        for p in reversed(parts):
            backward = backward + p
        assert forward == backward


def test_lie_derivative_operator_matches_bracket():
    from cohomolab.symbols import hamiltonian_action

    rng = random.Random(7)
    for _ in range(20):
        X = Poly.zero(R2)
        for _ in range(3):
            exp = [0] * 4
            for _ in range(rng.randint(0, 3)):
                exp[rng.randrange(2)] += 1
            exp[2 + rng.randrange(2)] += 1
            X = X + Poly.monomial(R2, tuple(exp), rng.randint(-5, 5))
        P = random_poly(rng, R2)
        assert lie_derivative_op(X).apply(P) == hamiltonian_action(X, P)


def test_module_action_on_identity_is_zero():
    fam = sl_generators(2)
    I = PolyDiffOp.identity(R2)
    for X in fam.all():
        assert module_action(X, I).is_zero()


def test_module_action_translation_on_divergence_is_zero():
    D = divergence_diffop(R2)
    assert module_action(xi(0), D).is_zero()


def relation_rhs(ring, i):
    E = euler_diffop(ring)
    I = PolyDiffOp.identity(ring)
    dxi = PolyDiffOp.derivative(ring, ring.xi(i))
    return (E.scale(2) + I.scale(ring.n + 1)).compose(dxi)


def test_quadratic_commutation_relation_normal_form():
    for ring in (R2, R3):
        fam = sl_generators(ring.n)
        D = divergence_diffop(ring)
        for i in range(ring.n):
            L = lie_derivative_op(fam.quadratic[i])
            assert L.compose(D) - D.compose(L) == relation_rhs(ring, i)


def test_quadratic_commutation_relation_on_monomials():
    ring = R2
    fam = sl_generators(2)
    D = divergence_diffop(ring)
    L = lie_derivative_op(fam.quadratic[0])
    lhs = L.compose(D) - D.compose(L)
    rhs = relation_rhs(ring, 0)
    for exp in product(range(7), repeat=4):
        if sum(exp) > 6:
            continue
        m = Poly.monomial(ring, exp)
        assert lhs.apply(m) == rhs.apply(m)


def test_relation_worked_instance():
    # n=2, i=1, applied to xi1: both sides give 3
    ring = R2
    fam = sl_generators(2)
    D = divergence_diffop(ring)
    L = lie_derivative_op(fam.quadratic[0])
    val = L.apply(D.apply(xi(0))) - D.apply(L.apply(xi(0)))
    assert val == Poly.constant(ring, 3)
    assert relation_rhs(ring, 0).apply(xi(0)) == Poly.constant(ring, 3)


def test_module_action_matches_relation():
    for ring in (R2, R3):
        fam = sl_generators(ring.n)
        D = divergence_diffop(ring)
        for k in (2, 3):
            got = module_action(fam.quadratic[0], D)
            assert got == relation_rhs(ring, 0)


def test_module_action_lie_axiom():
    # every pair from the generator family together with 20 random cubic fields
    rng = random.Random(11)
    fam = sl_generators(2)
    fields = fam.all()
    for _ in range(20):
        exp = [0] * 4
        for _ in range(3):
            exp[rng.randrange(2)] += 1
        exp[2 + rng.randrange(2)] += 1
        fields.append(Poly.monomial(R2, tuple(exp), rng.randint(1, 5)))

    A = divergence_diffop(R2)
    k = 2
    actions = [module_action(X, A) for X in fields]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            X, Y = fields[i], fields[j]
            lhs = module_action(X, actions[j]) - module_action(Y, actions[i])
            rhs = module_action(schouten_bracket(X, Y), A)
            assert lhs.symbol_map(k) == rhs.symbol_map(k)


def test_symbol_map_identifies_euler_with_scalar():
    E = euler_diffop(R2)
    I = PolyDiffOp.identity(R2)
    for k in (0, 1, 2, 3):
        assert E.symbol_map(k) == I.scale(k).symbol_map(k)
    assert E.symbol_map(2) != I.symbol_map(2)


def test_symbol_map_drops_cancelled_entries_and_normalizes():
    # xi1 d_xi1 and xi2 d_xi2 both fix xi1 xi2, so on S_2 their difference
    # has no v = (1, 1) entry; half of it has the int entries 1 and -1
    A = PolyDiffOp(R2, {(0, 0, 1, 0): xi(0), (0, 0, 0, 1): -xi(1)})
    zero = (0, 0)
    assert A.symbol_map(2).entries == {((2, 0), (2, 0), zero, zero): 2,
                                       ((0, 2), (0, 2), zero, zero): -2}
    half = A.scale(Fraction(1, 2)).symbol_map(2).entries
    assert half == {((2, 0), (2, 0), zero, zero): 1, ((0, 2), (0, 2), zero, zero): -1}
    assert normalized(half.values())


def test_symbol_map_detects_degree_contract():
    D = divergence_diffop(R2)
    assert {sum(w) for (_, w, _, _) in D.symbol_map(3).entries} == {2}


def test_affine_basis_is_divergence_power():
    # the closed form against the elimination it replaced, at every order
    # bound r.  From r = 2(k - ell) on the elimination finds exactly the
    # closed form; below it the elimination finds nothing, so no order bound
    # could ever have changed the basis other than by emptying it.  n=2
    # crosses the threshold for every drop up to 3 and reaches ell up to
    # k + 2; n=3 crosses it for drops 0 and 1 (criterion 02 takes drop 2)
    sweeps = [(2, 4, 2, 6), (3, 3, 1, 3)]
    for n, max_k, above, max_r in sweeps:
        for k in range(max_k + 1):
            for ell in range(k + above + 1):
                closed = [op_str(b) for b in affine_equivariant_basis(n, k, ell)]
                for r in range(max_r + 1):
                    searched = [op_str(b) for b in affine_basis_by_elimination(n, k, ell, r)]
                    want = closed if r >= 2 * (k - ell) else []
                    assert searched == want, (n, k, ell, r)


def test_affine_basis_order_zero_contains_identity():
    basis = affine_equivariant_basis(2, 2, 2)
    assert len(basis) == 1
    I = PolyDiffOp.identity(R2)
    sm = basis[0].symbol_map(2)
    key = next(iter(sm.entries))
    ratio = sm.entries[key]
    assert sm == I.scale(ratio).symbol_map(2)


def test_affine_basis_is_pinned():
    # the exact operators, in order, that the basis has always returned.  At
    # l = k the Euler operator acts as k * Id, so the solution space holds
    # vectors that are zero or repeated as maps on degree-k symbols (at
    # (2, 2, 2) eight solutions reduce to one operator) and the pruning
    # must drop them
    pinned = {
        (2, 2, 2): ["(1)"],
        (2, 3, 1): ["(1) * dx2^2 * dxi2^2 + (2) * dx1 * dx2 * dxi1 * dxi2"
                    " + (1) * dx1^2 * dxi1^2"],
        (3, 2, 1): ["(1) * dx3 * dxi3 + (1) * dx2 * dxi2 + (1) * dx1 * dxi1"],
        (2, 1, 2): [],
    }
    for shape, ops in pinned.items():
        assert [op_str(b) for b in affine_equivariant_basis(*shape)] == ops, shape


def test_divergence_power_is_not_projectively_equivariant():
    # the assertable form of the no-equivariant-operator lemma
    for n in (2, 3):
        fam = sl_generators(n)
        D = divergence_diffop(single_ring(n))
        for k, ell in [(2, 1), (3, 1), (3, 2)]:
            B = D.power(k - ell)
            assert any(not module_action(Xq, B).symbol_map(k).is_zero()
                       for Xq in fam.quadratic)


def test_op_str_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        A = random_op(rng, R2)
        assert parse_op(R2, op_str(A)) == A
    assert parse_op(R2, op_str(PolyDiffOp.zero(R2))).is_zero()
    # a repeated derivative sums, and a pair of terms that cancel leaves nothing
    assert op_str(parse_op(R2, "(1*x1) * dx1 + (1*x2 + 2*x1) * dx1")) == "(1*x2 + 3*x1) * dx1"
    assert parse_op(R2, "(1*x1) * dxi2 + (-1*x1) * dxi2 + (1) * dx1") == PolyDiffOp.derivative(
        R2, R2.x(0))
    assert parse_op(R2, "(1*x2) * dx1 + (-1*x2) * dx1").is_zero()


def test_a_malformed_factor_is_named():
    for text, factor in (("(1) * dx1^a", "dx1^a"), ("(1) * x1", "x1"), ("(1*x1) * dy1", "dy1"),
                         ("(1*x3) * dx1", "x3"), ("(1*x1^a) * dx1", "x1^a")):
        with pytest.raises(StructureError, match=re.escape(f"bad factor {factor!r}")):
            parse_op(R2, text)


def test_simplex_enumeration():
    assert xi_simplex(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(xi_simplex(3, 5)) == 21
    assert len(monomials_up_to(2, 3)) == 10
    for n, k in ((2, 5), (3, 4), (4, 3)):
        assert xi_simplex(n, k) == [e for e in product(range(k + 1), repeat=n) if sum(e) == k]


def test_counting_factors_match_their_products():
    # falling and multi_binom against the products that define them, with
    # beta_i > v_i (a zero factor) and nu_i > mu_i (a zero binomial) included
    for v in product(range(4), repeat=2):
        for beta in product(range(4), repeat=2):
            expected = 1
            for vi, bi in zip(v, beta):
                for step in range(bi):
                    expected *= vi - step
            assert operators.falling(v, beta) == expected
            assert operators.multi_binom(v, beta) == (
                operators.falling(v, beta) // operators.falling(beta, beta))


def test_simplex_rejects_negative_degree():
    with pytest.raises(StructureError):
        xi_simplex(2, -1)
    with pytest.raises(StructureError):
        PolyDiffOp.identity(R2).symbol_map(-1)
    # each call returns a fresh list, so a caller's edit cannot leak
    first = xi_simplex(2, 2)
    first.append((9, 9))
    assert xi_simplex(2, 2) == [(0, 2), (1, 1), (2, 0)]
