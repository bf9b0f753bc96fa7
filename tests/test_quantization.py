import hashlib
import random
from fractions import Fraction

import pytest

from cohomolab.ansatz import AnsatzCoefficients, build_bilinear
from cohomolab.cocycles import (
    OneCocycle,
    bilinear_cocycle,
    builtin_c1,
    builtin_c2,
    class_proportionality,
    coboundary_solve,
    cocycle_check,
    field_columns,
    monomial_fields,
)
from cohomolab import quantization
from cohomolab.operators import (PolyDiffOp, affine_equivariant_basis, divergence_diffop,
                                 monomials_up_to, op_str, xi_simplex)
from cohomolab.poly import Poly, StructureError, single_ring
from cohomolab.quantization import (
    DensityOperator,
    normal_order_section,
    operator_from_symbol_values,
    quantization_projected_cocycle,
    quantization_top_cocycle,
    sequence_cocycle,
    split_section,
    weighted_lie_derivative,
)
from cohomolab.report import quantization_report
from cohomolab.symbols import hamiltonian_action, schouten_bracket, sl_generators

from exact_helpers import divergence_reference, rebuild_with_next_order_check
from plane_ring import R2, x, xi


def random_field(rng, ring, max_x=3):
    out = Poly.zero(ring)
    for _ in range(rng.randint(1, 3)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_x)):
            exp[ring.x(rng.randrange(ring.n))] += 1
        exp[ring.xi(rng.randrange(ring.n))] += 1
        out = out + Poly.monomial(ring, tuple(exp), rng.randint(-5, 5))
    return out


def right_order_section(P, weight):
    """The section placing coefficients to the right: p xi^v |-> d^v o (p .)."""
    n = P.ring.n
    out = DensityOperator(n, weight, {})
    pad = (0,) * n
    for exp, c in P.terms.items():
        u, v = exp[:n], exp[n:]
        mult = DensityOperator(n, weight, {pad: Poly.monomial(P.ring, u + pad, c)})
        dv = DensityOperator(n, weight, {v: Poly.constant(P.ring, 1)})
        out = out + dv.compose(mult)
    return out


def symmetrized_section(P, weight):
    """Average of the left- and right-ordered sections; still a symbol section."""
    left = normal_order_section(P, weight)
    return (left + right_order_section(P, weight)).scale(Fraction(1, 2))


def definitional_top_cocycle(n, k, weight):
    """sigma_(k-1) gamma rebuilt from its values on monomial symbols.

    The definition the closed form of quantization_top_cocycle replaces:
    principal symbols of sequence_cocycle on x^u xi^v, reassembled into an
    operator by operator_from_symbol_values at x-order 2 and checked at 3.
    """
    ring = single_ring(n)
    zero = PolyDiffOp.zero(ring)

    def rule(X):
        L = weighted_lie_derivative(X, weight)

        def value(u, v):
            P = Poly.monomial(ring, u + v)
            tau_P = normal_order_section(P, weight)
            return sequence_cocycle(X, L, P, tau_P, zero).principal_symbol(k - 1)

        return rebuild_with_next_order_check(n, k, value, 2)

    return OneCocycle(n, k, k - 1, "definitional", rule)


def first_disagreement(c, reference, fields):
    """The first field on which two cocycles have different canonical forms."""
    return next((X for X in fields if c.symbol_map(X) != reference.symbol_map(X)),
                None)


CROSS_CHECK_WEIGHTS = (0, Fraction(1, 2), Fraction(-3, 7), Fraction(1, 3))
# (n, k, field degree): degree k+1 is complete by the jet-order fact in
# quantization_top_cocycle's docstring; only n=3, k=3 is a bounded check
CROSS_CHECK_CASES = [(2, k, k + 1) for k in (1, 2, 3, 4)] + [(3, 2, 3), (3, 3, 3)]


@pytest.mark.parametrize("n,k,degree", CROSS_CHECK_CASES)
def test_top_cocycle_closed_form_matches_definition(n, k, degree):
    fields = monomial_fields(n, degree)
    for lam in CROSS_CHECK_WEIGHTS:
        closed = quantization_top_cocycle(n, k, lam)
        assert first_disagreement(closed, definitional_top_cocycle(n, k, lam),
                                  fields) is None, (n, k, lam)


@pytest.mark.parametrize("n,k,degree", CROSS_CHECK_CASES)
def test_cross_check_rejects_a_sign_flipped_divergence_term(n, k, degree):
    # beta_2 = +lambda instead of -lambda; identical at lambda = 0 only
    fields = monomial_fields(n, degree)
    for lam in CROSS_CHECK_WEIGHTS[1:]:
        contraction = build_bilinear(
            AnsatzCoefficients(k, 1, alpha={2: -1}, beta={2: lam}), n)
        mutant = OneCocycle(n, k, k - 1, "mutant", contraction.operator_for_field)
        assert first_disagreement(mutant, definitional_top_cocycle(n, k, lam),
                                  fields) is not None, (n, k, lam)


def test_translation_lie_derivative():
    L = weighted_lie_derivative(xi(0), Fraction(3, 7))
    assert L == DensityOperator(2, Fraction(3, 7), {(1, 0): Poly.constant(R2, 1)})


def test_dilation_lie_derivative_weight_one():
    L = weighted_lie_derivative(x(0) * xi(0), 1)
    expected = DensityOperator(2, 1, {(1, 0): x(0), (0, 0): Poly.constant(R2, 1)})
    assert L == expected


@pytest.mark.parametrize("n", [2, 3])
def test_lie_derivative_is_transport_plus_weighted_divergence(n):
    # the definition L_X = X^i d_i + lambda div X, with div X from the
    # reference divergence, on every monomial field of degree <= 3
    ring = single_ring(n)
    fields = monomial_fields(n, 3)
    assert len(fields) == n * {2: 10, 3: 20}[n]
    for lam in (0, Fraction(1, 2), Fraction(-3, 7)):
        for X in fields:
            terms = {tuple(int(j == i) for j in range(n)): X.diff(ring.xi(i)) for i in range(n)}
            terms[(0,) * n] = divergence_reference(X).scale(lam)
            assert weighted_lie_derivative(X, lam) == DensityOperator(n, lam, terms), (X, lam)


def test_lie_derivative_refuses_a_symbol_that_is_not_a_vector_field():
    for P in (x(0), xi(0) * xi(1), xi(0) + x(1) * xi(0) * xi(1), Poly.constant(R2, 1)):
        with pytest.raises(StructureError,
                           match="^a vector field symbol must have xi-degree exactly 1$"):
            weighted_lie_derivative(P, Fraction(1, 2))


def test_weight_zero_matches_symbol_action_on_functions():
    rng = random.Random(1)
    for _ in range(15):
        X = random_field(rng, R2)
        f = Poly.monomial(R2, (rng.randint(0, 3), rng.randint(0, 3), 0, 0),
                          rng.randint(-5, 5))
        assert weighted_lie_derivative(X, 0).apply(f) == hamiltonian_action(X, f)


def test_lie_derivative_is_lie_morphism():
    # every pair from the generator family together with random cubic fields
    rng = random.Random(2)
    lam = Fraction(2, 5)
    fam = sl_generators(2)
    fields = fam.all() + [random_field(rng, R2) for _ in range(20)]
    lie_ops = [weighted_lie_derivative(X, lam) for X in fields]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            LB = weighted_lie_derivative(
                schouten_bracket(fields[i], fields[j]), lam)
            assert lie_ops[i].commutator(lie_ops[j]) == LB


def test_principal_symbol_examples():
    A = DensityOperator(2, 0, {(1, 1): Poly.constant(R2, 1)})
    assert A.principal_symbol(2) == xi(0) * xi(1)
    B = weighted_lie_derivative(x(0) * xi(0), 1)
    assert B.principal_symbol(1) == x(0) * xi(0)
    with pytest.raises(StructureError):
        A.principal_symbol(1)


def test_normal_order_examples():
    assert normal_order_section(xi(0) * xi(1), 0) == DensityOperator(
        2, 0, {(1, 1): Poly.constant(R2, 1)})
    assert normal_order_section(x(0) * xi(0) ** 2, 0) == DensityOperator(
        2, 0, {(2, 0): x(0)})
    # two x-monomials on one xi-exponent share one coefficient
    P = x(0) * xi(0) * xi(1) + Poly.constant(R2, 3) * x(1) ** 2 * xi(0) * xi(1) + xi(1)
    assert normal_order_section(P, Fraction(1, 2)) == DensityOperator(
        2, Fraction(1, 2), {(1, 1): x(0) + Poly.constant(R2, 3) * x(1) ** 2,
                            (0, 1): Poly.constant(R2, 1)})


def test_sections_are_sections_and_linear():
    rng = random.Random(3)
    for section in (normal_order_section, right_order_section, symmetrized_section):
        for _ in range(12):
            k = rng.randint(0, 4)
            exp = [rng.randint(0, 2), rng.randint(0, 2), 0, 0]
            for _ in range(k):
                exp[2 + rng.randrange(2)] += 1
            P = Poly.monomial(R2, tuple(exp), rng.randint(-5, 5))
            Q = Poly.monomial(R2, tuple(exp[:2]) + (exp[3], exp[2]), rng.randint(-5, 5))
            assert section(P, 0).principal_symbol(k) == P
            assert section(P + Q, 0) == section(P, 0) + section(Q, 0)


def test_density_operator_rejects_xi_dependent_coefficient():
    with pytest.raises(StructureError):
        DensityOperator(2, 0, {(1, 0): xi(0)})
    A = DensityOperator(2, 0, {(1, 0): x(0)})
    with pytest.raises(StructureError):
        A.apply(xi(1))


def test_density_operators_of_different_weights_do_not_mix():
    A = DensityOperator(2, 0, {(1, 0): x(0)})
    B = DensityOperator(2, Fraction(1, 2), {(0, 1): x(1)})
    for combine in (A.compose, A.commutator, A.__add__, A.__sub__):
        with pytest.raises(StructureError):
            combine(B)


def test_compose_matches_iterated_apply():
    rng = random.Random(4)
    for _ in range(40):
        def rand_dop():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                a = (rng.randint(0, 2), rng.randint(0, 2))
                terms[a] = Poly.monomial(
                    R2, (rng.randint(0, 2), rng.randint(0, 2), 0, 0), rng.randint(-4, 4))
            return DensityOperator(2, 0, terms)

        A, B = rand_dop(), rand_dop()
        f = Poly.monomial(R2, (rng.randint(0, 4), rng.randint(0, 4), 0, 0), 3)
        assert A.compose(B).apply(f) == A.apply(B.apply(f))


def test_sequence_cocycle_vanishes_for_affine_fields():
    fam = sl_generators(2)
    P = Poly.monomial(R2, (1, 0, 2, 1))
    for lam in (0, Fraction(1, 2), Fraction(2, 3)):
        for G in fam.affine():
            L, tau_P = weighted_lie_derivative(G, lam), normal_order_section(P, lam)
            assert sequence_cocycle(G, L, P, tau_P, PolyDiffOp.zero(R2)).is_zero()


def test_sequence_cocycle_order_drop():
    rng = random.Random(5)
    for _ in range(15):
        X = random_field(rng, R2)
        k = rng.randint(1, 4)
        exp = [rng.randint(0, 2), 0, 0, 0]
        for _ in range(k):
            exp[2 + rng.randrange(2)] += 1
        P = Poly.monomial(R2, tuple(exp))
        lam = Fraction(1, 3)
        g = sequence_cocycle(X, weighted_lie_derivative(X, lam), P,
                             normal_order_section(P, lam), PolyDiffOp.zero(R2))
        assert g.order <= k - 1


def test_sequence_cocycle_refuses_a_symbol_of_mixed_xi_degree():
    # the order bound k - 1 needs one symbol degree k: xi1 + xi1 xi2 has two
    X, P, zero = x(0) * xi(1), xi(0) + xi(0) * xi(1), PolyDiffOp.zero(R2)
    with pytest.raises(StructureError, match="must be xi-homogeneous"):
        sequence_cocycle(X, weighted_lie_derivative(X, 0), P, split_section(P, zero, 0), zero)


def test_sequence_cocycle_frozen_quadratic_value():
    # n=2, k=2, weight 0: the top symbol on the first quadratic generator
    # applied to xi1^2 is -2 xi1, which is -1/2 times the Hessian
    # contraction value on the same input
    fam = sl_generators(2)
    P = xi(0) * xi(0)
    X = fam.quadratic[0]
    g = sequence_cocycle(X, weighted_lie_derivative(X, 0), P,
                         normal_order_section(P, 0), PolyDiffOp.zero(R2))
    assert g.principal_symbol(1) == xi(0).scale(-2)
    from cohomolab.cocycles import builtin_gamma1_flat
    hess = builtin_gamma1_flat(2, 2).evaluate(X).apply(P)
    assert hess == xi(0).scale(4)
    assert g.principal_symbol(1) == hess.scale(Fraction(-1, 2))


def test_top_cocycle_identity_and_affine_vanishing():
    for k in (2, 3):
        for lam in (0, Fraction(1, 2)):
            c = quantization_top_cocycle(2, k, lam)
            assert all(c.symbol_map(X).is_zero() for X in sl_generators(2).affine())
            assert cocycle_check(c, 3).holds


def test_top_cocycle_nontrivial_away_from_half():
    D = divergence_diffop(R2)
    for k in (2, 3):
        for lam in (0, 1, Fraction(1, 3)):
            c = quantization_top_cocycle(2, k, lam)
            assert not coboundary_solve(field_columns(c, [D], monomial_fields(2, 3))).is_coboundary


def test_top_cocycle_proportional_to_first_class():
    D = divergence_diffop(R2)
    # scalars are linear in the weight and vanish exactly at one half
    frozen = {(2, 0): Fraction(-3, 10), (2, 1): Fraction(3, 10),
              (2, Fraction(1, 3)): Fraction(-1, 10),
              (3, 0): Fraction(-3, 14), (3, 1): Fraction(3, 14),
              (3, Fraction(1, 3)): Fraction(-1, 14)}
    for k in (2, 3):
        for lam in (0, 1, Fraction(1, 3)):
            c = quantization_top_cocycle(2, k, lam)
            res = class_proportionality(field_columns(c, [D], monomial_fields(2, 3)),
                                        builtin_c1(2, k))
            assert res is not None
            mu, _ = res
            assert mu == frozen[(k, lam)]
            assert mu != 0


def test_half_weight_splits_with_explicit_witness():
    D = divergence_diffop(R2)
    for k in (2, 3):
        c = quantization_top_cocycle(2, k, Fraction(1, 2))
        res = coboundary_solve(field_columns(c, [D], monomial_fields(2, 3)))
        assert res.is_coboundary
        assert res.witness == D.scale(Fraction(-1, 2))


def test_projected_cocycle_is_nontrivial():
    D = divergence_diffop(R2)
    for k in (2, 3):
        top = quantization_top_cocycle(2, k, Fraction(1, 2))
        witness = coboundary_solve(field_columns(top, [D], monomial_fields(2, 3))).witness
        proj = quantization_projected_cocycle(2, k, Fraction(1, 2), witness)
        assert cocycle_check(proj, 3).holds
        columns = field_columns(proj, [D.power(2)], monomial_fields(2, 3))
        assert not coboundary_solve(columns).is_coboundary
        res = class_proportionality(columns, builtin_c2(2, k))
        assert res is not None and res[0] != 0


def test_sequence_cocycle_with_a_splitting_is_the_two_commutator_formula():
    # with the weight-1/2 witness B, sequence_cocycle is the connecting
    # cocycle of tau' = tau o (1 - B); by linearity of tau that is
    # gamma(X)(P) - ([L_X, tau(BP)] - tau(B L_X P)), written out here
    lam = Fraction(1, 2)
    for k in (2, 3):
        top = quantization_top_cocycle(2, k, lam)
        basis = affine_equivariant_basis(2, k, k - 1)
        B = coboundary_solve(field_columns(top, basis, monomial_fields(2, 3))).witness
        symbols = [Poly.monomial(R2, u + v)
                   for u in monomials_up_to(2, 2) for v in xi_simplex(2, k)]
        for X in monomial_fields(2, 2):
            L = weighted_lie_derivative(X, lam)
            for P in symbols:
                LP = hamiltonian_action(X, P)
                two_commutators = (
                    L.commutator(normal_order_section(P, lam))
                    - normal_order_section(LP, lam)
                    - (L.commutator(normal_order_section(B.apply(P), lam))
                       - normal_order_section(B.apply(LP), lam)))
                value = sequence_cocycle(X, L, P, split_section(P, B, lam), B)
                assert value == two_commutators, (k, X, P)
        # 2B leaves the top symbol -X.B, which the k-2 order check rejects
        doubled = quantization_projected_cocycle(2, k, lam, B.scale(2))
        with pytest.raises(StructureError, match="failed to cancel the top symbol"):
            doubled.evaluate(sl_generators(2).quadratic[0])


def test_class_independent_of_section_choice():
    # the top cocycle of the symmetrized section, [L_X, s(P)] - s(L_X P),
    # differs from the normal-ordered one by a coboundary
    D = divergence_diffop(R2)
    lam = Fraction(1, 3)
    for k in (2, 3):
        def symmetrized_rule(X):
            L = weighted_lie_derivative(X, lam)

            def value(u, v):
                P = Poly.monomial(R2, tuple(u) + tuple(v))
                gamma = (L.commutator(symmetrized_section(P, lam))
                         - symmetrized_section(hamiltonian_action(X, P), lam))
                return gamma.principal_symbol(k - 1)

            return rebuild_with_next_order_check(2, k, value, 2)

        c_left = quantization_top_cocycle(2, k, lam)
        c_sym = OneCocycle(2, k, k - 1, "symmetrized", symmetrized_rule)
        diff = OneCocycle(2, k, k - 1, "section-diff",
                          lambda X: c_left.evaluate(X) - c_sym.evaluate(X))
        assert coboundary_solve(field_columns(diff, [D], monomial_fields(2, 3))).is_coboundary


def test_reconstruction_rejects_truncated_order():
    D = divergence_diffop(R2)

    def value(u, v):
        return D.apply(Poly.monomial(R2, tuple(u) + tuple(v)))

    # D has x-order 1: a rebuild at a bound below that misses its terms
    # (the precondition of operator_from_symbol_values); at 1 it is exact
    truncated = operator_from_symbol_values(2, 2, value, max_x_order=0)
    assert truncated.symbol_map(2) != D.symbol_map(2)
    rebuilt = operator_from_symbol_values(2, 2, value, max_x_order=1)
    assert rebuilt.symbol_map(2) == D.symbol_map(2)
    # the rebuilt normal form is pinned, not only its action on S_2
    assert op_str(rebuilt) == (
        "(1*xi2) * dx2 * dxi2^2 + (1*xi1) * dx2 * dxi1 * dxi2"
        " + (1*xi2) * dx1 * dxi1 * dxi2 + (1*xi1) * dx1 * dxi1^2")


def test_projected_cocycle_values_are_pinned():
    # SHA-256 over the canonical text of every value of the weight-1/2
    # projected cocycle on monomial fields of degree <= 3: a change to the
    # reconstruction must rebuild the same operators, term for term
    D = divergence_diffop(R2)
    digest = hashlib.sha256()
    for k in (2, 3):
        top = quantization_top_cocycle(2, k, Fraction(1, 2))
        witness = coboundary_solve(field_columns(top, [D], monomial_fields(2, 3))).witness
        proj = quantization_projected_cocycle(2, k, Fraction(1, 2), witness)
        for X in monomial_fields(2, 3):
            digest.update(op_str(proj.evaluate(X)).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == (
        "adc2bc31d4999d368c2b266d85868356448b8e6f1b59ff65ff1b1ec69da3d931")


def test_projected_cocycle_values_have_the_witness_x_order(monkeypatch):
    # the values of the weight-1/2 projected cocycle have x-order at most that
    # of the witness -D/2, which is 1 (quantization_projected_cocycle's
    # docstring): each value is rebuilt at that bound, and the rebuilt
    # operator reproduces the values on every x^u xi^v with |u| <= 3.  The
    # rebuild does not re-check, so besides the proof this is the bound's guard
    calls = []

    def spy(n, k, value_fn, max_x_order):
        calls.append((value_fn, max_x_order))
        return operator_from_symbol_values(n, k, value_fn, max_x_order)

    monkeypatch.setattr(quantization, "operator_from_symbol_values", spy)
    for n, k, degree in [(2, 2, 3), (2, 3, 3), (2, 4, 3), (3, 2, 2)]:
        ring = single_ring(n)
        top = quantization_top_cocycle(n, k, Fraction(1, 2))
        witness = coboundary_solve(field_columns(top, [divergence_diffop(ring)],
                                                 monomial_fields(n, 3))).witness
        proj = quantization_projected_cocycle(n, k, Fraction(1, 2), witness)
        for X in monomial_fields(n, degree):
            calls.clear()
            op = proj.rule(X)
            [(value_fn, bound)] = calls
            assert bound == 1
            for v in xi_simplex(n, k):
                for u in monomials_up_to(n, 3):
                    assert value_fn(u, v) == op.apply(Poly.monomial(ring, u + v)), (n, k, X)


def test_projected_cocycle_builds_one_lie_derivative_per_field_and_one_section_per_symbol(
        monkeypatch):
    # quantization_report(2, 2, 1/2, 2) evaluates the projected cocycle on 4
    # monomial fields: x1^2 xi1, x1 x2 xi1 and x2^2 xi2 of the two proved
    # pairs, and the bracket monomial x1^2 x2 xi1 (the other bracket is 0);
    # its solve reads x1^2 xi1 again, from the cache.  Each is rebuilt from 9
    # values on x^u xi^v (|v| = 2, |u| <= 1, the witness's x-order): 36
    # sequence_cocycle calls over 9 distinct symbols.  L_X is built once per
    # field (4, not 36), tau'(x^u xi^v) once per symbol (9) and tau'(L_X P)
    # once per value (36), so 45 sections, not 72
    counts = dict.fromkeys(("weighted_lie_derivative", "normal_order_section",
                            "sequence_cocycle", "operator_from_symbol_values"), 0)

    def counting(name):
        original = getattr(quantization, name)

        def spy(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return spy

    for name in counts:
        monkeypatch.setattr(quantization, name, counting(name))
    out = quantization_report(2, 2, Fraction(1, 2), 2)
    assert out["projected_cocycle"] == {"identity_holds": True, "nontrivial": True}
    assert counts == {"weighted_lie_derivative": 4, "normal_order_section": 45,
                      "sequence_cocycle": 36, "operator_from_symbol_values": 4}


@pytest.mark.parametrize("k,scalar", [(2, Fraction(-1, 9)), (3, Fraction(-1, 12))])
def test_three_dimensional_report_is_a_multiple_of_the_first_class(k, scalar):
    report = quantization_report(3, k, Fraction(1, 3), 3)
    assert report["cocycle_identity_holds"]
    assert not report["top_symbol_trivial"]
    assert report["proportional_to_first_class"]
    assert report["first_class_scalar"] == str(scalar)


# Field degrees of the closed-form check below: k + 1 where it runs in
# seconds; (2, 4) stops at 4 and (3, 3) at 3, below their k + 1.
PROJECTED_CLOSED_FORM_DEGREES = {(2, 2): 3, (2, 3): 4, (3, 2): 3, (2, 4): 4, (3, 3): 3}


@pytest.mark.parametrize("n,k", sorted(PROJECTED_CLOSED_FORM_DEGREES))
def test_weight_half_projected_cocycle_is_an_ansatz_line(n, k):
    # at lambda = 1/2 the projected cocycle built from the coboundary_solve
    # witness is the bilinear cocycle alpha = {3: -1, 2: -1/2},
    # beta = {3: -1/2, 2: -1/4} (alpha drops out at k = p = 2): the same
    # canonical form on every monomial field up to the named degree
    half = Fraction(1, 2)
    top = quantization_top_cocycle(n, k, half)
    witness = coboundary_solve(field_columns(top, [divergence_diffop(single_ring(n))],
                                             monomial_fields(n, 2))).witness
    proj = quantization_projected_cocycle(n, k, half, witness)
    line = bilinear_cocycle(n, AnsatzCoefficients(
        k, 2, alpha={} if k == 2 else {3: -1, 2: Fraction(-1, 2)},
        beta={3: Fraction(-1, 2), 2: Fraction(-1, 4)}), "closed form")
    for X in monomial_fields(n, PROJECTED_CLOSED_FORM_DEGREES[n, k]):
        assert proj.symbol_map(X) == line.symbol_map(X), (n, k, X)
