from fractions import Fraction

import pytest

from cohomolab.ansatz import AnsatzCoefficients, impose_cocycle, recurrence_solutions
from cohomolab.cocycles import (
    OneCocycle,
    bilinear_cocycle,
    build_report,
    builtin_c1,
    builtin_c2,
    builtin_div,
    builtin_gamma1_flat,
    class_proportionality,
    coboundary_solve,
    cocycle_check,
    field_columns,
    hessian_contraction_op,
    monomial_fields,
    second_class_coefficients,
    trace_contraction_op,
    vanishes_on_sl,
)
from cohomolab.operators import PolyDiffOp, affine_equivariant_basis, divergence_diffop, module_action
from cohomolab.poly import Poly, StructureError, single_ring
from cohomolab import quantization
from cohomolab.quantization import quantization_projected_cocycle, quantization_top_cocycle
from cohomolab.report import quantization_report
from cohomolab.report import certify_class
from cohomolab.symbols import one_form_primitive, schouten_bracket, sl_generators

R2 = single_ring(2)


def x(i, ring=R2):
    return Poly.variable(ring, ring.x(i))


def xi(i, ring=R2):
    return Poly.variable(ring, ring.xi(i))


def zero_form(ring):
    return [Poly.zero(ring) for _ in range(ring.n)]


def test_zero_cocycle_passes():
    c = OneCocycle(2, 2, 1, "zero", lambda X: PolyDiffOp.zero(R2))
    assert cocycle_check(c, 3).holds
    assert vanishes_on_sl(c)


def test_builtin_c1_passes_check():
    chk = cocycle_check(builtin_c1(2, 2), 4)
    assert chk.holds
    assert chk.pairs_checked == 435


def test_non_cocycle_yields_counterexample():
    # multiplication by the contraction of a non-closed 1-form fails the identity
    omega = [x(1), Poly.zero(R2)]

    def rule(X):
        value = Poly.zero(R2)
        for i in range(2):
            value = value + X.diff(R2.xi(i)) * omega[i]
        return PolyDiffOp(R2, {(0, 0, 0, 0): value})

    c = OneCocycle(2, 2, 2, "bad", rule)
    chk = cocycle_check(c, 2)
    assert not chk.holds
    assert chk.counterexample is not None
    # the first failing pair in canonical order, and its witness, are frozen
    assert chk.to_json() == {
        "holds": False, "max_vf_degree": 2, "pairs_checked": 1,
        "counterexample": {"X": "1*xi1", "Y": "1*xi2", "symbol": "1*xi2^2",
                           "defect_value": "1*xi2^2"}}
    # the reported pair re-evaluates from scratch to a nonzero defect
    from cohomolab.poly import parse_poly
    from cohomolab.symbols import hamiltonian_action, schouten_bracket

    X = parse_poly(R2, chk.counterexample["X"])
    Y = parse_poly(R2, chk.counterexample["Y"])
    P = parse_poly(R2, chk.counterexample["symbol"])
    defect = (c.evaluate(schouten_bracket(X, Y)).apply(P)
              - hamiltonian_action(X, c.evaluate(Y).apply(P))
              + c.evaluate(Y).apply(hamiltonian_action(X, P))
              + hamiltonian_action(Y, c.evaluate(X).apply(P))
              - c.evaluate(X).apply(hamiltonian_action(Y, P)))
    assert not defect.is_zero()
    assert defect == parse_poly(R2, chk.counterexample["defect_value"])


def test_mutated_c2_counterexample_frozen():
    # c2's coefficient line at n=3, k=3 with gamma_2 moved off by one
    good = second_class_coefficients(3, 3)
    bad = AnsatzCoefficients(3, 2, alpha=dict(good.alpha), beta=dict(good.beta),
                             gamma={2: good.gamma[2] + 1})
    assert cocycle_check(bilinear_cocycle(3, good, "solver"), 2).holds
    assert cocycle_check(bilinear_cocycle(3, bad, "solver"), 2).to_json() == {
        "holds": False, "max_vf_degree": 2, "pairs_checked": 161,
        "counterexample": {"X": "1*x3^2*xi1", "Y": "1*x3^2*xi3", "symbol": "1*xi3^3",
                           "defect_value": "-12*xi1"}}


def test_builtin_values_frozen():
    c1 = builtin_c1(2, 2)
    X = Poly.monomial(R2, (2, 0, 1, 0))
    P = xi(0) * xi(1)
    assert c1.evaluate(X).apply(P) == xi(1).scale(Fraction(-4, 3))


def test_c1_is_hessian_plus_trace_part():
    """The ansatz lines c1 and gamma1 equal their definitional contractions.

    Checking monomial fields of degree <= 3 is complete: both rules are
    x-translation-equivariant and of order 2 in X = X^m xi_m, so each value
    is the sum over |a| = 2 and m of (d^a X^m) K_am with x-constant
    operators K_am.  The field x^a xi_m / a! has the value K_am, so the
    fields of degree 2 already fix every K_am, and two such rules that agree
    there agree on every field; degree 3 adds fields with x-dependent second
    derivatives on top.
    """
    for n, ks in ((2, range(2, 6)), (3, range(2, 6)), (4, (2, 3))):
        fields = monomial_fields(n, 3)
        for k in ks:
            c1, g1 = builtin_c1(n, k), builtin_gamma1_flat(n, k)
            for X in fields:
                hessian = hessian_contraction_op(X)
                expected = hessian + trace_contraction_op(X).scale(Fraction(-2, n + 1))
                assert c1.symbol_map(X) == expected.symbol_map(k)
                assert g1.symbol_map(X) == hessian.symbol_map(k)
                # gamma1's line is the Hessian contraction term for term
                assert g1.evaluate(X) == hessian


def test_off_ratio_c1_line_is_a_cocycle_that_survives_sl():
    # The Hessian and trace parts are cocycles on their own, so moving the
    # ratio keeps the identity and breaks only the projective vanishing.
    # c1's line at n=3, k=2 has beta_2 = -2(k-1)/(n+1) = -1/2.
    off = AnsatzCoefficients(2, 1, alpha={2: 2}, beta={2: Fraction(-1, 2) + Fraction(1, 7)})
    c = bilinear_cocycle(3, off, "c1")
    assert cocycle_check(c, 3).holds
    assert not vanishes_on_sl(c)


def test_sl_vanishing_pattern():
    assert vanishes_on_sl(builtin_c1(2, 2))
    assert vanishes_on_sl(builtin_c2(2, 3))
    g1 = builtin_gamma1_flat(2, 2)
    assert all(g1.symbol_map(X).is_zero() for X in sl_generators(2).affine())
    assert not vanishes_on_sl(g1)
    assert not vanishes_on_sl(builtin_div(2, 2, 1, zero_form(R2)))
    assert vanishes_on_sl(OneCocycle(2, 2, 1, "zero", lambda X: PolyDiffOp.zero(R2)))


def test_constructed_coboundary_detected():
    D = divergence_diffop(R2)
    c = OneCocycle(2, 2, 1, "bdry",
                   lambda X: module_action(X, D))
    res = coboundary_solve(field_columns(c, [D], 3))
    assert res.is_coboundary and res.witness == D


def test_shared_field_columns_give_the_same_answers():
    # certify_class solves both systems on one set of columns; its answers
    # equal those of the two solves on columns of their own
    for c, ref in ((builtin_c1(2, 2), builtin_c1(2, 2)),
                   (quantization_top_cocycle(2, 2, Fraction(1, 2)), builtin_c1(2, 2))):
        basis = affine_equivariant_basis(2, c.k, c.ell, 2 * (c.k - c.ell))
        _, cob, prop = certify_class(c, 3, ref)
        expected = coboundary_solve(field_columns(c, basis, 3), "affine-equivariant basis")
        assert cob.to_json() == expected.to_json()
        assert prop == class_proportionality(field_columns(c, basis, 3), ref)


def test_nontriviality_of_invariant_cocycles():
    for n in (2, 3):
        ring = single_ring(n)
        for k in (2, 3, 4):
            basis1 = affine_equivariant_basis(n, k, k - 1, 2)
            res1 = coboundary_solve(field_columns(builtin_c1(n, k), basis1, 3))
            assert not res1.is_coboundary
            basis2 = affine_equivariant_basis(n, k, k - 2, 4)
            res2 = coboundary_solve(field_columns(builtin_c2(n, k), basis2, 3))
            assert not res2.is_coboundary


def test_divergence_cocycle_coboundary_criterion():
    ring = R2
    omega = [x(1), x(0)]
    # a = 0 and omega exact: multiplication by a primitive is a witness
    c_exact = builtin_div(2, 2, 0, omega)
    f = one_form_primitive(omega, ring)
    mult_f = PolyDiffOp(ring, {(0, 0, 0, 0): f})
    candidates = [mult_f, PolyDiffOp.identity(ring)]
    res = coboundary_solve(field_columns(c_exact, candidates, 3), "primitive and identity")
    assert res.is_coboundary
    assert res.witness == mult_f
    # a != 0: no witness within the affine-equivariant candidate space
    c_div = builtin_div(2, 2, 1, omega)
    basis = affine_equivariant_basis(2, 2, 2, 2)
    assert not coboundary_solve(field_columns(c_div, basis, 3)).is_coboundary


def test_solver_line_matches_builtin_c1_by_constant_ratio():
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        line = impose_cocycle(recurrence_solutions(n, k, 1))
        assert line.dimension == 1
        sc = bilinear_cocycle(n, line.basis[0].normalized(), "solver")
        res = class_proportionality(field_columns(sc, [], 3), builtin_c1(n, k))
        assert res is not None
        mu, witness = res
        assert mu == Fraction(1, 2)
        assert witness.is_zero()
        # pointwise equality, not merely class equality
        for X in monomial_fields(n, 3)[::4]:
            assert sc.symbol_map(X) == builtin_c1(n, k).evaluate(X).scale(mu).symbol_map(k)


def test_solver_p2_line_matches_builtin_c2():
    for n, k in [(2, 3), (2, 2)]:
        line = impose_cocycle(recurrence_solutions(n, k, 2))
        sc = bilinear_cocycle(n, line.basis[0], "solver")
        res = class_proportionality(field_columns(sc, [], 3), builtin_c2(n, k))
        assert res is not None
        mu, witness = res
        assert mu != 0 and witness.is_zero()


def test_report_structure():
    rep = build_report(builtin_c1(2, 2), 3)
    data = rep.to_json()
    assert data["cocycle_identity"]["holds"] is True
    assert data["vanishes_on_sl"] is True


def test_unsupported_shapes_rejected():
    with pytest.raises(StructureError):
        builtin_c1(1, 2)
    with pytest.raises(StructureError):
        builtin_c1(2, 1)
    with pytest.raises(StructureError):
        builtin_div(2, 2, 1, [x(1), Poly.zero(R2)])


def _omega(ring):
    out = [Poly.variable(ring, ring.x(1)), Poly.variable(ring, ring.x(0))]
    return out + [Poly.zero(ring)] * (ring.n - 2)


def test_builtin_full_sweep_small_degree():
    # quick version of the sweep below with cubic test fields only
    for n in (2, 3):
        ring = single_ring(n)
        omega = _omega(ring)
        for k in (2, 3, 4, 5):
            assert cocycle_check(builtin_c1(n, k), 2).holds
            assert cocycle_check(builtin_c2(n, k), 2).holds
            assert cocycle_check(builtin_gamma1_flat(n, k), 2).holds
            assert cocycle_check(builtin_div(n, k, 1, omega), 2).holds


def test_builtin_full_sweep_quartic_fields():
    # every built-in passes the identity with quartic test fields for both
    # dimensions and every symbol degree up to five; this is the heavyweight
    # invariant of the module and takes around a minute
    for n in (2, 3):
        ring = single_ring(n)
        omega = _omega(ring)
        for k in (2, 3, 4, 5):
            for c in (builtin_c1(n, k), builtin_c2(n, k),
                      builtin_gamma1_flat(n, k), builtin_div(n, k, 1, omega)):
                assert cocycle_check(c, 4).holds, (n, k, c.name)


def test_every_builtin_rule_is_linear_on_bracket_fields():
    # the defect loops evaluate a rule only on coefficient-1 monomial fields
    # and get r(F) as sum c_m r(x^m) over F's monomials; that is exact only
    # if every rule is linear, checked here as operator equality (not only on
    # S_k) on every bracket of two degree <= 2 monomial fields and on the
    # quadratic generators
    top = quantization_top_cocycle(2, 2, Fraction(1, 2))
    witness = coboundary_solve(field_columns(top, [divergence_diffop(R2)], 3)).witness
    rules = [builtin_c1(2, 2), builtin_c2(2, 2), builtin_gamma1_flat(2, 2),
             builtin_div(2, 2, Fraction(2, 3), _omega(R2)), top,
             quantization_projected_cocycle(2, 2, Fraction(1, 2), witness)]
    fields = monomial_fields(2, 2)
    brackets = {schouten_bracket(X, Y) for i, X in enumerate(fields) for Y in fields[i + 1:]}
    brackets.discard(Poly.zero(R2))
    test_fields = list(brackets) + list(sl_generators(2).quadratic)
    assert any(len(F.terms) == 2 for F in test_fields)
    assert any(set(F.terms.values()) - {1} for F in test_fields)
    for c in rules:
        for F in test_fields:
            combination = PolyDiffOp.zero(R2)
            for e, coeff in F.terms.items():
                combination = combination + c.rule(Poly.monomial(R2, e)).scale(coeff)
            assert c.rule(F) == combination, (c.name, F)


def test_cocycle_check_evaluates_each_unit_monomial_field_once():
    c = builtin_c2(3, 3)
    seen = []
    rule = c.rule

    def recorded(X):
        seen.append(X)
        return rule(X)

    c.rule = recorded
    assert cocycle_check(c, 2).holds
    assert seen and len(seen) == len(set(seen))
    assert all(list(X.terms.values()) == [1] for X in seen)


def test_weight_half_report_rebuilds_at_most_one_operator_per_monomial(monkeypatch):
    calls = []
    original = quantization.operator_from_symbol_values

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quantization, "operator_from_symbol_values", counted)
    report = quantization_report(2, 2, Fraction(1, 2), 2)
    assert report["projected_cocycle"] == {"identity_holds": True, "nontrivial": True}
    assert 0 < len(calls) <= 20
