import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomolab import poly
from cohomolab.ansatz import (build_bilinear, impose_cocycle, recurrence_solutions,
                              solve_equivariant_direct)
from cohomolab.cocycles import (build_report, builtin_c1, cocycle_check, field_columns,
                                monomial_fields, second_class_coefficients, vanishes_on_sl)
from cohomolab.operators import (PolyDiffOp, divergence_diffop, linear_combination, module_action,
                                 unit_deriv)
from cohomolab.poly import (
    Poly,
    ResourceLimitError,
    StructureError,
    budget_scope,
    check_term_budget,
    parse_poly,
    poly_str,
    rat,
    single_ring,
)
from cohomolab.report import RunConfig, check_relation, cohomology_table, quantization_report
from cohomolab.symbols import is_closed, schouten_bracket

from exact_helpers import normalized
from plane_ring import R2, x, xi

R4 = single_ring(4)


def random_poly(rng, ring, max_degree=6, max_terms=5, coeff_bound=10**6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(ring.nvars)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 50)
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + Fraction(num, den)
    return Poly(ring, terms)


def test_additive_inverse_cancels():
    p = x(0) * xi(0)
    assert (p + (-p)).is_zero()


def test_monomial_product():
    assert xi(0) * xi(1) == Poly.monomial(R2, (0, 0, 1, 1))


def test_square_expansion_matches_frozen_value():
    p = x(0) + xi(1)
    expected = (
        Poly.monomial(R2, (2, 0, 0, 0))
        + Poly.monomial(R2, (1, 0, 0, 1), 2)
        + Poly.monomial(R2, (0, 0, 0, 2))
    )
    assert p * p == expected


def _to_sympy(p):
    symbols = sympy.symbols([p.ring.var_name(i) for i in range(p.ring.nvars)])
    expr = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c)
        for s, e in zip(symbols, exp):
            term *= s**e
        expr += term
    return sympy.expand(expr), symbols


def test_product_against_sympy():
    rng = random.Random(42)
    for _ in range(20):
        a = random_poly(rng, R2, max_degree=4)
        b = random_poly(rng, R2, max_degree=4)
        got, _ = _to_sympy(a * b)
        ea, syms = _to_sympy(a)
        eb, _ = _to_sympy(b)
        assert sympy.expand(ea * eb - got) == 0


def test_diff_against_sympy():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng, R2, max_degree=5)
        var = rng.randrange(R2.nvars)
        got, syms = _to_sympy(p.diff(var))
        ep, syms2 = _to_sympy(p)
        assert sympy.expand(sympy.diff(ep, syms2[var]) - got) == 0


def test_diff_multi_matches_iterated_diff():
    rng = random.Random(19)
    for _ in range(30):
        p = random_poly(rng, R2, max_degree=5)
        multi = tuple(rng.randint(0, 2) for _ in range(R2.nvars))
        expected = p
        for var, m in enumerate(multi):
            for _ in range(m):
                expected = expected.diff(var)
        got = p.diff_multi(multi)
        assert got == expected
        # integral coefficients come back as ints, as everywhere in the ring
        assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
    assert (xi(0) * xi(0)).scale(Fraction(1, 2)).diff_multi((0, 0, 2, 0)) == Poly.constant(R2, 1)


def test_power_rule():
    p = xi(0) * xi(0)
    assert p.diff(R2.xi(0)) == xi(0).scale(2)


def test_independent_variable_derivative_is_zero():
    assert xi(1).diff(R2.x(0)).is_zero()


def test_mixed_second_derivative():
    p = x(0) * xi(0) * xi(0)
    assert p.diff(R2.x(0)).diff(R2.xi(0)) == xi(0).scale(2)


def test_unknown_variable_rejected():
    # every variable index goes through Ring.var, which refuses a non-int too
    for bad, call in ((17, lambda: x(0).diff(17)),
                      (-1, lambda: x(0).diff(-1)),
                      (1.0, lambda: x(0).diff(1.0)),
                      (-1, lambda: Poly.variable(R2, -1)),
                      (7, lambda: Poly.variable(R2, 7)),
                      (True, lambda: Poly.variable(R2, True)),
                      (4, lambda: unit_deriv(R2, 0, 4)),
                      (4, lambda: R2.var_name(4))):
        with pytest.raises(StructureError, match=re.escape(
                f"variable index must be an integer from 0 to 3, got {bad!r}")):
            call()


def test_coordinate_index_rejected():
    # Ring.x and Ring.xi take a coordinate index, an int from 0 to n - 1;
    # a bool or a float is refused even where it equals one
    for bad, call in ((True, lambda: R2.xi(True)),
                      (1.0, lambda: R2.x(1.0)),
                      (2, lambda: R2.x(2)),
                      (-1, lambda: R2.xi(-1))):
        with pytest.raises(StructureError, match=re.escape(
                f"coordinate index must be an integer from 0 to 1, got {bad!r}")):
            call()


def test_ring_mismatch_rejected():
    # every operand-ring check is poly.check_same_ring, whose message names both rings
    R3 = single_ring(3)
    P3 = Poly.variable(R3, 0)
    A2, A3 = PolyDiffOp.derivative(R2, 0), PolyDiffOp.derivative(R3, 0)
    entry_points = {
        "Poly +": lambda: x(0) + P3,
        "Poly -": lambda: x(0) - P3,
        "Poly *": lambda: x(0) * P3,
        "PolyDiffOp +": lambda: A2 + A3,
        "PolyDiffOp -": lambda: A2 - A3,
        "compose": lambda: A2.compose(A3),
        "apply": lambda: A2.apply(P3),
        "commutator": lambda: A2.commutator(A3),
        "linear_combination": lambda: linear_combination(R2, [A2, A3], [1, 1]),
        "module_action": lambda: module_action(xi(0), A3),
        "schouten_bracket": lambda: schouten_bracket(xi(0), P3),
        "is_closed": lambda: is_closed([x(0), P3], R2),
        "PolyDiffOp coefficient": lambda: PolyDiffOp(R2, {(1, 0, 0, 0): P3}),
    }
    named_both = {"ring mismatch: Ring(n=2) vs Ring(n=3)", "ring mismatch: Ring(n=3) vs Ring(n=2)"}
    for name, call in entry_points.items():
        with pytest.raises(StructureError) as caught:
            call()
        assert str(caught.value) in named_both, name


def test_subtraction_matches_adding_the_negation():
    # the direct merge agrees with a + (-b) and a + b.scale(-1), cancels to
    # no terms, and leaves normalized nonzero coefficients; low degrees make
    # the two operands share exponents
    rng = random.Random(32)
    for ring in (R2, R4):
        for _ in range(200):
            a = random_poly(rng, ring, max_degree=2, coeff_bound=6)
            b = random_poly(rng, ring, max_degree=2, coeff_bound=6)
            diff = a - b
            assert diff == a + (-b) == a + b.scale(-1)
            assert normalized(diff.terms.values())
            assert (a + b) - a == b
            assert not (a - a).terms
    with pytest.raises(StructureError):
        x(0) - Poly.variable(single_ring(3), 0)
    with pytest.raises(StructureError):
        Poly.zero(R2) - Poly.zero(R4)


def test_float_coefficient_rejected():
    with pytest.raises(StructureError):
        Poly(R2, {(1, 0, 0, 0): 0.1})


def test_every_poly_constructor_reads_its_coefficient_with_rat():
    e = (1, 0, 0, 1)
    half = Poly(R2, {e: "1/2"})
    assert half == Poly.monomial(R2, e, "1/2") == Poly.monomial(R2, e, Fraction(1, 2))
    assert Poly(R2, {e: Fraction(4, 2)}).terms == {e: 2}
    assert type(Poly.constant(R2, "4/2").terms[(0, 0, 0, 0)]) is int
    for bad in (0.5, True, "1/0"):
        for call in (lambda: Poly(R2, {e: bad}), lambda: Poly.monomial(R2, e, bad),
                     lambda: Poly.constant(R2, bad)):
            with pytest.raises(StructureError):
                call()


def test_malformed_rational_text_rejected():
    for text in ("abc", "1/0", ""):
        with pytest.raises(StructureError):
            rat(text)
    with pytest.raises(StructureError):
        parse_poly(R2, "1*x1^a")


def test_term_without_coefficient_names_the_expected_form():
    for text in ("x2", "1*x1 + xi2", "abc"):
        with pytest.raises(StructureError, match=r"starts with its coefficient, as in '1\*x2'"):
            parse_poly(R2, text)
    assert parse_poly(R2, "1*x2") == x(1)


def test_rat_normalizes_exact_inputs():
    assert rat(5) == 5 and type(rat(5)) is int
    assert rat(Fraction(6, 3)) == 2 and type(rat(Fraction(6, 3))) is int
    assert rat(Fraction(-2, 4)) == Fraction(-1, 2)
    assert rat("3/6") == Fraction(1, 2)
    assert rat("-4/2") == -2 and type(rat("-4/2")) is int

    class Int(int):
        pass

    class Frac(Fraction):
        pass

    # subclasses go through the one Fraction parse and come back plain
    assert rat(Int(7)) == 7 and type(rat(Int(7))) is int
    assert rat(Frac(6, 3)) == 2 and type(rat(Frac(6, 3))) is int
    assert rat(Frac(1, 3)) == Fraction(1, 3) and type(rat(Frac(1, 3))) is Fraction
    with pytest.raises(StructureError, match="boolean is not a rational coefficient"):
        rat(True)
    for bad in (True, False, 0.5, None, Decimal("1"), "x/2", "1/0"):
        with pytest.raises(StructureError):
            rat(bad)


def test_non_integer_term_budget_rejected(monkeypatch):
    for raw in ("abc", "0", "-5"):
        monkeypatch.setenv("COHOMOLAB_MAX_TERMS", raw)
        with pytest.raises(StructureError, match="^COHOMOLAB_MAX_TERMS must be an integer"
                                                 " of at least 1, got "):
            check_term_budget(1, "terms")


def scoped_driver_names() -> list[str]:
    """The module.function names the poly docstring lists as scoped drivers."""
    return re.findall(r"\b(\w+\.\w+)\b", poly.__doc__.split("The scoped drivers:")[1])


C1 = builtin_c1(2, 2)
FIELDS_2 = monomial_fields(2, 2)
C2_SPACE = recurrence_solutions(2, 2, 2)
C2_LINE = second_class_coefficients(2, 2)

# One call of each scoped driver, on inputs built beforehand.
SCOPED_CALLS = {
    "ansatz.build_bilinear": lambda: build_bilinear(C2_LINE, 2),
    "ansatz.impose_cocycle": lambda: impose_cocycle(C2_SPACE),
    "ansatz.solve_equivariant_direct": lambda: solve_equivariant_direct(2, 2, 2),
    "cocycles.build_report": lambda: build_report(C1, 2),
    "cocycles.cocycle_check": lambda: cocycle_check(C1, 2),
    "cocycles.field_columns": lambda: field_columns(C1, [divergence_diffop(R2)], FIELDS_2),
    "cocycles.vanishes_on_sl": lambda: vanishes_on_sl(C1),
    "report.check_relation": lambda: check_relation(2),
    "report.cohomology_table": lambda: cohomology_table(RunConfig(2, 2, 2)),
    "report.quantization_report": lambda: quantization_report(2, 2, Fraction(1, 2), 2),
}


@pytest.fixture
def budget_reads(monkeypatch):
    """The list of values poly._term_budget returns, one entry per read."""
    reads = []
    original = poly._term_budget

    def counted():
        reads.append(original())
        return reads[-1]

    monkeypatch.setattr(poly, "_term_budget", counted)
    monkeypatch.delenv("COHOMOLAB_MAX_TERMS", raising=False)
    return reads


def test_the_scoped_drivers_are_the_listed_ones():
    assert sorted(SCOPED_CALLS) == sorted(scoped_driver_names())


@pytest.mark.parametrize("driver", sorted(SCOPED_CALLS))
def test_a_scoped_driver_reads_the_budget_once_per_outermost_call(driver, budget_reads):
    # every check the call makes compares against the value read as it was
    # entered; the scope ends with the call, so a second call reads again
    SCOPED_CALLS[driver]()
    assert budget_reads == [2_000_000]
    assert poly._scoped_budget.get() is None
    SCOPED_CALLS[driver]()
    assert budget_reads == [2_000_000] * 2


@budget_scope
def _inner(n_terms):
    check_term_budget(n_terms, "inner terms")
    return poly._scoped_budget.get()


@budget_scope
def _outer(n_terms, entered):
    entered.append(True)
    check_term_budget(n_terms, "outer terms")
    return [_inner(n_terms), _inner(n_terms)]


def test_a_nested_driver_reuses_the_outer_read(budget_reads):
    assert _outer(1, []) == [2_000_000, 2_000_000]
    assert budget_reads == [2_000_000]
    # build_report nests cocycle_check and vanishes_on_sl, and the table nests
    # impose_cocycle, build_bilinear, cocycle_check and field_columns
    budget_reads.clear()
    build_report(C1, 2)
    cohomology_table(RunConfig(2, 3, 2))
    assert budget_reads == [2_000_000] * 2
    # a driver alone opens its own scope
    budget_reads.clear()
    assert _inner(1) == 2_000_000 and budget_reads == [2_000_000]


def test_a_value_set_between_two_calls_takes_effect_in_the_second(budget_reads, monkeypatch):
    # cocycle_check at degree 2 walks C(12, 2) = 66 pairs
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "66")
    assert _outer(66, []) == [66, 66]
    assert cocycle_check(C1, 2).holds
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "65")
    with pytest.raises(ResourceLimitError, match="^66 pairs of monomial test fields"
                                                 r" \(n = 2, degree <= 2\) exceed"
                                                 " COHOMOLAB_MAX_TERMS=65$"):
        cocycle_check(C1, 2)
    with pytest.raises(ResourceLimitError, match="^66 outer terms exceed COHOMOLAB_MAX_TERMS=65$"):
        _outer(66, [])
    assert budget_reads == [66, 66, 65, 65]


def test_a_malformed_budget_is_refused_as_the_driver_is_entered(budget_reads, monkeypatch):
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "abc")
    entered = []
    for call in (lambda: _outer(1, entered), lambda: cocycle_check(C1, 2),
                 lambda: cohomology_table(RunConfig(2, 2, 2))):
        with pytest.raises(StructureError, match="^COHOMOLAB_MAX_TERMS must be an integer"
                                                 " of at least 1, got 'abc'$"):
            call()
    assert entered == []
    assert poly._scoped_budget.get() is None


def test_the_budget_is_read_again_after_a_resource_limit(budget_reads, monkeypatch):
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "1")
    with pytest.raises(ResourceLimitError, match="^2 outer terms exceed COHOMOLAB_MAX_TERMS=1$"):
        _outer(2, [])
    assert poly._scoped_budget.get() is None
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "2")
    assert _outer(2, []) == [2, 2]
    monkeypatch.delenv("COHOMOLAB_MAX_TERMS")
    assert build_report(C1, 2).identity.holds
    assert budget_reads == [1, 2, 2_000_000]


def test_outside_every_scope_each_check_reads_the_budget(budget_reads, monkeypatch):
    check_term_budget(1, "terms")
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "3")
    check_term_budget(3, "terms")
    with pytest.raises(ResourceLimitError, match="^4 terms exceed COHOMOLAB_MAX_TERMS=3$"):
        check_term_budget(4, "terms")
    assert budget_reads == [2_000_000, 3, 3]


coeffs = st.integers(min_value=-(10**6), max_value=10**6)


@st.composite
def polys(draw, ring=R2, max_degree=6):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exp = [0] * ring.nvars
        for _ in range(draw(st.integers(0, max_degree))):
            exp[draw(st.integers(0, ring.nvars - 1))] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + draw(coeffs)
    return Poly(ring, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(0, 3))
def test_leibniz_rule(a, b, var):
    assert (a * b).diff(var) == a.diff(var) * b + a * b.diff(var)


def test_poly_str_canonical():
    p = xi(1).scale(rat("1/3")) + x(0) * x(0) * xi(1).scale(2) - x(0)
    assert poly_str(p) == "1/3*xi2 + -1*x1 + 2*x1^2*xi2"


def test_poly_str_roundtrip():
    rng = random.Random(5)
    for ring in (R2, R4, single_ring(3)):
        for _ in range(20):
            p = random_poly(rng, ring, max_degree=4)
            assert parse_poly(ring, poly_str(p)) == p


def test_an_integral_fraction_coefficient_hashes_as_its_int():
    # hash((ring, frozenset(terms))) relies on hash(Fraction(m)) == hash(m)
    exp = (1, 0, 0, 1)
    as_fraction = Poly(R2, {exp: Fraction(6, 3)}, _clean=True)
    as_int = Poly(R2, {exp: 2}, _clean=True)
    assert as_fraction == as_int
    assert hash(as_fraction) == hash(as_int)


def test_hash_equals_the_formula_over_fraction_coefficients():
    rng = random.Random(23)
    kinds = set()
    for i in range(200):
        ring = (R2, R4, single_ring(3))[i % 3]
        p = random_poly(rng, ring, max_degree=4)
        kinds.update(map(type, p.terms.values()))
        assert hash(p) == hash((ring, frozenset((e, Fraction(c)) for e, c in p.terms.items())))
    assert kinds == {int, Fraction}
