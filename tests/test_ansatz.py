import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import comb

import pytest

from cohomolab import ansatz
from cohomolab.ansatz import (
    FAMILIES,
    AnsatzCoefficients,
    BilinearOp,
    SolutionSpace,
    ansatz_term_op,
    build_bilinear,
    cocycle_defects,
    cocycle_filter_pairs,
    contraction_ops,
    field_monomials,
    full_indices,
    impose_cocycle,
    integer_form,
    matched_case,
    recurrence_solutions,
    reduced_indices,
    solve_equivariant_direct,
    term_norm,
)
from cohomolab.cocycles import (bilinear_cocycle, builtin_c1, cocycle_check,
                                second_class_coefficients, vanishes_on_sl)
from cohomolab.linalg import RowReducer, keyed_rows
from cohomolab.operators import (PolyDiffOp, commutator_sum, lie_derivative_op, linear_combination,
                                 monomials_up_to, unit_deriv, xi_simplex)
from cohomolab.poly import Poly, ResourceLimitError, StructureError, rat_str, single_ring
from cohomolab.symbols import euler_field, hamiltonian_action, schouten_bracket, sl_generators

import gl_closure
from exact_helpers import (bilinear_value, every_pair_check, line_operator, normalized, rank_of,
                           regrouped_parts, shifted_line, sys4_residuals)
from plane_ring import R2, x, xi


def test_index_sets():
    assert full_indices(3, 1) == [("alpha", 0), ("alpha", 1), ("alpha", 2),
                                  ("beta", 1), ("beta", 2), ("gamma", 0), ("gamma", 1)]
    assert reduced_indices(3, 1) == [("alpha", 2), ("beta", 2)]
    # the alpha family is dropped entirely when k = p
    assert all(kind != "alpha" for kind, _ in full_indices(2, 2))


def test_alpha_term_normalization():
    # p=1, s=2 carries 1/(2! 0!) = 1/2 times the squared cross contraction
    ops = contraction_ops(2)
    expected = ops["Dxeta"].power(2).scale(Fraction(1, 2))
    assert ansatz_term_op(2, "alpha", 2, 1).scale(term_norm("alpha", 2, 1)) == expected


def test_zero_coefficients_give_zero_map():
    line = AnsatzCoefficients(3, 1)
    C = build_bilinear(line, 2)
    assert C.parts == {} and line_operator(line, 2).is_zero()
    X = x(0) * x(0) * xi(0)
    assert C.operator_for_field(X).is_zero()
    assert bilinear_value(line_operator(line, 2), X, xi(0) ** 3).is_zero()


def test_operator_for_field_matches_direct_evaluation():
    rng = random.Random(17)
    coeffs = AnsatzCoefficients(3, 2, alpha={2: 1, 3: 5}, beta={2: Fraction(1, 2)},
                                gamma={2: -3})
    C, op = build_bilinear(coeffs, 2), line_operator(coeffs, 2)
    for _ in range(15):
        Xexp = [rng.randint(0, 3), rng.randint(0, 2), 0, 0]
        Xexp[2 + rng.randrange(2)] = 1
        X = Poly.monomial(R2, tuple(Xexp), rng.randint(-4, 4))
        Pexp = [rng.randint(0, 2), rng.randint(0, 2), 0, 0]
        for _ in range(3):
            Pexp[2 + rng.randrange(2)] += 1
        P = Poly.monomial(R2, tuple(Pexp), rng.randint(-4, 4))
        assert C.operator_for_field(X).apply(P) == bilinear_value(op, X, P)


def test_bilinear_oracle_matches_hand_computed_values():
    # C(X, P) by its definition: X(x, xi) P(y, eta) in single_ring(4), the
    # contractions, then y := x, eta := xi.  At (k, p) = (2, 1):
    # alpha_2 = 2 is Dxeta^2, d_x1^2 (x1^2 xi1) d_eta1^2 (eta1^2) = 2 xi1 * 2;
    # beta_2 = 1 is Dxxi Dxeta, Dxxi X = 2 x1 and d_x1 (2 x1) d_eta1 (eta1^2)
    # = 2 * 2 eta1; gamma_1 = 1 is Dyxi Dxeta, d_x1 (x1 xi1) d_eta1 (y1 eta1^2)
    # = 2 xi1 y1 eta1, then d_y1 d_xi1 gives 2 eta1
    # build_bilinear's rule gives the same values
    X, P = x(0) * x(0) * xi(0), xi(0) * xi(0)
    for coeffs in (AnsatzCoefficients(2, 1, alpha={2: 2}), AnsatzCoefficients(2, 1, beta={2: 1})):
        assert bilinear_value(line_operator(coeffs, 2), X, P) == xi(0).scale(4)
        assert build_bilinear(coeffs, 2).operator_for_field(X).apply(P) == xi(0).scale(4)
    coeffs = AnsatzCoefficients(2, 1, gamma={1: 1})
    X, P = x(0) * xi(0), x(0) * xi(0) * xi(0)
    assert bilinear_value(line_operator(coeffs, 2), X, P) == xi(0).scale(2)
    assert build_bilinear(coeffs, 2).operator_for_field(X).apply(P) == xi(0).scale(2)


def test_ansatz_coefficients_reject_a_shape_or_index_out_of_range():
    # alpha_0..p+1, beta_1..p+1 and gamma_0..p for 0 <= p <= k; an index
    # outside its range would be read as 0 by the solvers and cocycle_check,
    # and printed by to_json
    for bad in ({"k": 2, "p": 3}, {"k": 2, "p": -1}, {"k": 3, "p": 2, "alpha": {7: 1}},
                {"k": 3, "p": 2, "alpha": {-1: 1}}, {"k": 3, "p": 2, "beta": {0: 1}},
                {"k": 3, "p": 2, "beta": {4: 1}}, {"k": 3, "p": 2, "gamma": {3: 1}},
                {"k": 3.0, "p": 2}, {"k": 3, "p": 2.0}):
        with pytest.raises(StructureError):
            AnsatzCoefficients(**bad)
    # floats never enter the ring: neither a dimension nor a degree, even
    # after single_ring(2) has cached the ring that 2.0 compares equal to
    single_ring(2)
    for n, k in ((2.0, 3), (3, 3.0)):
        with pytest.raises(StructureError, match="must be integers|must be an integer"):
            recurrence_solutions(n, k, 2)
    with pytest.raises(StructureError, match="alpha_7 is not an ansatz index for p = 2"):
        AnsatzCoefficients(3, 2, alpha={7: 1})
    # an index equal to a legal int is still refused: to_json would print
    # "2.0" or "True" for it
    for bad in (2.0, True):
        with pytest.raises(StructureError, match=f"alpha_{bad} is not an ansatz index for p = 1"):
            AnsatzCoefficients(3, 1, alpha={bad: 1})
    # every family's end points are legal, and alpha at k = p too: those
    # terms vanish on S_k, and quantization_top_cocycle(n, 1, .) builds one
    AnsatzCoefficients(3, 2, alpha={0: 1, 3: 1}, beta={1: 1, 3: 1}, gamma={0: 1, 2: 1})
    AnsatzCoefficients(1, 1, alpha={2: -1}, beta={2: Fraction(-1, 2)})


def test_bilinear_op_refuses_an_index_outside_the_ansatz(monkeypatch):
    # BilinearOp takes weights over ansatz indices, so it refuses the
    # indices AnsatzCoefficients refuses, with its message, before any term
    # operator of them is formed; an unknown family is no index either
    built = []
    monkeypatch.setattr(ansatz, "ansatz_term_op", lambda n, kind, s, p: built.append(
        (kind, s, p)) or ansatz_term_op(n, kind, s, p))
    for p in range(4):
        for kind, s in (("alpha", -1), ("alpha", p + 2), ("beta", 0), ("beta", p + 2),
                        ("gamma", -1), ("gamma", p + 1), ("delta", 1)):
            message = f"{kind}_{s} is not an ansatz index for p = {p}"
            for scale in (1, Fraction(1, 2)):
                with pytest.raises(StructureError, match=message):
                    BilinearOp(2, p, {("beta", 1): 1, (kind, s): 1}, scale)
            if kind in FAMILIES:
                with pytest.raises(StructureError, match=message):
                    AnsatzCoefficients(p + 1, p, **{kind: {s: 1}})
        # every legal index, alpha at k = p included, builds a nonzero rule
        for t in full_indices(p + 1, p):
            assert BilinearOp(2, p, {t: 1}, 1).parts
    legal = {(kind, s, p) for p in range(4) for kind, s in full_indices(p + 1, p)}
    assert set(built) <= legal


def test_a_zero_weight_adds_nothing_to_a_bilinear_op():
    # a zero weight is no term: the parts, and so every rule, are those of
    # the weights without it, wherever it stands; all-zero weights give the
    # zero map
    X = x(0) * x(0) * xi(0) + x(1) * xi(1)
    for p in range(3):
        indices = full_indices(p + 1, p)
        for t in indices:
            rest = {u: i + 2 for i, u in enumerate(indices) if u != t}
            for scale in (1, Fraction(1, 3)):
                assert (BilinearOp(2, p, {t: 0, **rest}, scale).parts
                        == BilinearOp(2, p, {**rest, t: 0}, scale).parts
                        == BilinearOp(2, p, rest, scale).parts)
        zero = BilinearOp(2, p, dict.fromkeys(indices, 0), 1)
        assert zero.parts == {} and zero.operator_for_field(X).is_zero()


def test_solution_space_rejects_a_line_of_another_shape_or_a_dependent_basis():
    # impose_cocycle would read each of these wrong: a (3, 2) line through
    # the indices of (3, 1), a doubled basis whose cocycles span dimension 1
    # as dimension 3, and a zero line as a one-dimensional cocycle space
    with pytest.raises(StructureError, match=r"\(k, p\) = \(3, 2\) in a space"):
        SolutionSpace(2, 3, 1, [second_class_coefficients(2, 3)])
    basis = recurrence_solutions(2, 3, 2).basis
    assert impose_cocycle(SolutionSpace(2, 3, 2, basis)).dimension == 1
    for dependent in (basis + basis, [AnsatzCoefficients(3, 2)],
                      [*basis, basis[0].scale(Fraction(-3, 5))]):
        with pytest.raises(StructureError, match="linearly independent"):
            SolutionSpace(2, 3, 2, dependent)
    assert SolutionSpace(2, 3, 2, []).dimension == 0


def test_solution_space_refuses_a_shape_the_solvers_refuse():
    # an empty basis has no line whose (k, p) is checked, so the space checks
    # its own shape, with the refusal the solvers make (ansatz._validate);
    # unchecked, n < 2, p > k, a float k and a bool k would each print a
    # plausible to_json
    for shape, message in (((1, 3, 2), "dimension must be an integer of at least 2, got 1"),
                           ((2, 3, 5), "symbol degree k must be an integer of at least 5, got 3"),
                           ((2, 3.0, 2), "symbol degree k must be an integer of at least 2,"
                                         " got 3.0"),
                           ((2, True, 1), "symbol degree k must be an integer of at least 1,"
                                          " got True")):
        with pytest.raises(StructureError) as solver:
            ansatz._validate(*shape)
        assert str(solver.value) == message
        with pytest.raises(StructureError) as space:
            SolutionSpace(*shape, [])
        assert str(space.value) == message, shape


def test_solution_spaces_and_ansatz_lines_are_read_only():
    # the checks of SolutionSpace and AnsatzCoefficients hold at construction,
    # so neither may change after it: a dependent basis or an illegal index
    # slipped in later would reach impose_cocycle and to_json unchecked
    space = recurrence_solutions(2, 3, 2)
    assert type(space.basis) is tuple and space.dimension == 2
    line = space.basis[0]
    with pytest.raises(AttributeError):
        space.basis.append(line.scale(2))
    with pytest.raises(AttributeError):
        space.basis = (line, line.scale(2))
    for kind in FAMILIES:
        with pytest.raises(TypeError):
            getattr(line, kind)[99] = 7
    with pytest.raises(AttributeError):
        line.alpha = {99: 7}
    assert space.dimension == 2 and 99 not in line.alpha
    # frozen and hashable: an equal space built again hashes alike
    assert hash(space) == hash(recurrence_solutions(2, 3, 2))
    assert len({space, SolutionSpace(2, 3, 2, list(space.basis))}) == 1
    # the call form of a line built from another line's families still works
    gamma = {s: v + 1 for s, v in line.gamma.items()}
    assert AnsatzCoefficients(3, 2, line.alpha, line.beta, gamma).gamma == gamma


def test_ansatz_coefficients_are_exact_and_drop_zeros():
    for bad in (0.5, True, "half", None):
        with pytest.raises(StructureError):
            AnsatzCoefficients(3, 1, alpha={2: bad})
    half = AnsatzCoefficients(3, 1, alpha={2: "1/2"}, beta={2: Fraction(4, 2)})
    assert half.alpha[2] == Fraction(1, 2)
    assert half.beta[2] == 2 and type(half.beta[2]) is int
    assert half.to_json() == {"k": 3, "p": 1, "alpha": {"2": "1/2"}, "beta": {"2": "2"},
                              "gamma": {}}
    zero = AnsatzCoefficients(3, 1, alpha={2: 0}, gamma={0: Fraction(0)})
    assert zero == AnsatzCoefficients(3, 1)
    # hashing agrees with ==: a zero entry and no entry, a text and a Fraction
    assert hash(zero) == hash(AnsatzCoefficients(3, 1))
    assert hash(half) == hash(AnsatzCoefficients(3, 1, alpha={2: Fraction(1, 2)}, beta={2: 2}))
    assert len({zero, AnsatzCoefficients(3, 1), half}) == 2
    assert zero.to_json() == {"k": 3, "p": 1, "alpha": {}, "beta": {}, "gamma": {}}
    assert half.scale(0) == zero
    assert AnsatzCoefficients.from_vector(3, 1, [("alpha", 2), ("beta", 2)],
                                          [Fraction(3, 1), 0]).to_json()["alpha"] == {"2": "3"}


def test_operator_for_field_skips_terms_above_the_field_degree(monkeypatch):
    # the c2 line at n = 2, k = 3, whose parts have order 2 to 4, against
    # the translation xi1 (total degree 1), the linear field x1 xi2 and the
    # quadratic field x1 x2 xi1: on a monomial field x^e exactly the parts
    # s <= e are differentiated, each term of such a part adds d^s x^e once,
    # and no part whose derivative kills the field is read at all
    line = second_class_coefficients(2, 3)
    C, line_op = build_bilinear(line, 2), line_operator(line, 2)
    assert sum(map(len, C.parts.values())) == len(line_op.terms)
    top = max(map(sum, C.parts))
    assert top == 4
    read, added = [], []

    class ReadParts(dict):
        def get(self, key, default=None):
            if key in self:
                read.append(key)
            return super().get(key, default)

        def __getitem__(self, key):
            read.append(key)
            return super().__getitem__(key)

        def __iter__(self):
            read.extend(self.keys())
            return super().__iter__()

        def items(self):
            read.extend(self.keys())
            return super().items()

    parts = dict(C.parts)
    C.parts = ReadParts(parts)
    original = ansatz.add_scaled_terms

    def recorded(acc, terms, c):
        added.append(list(terms))
        return original(acc, terms, c)

    monkeypatch.setattr(ansatz, "add_scaled_terms", recorded)
    met = []
    for X in (xi(0), x(0) * xi(1), x(0) * x(1) * xi(0)):
        [e] = X.terms
        assert top > X.total_degree()
        surviving = [s for s in parts if all(a <= b for a, b in zip(s, e))]
        met.append(sorted(surviving))
        read.clear()
        added.clear()
        op = C.operator_for_field(X)
        assert sorted(read) == sorted(surviving)
        assert len(added) == sum(len(parts[s]) for s in surviving)
        assert all(len(terms) == 1 and terms[0][1] != 0 for terms in added)
        assert ({terms[0][0] for terms in added}
                == {tuple(b - a for a, b in zip(s, e)) for s in surviving})
        P = x(0) * x(1) * x(1) * xi(0) * xi(0) * xi(1)
        assert op.apply(P) == bilinear_value(line_op, X, P)
    # every part takes two x-derivatives, so only the quadratic field meets
    # any: d_x1 d_x2 and d_x1 d_x2 d_xi1
    assert met == [[], [], [(1, 1, 0, 0), (1, 1, 1, 0)]]


def test_operator_for_field_refuses_a_symbol_that_is_not_a_vector_field():
    # x1^2 xi1 xi2 once gave (-8/3*xi2) * dxi1 + (2*xi1*xi2) * dxi1^2 and
    # x1^2 gave (2) * dxi1^2, where lie_derivative_op and divergence refuse both
    # a field with a degree-1 term beside a degree-2 term is refused too
    c = builtin_c1(2, 3)
    for P in (x(0) * x(0) * xi(0) * xi(1), x(0) * x(0), x(0) * xi(0) + xi(0) * xi(1)):
        with pytest.raises(StructureError, match="^a vector field symbol must have xi-degree"
                                                 " exactly 1$"):
            c.evaluate(P)
        with pytest.raises(StructureError, match="xi-degree exactly 1"):
            lie_derivative_op(P)
    assert c.evaluate(Poly.zero(R2)).is_zero()


def test_operator_for_field_respects_the_term_budget(monkeypatch):
    # the field's operator is built by operators.operator_from_sum, as in
    # linear_combination, so it meets the term-budget check of compose
    C = build_bilinear(second_class_coefficients(2, 3), 2)
    X = x(0) * x(1) * xi(0)
    op = C.operator_for_field(X)
    assert len(op.terms) > 1
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", str(len(op.terms)))
    assert C.operator_for_field(X) == op
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", str(len(op.terms) - 1))
    with pytest.raises(ResourceLimitError):
        C.operator_for_field(X)


def test_case_a_no_solutions():
    for n in (2, 3):
        for k in (0, 1, 2, 3):
            assert recurrence_solutions(n, k, 0).dimension == 0
        assert recurrence_solutions(n, 1, 1).dimension == 0
        assert solve_equivariant_direct(n, 1, 1).dimension == 0
    assert matched_case(1, 1) == "a"
    assert matched_case(4, 0) == "a"


def test_case_b_line():
    for n in (2, 3):
        for k in (2, 3, 4):
            space = recurrence_solutions(n, k, 1)
            assert space.dimension == 1
            c = space.basis[0].normalized()
            assert c.get("alpha", 2) == 1
            assert c.get("beta", 2) == Fraction(-(k - 1), n + 1)
            assert matched_case(k, 1) == "b"


def test_case_c_two_dimensional():
    for n in (2, 3):
        for k in (3, 4, 5):
            assert recurrence_solutions(n, k, 2).dimension == 2
    assert matched_case(4, 2) == "c"


def test_case_d_one_dimensional():
    for n in (2, 3):
        for k in (2, 3, 4):
            space = recurrence_solutions(n, k, k)
            assert space.dimension == 1
    assert matched_case(3, 3) == "d"


def test_solver_agreement_spot():
    for n, k, p in [(2, 3, 2), (2, 4, 3), (3, 2, 1), (3, 3, 3), (2, 5, 2)]:
        r = recurrence_solutions(n, k, p)
        d = solve_equivariant_direct(n, k, p)
        assert r.same_span_as(d)


def test_same_span_as_is_false_across_shapes():
    # spaces of different (n, k, p) are never the same span, even where
    # their coefficient vectors are
    space = recurrence_solutions(2, 3, 1)
    assert space.same_span_as(SolutionSpace(2, 3, 1, space.basis))
    assert not space.same_span_as(SolutionSpace(3, 3, 1, space.basis))
    assert not space.same_span_as(recurrence_solutions(3, 3, 1))
    assert not space.same_span_as(recurrence_solutions(2, 4, 1))
    assert not space.same_span_as(recurrence_solutions(2, 3, 2))


def test_direct_solver_discovers_affine_vanishing():
    # the s < 2 coefficients are unknowns of the direct solver and must
    # come out zero on every solution
    for n, k, p in [(2, 3, 1), (2, 3, 2), (3, 2, 2)]:
        d = solve_equivariant_direct(n, k, p)
        for c in d.basis:
            for kind in ("alpha", "beta", "gamma"):
                for s, v in getattr(c, kind).items():
                    assert s >= 2 or v == 0


def test_cocycle_line_matches_second_class_coefficients():
    # p=2, k=3, n=2: (2, 9, 1, 2, -5) up to one overall scale
    space = impose_cocycle(recurrence_solutions(2, 3, 2))
    assert space.dimension == 1
    c = space.basis[0].normalized().scale(2)
    assert c.get("alpha", 2) == 2
    assert c.get("alpha", 3) == 9
    assert c.get("beta", 2) == 1
    assert c.get("beta", 3) == 2
    assert c.get("gamma", 2) == -5


def _x_degree(f):
    n = f.ring.n
    return max(sum(e[:n]) for e in f.terms)


def _xi_degree(f):
    n = f.ring.n
    return max(sum(e[n:]) for e in f.terms)


def test_cocycle_filter_builds_each_field_operator_once(monkeypatch):
    builds = Counter()
    original = BilinearOp.operator_for_field

    def counted(self, X):
        builds[(id(self), X)] += 1
        return original(self, X)

    monkeypatch.setattr(BilinearOp, "operator_for_field", counted)
    space = impose_cocycle(recurrence_solutions(2, 3, 2))
    assert space.to_json() == {
        "dimension": 1, "matched_paper_case": "c",
        "basis": [{"k": 3, "p": 2, "alpha": {"2": "-2/5", "3": "-9/5"},
                   "beta": {"2": "-1/5", "3": "-2/5"}, "gamma": {"2": "1"}}]}
    # fields (projective generators and quadratic monomials) and brackets
    # [Y, Z] (x-degree 3) share one memo: no (basis map, field) is built twice
    assert all(count == 1 for count in builds.values())
    assert any(_x_degree(X) <= 2 for _, X in builds)
    assert any(_x_degree(X) == 3 for _, X in builds)
    # C(0, P) = 0: a vanishing bracket [Y, Z] builds no operator
    assert not any(X.is_zero() for _, X in builds)


def _recording_reducer(record):
    """A RowReducer that passes every row it is fed to record first."""

    class Recording(RowReducer):
        def add_row(self, row):
            record(row)
            return super().add_row(row)

    return Recording


def test_cocycle_filter_adds_no_row_when_every_defect_vanishes(monkeypatch):
    # the degree-drop-one line at n = 2, k = 3 vanishes on sl(3), so its
    # vanishing rows are all zero, and at p = 1 no field pair is drawn: no
    # row is fed and no bracket of fields is taken
    rows, drawn = [], []
    original_defects = ansatz.cocycle_defects

    def recorded_defects(rules, Y, Z):
        drawn.append((Y, Z))
        return original_defects(rules, Y, Z)

    space = recurrence_solutions(2, 3, 1)
    monkeypatch.setattr(ansatz, "RowReducer", _recording_reducer(rows.append))
    monkeypatch.setattr(ansatz, "cocycle_defects", recorded_defects)
    kept = impose_cocycle(space)
    assert rows == [] and drawn == []
    monkeypatch.undo()
    assert kept.same_span_as(space)


def test_cocycle_defects_match_the_pointwise_identity():
    # two rules at (n, k, p) = (2, 3, 2): the cocycle c2 and a non-cocycle
    k = 3
    rules = [build_bilinear(second_class_coefficients(2, k), 2).operator_for_field,
             build_bilinear(AnsatzCoefficients(k, 2, gamma={2: 1}), 2).operator_for_field]
    Y, Z = x(0) * x(0) * xi(0), x(0) * x(1) * xi(1)
    bracket = schouten_bracket(Y, Z)
    assert not bracket.is_zero()
    defects = cocycle_defects(rules, Y, Z)
    assert len(defects) == len(rules)
    symbols = [Poly.monomial(R2, u + v) for u in monomials_up_to(2, 2)
               for v in xi_simplex(2, k)]
    for r, defect in zip(rules, defects):
        for P in symbols:
            assert defect.apply(P) == (
                r(bracket).apply(P)
                + hamiltonian_action(Z, r(Y).apply(P)) - r(Y).apply(hamiltonian_action(Z, P))
                + r(Z).apply(hamiltonian_action(Y, P)) - hamiltonian_action(Y, r(Z).apply(P)))
    # c2 is a cocycle; the gamma_2 = 1 line is not, and fails at this pair
    assert [d.symbol_map(k).is_zero() for d in defects] == [True, False]


def test_cocycle_defects_evaluate_no_rule_at_a_vanishing_bracket():
    seen = []
    op = build_bilinear(AnsatzCoefficients(3, 2, gamma={2: 1}), 2).operator_for_field

    def rule(X):
        seen.append(X)
        return op(X)

    defects = cocycle_defects([rule], xi(0), xi(1))
    assert len(defects) == 1
    assert set(seen) == {xi(0), xi(1)}


def test_direct_solver_shares_generator_brackets_and_operators(monkeypatch):
    k = 3
    calls = Counter()
    builds = Counter()
    original = ansatz.schouten_bracket
    original_build = BilinearOp.operator_for_field

    bracketed = []

    def counted(f, g):
        calls[(f, g)] += 1
        bracketed.append((id(f), id(g)))
        return original(f, g)

    def counted_build(self, X):
        builds[(id(self), X)] += 1
        return original_build(self, X)

    defects = Counter()
    original_sum = ansatz.commutator_sum

    def counted_sum(pairs, base=()):
        defects[tuple((id(L), id(A)) for L, A in pairs)] += 1
        return original_sum(pairs, base=base)

    monkeypatch.setattr(ansatz, "schouten_bracket", counted)
    monkeypatch.setattr(BilinearOp, "operator_for_field", counted_build)
    monkeypatch.setattr(ansatz, "commutator_sum", counted_sum)
    space = solve_equivariant_direct(2, k, 2)
    assert space.to_json() == {
        "dimension": 2, "matched_paper_case": "c",
        "basis": [{"k": 3, "p": 2, "alpha": {"2": "-3/7", "3": "-3"},
                   "beta": {"2": "1/7", "3": "1"}, "gamma": {}},
                  {"k": 3, "p": 2, "alpha": {"2": "-4/7", "3": "-3"},
                   "beta": {"2": "-1/7"}, "gamma": {"2": "1"}}]}
    # no {X, P} on a degree-k symbol P is formed: rows are read off the
    # defect operators' canonical forms, and only brackets [X, Y] of fields
    # are taken
    symbol_calls = [count for (_, g), count in calls.items()
                    if not g.is_zero() and _xi_degree(g) == k]
    assert not symbol_calls
    # one defect operator [L_X, C_t(Y)] - C_t([X, Y]), a single commutator,
    # per quadratic generator X (Xbar_1 only), test field Y (the two fields
    # x2^p xi1 and x2^p xi2 of step 6, p = 2, each the interned one, in that
    # order) and ansatz term t (10)
    assert all(len(key) == 1 and count == 1 for key, count in defects.items())
    assert len({key[0][0] for key in defects}) == 1
    assert len(defects) == 1 * 2 * len(full_indices(k, 2)) == 20
    X = sl_generators(2).quadratic[0]
    assert bracketed == [(id(X), id(Y)) for Y in field_monomials(2, [(0, 2)])]
    # the generators are no test fields; the vanishing rows and the
    # equivariance rows share one generator, Xbar_1, whose operator is built
    # once per term, and no rule is built on any other generator
    generators = set(sl_generators(2).all())
    generator_builds = Counter(X for _, X in builds if X in generators)
    assert generator_builds == {sl_generators(2).quadratic[0]: len(full_indices(k, 2))}
    # generators, test fields and brackets [X, Y] share one memo
    assert all(count == 1 for count in builds.values())
    # C(0, P) = 0: a vanishing bracket [X, Y] builds no operator
    assert not any(X.is_zero() for _, X in builds)


def _equivariance_defect(rule, A, Y):
    """E(A, Y) = [L_A, C(Y, .)] - C([A, Y], .) for the rule F |-> C(F, .)."""
    bracket = schouten_bracket(A, Y)
    base = [] if bracket.is_zero() else [(-1, rule(bracket))]
    return commutator_sum([(lie_derivative_op(A), rule(Y))], base=base)


def test_affine_fields_are_equivariant_term_by_term():
    # step 2 of solve_equivariant_direct's proof: each ansatz term alone,
    # whatever its coefficient, is equivariant under every affine generator;
    # checked on every monomial field of degree <= 3
    checked = 0
    for n, k, p in [(2, 2, 0), (2, 2, 1), (2, 3, 2), (2, 4, 4), (3, 3, 2), (3, 4, 3)]:
        fields = field_monomials(n, monomials_up_to(n, 3))
        affine = sl_generators(n).affine()
        for kind, s in full_indices(k, p):
            rule = cache(BilinearOp(n, p, {(kind, s): 1}, 1).operator_for_field)
            for A in affine:
                for Y in fields:
                    assert _equivariance_defect(rule, A, Y).symbol_map(k).is_zero()
                    checked += 1
    assert checked == 120 * (4 + 7 + 10 + 10) + 720 * (10 + 13) == 20280


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_fields_carry_the_first_quadratic_generator_to_the_others(n):
    # step 5 of solve_equivariant_direct's proof: [x^i xi_1, Xbar_1] = Xbar_i;
    # and the other brackets of _vanishing_system's lemma:
    # [xi_j, Xbar_a] = delta_ja E + x^a xi_j, summed over a = j to (n + 1) E,
    # and [xi_m, x^a xi_j] = delta_ma xi_j
    fam = sl_generators(n)
    E, zero = euler_field(n), Poly.zero(single_ring(n))
    for i in range(n):
        assert schouten_bracket(fam.linear[(i, 0)], fam.quadratic[0]) == fam.quadratic[i]
        for j in range(n):
            assert schouten_bracket(fam.translations[j], fam.quadratic[i]) == (
                fam.linear[i, j] + (E if i == j else zero))
            for m in range(n):
                assert schouten_bracket(fam.translations[m], fam.linear[i, j]) == (
                    fam.translations[j] if m == i else zero)
    assert sum((schouten_bracket(fam.translations[j], fam.quadratic[j]) for j in range(n)),
               zero) == E.scale(n + 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_first_quadratic_generator_spans_sl_under_the_affine_fields(n):
    # _vanishing_system's lemma on the real bracket: the closure of Xbar_1
    # under the affine fields is all of sl(n+1), of dimension (n+1)^2 - 1
    fam = sl_generators(n)
    rank = gl_closure.affine_closure(n, [fam.quadratic[0]]).rank
    assert rank == (n + 1) ** 2 - 1 == {2: 8, 3: 15, 4: 24}[n]
    assert gl_closure.affine_closure(n, [fam.quadratic[0]] + fam.all()).rank == rank


@pytest.mark.parametrize("n", [2, 3, 4])
def test_no_affine_field_spans_sl_under_the_affine_fields(n):
    # the mutants of the lemma's generator: a translation, an off-diagonal
    # and a diagonal linear field, and the Euler field; x1 xi1 reaches all of
    # aff(n), of dimension n^2 + n, and no further
    fam = sl_generators(n)
    ranks = [gl_closure.affine_closure(n, [Y]).rank
             for Y in (fam.translations[0], fam.linear[0, 1], euler_field(n), fam.linear[0, 0])]
    assert ranks == [n, n * n + n - 1, n + 1, n * n + n]
    assert gl_closure.affine_closure(n, fam.affine()).rank == n * n + n


@pytest.mark.parametrize("n", [2, 3])
def test_the_vanishing_rows_of_xbar1_reduce_as_those_of_every_generator(n):
    # the lemma as the solvers see it: for the direct solver's term forms and
    # for impose_cocycle's forms of the recurrence spaces and of the whole
    # ansatz span, the RowReducer after Xbar_1's rows holds the same reduced
    # echelon form as after the rows of all (n+1)^2 - 1 generators
    generators = sl_generators(n).all()
    ranks = []
    for k in range(1, 5):
        for p in range(k + 1):
            indices = full_indices(k, p)
            units = [AnsatzCoefficients.from_vector(k, p, indices, [int(i == j) for j in indices])
                     for i in indices]
            for forms in ([({(kind, s): 1}, term_norm(kind, s, p)) for kind, s in indices],
                          [integer_form(c) for c in recurrence_solutions(n, k, p).basis],
                          [integer_form(c) for c in units]):
                rules, reducer = ansatz._vanishing_system(n, k, p, forms)
                every = RowReducer(len(forms))
                for G in generators:
                    ansatz._add_rows(every, [r(G) for r in rules], k)
                assert reducer.pivot_rows == every.pivot_rows, (k, p)
                ranks.append(reducer.rank)
    assert len(ranks) == 3 * 14 and max(ranks) > 0 and 0 in ranks


def test_vanishing_rows_on_an_affine_field_alone_are_too_weak(monkeypatch):
    # the rows have teeth: put on x1 xi1, which spans aff(2) but no
    # quadratic generator, they let through maps that do not vanish on sl(3)
    fam = sl_generators(2)
    weak = dataclasses.replace(fam, quadratic=(fam.linear[0, 0],))
    indices = full_indices(3, 2)
    whole = SolutionSpace(2, 3, 2, [
        AnsatzCoefficients.from_vector(3, 2, indices, [int(i == j) for j in indices])
        for i in indices])
    monkeypatch.setattr(ansatz, "sl_generators", lambda n: weak)
    assert impose_cocycle(whole).dimension == 2
    assert solve_equivariant_direct(2, 2, 1).dimension == 2
    monkeypatch.undo()
    assert impose_cocycle(whole).dimension == 1
    assert solve_equivariant_direct(2, 2, 1).dimension == 1


def test_direct_solver_needs_the_fields_of_degree_p(monkeypatch):
    # step 4's bound |u| <= p is tight, and step 6's pair has teeth: with the
    # degree-(p - 1) pair x_n^(p-1) xi_1, x_n^(p-1) xi_n in place of the
    # degree-p one, or with no equivariance row at all, the rows still hold
    # on the true space but no longer cut it out, on each of the 37 cells
    # with p >= 2 of the pinned grid at n <= 4
    original = ansatz.field_monomials
    mutants = [lambda n, shapes: original(n, [u[:-1] + (u[-1] - 1,) for u in shapes]),
               lambda n, shapes: original(n, [])]
    cells = [(n, k, p) for n, kmax in ((2, 7), (3, 5), (4, 4))
             for k in range(2, kmax + 1) for p in range(2, k + 1)]
    assert len(cells) == 37
    for n, k, p in cells:
        true = recurrence_solutions(n, k, p).vectors()
        for mutant in mutants:
            monkeypatch.setattr(ansatz, "field_monomials", mutant)
            short = solve_equivariant_direct(n, k, p).vectors()
            monkeypatch.undo()
            assert len(short) > len(true), (n, k, p)
            assert rank_of(short + true) == len(short)


def _proved_cocycle_pairs(n, p):
    """The monomial field pairs (x^u xi_m, x^v xi_l), |u|, |v| >= 2 and
    |u| + |v| <= p + 2, each unordered pair once: the rows of
    impose_cocycle's proof with the whole quadratic block, which the two
    quadratic pairs of cocycle_filter_pairs generate (step 3)."""
    fields = [(d, Y) for d in range(2, p + 1) for Y in field_monomials(n, xi_simplex(n, d))]
    return [(Y, Z) for i, (d, Y) in enumerate(fields) for e, Z in fields[i + 1:]
            if d + e <= p + 2]


def test_surviving_filter_lines_are_cocycles_on_every_field_pair():
    # every line the filter keeps at p = 2 lies in the direct solver's space,
    # which is exactly the sl-equivariant maps vanishing on sl.  At p = 2
    # the filter imposes the two pairs that generate the quadratic block,
    # |u| + |v| = p + 2 = 4, so the defects are checked on the first slice
    # no row reaches: quadratic x cubic monomial fields, |u| + |v| = p + 3,
    # where impose_cocycle's proof makes its induction step.  n = 4 is left out of that slice only for time
    # (3200 pairs per cell, about 10 s); its cells keep the solver check.
    # At p = 1 no pair is imposed and the filter keeps the whole space
    lines = pairs_checked = 0
    for n, kmax in ((2, 6), (3, 5), (4, 4)):
        assert _proved_cocycle_pairs(n, 1) == []
        pairs = [(Y, Z) for Y in field_monomials(n, xi_simplex(n, 2))
                 for Z in field_monomials(n, xi_simplex(n, 3))]
        for k in range(2, kmax + 1):
            line = recurrence_solutions(n, k, 1)
            assert impose_cocycle(line).same_span_as(line)
            space = recurrence_solutions(n, k, 2)
            assert space.same_span_as(solve_equivariant_direct(n, k, 2))
            if n == 4:
                continue
            kept = impose_cocycle(space)
            rules = [build_bilinear(c, n).operator_for_field for c in kept.basis]
            for Y, Z in pairs:
                assert all(d.symbol_map(k).is_zero() for d in cocycle_defects(rules, Y, Z))
            lines += kept.dimension
            pairs_checked += len(pairs)
    assert (lines, pairs_checked) == (9, 2400)


def _quadratic_generator_pairs(n):
    """(x1^2 xi1, x1 x2 xi1) and (x1^2 xi1, x2^2 xi2), built fresh."""
    ring = single_ring(n)

    def field(u, m):
        return Poly.monomial(ring, u + (0,) * (n - 2) + unit_deriv(ring, ring.xi(m))[n:])

    return [(field((2, 0), 0), field((1, 1), 0)), (field((2, 0), 0), field((0, 2), 1))]


@pytest.mark.parametrize("n", [2, 3])
def test_cocycle_filter_pairs_are_the_proved_pairs(n):
    # the two quadratic generator pairs, then each proved pair with
    # |u| + |v| >= 5 once, in ascending |u| + |v| and, within one total,
    # in the order of the proved list; none for p <= 1.  Every field is
    # the interned one
    assert list(cocycle_filter_pairs(n, 0)) == list(cocycle_filter_pairs(n, 1)) == []
    interned = set(map(id, field_monomials(n, [u for d in range(2, 5)
                                               for u in xi_simplex(n, d)])))
    for p in range(2, 5):
        pairs = list(cocycle_filter_pairs(n, p))
        proved = _proved_cocycle_pairs(n, p)
        assert pairs == _quadratic_generator_pairs(n) + [
            (Y, Z) for total in range(5, p + 3) for Y, Z in proved
            if _x_degree(Y) + _x_degree(Z) == total]
        assert {id(F) for pair in pairs for F in pair} <= interned
    assert len(list(cocycle_filter_pairs(n, 2))) == 2


def test_cocycle_filter_needs_the_pairs_of_degree_p_plus_two(monkeypatch):
    # the bound |u| + |v| <= p + 2 is tight at p = 2: without the pairs of
    # quadratic fields the rows still hold on the cocycle line but no longer
    # cut it out of the equivariant plane
    original = ansatz.cocycle_filter_pairs
    for n in (2, 3):
        space = recurrence_solutions(n, 3, 2)
        assert impose_cocycle(space).dimension == 1
        monkeypatch.setattr(ansatz, "cocycle_filter_pairs", lambda n, p: (
            (Y, Z) for Y, Z in original(n, p) if _x_degree(Y) + _x_degree(Z) != p + 2))
        assert impose_cocycle(space).dimension == 2
        monkeypatch.undo()


def _quadratic_block(n):
    """The quadratic fields by exponent, and every pair of them as a wedge key."""
    fields = {next(iter(Y.terms)): Y for Y in field_monomials(n, xi_simplex(n, 2))}
    return fields, list(combinations(sorted(fields), 2))


def _c2_mutant(n, k):
    """The c2 line with beta_3 + 1/7: equivariant, not a cocycle."""
    line = second_class_coefficients(n, k)
    return AnsatzCoefficients(k, 2, alpha=line.alpha, gamma=line.gamma,
                              beta={**line.beta, 3: line.beta[3] + Fraction(1, 7)})


@pytest.mark.parametrize("n", [2, 3])
def test_quadratic_pair_defects_form_a_gl_submodule(n):
    # impose_cocycle's step 3a: for every linear field A and every pair w of
    # quadratic fields, [L_A, dC(w)] = dC(A.w) on S_k, on the cocycle line and
    # on the c2 mutant alike; the mutant's defects are not all zero, so the
    # identity is met with both sides nonzero
    k = 3
    fields, keys = _quadratic_block(n)
    for line, cocycle in ((second_class_coefficients(n, k), True), (_c2_mutant(n, k), False)):
        rule = cache(build_bilinear(line, n).operator_for_field)

        @cache
        def defect(key):
            [d] = cocycle_defects([rule], *(fields[e] for e in key))
            return d

        assert all(defect(key).symbol_map(k).is_zero() for key in keys) == cocycle
        for A in sl_generators(n).linear.values():
            L_A = lie_derivative_op(A)
            for key in keys:
                moved = [(-c, defect(image)) for image, c in gl_closure.act(A, {key: 1}).items()]
                assert commutator_sum([(L_A, defect(key))], base=moved).symbol_map(k).is_zero()


def _reduction_move(n, key):
    """impose_cocycle's step 3d for a monomial pair using four coordinates or more:
    (E, w, scale) with key = scale * E.w and w a pair using one coordinate fewer."""
    (u, m), (v, l) = ((e[:n], e[n:].index(1)) for e in key)
    slots = Counter([m, l] + [i for w in (u, v) for i in range(n) for _ in range(w[i])])
    once = min(i for i in slots if slots[i] == 1)
    swap = once == m or (once not in (m, l) and v[once] == 1)
    (u, m), (v, l) = ((v, l), (u, m)) if swap else ((u, m), (v, l))
    sign = -1 if swap else 1

    def field(x, i):
        return tuple(x) + tuple(int(j == i) for j in range(n))

    linear = sl_generators(n).linear
    if once == l:
        a = min(set(slots) - {m, l})
        return linear[a, l], (field(u, m), field(v, a)), -sign
    b = once
    a = min(set(slots) - {b} - {i for i in range(n) if v[i]})
    shifted = [e + (i == a) - (i == b) for i, e in enumerate(u)]
    return linear[b, a], (field(shifted, m), field(v, l)), Fraction(sign, u[a] + 1)


@pytest.mark.parametrize("n, reduced", [(4, 258), (5, 1545)])
def test_index_reduction_moves_are_exact(n, reduced):
    # impose_cocycle's step 3d: every pair of quadratic fields that uses four
    # coordinates or more is a nonzero multiple of E_ab acting on a pair that
    # uses one coordinate fewer, exactly as the proof's two moves state
    def used(key):
        return {i for e in key for i in range(n) if e[i] or e[n + i]}

    _, keys = _quadratic_block(n)
    wide = [key for key in keys if len(used(key)) >= 4]
    for key in wide:
        E, (Y, Z), scale = _reduction_move(n, key)
        w = gl_closure.wedge(*(Poly.monomial(E.ring, e) for e in (Y, Z)))
        [smaller] = w
        assert used(smaller) < used(key) and len(used(smaller)) == len(used(key)) - 1
        image = gl_closure.act(E, w)
        assert {e: scale * c for e, c in image.items()} == {key: 1}, key
    assert len(wide) == reduced


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_two_quadratic_pairs_generate_the_block(n):
    # impose_cocycle's step 3b at n = 2 and 3, and n = 4 as a cross-check of
    # 3c and 3d: the gl(n)-closure of the filter's two quadratic pairs is
    # every pair of quadratic fields
    fields, keys = _quadratic_block(n)
    generators = list(cocycle_filter_pairs(n, 2))
    assert generators == _quadratic_generator_pairs(n)
    assert gl_closure.rank(gl_closure.closure(n, generators)) == len(keys) == comb(len(fields), 2)


def test_neither_quadratic_pair_nor_a_weaker_list_generates_the_block():
    # mutants of the pair list at n = 2, where the block has 15 pairs: each
    # pair alone, and either pair replaced by (x1^2 xi1, x1^2 xi2)
    first, second = _quadratic_generator_pairs(2)
    other = (first[0], Poly.monomial(R2, (2, 0, 0, 1)))
    ranks = [gl_closure.rank(gl_closure.closure(2, pairs))
             for pairs in ([first], [second], [first, other], [other, second])]
    assert ranks == [9, 6, 14, 11]


def test_the_two_quadratic_pairs_filter_as_the_whole_block(monkeypatch):
    # impose_cocycle on the two pairs equals impose_cocycle on every pair of
    # quadratic fields, for every cell, and every kept line passes the
    # identity check on every pair of quadratic fields
    cells = [(n, k, p) for n, kmax in ((2, 6), (3, 5), (4, 4))
             for k in range(kmax + 1) for p in range(k + 1)]
    ours = {cell: impose_cocycle(recurrence_solutions(*cell)) for cell in cells}
    monkeypatch.setattr(ansatz, "cocycle_filter_pairs", _proved_cocycle_pairs)
    assert {cell: space.to_json() for cell, space in ours.items()} == {
        cell: impose_cocycle(recurrence_solutions(*cell)).to_json() for cell in cells}
    monkeypatch.undo()
    lines = 0
    for (n, k, p), space in ours.items():
        block = _proved_cocycle_pairs(n, 2)
        for line in space.basis:
            check = cocycle_check(bilinear_cocycle(n, line, "kept"), 2, block)
            assert check.holds and check.pairs_checked == len(block)
            lines += 1
    # one line per cell with p = 1 or 2 and k >= 2
    assert lines == 2 * (5 + 4 + 3)


def test_cocycle_filter_drops_cocycles_that_do_not_vanish_on_sl():
    # the gamma1 line (alpha_2 = 1, p = 1) and the div line (beta_1, p = 0)
    # are cocycles but do not vanish on sl(n+1): the vanishing rows cut each
    # to dimension 0
    for n in (2, 3):
        for line in (AnsatzCoefficients(3, 1, alpha={2: 1}),
                     AnsatzCoefficients(3, 0, beta={1: 1})):
            c = bilinear_cocycle(n, line, "line")
            assert every_pair_check(c, 3)["holds"] and not vanishes_on_sl(c)
            assert impose_cocycle(SolutionSpace(n, 3, line.p, [line])).dimension == 0


@pytest.mark.parametrize("n, k, p", [(2, 2, 0), (2, 3, 1), (2, 2, 2), (2, 3, 2), (2, 3, 3),
                                     (3, 3, 2)])
def test_cocycle_filter_is_exact_on_any_ansatz_span(n, k, p):
    # inputs need not be equivariant: on the whole ansatz span the filter
    # returns the relative cocycles of the equivariant space, each
    # single-term line survives iff it lies in that span, and every kept line
    # vanishes on sl(n+1) and is a cocycle up to field degree 4
    indices = full_indices(k, p)
    units = [AnsatzCoefficients.from_vector(k, p, indices, [int(i == j) for j in indices])
             for i in indices]
    kept = impose_cocycle(SolutionSpace(n, k, p, units))
    assert kept.same_span_as(impose_cocycle(recurrence_solutions(n, k, p)))
    for unit in units:
        in_span = rank_of(kept.vectors() + [unit.as_vector(indices)]) == kept.dimension
        assert impose_cocycle(SolutionSpace(n, k, p, [unit])).dimension == in_span
    for line in kept.basis:
        c = bilinear_cocycle(n, line, "kept")
        assert vanishes_on_sl(c) and every_pair_check(c, 4)["holds"]


def _row_digest(monkeypatch, solve) -> str:
    """SHA-256 over every row fed to the solvers' RowReducers during solve(), in order."""
    digest = hashlib.sha256()

    def hashed(row):
        digest.update(repr([(j, rat_str(c)) for j, c in sorted(row.items())]).encode())
        digest.update(b"\n")

    monkeypatch.setattr(ansatz, "RowReducer", _recording_reducer(hashed))
    solve()
    monkeypatch.undo()
    return digest.hexdigest()


def test_row_generators_feed_pinned_rows(monkeypatch):
    # the rows themselves, not just the answers, are pinned: a change to the
    # operator kernels or the row generators must reproduce them exactly.
    # They are the integer rows, before any unknown's scale; the vanishing
    # rows are those of Xbar_1 alone, and its equivariance rows are those
    # against x2^2 xi1 and x2^2 xi2 alone
    space = recurrence_solutions(2, 3, 2)
    assert _row_digest(monkeypatch, lambda: solve_equivariant_direct(2, 3, 2)) == (
        "2952d616585f90bd44f533a182d926ec47377f184844d4234b4bf7f1481e5b14")
    assert _row_digest(monkeypatch, lambda: impose_cocycle(space)) == (
        "d6f2fead8d8b262c8bf68a6c2dd420e3beea1e921d01426e307e2e703b9577bb")
    # every pair defect of the filter at (3, 2) has x-order 0; at (4, 4) the
    # first pair's defect has x-order 2 and already completes the rank
    top = recurrence_solutions(2, 4, 4)
    assert _row_digest(monkeypatch, lambda: impose_cocycle(top)) == (
        "110dde7643d18e1ef725596eadf4abfbc52df7b65aaaa0624d4723d7472f3a0c")


def test_row_generators_feed_pinned_rows_in_dimension_three(monkeypatch):
    # n = 3 reaches what n = 2 cannot: xi3 in the canonical forms.  The
    # filter's two quadratic pairs use x1 and x2 only, at every n, and
    # generate the pairs in three variables, such as x1x2 xi3 with x3^2 xi1
    space = recurrence_solutions(3, 3, 2)
    assert _row_digest(monkeypatch, lambda: solve_equivariant_direct(3, 3, 2)) == (
        "82eb4f1709ea7da3552e660eac0ab942c9f9b3dcf7569e7c6f1f18817b0cf524")
    assert _row_digest(monkeypatch, lambda: impose_cocycle(space)) == (
        "6864040cc32b7f6120753cc55aeb64b56776e9f2a23f8fda5ef7b519330cea0b")


def test_the_direct_solver_grid_is_pinned():
    # every cell with n = 2, k <= 7; n = 3, k <= 5; n = 4, k <= 4 and
    # n = 5, k <= 3, every p: the SHA-256 of each direct space's to_json and
    # its agreement with the recurrence, as computed when the solver
    # imposed the equivariance rows of every monomial field of degree
    # 2..p.  The two fields of step 6 must give these bytes exactly
    grid = {}
    for n, kmax in ((2, 7), (3, 5), (4, 4), (5, 3)):
        for k in range(kmax + 1):
            for p in range(k + 1):
                space = solve_equivariant_direct(n, k, p)
                grid[f"{n},{k},{p}"] = [space.to_json(),
                                        space.same_span_as(recurrence_solutions(n, k, p))]
    assert len(grid) == 82 and all(agrees for _, agrees in grid.values())
    assert hashlib.sha256(json.dumps(grid, sort_keys=True).encode()).hexdigest() == (
        "a755c7fcbe63709a221e250c47fd02f439b384e335ad7a6d52f8a4b104e6e68e")


def _rank(rows, ncols) -> int:
    reducer = RowReducer(ncols)
    for row in rows:
        reducer.add_row(row)
    return reducer.rank


def _sampled_rows(ops, k):
    """The rows of ops applied to x^u xi^v, for every xi^v of degree k and
    every |u| up to the largest x-order among the ops' terms (no rows when
    every op is zero)."""
    ring = ops[0].ring
    n = ring.n
    r = max((sum(mu[:n]) for op in ops for mu in op.terms), default=0)
    return [row for u in monomials_up_to(n, r) for v in xi_simplex(n, k)
            for row in keyed_rows([op.apply(Poly.monomial(ring, u + v)).terms
                                   for op in ops])]


@pytest.mark.parametrize("n", [2, 3])
def test_both_row_generators_are_exact_on_each_call(monkeypatch, n):
    # the oracle fixes the ops on S_k: for fixed xi^v, a combination of x-order
    # <= r is an x-operator sum_{|a| <= r} A_a d_x^a, and its value on x^u is
    # u! A_u plus terms in A_a for a < u, so its values on |u| <= r fix every
    # A_a.  Each oracle row is implied by the canonical-form rows, so equal
    # rank means equal span: the rows fed are exactly the conditions on S_k
    k, p = 3, 2
    calls = []
    original = ansatz._add_rows

    def checked(reducer, ops, degree):
        assert degree == k
        exact = keyed_rows([op.symbol_map(k).entries for op in ops])
        calls.append((_rank(_sampled_rows(ops, k), len(ops)), _rank(exact, len(ops))))
        return original(reducer, ops, degree)

    monkeypatch.setattr(ansatz, "_add_rows", checked)
    direct = solve_equivariant_direct(n, k, p)
    direct_calls = len(calls)
    impose_cocycle(direct)
    assert 0 < direct_calls < len(calls)
    assert [c for c in calls if c[0] != c[1]] == []


def _rational_form(coeffs):
    """The candidate's weights over the normalized terms, its coefficients, with scale 1."""
    return {(kind, s): coeffs.get(kind, s) for kind, s in full_indices(coeffs.k, coeffs.p)
            if coeffs.get(kind, s) != 0}, 1


def _solver_runs(monkeypatch):
    """Both solvers at n = 2, 3 and k <= 4 at every p, with impose_cocycle on the
    recurrence spaces: every row their RowReducers receive, every coefficient
    of every rule value they build, and the to_json of every space they return."""
    rows, values, bases = [], [], []
    for_field = BilinearOp.operator_for_field

    def recording_value(self, X):
        op = for_field(self, X)
        values.extend(c for coeff in op.terms.values() for c in coeff.terms.values())
        return op

    monkeypatch.setattr(ansatz, "RowReducer", _recording_reducer(rows.append))
    monkeypatch.setattr(BilinearOp, "operator_for_field", recording_value)
    for n in (2, 3):
        for k in range(1, 5):
            for p in range(k + 1):
                bases.append(solve_equivariant_direct(n, k, p).to_json())
                bases.append(impose_cocycle(recurrence_solutions(n, k, p)).to_json())
    monkeypatch.undo()
    return rows, values, bases


def test_integer_rules_feed_the_rows_of_the_rational_rules(monkeypatch):
    # each unknown's rule is integral, so every row is an integer vector, and
    # its scale is applied once, to the nullspace; the bases must equal those
    # of the rational rules (scale 1), so a rescale dropped, inverted or
    # missing its free column's scale shows.  The rational rows carry
    # fractions, so the scales are not all 1
    rows, values, bases = _solver_runs(monkeypatch)
    assert rows and all(type(c) is int for row in rows for c in row.values())
    assert values and all(type(c) is int for c in values)
    # the direct solver's unknowns are the terms, impose_cocycle's the lines;
    # a fresh term parts table regroups the normalized terms, so every rule
    # of the rational run is rebuilt from them
    monkeypatch.setattr(ansatz, "ansatz_term_op", lambda n, kind, s, p: ansatz_term_op(
        n, kind, s, p).scale(term_norm(kind, s, p)))
    monkeypatch.setattr(ansatz, "_term_parts", lru_cache(maxsize=None)(
        ansatz._term_parts.__wrapped__))
    monkeypatch.setattr(ansatz, "term_norm", lambda kind, s, p: 1)
    monkeypatch.setattr(ansatz, "integer_form", _rational_form)
    rational_rows, rational_values, rational_bases = _solver_runs(monkeypatch)
    assert bases == rational_bases
    assert any(type(c) is Fraction for row in rational_rows for c in row.values())
    assert any(type(c) is Fraction for c in rational_values)


def test_integer_form_times_its_scale_is_the_candidate_operator():
    # scale * sum_t w_t ansatz_term_op(t) is the line's operator by its
    # definition, the weights are nonzero ints in full_indices order, and
    # build_bilinear's parts are those of that operator
    for coeffs in (AnsatzCoefficients(3, 2, alpha={2: 1, 3: 5}, beta={2: Fraction(1, 2)},
                                      gamma={2: -3}),
                   AnsatzCoefficients(2, 2, beta={1: Fraction(-2, 7)}),
                   AnsatzCoefficients(3, 1)):
        weights, scale = integer_form(coeffs)
        assert list(weights) == [t for t in full_indices(coeffs.k, coeffs.p)
                                 if coeffs.get(*t) != 0]
        assert all(type(w) is int and w != 0 for w in weights.values())
        assert type(scale) is int or scale.numerator == 1
        op = linear_combination(single_ring(4), [ansatz_term_op(2, kind, s, coeffs.p)
                                                 for kind, s in weights], list(weights.values()))
        assert all(type(c) is int for coeff in op.terms.values() for c in coeff.terms.values())
        assert op.scale(scale) == line_operator(coeffs, 2)
        assert ({ab: dict(terms) for ab, terms in build_bilinear(coeffs, 2).parts.items()}
                == regrouped_parts(op.scale(scale)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_build_bilinear_parts_are_those_of_the_line_operator(n):
    # BilinearOp keeps only its parts, scaled once: they must be the parts
    # of the line's operator by its definition, sum coeff * term_norm *
    # ansatz_term_op, with every constant normalized; the lines are c1, c2,
    # gamma1, the top quantization line at weights 0, 1/3 and 1/2, and the
    # c2 mutant beta_3 + 1/7, at k <= 4; each line with the integer weight
    # of its first index off by one must fail the equality
    lines = []
    for k in range(1, 5):
        lines += [AnsatzCoefficients(k, 1, alpha={2: -1}, beta={2: -w})
                  for w in (0, Fraction(1, 3), Fraction(1, 2))]
        if k >= 2:
            c2 = second_class_coefficients(n, k)
            lines += [AnsatzCoefficients(k, 1, alpha={2: 2},
                                         beta={2: Fraction(-2 * (k - 1), n + 1)}),
                      AnsatzCoefficients(k, 1, alpha={2: 2}), c2,
                      shifted_line(c2, "beta", 3, Fraction(1, 7))]
    scaled = 0
    for line in lines:
        expected = regrouped_parts(line_operator(line, n))
        parts = build_bilinear(line, n).parts
        assert {ab: dict(terms) for ab, terms in parts.items()} == expected, line
        assert all(normalized(c for _, c in terms) for terms in parts.values())
        weights, scale = integer_form(line)
        t = full_indices(line.k, line.p)[0]
        mutant = BilinearOp(n, line.p, {**weights, t: weights.get(t, 0) + 1}, scale).parts
        assert {ab: dict(terms) for ab, terms in mutant.items()} != expected, line
        scaled += scale != 1
    assert len(lines) == 24 and scaled > 0


def test_warm_rules_form_no_operator_in_single_ring_2n(monkeypatch):
    # a line's parts are summed from the term parts table: once the table is
    # warm, build_bilinear, impose_cocycle and the direct solver construct
    # operators in single_ring(n) only, neither a line's nor a term's in
    # single_ring(2n), and give the same answers as before the spy
    init = PolyDiffOp.__init__
    rings = []

    def recording(self, ring, terms, **kw):
        rings.append(ring)
        init(self, ring, terms, **kw)

    for n, k in ((2, 3), (3, 4)):
        X = field_monomials(n, [(1, 1) + (0,) * (n - 2)])[0]
        lines = [second_class_coefficients(n, k), AnsatzCoefficients(k, 1, alpha={2: 2}),
                 AnsatzCoefficients(k, 2, beta={2: Fraction(1, 3)}, gamma={1: 5})]

        def run():
            return ([build_bilinear(line, n).operator_for_field(X) for line in lines],
                    [impose_cocycle(recurrence_solutions(n, k, p)) for p in range(k + 1)],
                    [solve_equivariant_direct(n, k, p) for p in range(k + 1)])

        warm = run()
        monkeypatch.setattr(PolyDiffOp, "__init__", recording)
        assert run() == warm
        monkeypatch.undo()
        assert single_ring(n) in rings and single_ring(2 * n) not in rings, n
        rings.clear()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ansatz_term_size_is_checked_before_composing(monkeypatch, n):
    # the count m(a) m(b), n times that with a lead, is the composed term
    # count: with the budget one below it, the check fires and names it
    for p in range(6):
        for kind, s in full_indices(p + 1, p):
            size = len(ansatz_term_op(n, kind, s, p).terms)
            monkeypatch.setenv("COHOMOLAB_MAX_TERMS", str(size - 1))
            with pytest.raises(ResourceLimitError) as err:
                ansatz_term_op.__wrapped__(n, kind, s, p)
            assert str(err.value) == (f"{size} terms of the ansatz term {kind}_{s}"
                                      f" (n = {n}, p = {p}) exceed COHOMOLAB_MAX_TERMS={size - 1}")
            monkeypatch.delenv("COHOMOLAB_MAX_TERMS")


def test_cocycle_general_second_class_coefficients():
    for n in (2, 3):
        for k in (3, 4, 5):
            space = impose_cocycle(recurrence_solutions(n, k, 2))
            assert space.dimension == 1
            c = space.basis[0].normalized().scale(2)
            assert c.get("alpha", 2) == 2
            assert c.get("alpha", 3) == 2 * k + n + 1
            assert c.get("beta", 2) == 1
            assert c.get("beta", 3) == 2
            assert c.get("gamma", 2) == -(2 * k + n - 3)


def test_cocycle_k_equals_p_two():
    # the k = p = 2 line keeps the same beta/gamma values with no alpha family
    for n in (2, 3):
        space = impose_cocycle(recurrence_solutions(n, 2, 2))
        assert space.dimension == 1
        c = space.basis[0].normalized()
        assert c.get("beta", 2) == 1
        assert c.get("beta", 3) == 2
        assert c.get("gamma", 2) == -(n + 1)
        assert not c.alpha


def test_cocycle_p_above_two_is_zero():
    assert impose_cocycle(recurrence_solutions(2, 4, 3)).dimension == 0
    assert impose_cocycle(recurrence_solutions(2, 5, 4)).dimension == 0
    assert impose_cocycle(recurrence_solutions(3, 4, 4)).dimension == 0


def test_cocycle_solutions_satisfy_beta_doubling():
    for n, k in [(2, 3), (2, 4), (3, 3)]:
        space = impose_cocycle(recurrence_solutions(n, k, 2))
        for c in space.basis:
            assert c.get("beta", 3) == 2 * c.get("beta", 2)


def test_quadratic_vanishing_identity():
    # substituting the p=2 cocycle line into the quadratic-generator
    # constraint gives 2(k-2) + (n+1) - (2k+n-3) = 0 identically
    for n in (2, 3, 4, 7):
        for k in (2, 3, 5, 9):
            assert 2 * (k - 2) + (n + 1) - (2 * k + n - 3) == 0


def test_sys4_implied_spot():
    for n in (2, 3):
        for k in (2, 3, 4, 5):
            for p in range(0, k + 1):
                space = recurrence_solutions(n, k, p)
                for c in space.basis:
                    assert all(v == 0 for v in sys4_residuals(n, k, p, c))


def _random_symbol(rng, ring, k, max_x):
    exp = [0] * ring.nvars
    for _ in range(rng.randint(0, max_x)):
        exp[ring.x(rng.randrange(ring.n))] += 1
    for _ in range(k):
        exp[ring.xi(rng.randrange(ring.n))] += 1
    return Poly.monomial(ring, tuple(exp), rng.randint(1, 5))


def test_solver_output_is_equivariant_beyond_solver_family():
    # re-verify the returned basis on random data the solver never saw,
    # including full-simplex xi monomials and mixed x-exponents
    rng = random.Random(31)
    for n, k, p in [(2, 3, 2), (3, 3, 2), (2, 4, 3), (3, 4, 2)]:
        ring = single_ring(n)
        fam = sl_generators(n)
        space = recurrence_solutions(n, k, p)
        for coeffs in space.basis:
            C = line_operator(coeffs, n)
            for _ in range(12):
                G = fam.all()[rng.randrange(len(fam.all()))]
                Y = _random_symbol(rng, ring, 1, p + 2)
                P = _random_symbol(rng, ring, k, p + 1)
                assert bilinear_value(C, G, P).is_zero()
                lhs = hamiltonian_action(G, bilinear_value(C, Y, P))
                rhs = (bilinear_value(C, schouten_bracket(G, Y), P)
                       + bilinear_value(C, Y, hamiltonian_action(G, P)))
                assert lhs == rhs


def test_cocycle_output_satisfies_identity_on_random_pairs():
    rng = random.Random(77)
    for n, k, p in [(2, 3, 2), (2, 2, 1), (3, 2, 2)]:
        ring = single_ring(n)
        space = impose_cocycle(recurrence_solutions(n, k, p))
        for coeffs in space.basis:
            C = line_operator(coeffs, n)
            for _ in range(10):
                Y = _random_symbol(rng, ring, 1, 4)
                Z = _random_symbol(rng, ring, 1, 4)
                P = _random_symbol(rng, ring, k, 3)
                lhs = bilinear_value(C, schouten_bracket(Y, Z), P)
                rhs = (hamiltonian_action(Y, bilinear_value(C, Z, P))
                       - bilinear_value(C, Z, hamiltonian_action(Y, P))
                       - hamiltonian_action(Z, bilinear_value(C, Y, P))
                       + bilinear_value(C, Y, hamiltonian_action(Z, P)))
                assert lhs == rhs
