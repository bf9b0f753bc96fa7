import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from cohomolab import ansatz
from cohomolab.ansatz import (
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
    matched_case,
    recurrence_solutions,
    reduced_indices,
    solve_equivariant_direct,
    sys4_residuals,
)
from cohomolab.cocycles import (bilinear_cocycle, cocycle_check, second_class_coefficients,
                                vanishes_on_sl)
from cohomolab.linalg import RowReducer, keyed_rows, rank_of
from cohomolab.operators import (PolyDiffOp, commutator_sum, lie_derivative_op,
                                 monomials_up_to, unit_deriv, xi_simplex)
from cohomolab.poly import (Poly, ResourceLimitError, StructureError, doubled_ring, rat_str,
                            single_ring)
from cohomolab.symbols import hamiltonian_action, schouten_bracket, sl_generators

R2 = single_ring(2)


def x(i, ring=R2):
    return Poly.variable(ring, ring.x(i))


def xi(i, ring=R2):
    return Poly.variable(ring, ring.xi(i))


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
    assert ansatz_term_op(2, "alpha", 2, 1) == expected


def test_zero_coefficients_give_zero_map():
    C = build_bilinear(AnsatzCoefficients(3, 1), 2)
    assert C(x(0) * x(0) * xi(0), xi(0) ** 3).is_zero()


def test_operator_for_field_matches_direct_evaluation():
    rng = random.Random(17)
    coeffs = AnsatzCoefficients(3, 2, alpha={2: 1, 3: 5}, beta={2: Fraction(1, 2)},
                                gamma={2: -3})
    C = build_bilinear(coeffs, 2)
    for _ in range(15):
        Xexp = [rng.randint(0, 3), rng.randint(0, 2), 0, 0]
        Xexp[2 + rng.randrange(2)] = 1
        X = Poly.monomial(R2, tuple(Xexp), rng.randint(-4, 4))
        Pexp = [rng.randint(0, 2), rng.randint(0, 2), 0, 0]
        for _ in range(3):
            Pexp[2 + rng.randrange(2)] += 1
        P = Poly.monomial(R2, tuple(Pexp), rng.randint(-4, 4))
        assert C.operator_for_field(X).apply(P) == C(X, P)


def test_bilinear_op_rejects_non_constant_coefficients_when_built():
    D2 = doubled_ring(2)
    op = PolyDiffOp.single(D2, Poly.variable(D2, D2.y(0)), unit_deriv(D2, D2.x(0)))
    with pytest.raises(StructureError):
        BilinearOp(2, op)


def test_operator_for_field_skips_terms_above_the_field_degree(monkeypatch):
    # the c2 line at n = 2, k = 3, whose terms have x-order 2 to 4, against
    # the translation xi1 (total degree 1, so no derivative is taken), the
    # linear field x1 xi2 and the quadratic field x1 x2 xi1; the field is
    # differentiated once per distinct (a, b) part, not once per term
    C = build_bilinear(second_class_coefficients(2, 3), 2)
    orders = [order for _, order, _ in C.parts]
    assert len({a_b for a_b, _, _ in C.parts}) == len(C.parts)
    assert sum(len(rest) for _, _, rest in C.parts) == len(C.op.terms)
    calls = []
    original = Poly.diff_multi

    def recorded(self, multi):
        calls.append(multi)
        return original(self, multi)

    monkeypatch.setattr(Poly, "diff_multi", recorded)
    for X in (xi(0), x(0) * xi(1), x(0) * x(1) * xi(0)):
        degree = X.total_degree()
        assert max(orders) > degree
        calls.clear()
        op = C.operator_for_field(X)
        assert all(sum(multi) <= degree for multi in calls)
        assert len(calls) == len(set(calls)) == sum(order <= degree for order in orders)
        P = x(0) * x(1) * x(1) * xi(0) * xi(0) * xi(1)
        assert op.apply(P) == C(X, P)


def test_operator_for_field_respects_the_term_budget(monkeypatch):
    # the field's operator is built by operators.operator_from_sum, as in
    # compose, so it meets the same term-budget check
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


def test_cocycle_filter_adds_no_row_when_every_defect_vanishes(monkeypatch):
    # the degree-drop-one line at n = 2, k = 3 vanishes on sl(3), so its
    # vanishing rows are all zero, and at p = 1 no field pair is drawn: no
    # row is fed and no bracket of fields is taken
    rows, drawn = [], []
    original, original_defects = RowReducer.add_row, ansatz.cocycle_defects

    def recorded(self, row):
        rows.append(row)
        return original(self, row)

    def recorded_defects(rules, pairs):
        drawn.extend(pairs)
        return original_defects(rules, drawn)

    space = recurrence_solutions(2, 3, 1)
    monkeypatch.setattr(RowReducer, "add_row", recorded)
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
    [defects] = cocycle_defects(rules, [(Y, Z)])
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

    [defects] = cocycle_defects([rule], [(xi(0), xi(1))])
    assert len(defects) == 1
    assert set(seen) == {xi(0), xi(1)}


def test_direct_solver_shares_generator_brackets_and_operators(monkeypatch):
    k = 3
    calls = Counter()
    builds = Counter()
    original = ansatz.schouten_bracket
    original_build = BilinearOp.operator_for_field

    def counted(f, g):
        calls[(f, g)] += 1
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
    # per quadratic generator X (Xbar_1 only), test field Y (the monomial
    # fields of degree 2 = p: 3 x-shapes times 2 components) and ansatz term
    # t (10)
    assert all(len(key) == 1 and count == 1 for key, count in defects.items())
    assert len({key[0][0] for key in defects}) == 1
    assert len(defects) == 1 * 6 * len(full_indices(k, 2)) == 60
    # the generators are no test fields, but the vanishing rows build each
    # one's operator once per term
    generators = set(sl_generators(2).all())
    generator_builds = [count for (_, X), count in builds.items() if X in generators]
    assert len(generator_builds) == len(generators) * len(full_indices(k, 2))
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
            rule = cache(BilinearOp(n, ansatz_term_op(n, kind, s, p)).operator_for_field)
            for A in affine:
                for Y in fields:
                    assert _equivariance_defect(rule, A, Y).symbol_map(k).is_zero()
                    checked += 1
    assert checked == 120 * (4 + 7 + 10 + 10) + 720 * (10 + 13) == 20280


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_fields_carry_the_first_quadratic_generator_to_the_others(n):
    # step 5 of solve_equivariant_direct's proof: [x^i xi_1, Xbar_1] = Xbar_i
    fam = sl_generators(n)
    for i in range(n):
        assert schouten_bracket(fam.linear[(i, 0)], fam.quadratic[0]) == fam.quadratic[i]


def test_direct_solver_needs_the_fields_of_degree_p(monkeypatch):
    # step 4's bound |u| <= p is tight: without the degree-p fields the rows
    # still hold on the true space but no longer cut it out
    original = ansatz.field_monomials
    for n in (2, 3):
        for k in range(2, 6):
            for p in range(2, k + 1):
                monkeypatch.setattr(ansatz, "field_monomials", lambda n, shapes, p=p:
                                    original(n, [u for u in shapes if sum(u) != p]))
                short = solve_equivariant_direct(n, k, p).vectors()
                true = recurrence_solutions(n, k, p).vectors()
                assert len(short) > len(true)
                assert rank_of(short + true) == len(short)


def _proved_cocycle_pairs(n, p):
    """The monomial field pairs (x^u xi_m, x^v xi_l), |u|, |v| >= 2 and
    |u| + |v| <= p + 2, on which impose_cocycle's docstring proves the
    cocycle identity complete; each unordered pair once."""
    fields = [(d, Y) for d in range(2, p + 1) for Y in field_monomials(n, xi_simplex(n, d))]
    return [(Y, Z) for i, (d, Y) in enumerate(fields) for e, Z in fields[i + 1:]
            if d + e <= p + 2]


def test_surviving_filter_lines_are_cocycles_on_every_field_pair():
    # every line the filter keeps at p = 2 lies in the direct solver's space,
    # which is exactly the sl-equivariant maps vanishing on sl, and has zero
    # defect on the proved pair set: so it is a cocycle on every pair of
    # polynomial fields.  At p = 1 that set is empty and the filter keeps
    # the whole space
    lines = pairs_checked = 0
    for n, kmax in ((2, 6), (3, 5), (4, 4)):
        assert _proved_cocycle_pairs(n, 1) == []
        pairs = _proved_cocycle_pairs(n, 2)
        for k in range(2, kmax + 1):
            line = recurrence_solutions(n, k, 1)
            assert impose_cocycle(line).same_span_as(line)
            space = recurrence_solutions(n, k, 2)
            assert space.same_span_as(solve_equivariant_direct(n, k, 2))
            kept = impose_cocycle(space)
            rules = [build_bilinear(c, n).operator_for_field for c in kept.basis]
            for defects in cocycle_defects(rules, pairs):
                assert all(d.symbol_map(k).is_zero() for d in defects)
            lines += kept.dimension
            pairs_checked += len(pairs)
    assert (lines, pairs_checked) == (12, 3027)


@pytest.mark.parametrize("n", [2, 3])
def test_cocycle_filter_pairs_are_the_proved_pairs(n):
    # each proved pair once, in ascending |u| + |v|; none for p <= 1
    assert list(cocycle_filter_pairs(n, 0)) == list(cocycle_filter_pairs(n, 1)) == []
    for p in range(5):
        pairs = list(cocycle_filter_pairs(n, p))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == set(_proved_cocycle_pairs(n, p))
        totals = [_x_degree(Y) + _x_degree(Z) for Y, Z in pairs]
        assert totals == sorted(totals)


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


def test_cocycle_filter_drops_cocycles_that_do_not_vanish_on_sl():
    # the gamma1 line (alpha_2 = 1, p = 1) and the div line (beta_1, p = 0)
    # are cocycles but do not vanish on sl(n+1): the vanishing rows cut each
    # to dimension 0
    for n in (2, 3):
        for line in (AnsatzCoefficients(3, 1, alpha={2: 1}),
                     AnsatzCoefficients(3, 0, beta={1: 1})):
            c = bilinear_cocycle(n, line, "line")
            assert cocycle_check(c, 3).holds and not vanishes_on_sl(c)
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
        assert vanishes_on_sl(c) and cocycle_check(c, 4).holds


def _row_digest(monkeypatch, solve) -> str:
    """SHA-256 over every row fed to RowReducer.add_row during solve(), in order."""
    digest = hashlib.sha256()
    original = RowReducer.add_row

    def hashed(self, row):
        digest.update(repr([(j, rat_str(c)) for j, c in sorted(row.items())]).encode())
        digest.update(b"\n")
        return original(self, row)

    monkeypatch.setattr(RowReducer, "add_row", hashed)
    solve()
    monkeypatch.undo()
    return digest.hexdigest()


def test_row_generators_feed_pinned_rows(monkeypatch):
    # the rows themselves, not just the answers, are pinned: a change to the
    # operator kernels or the row generators must reproduce them exactly
    space = recurrence_solutions(2, 3, 2)
    assert _row_digest(monkeypatch, lambda: solve_equivariant_direct(2, 3, 2)) == (
        "9dc2d5b53209de217b52e2ef2458ad47764a9828a7f410fd4ae95b2f268aa954")
    assert _row_digest(monkeypatch, lambda: impose_cocycle(space)) == (
        "46386ef8a90858d839669fb4c1f653655b13fb4ecb6fad120d92cacf2f2af9b3")
    # every pair defect of the filter at (3, 2) has x-order 0; at (4, 4) the
    # first pair's defect has x-order 2 and already completes the rank
    top = recurrence_solutions(2, 4, 4)
    assert _row_digest(monkeypatch, lambda: impose_cocycle(top)) == (
        "5fc2c1f5d427bbda1381cafd9dd1aa22f987b83ed8e2a1a47940f6e5b9b08921")


def test_row_generators_feed_pinned_rows_in_dimension_three(monkeypatch):
    # n = 3 reaches what n = 2 cannot: xi3 in the canonical forms, and filter
    # pairs of quadratic fields in three variables, such as x1x2 xi3 with x3^2 xi1
    space = recurrence_solutions(3, 3, 2)
    assert _row_digest(monkeypatch, lambda: solve_equivariant_direct(3, 3, 2)) == (
        "3d0d020e31ef272a47060bd8cee000c33c14d988f897acdb85476f83f12ce0be")
    assert _row_digest(monkeypatch, lambda: impose_cocycle(space)) == (
        "526e95c09e8f390c0fd012e1acd2fc381ab536f67ac28a506b878bf5d8a821df")


def _rank(rows, ncols) -> int:
    reducer = RowReducer(ncols)
    for row in rows:
        reducer.add_row(row)
    return reducer.rank


def _sampled_rows(ops, k):
    """The rows of ops applied to x^u xi^v, for every xi^v of degree k and
    every |u| up to the largest x-order among the ops' terms."""
    ring = ops[0].ring
    n = ring.n
    r = max((sum(mu[:n]) for op in ops for mu in op.terms), default=-1)
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
            C = build_bilinear(coeffs, n)
            for _ in range(12):
                G = fam.all()[rng.randrange(len(fam.all()))]
                Y = _random_symbol(rng, ring, 1, p + 2)
                P = _random_symbol(rng, ring, k, p + 1)
                assert C(G, P).is_zero()
                lhs = hamiltonian_action(G, C(Y, P))
                rhs = C(schouten_bracket(G, Y), P) + C(Y, hamiltonian_action(G, P))
                assert lhs == rhs


def test_cocycle_output_satisfies_identity_on_random_pairs():
    rng = random.Random(77)
    for n, k, p in [(2, 3, 2), (2, 2, 1), (3, 2, 2)]:
        ring = single_ring(n)
        space = impose_cocycle(recurrence_solutions(n, k, p))
        for coeffs in space.basis:
            C = build_bilinear(coeffs, n)
            for _ in range(10):
                Y = _random_symbol(rng, ring, 1, 4)
                Z = _random_symbol(rng, ring, 1, 4)
                P = _random_symbol(rng, ring, k, 3)
                lhs = C(schouten_bracket(Y, Z), P)
                rhs = (hamiltonian_action(Y, C(Z, P)) - C(Z, hamiltonian_action(Y, P))
                       - hamiltonian_action(Z, C(Y, P)) + C(Y, hamiltonian_action(Z, P)))
                assert lhs == rhs
