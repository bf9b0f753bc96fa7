"""Acceptance suite: every headline result, exact, one verdict line each.

All comparisons are identities of exact rational data, so the tolerance is
zero everywhere; the stated time budgets are honored by construction (the
whole module runs in a few minutes on a laptop-class machine).
"""

import functools
import sys
import time
from fractions import Fraction

from cohomolab.ansatz import (
    impose_cocycle,
    recurrence_solutions,
    solve_equivariant_direct,
    sys4_residuals,
)
from cohomolab.cocycles import (
    builtin_c1,
    builtin_c2,
    builtin_div,
    builtin_gamma1_flat,
    class_proportionality,
    coboundary_solve,
    cocycle_check,
    field_columns,
)
from cohomolab.operators import (
    PolyDiffOp,
    affine_equivariant_basis,
    divergence_diffop,
    euler_diffop,
    lie_derivative_op,
    monomials_up_to,
)
from cohomolab.poly import Poly, single_ring
from cohomolab.quantization import (
    quantization_projected_cocycle,
    quantization_top_cocycle,
)
from cohomolab.report import (
    RunConfig,
    cohomology_table,
    expected_relative_dimension,
    run_property_suite,
)
from cohomolab.symbols import sl_generators

from affine_oracle import affine_basis_by_elimination


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num:2d}: {description}",
                      file=sys.__stdout__, flush=True)
                raise
            elapsed = time.perf_counter() - start
            print(f"PASS criterion {num:2d}: {description} ({elapsed:.1f}s)",
                  file=sys.__stdout__, flush=True)
        return wrapper
    return deco


@criterion(1, "quadratic commutation relation, exact, n = 2 and 3")
def test_criterion_01_commutation_relation():
    for n in (2, 3):
        ring = single_ring(n)
        fam = sl_generators(n)
        D = divergence_diffop(ring)
        E = euler_diffop(ring)
        I = PolyDiffOp.identity(ring)
        monomials = [Poly.monomial(ring, e) for e in monomials_up_to(2 * n, 6)]
        for i in range(n):
            L = lie_derivative_op(fam.quadratic[i])
            lhs = L.compose(D) - D.compose(L)
            rhs = (E.scale(2) + I.scale(n + 1)).compose(
                PolyDiffOp.derivative(ring, ring.xi(i)))
            assert lhs == rhs
            for m in monomials:
                assert lhs.apply(m) == rhs.apply(m)


@criterion(2, "affine commutant is one line spanned by the divergence power")
def test_criterion_02_weyl_commutant():
    # the closed form against the elimination over all affine-equivariant
    # constant-coefficient operators of order <= 4
    for n in (2, 3):
        D = divergence_diffop(single_ring(n))
        for (k, ell) in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            searched = affine_basis_by_elimination(n, k, ell, 4)
            assert len(searched) == 1
            assert searched[0].symbol_map(k) == D.power(k - ell).symbol_map(k)
            assert affine_equivariant_basis(n, k, ell, 4) == searched


@criterion(3, "recurrence and direct solvers agree for all n <= 3, p <= k <= 5")
def test_criterion_03_solver_equivalence():
    for n in (2, 3):
        for k in range(0, 6):
            for p in range(0, k + 1):
                r = recurrence_solutions(n, k, p)
                d = solve_equivariant_direct(n, k, p)
                assert r.dimension == d.dimension
                assert r.same_span_as(d)


@criterion(4, "classification table matches the relative-cohomology pattern")
def test_criterion_04_classification_table():
    for n in (2, 3):
        table = cohomology_table(RunConfig(n, 5, max_vf_degree=3))
        assert table["all_match_expected"]
        for entry in table["entries"]:
            assert "error" not in entry
            assert entry["dimension"] == expected_relative_dimension(
                entry["k"], entry["ell"])
            if entry["dimension"] == 1:
                witness = entry["witness"]
                assert witness["cocycle_identity_holds"]
                assert witness["nontrivial"]
                assert witness["matches_builtin"]


@criterion(5, "explicit solution lines match the classified coefficients")
def test_criterion_05_explicit_solutions():
    # degree drop one: the normalized line is (alpha2, beta2) = (1, -(k-1)/(n+1)),
    # i.e. operator coefficients (1/2, -(k-1)/(n+1)); the sign of the second
    # coefficient is forced by the quadratic-generator vanishing equation
    for n in (2, 3):
        for k in (2, 3, 4, 5):
            line = impose_cocycle(recurrence_solutions(n, k, 1))
            assert line.dimension == 1
            c = line.basis[0].normalized()
            assert c.get("alpha", 2) == 1
            assert Fraction(c.get("alpha", 2), 2) == Fraction(1, 2)
            assert c.get("beta", 2) == Fraction(-(k - 1), n + 1)
    # degree drop two at (n, k) = (2, 3): (2, 9, 1, 2, -5) up to one scale
    line = impose_cocycle(recurrence_solutions(2, 3, 2))
    assert line.dimension == 1
    c = line.basis[0].normalized().scale(2)
    assert [c.get("alpha", 2), c.get("alpha", 3), c.get("beta", 2),
            c.get("beta", 3), c.get("gamma", 2)] == [2, 9, 1, 2, -5]


@criterion(6, "the invariant cocycles admit no cobounding operator")
def test_criterion_06_nontriviality():
    for n in (2, 3):
        for k in (2, 3, 4):
            basis1 = affine_equivariant_basis(n, k, k - 1, 2 + 2)
            res1 = coboundary_solve(field_columns(builtin_c1(n, k), basis1, 3))
            assert not res1.is_coboundary
            basis2 = affine_equivariant_basis(n, k, k - 2, 4)
            res2 = coboundary_solve(field_columns(builtin_c2(n, k), basis2, 3))
            assert not res2.is_coboundary


@criterion(7, "all cocycles pass the identity check with quartic fields")
def test_criterion_07_cocycle_identities():
    n = 2
    ring = single_ring(n)
    omega = [Poly.variable(ring, ring.x(1)), Poly.variable(ring, ring.x(0))]
    for k in (2, 3, 4):
        assert cocycle_check(builtin_c1(n, k), 4).holds
        assert cocycle_check(builtin_c2(n, k), 4).holds
        assert cocycle_check(builtin_gamma1_flat(n, k), 4).holds
        assert cocycle_check(builtin_div(n, k, 1, omega), 4).holds
        assert cocycle_check(quantization_top_cocycle(n, k, Fraction(1, 3)), 4).holds


@criterion(8, "quantization sequence: split exactly at weight 1/2, otherwise "
              "proportional to the first class")
def test_criterion_08_quantization_sequence():
    n = 2
    D = divergence_diffop(single_ring(n))
    for k in (2, 3):
        for lam in (0, 1, Fraction(1, 3)):
            columns = field_columns(quantization_top_cocycle(n, k, lam), [D], 3)
            res = coboundary_solve(columns)
            assert not res.is_coboundary
            prop = class_proportionality(columns, builtin_c1(n, k))
            assert prop is not None and prop[0] != 0
        c_half = quantization_top_cocycle(n, k, Fraction(1, 2))
        res = coboundary_solve(field_columns(c_half, [D], 3))
        assert res.is_coboundary
        assert res.witness == D.scale(Fraction(-1, 2))
        projected = quantization_projected_cocycle(n, k, Fraction(1, 2), res.witness)
        assert cocycle_check(projected, 3).holds
        assert not coboundary_solve(field_columns(projected, [D.power(2)], 3)).is_coboundary


@criterion(9, "the fourth recurrence is implied by the first three")
def test_criterion_09_redundant_recurrence():
    for n in (2, 3):
        for k in range(0, 6):
            for p in range(0, k + 1):
                space = recurrence_solutions(n, k, p)
                for coeffs in space.basis:
                    assert all(v == 0 for v in sys4_residuals(n, k, p, coeffs))


@criterion(10, "randomized invariant suite, 100 exact instances per law")
def test_criterion_10_property_suite():
    checks = run_property_suite(seed=2024, count=100)
    assert len(checks) == 6
    for check in checks:
        assert check["instances"] == 100
        assert check["passed"], check
