import random

import pytest

from cohomolab.cocycles import builtin_div
from cohomolab.operators import divergence_diffop, euler_diffop, lie_derivative_op
from cohomolab.poly import Poly, StructureError, rat, single_ring
from cohomolab.symbols import (
    divergence,
    divergence_cocycle,
    euler_field,
    hamiltonian_action,
    is_closed,
    schouten_bracket,
    sl_generators,
)

from exact_helpers import divergence_reference, one_form_primitive, rank_of
from property_suite import _random_field
from plane_ring import R2, x, xi

R3 = single_ring(3)


def hamiltonian_oracle(X, p):
    # direct two-term expansion, independent of schouten_bracket
    ring = X.ring
    out = Poly.zero(ring)
    for i in range(ring.n):
        out = out + X.diff(ring.xi(i)) * p.diff(ring.x(i))
        out = out - X.diff(ring.x(i)) * p.diff(ring.xi(i))
    return out


def random_field(rng, ring, max_x_degree=3):
    out = Poly.zero(ring)
    for _ in range(rng.randint(1, 4)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_x_degree)):
            exp[ring.x(rng.randrange(ring.n))] += 1
        exp[ring.xi(rng.randrange(ring.n))] += 1
        out = out + Poly.monomial(ring, tuple(exp), rng.randint(-9, 9))
    return out


def random_symbol(rng, ring, k, max_x_degree=3):
    out = Poly.zero(ring)
    for _ in range(rng.randint(1, 4)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_x_degree)):
            exp[ring.x(rng.randrange(ring.n))] += 1
        for _ in range(k):
            exp[ring.xi(rng.randrange(ring.n))] += 1
        out = out + Poly.monomial(ring, tuple(exp), rng.randint(-9, 9))
    return out


def test_hamiltonian_action_linear_field():
    X = x(0) * xi(1)
    assert hamiltonian_action(X, xi(0)) == -xi(1)
    assert hamiltonian_action(X, xi(0)) == hamiltonian_oracle(X, xi(0))


def test_hamiltonian_action_translation_kills_constant_symbols():
    X = xi(0)
    P = xi(0) * xi(1)
    assert hamiltonian_action(X, P).is_zero()


def test_hamiltonian_action_dilation_eigenvector():
    X = x(0) * xi(0)
    assert hamiltonian_action(X, xi(0)) == -xi(0)
    assert hamiltonian_action(X, xi(0)) == hamiltonian_oracle(X, xi(0))


def test_hamiltonian_matches_oracle_on_random_inputs():
    rng = random.Random(21)
    for ring in (R2, R3):
        for _ in range(25):
            X = random_field(rng, ring)
            P = random_symbol(rng, ring, rng.randint(0, 3))
            assert hamiltonian_action(X, P) == hamiltonian_oracle(X, P)
            # {X, g} = L_X g: the row generators apply L_X in place of the bracket
            assert lie_derivative_op(X).apply(P) == schouten_bracket(X, P)


def test_schouten_canonical_pair():
    assert schouten_bracket(xi(0), x(0)) == Poly.constant(R2, 1)


def test_schouten_antisymmetric_and_jacobi():
    rng = random.Random(8)
    for _ in range(20):
        f = random_symbol(rng, R2, rng.randint(0, 2), max_x_degree=2)
        g = random_symbol(rng, R2, rng.randint(0, 2), max_x_degree=2)
        h = random_symbol(rng, R2, rng.randint(0, 2), max_x_degree=2)
        assert schouten_bracket(f, f).is_zero()
        assert schouten_bracket(f, g) == -schouten_bracket(g, f)
        jac = (schouten_bracket(f, schouten_bracket(g, h))
               + schouten_bracket(g, schouten_bracket(h, f))
               + schouten_bracket(h, schouten_bracket(f, g)))
        assert jac.is_zero()


def test_bracket_agrees_with_hamiltonian_action_on_fields():
    X = x(0) * xi(1)
    assert schouten_bracket(X, xi(0)) == hamiltonian_action(X, xi(0)) == -xi(1)


def test_action_is_lie_algebra_morphism():
    rng = random.Random(5)
    for _ in range(20):
        X = random_field(rng, R2)
        Y = random_field(rng, R2)
        P = random_symbol(rng, R2, 2)
        lhs = (hamiltonian_action(X, hamiltonian_action(Y, P))
               - hamiltonian_action(Y, hamiltonian_action(X, P)))
        assert lhs == hamiltonian_action(schouten_bracket(X, Y), P)


def test_euler_eigenvalue():
    assert euler_diffop(R2).apply(xi(0) * xi(1)) == (xi(0) * xi(1)).scale(2)


def test_div_on_constant_coefficients():
    assert divergence_diffop(R2).apply(xi(0) * xi(1)).is_zero()


def test_div_example():
    assert divergence_diffop(R2).apply(x(0) * xi(0) * xi(0)) == xi(0).scale(2)


def test_divergence_is_the_divergence_operator_on_a_field():
    # div X = D X: the contraction d_(x_i) d_(xi_i), checked against the
    # definition on seeded fields of the property suite and on the zero field
    rng = random.Random(45)
    for ring in (R2, R3, single_ring(4)):
        zero = Poly.zero(ring)
        assert divergence(zero) == divergence_reference(zero) == zero
        for _ in range(20):
            X = _random_field(rng, ring)
            div = divergence(X)
            assert div == divergence_reference(X)
            assert div.xi_degree() == 0
    with pytest.raises(StructureError, match="xi-degree exactly 1"):
        divergence(xi(0) * xi(1))


def test_euler_div_commutator_on_monomials():
    # [E, D] = -D through total degree 6
    ring = R2
    from itertools import product
    E, D = euler_diffop(R2), divergence_diffop(R2)
    exps = [e for e in product(range(7), repeat=4) if sum(e) <= 6]
    for exp in exps:
        p = Poly.monomial(ring, exp)
        lhs = E.apply(D.apply(p)) - D.apply(E.apply(p))
        assert lhs == -D.apply(p)


def test_sl_generator_counts():
    fam = sl_generators(2)
    assert len(fam.translations) == 2
    assert len(fam.linear) == 4
    assert len(fam.quadratic) == 2
    assert fam.quadratic[0] == x(0) * (x(0) * xi(0) + x(1) * xi(1))
    # one shared family per n: its linear map is read-only, its lists are
    # new on every call, and it equals a fresh build
    assert sl_generators(2) is fam
    with pytest.raises(TypeError):
        fam.linear[(0, 0)] = xi(0)
    assert fam.all() is not fam.all() and fam.affine() is not fam.affine()
    assert fam.all() == sl_generators.__wrapped__(2).all()


@pytest.mark.parametrize("n", [1, 2.0, True])
def test_sl_generators_require_dim_2(n):
    # 2.0 and True compare equal to the cached int entry and are still refused
    sl_generators(2)
    with pytest.raises(StructureError):
        sl_generators(n)


def monomial_coords(polys, ring):
    keys = sorted({e for p in polys for e in p.terms})
    index = {e: i for i, e in enumerate(keys)}
    return [[p.terms.get(e, 0) for e in keys] for p in polys], index


def test_bracket_closure_of_generator_family():
    for n in (2, 3):
        fam = sl_generators(n)
        gens = fam.all()
        coords, _ = monomial_coords(gens, single_ring(n))
        for X in gens:
            for Y in gens:
                b = schouten_bracket(X, Y)
                keys = sorted({e for g in gens for e in g.terms} | set(b.terms))
                span = [[g.terms.get(e, 0) for e in keys] for g in gens]
                target = [b.terms.get(e, 0) for e in keys]
                assert rank_of(span + [target]) == rank_of(span)


def test_quadratic_translation_bracket_in_linear_span():
    fam = sl_generators(2)
    b = schouten_bracket(fam.quadratic[0], fam.translations[0])
    assert b.xi_degree() == 1
    linear_and_euler = [fam.linear[k] for k in sorted(fam.linear)] + [euler_field(2)]
    keys = sorted({e for g in linear_and_euler for e in g.terms} | set(b.terms))
    span = [[g.terms.get(e, 0) for e in keys] for g in linear_and_euler]
    target = [b.terms.get(e, 0) for e in keys]
    assert rank_of(span + [target]) == rank_of(span)


def test_divergence_cocycle_dilation():
    X = x(0) * xi(0)
    zero_form = [Poly.zero(R2), Poly.zero(R2)]
    assert divergence_cocycle(1, zero_form, X) == Poly.constant(R2, 1)


def test_divergence_cocycle_orthogonal_translation():
    omega = [Poly.constant(R2, 1), Poly.zero(R2)]
    assert divergence_cocycle(0, omega, xi(1)).is_zero()


def test_divergence_cocycle_combined_example():
    # a = 1, omega = x2 dx1 + x1 dx2 (closed), X = x1 x2 d/dx1
    omega = [x(1), x(0)]
    X = x(0) * x(1) * xi(0)
    expected = x(1) + x(0) * x(1) * x(1)
    assert divergence_cocycle(1, omega, X) == expected


def test_non_closed_form_rejected():
    omega = [x(1), Poly.zero(R2)]
    assert not is_closed(omega, R2)
    # builtin_div checks the form once; divergence_cocycle is the bare formula
    with pytest.raises(StructureError, match="closed 1-form"):
        builtin_div(2, 2, 1, omega)


def test_primitive_of_closed_form():
    omega = [x(1), x(0)]
    f = one_form_primitive(omega, R2)
    assert f == x(0) * x(1)
    omega2 = [x(0).scale(2) + x(1), x(0) + (x(1) * x(1)).scale(3)]
    g = one_form_primitive(omega2, R2)
    assert g.diff(R2.x(0)) == omega2[0]
    assert g.diff(R2.x(1)) == omega2[1]


def test_divergence_cocycle_identity_for_multiplication_action():
    # c([X,Y]) = X(c(Y)) - Y(c(X)) with fields acting as derivations on xi-free symbols
    rng = random.Random(14)
    omega = [x(1), x(0)]
    for _ in range(25):
        X = random_field(rng, R2)
        Y = random_field(rng, R2)
        lhs = divergence_cocycle(rat("2/3"), omega, schouten_bracket(X, Y))
        rhs = (hamiltonian_action(X, divergence_cocycle(rat("2/3"), omega, Y))
               - hamiltonian_action(Y, divergence_cocycle(rat("2/3"), omega, X)))
        assert lhs == rhs
