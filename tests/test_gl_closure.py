from math import comb

import pytest

from cohomolab.ansatz import field_monomials
from cohomolab.symbols import euler_field, schouten_bracket, sl_generators

from gl_closure import act, affine_closure, closure, field_closure, rank, wedge


def test_wedge_is_antisymmetric_and_bilinear():
    a, b, c = field_monomials(2, [(1, 0), (0, 1)])[:3]
    assert wedge(a, a) == {}
    assert wedge(b, a) == {key: -v for key, v in wedge(a, b).items()}
    assert wedge(a + c, b) == {**wedge(a, b), **wedge(c, b)}
    assert len(wedge(a + c, b)) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_constant_fields_give_the_irreducible_exterior_square(n):
    # the translations xi_i span the dual of the standard representation, whose
    # exterior square is irreducible: one pair generates all C(n, 2)
    translations = sl_generators(n).translations
    assert rank(closure(n, [translations[:2]])) == comb(n, 2)


def test_the_linear_fields_split_into_two_adjoint_copies():
    # at n = 2 the linear fields are gl(2) = sl(2) + C I, I the Euler field, a
    # central element, so their exterior square is two copies of the
    # 3-dimensional adjoint representation: I ^ sl(2) and the exterior square
    # of sl(2).  A highest-weight pair generates one copy, and I ^ E with
    # E = x1 xi2 generates I ^ sl(2); the two weight-(1, -1) pairs give all 6
    linear = sl_generators(2).linear
    E = linear[0, 1]
    assert act(linear[1, 0], wedge(euler_field(2), E)) == wedge(euler_field(2), linear[1, 1]
                                                                   - linear[0, 0])
    assert rank(closure(2, [(linear[0, 0], E)])) == 3
    assert rank(closure(2, [(euler_field(2), E)])) == 3
    assert rank(closure(2, [(linear[0, 0], E), (linear[1, 1], E)])) == 6


@pytest.mark.parametrize("n,top", [(2, 5), (3, 5), (4, 3), (5, 3)])
def test_one_field_generates_every_field_up_to_its_degree_under_the_affine_fields(n, top):
    # report.certify_class's proof, step 3: x1^D xi1 has a nonzero part in
    # both gl(n)-irreducibles of the degree-D fields, so its affine closure
    # is all n * C(n + D, D) fields of degree <= D; the divergence-free
    # x1^D xi2 lies in one of them and falls short
    for D in range(1, top + 1):
        x1_xi1, x1_xi2 = field_monomials(n, [(D,) + (0,) * (n - 1)])[:2]
        fields = n * comb(n + D, D)
        assert affine_closure(n, [x1_xi1]).rank == fields, (n, D)
        assert affine_closure(n, [x1_xi2]).rank < fields, (n, D)


def _stabilizer(n):
    """h of ansatz.solve_equivariant_direct's step 6: the translations and the
    linear fields x^i xi_j with j != 1 (index 0)."""
    fam = sl_generators(n)
    return list(fam.translations) + [E for (i, j), E in sorted(fam.linear.items()) if j != 0]


def _two_fields(n, p):
    """x_n^p xi_1 and x_n^p xi_n, the solver's equivariance fields."""
    return field_monomials(n, [(0,) * (n - 1) + (p,)])[::n - 1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_stabilizer_is_a_subalgebra_that_brackets_xbar1_to_an_affine_field(n):
    # step 6 of solve_equivariant_direct's proof: h closes under the bracket,
    # [x^i xi_j, Xbar_1] = 0 for j != 1 and [xi_i, Xbar_1] is affine, so the
    # fields Y with E(Xbar_1, Y) = 0 on S_k are stable under h
    h = _stabilizer(n)
    assert len(h) == n + n * (n - 1)
    assert field_closure(h, h).rank == len(h)
    X = sl_generators(n).quadratic[0]
    for A in h:
        bracket = schouten_bracket(A, X)
        assert all(sum(e[:n]) <= 1 for e in bracket.terms)
        assert bracket.is_zero() == (A not in sl_generators(n).translations)


@pytest.mark.parametrize("n,top", [(2, 6), (3, 5), (4, 4), (5, 3)])
def test_two_fields_generate_every_field_up_to_degree_p_under_the_stabilizer(n, top):
    # step 6: the affine fields with x_n^p xi_1 and x_n^p xi_n close under h
    # to all n * C(n + p, p) fields of degree <= p
    affine = sl_generators(n).affine()
    for p in range(2, top + 1):
        assert field_closure(_stabilizer(n), affine + _two_fields(n, p)).rank == (
            n * comb(n + p, p)), (n, p)


def test_either_field_alone_falls_short_under_the_stabilizer():
    # at (n, p) = (2, 2), of the 12 fields of degree <= 2, x2^2 xi1 reaches
    # 10 (it misses the submodule N of step 6 (c)) and x2^2 xi2 reaches 9
    # (it lies in N).  Either field alone, and x1^p xi1 alone, gave the
    # direct solver's spaces on the pinned grid, but none of those is
    # proved: do not shrink the pair
    h, affine = _stabilizer(2), sl_generators(2).affine()
    assert [field_closure(h, affine + [Y]).rank for Y in _two_fields(2, 2)] == [10, 9]
    assert field_closure(h, affine + _two_fields(2, 2)).rank == 12
    for n, top in ((2, 5), (3, 4), (4, 3)):
        h, affine = _stabilizer(n), sl_generators(n).affine()
        for p in range(2, top + 1):
            assert all(field_closure(h, affine + [Y]).rank < n * comb(n + p, p)
                       for Y in _two_fields(n, p)), (n, p)
