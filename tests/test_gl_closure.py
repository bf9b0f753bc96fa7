from math import comb

import pytest

from cohomolab.ansatz import field_monomials
from cohomolab.symbols import euler_field, sl_generators

from gl_closure import act, affine_closure, closure, rank, wedge


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
