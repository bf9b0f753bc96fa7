"""Vector-field actions on polynomial symbols and the affine/projective generators.

A vector field X = X^i d/dx^i is identified with the degree-1 symbol
X = X^i xi_i.  Its action on symbols is the Hamiltonian vector field

    L_X = (dX/dxi_i) d/dx^i - (dX/dx^i) d/dxi_i,

which on degree-1 arguments reduces to the Lie bracket of vector fields.
The bracket {f, g} is operators.hamiltonian_op(f) applied to g, the same
kernel that builds L_X as an operator; for one Poly object f it is the same
operator, built once.
The module also provides the divergence of a field, the generators of the
projective subalgebra sl(n+1, R) inside Vect(R^n), and the divergence-type
multiplication cocycles attached to a closed polynomial 1-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .operators import divergence_diffop, hamiltonian_op
from .poly import (Poly, Ring, StructureError, check_same_ring, check_vector_field, rat,
                   single_ring)


def schouten_bracket(f: Poly, g: Poly) -> Poly:
    """Canonical Poisson bracket on (x, xi), extending the vector-field bracket.

    PolyDiffOp.apply checks that g shares f's ring.
    """
    return hamiltonian_op(f).apply(g)


def hamiltonian_action(X: Poly, p: Poly) -> Poly:
    """Action of the vector field X on a symbol: L_X p = {X, p}."""
    check_vector_field(X)
    return schouten_bracket(X, p)


def divergence(X: Poly) -> Poly:
    """div X = dX^i/dx^i for the flat volume form; a xi-free polynomial.

    On the degree-1 symbol X = X^i xi_i, d/dxi_i reads off X^i, so
    div X = D X for the divergence operator D = (d/dx^i)(d/dxi_i)
    (operators.divergence_diffop): one contraction, stated once.
    """
    return divergence_diffop(X.ring).apply(check_vector_field(X))


@dataclass(frozen=True)
class GeneratorFamily:
    """The sl(n+1, R) generators inside Vect(R^n) as degree-1 symbols.

    translations[i]      X_i   = xi_i
    linear[(i, j)]       X_ij  = x^i xi_j
    quadratic[i]         Xbar_i = x^i (x^j xi_j)

    sl_generators returns one family per n, shared by every caller: linear
    is a read-only mapping, all() and affine() return new lists, and the
    Polys must not be mutated.  The family keeps no copy of n: it is the
    dimension of the generators' ring.
    """

    translations: tuple[Poly, ...]
    linear: Mapping[tuple[int, int], Poly]
    quadratic: tuple[Poly, ...]

    def all(self) -> list[Poly]:
        return self.affine() + list(self.quadratic)

    def affine(self) -> list[Poly]:
        return list(self.translations) + [self.linear[k] for k in sorted(self.linear)]


@lru_cache(maxsize=None, typed=True)
def sl_generators(n: int) -> GeneratorFamily:
    """Generators of the projective action on R^n; requires n >= 2 (poly.Ring).

    One family per n per process, so each generator's L_X (hamiltonian_op's
    _ham slot), Leibniz table and hash are built once.  The cache is typed
    like operators.xi_simplex, so a float or bool n misses the int entry it
    compares equal to and reaches single_ring's check.
    """
    ring = single_ring(n)
    translations = tuple(Poly.variable(ring, ring.xi(i)) for i in range(n))
    linear = MappingProxyType({
        (i, j): Poly.variable(ring, ring.x(i)) * Poly.variable(ring, ring.xi(j))
        for i in range(n) for j in range(n)
    })
    E = euler_field(n)
    quadratic = tuple(Poly.variable(ring, ring.x(i)) * E for i in range(n))
    return GeneratorFamily(translations, linear, quadratic)


def euler_field(n: int) -> Poly:
    """The dilation field x^i d/dx^i as a degree-1 symbol."""
    ring = single_ring(n)
    out = Poly.zero(ring)
    for i in range(n):
        out = out + Poly.variable(ring, ring.x(i)) * Poly.variable(ring, ring.xi(i))
    return out


def _check_one_form(omega: list[Poly], ring: Ring) -> None:
    if len(omega) != ring.n:
        raise StructureError(f"a 1-form on R^{ring.n} needs {ring.n} components")
    for w in omega:
        check_same_ring(ring, w.ring)
        if not w.is_zero() and w.xi_degree() != 0:
            raise StructureError("1-form components must be xi-free")


def is_closed(omega: list[Poly], ring: Ring) -> bool:
    """Closedness of omega_i dx^i, i.e. symmetry of the component Jacobian."""
    _check_one_form(omega, ring)
    for i in range(ring.n):
        for j in range(i + 1, ring.n):
            if omega[i].diff(ring.x(j)) != omega[j].diff(ring.x(i)):
                return False
    return True


def divergence_cocycle(a, omega: list[Poly], X: Poly) -> Poly:
    """The multiplication cocycle  X  |->  a div(X) + i_X omega  (xi-degree 0).

    omega must be a closed polynomial 1-form given by its components, which
    cocycles.builtin_div checks once; divergence(X) checks that X is a
    vector field.  The contraction reads the components X^i = dX/dxi_i off
    the degree-1 symbol.
    """
    ring = X.ring
    out = divergence(X).scale(rat(a))
    for i in range(ring.n):
        out = out + X.diff(ring.xi(i)) * omega[i]
    return out
