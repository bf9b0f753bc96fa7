"""Exact helpers that only the tests call.

sys4_residuals evaluates the fourth recurrence of the original system, which
ansatz.recurrence_solutions drops as implied by the other three; the tests
check that it vanishes on every solution.  one_form_primitive integrates a
closed polynomial 1-form, which gives the multiplication operator that
cobounds the div cocycle with a = 0.  rebuild_with_next_order_check runs
the operator reconstruction at a bound the caller has not proved, and checks
the result one x-order above that bound.  rank_of is the rank of a list of
coordinate vectors, and bilinear_value is C(X, P) by its definition, the
reference BilinearOp.operator_for_field is tested against.  normalized is
the form every stored coefficient takes: nonzero, and an int when integral.
"""

from __future__ import annotations

from fractions import Fraction

from cohomolab.ansatz import AnsatzCoefficients, BilinearOp
from cohomolab.linalg import RowReducer
from cohomolab.operators import PolyDiffOp, xi_simplex
from cohomolab.poly import Coeff, Poly, Ring, StructureError, norm_coeff, rat, single_ring
from cohomolab.quantization import operator_from_symbol_values
from cohomolab.symbols import is_closed


def normalized(coeffs) -> bool:
    """Whether every coefficient is nonzero, and an int when it is integral."""
    return all(c != 0 and (type(c) is int or c.denominator != 1) for c in coeffs)


def sys4_residuals(n: int, k: int, p: int,
                   coeffs: AnsatzCoefficients) -> list[Coeff]:
    """Values of the redundant fourth recurrence on a coefficient family."""
    out = []
    for s in range(2, p + 1):
        val = ((k - p) * rat(coeffs.get("alpha", s + 1))
               + (n + 1) * rat(coeffs.get("beta", s + 1))
               + (p - s) * rat(coeffs.get("gamma", s + 1))
               + (k - p + s) * rat(coeffs.get("gamma", s)))
        out.append(norm_coeff(val))
    return out


def one_form_primitive(omega: list[Poly], ring: Ring) -> Poly:
    """A polynomial f with df = omega, via the radial homotopy formula.

    Every closed polynomial 1-form on R^n is exact; for a monomial component
    c x^a dx^i the homotopy integral contributes c x^(a+e_i) / (|a| + 1).
    """
    if not is_closed(omega, ring):
        raise StructureError("the 1-form is not closed")
    f = Poly.zero(ring)
    for i, w in enumerate(omega):
        for exp, c in w.terms.items():
            lifted = list(exp)
            lifted[ring.x(i)] += 1
            f = f + Poly.monomial(ring, tuple(lifted), Fraction(c, sum(exp) + 1))
    for i in range(ring.n):
        if f.diff(ring.x(i)) != omega[i]:
            raise StructureError("primitive reconstruction failed")
    return f


def rebuild_with_next_order_check(n: int, k: int, value_fn, bound: int) -> PolyDiffOp:
    """operator_from_symbol_values at bound, checked on every |u| = bound + 1.

    A term C d^beta of x-order bound + 1 is the first the rebuild misses, and
    it adds beta! C to the value on x^beta, so this check catches a bound one
    below the map's x-order (not a map with no terms of that order and some
    above it).
    """
    op = operator_from_symbol_values(n, k, value_fn, bound)
    ring = single_ring(n)
    for v in xi_simplex(n, k):
        for u in xi_simplex(n, bound + 1):
            assert value_fn(u, v) == op.apply(Poly.monomial(ring, u + v)), (u, v)
    return op


def rank_of(vectors: list[list[Coeff]]) -> int:
    if not vectors:
        return 0
    red = RowReducer(len(vectors[0]))
    for v in vectors:
        red.add_row(dict(enumerate(v)))
    return red.rank


def bilinear_value(C: BilinearOp, X: Poly, P: Poly) -> Poly:
    """C(X, P) by its definition, the reference operator_for_field is tested against.

    X(x, xi) P(y, eta) is formed in single_ring(2n), the operator is
    applied, and y := x, eta := xi restricts the value to single_ring(n).
    """
    n, ring = C.n, C.op.ring
    pad = (0,) * n
    first = Poly(ring, {e[:n] + pad + e[n:] + pad: c for e, c in X.terms.items()})
    second = Poly(ring, {pad + e[:n] + pad + e[n:]: c for e, c in P.terms.items()})
    out: dict = {}
    for e, c in C.op.apply(first * second).terms.items():
        key = tuple(a + b for a, b in zip(e[:n] + e[2 * n:3 * n], e[n:2 * n] + e[3 * n:]))
        out[key] = out.get(key, 0) + c
    return Poly(single_ring(n), out)
