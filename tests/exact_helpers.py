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
leibniz_reference is the Leibniz rule summed over every s <= mu, with no
survivor cache and no support test, and symbol_map_reference the canonical
form on S_k with falling(v, beta) computed term by term, with no image
table: the definitions the operator kernels' fast paths are tested against.
divergence_reference is sum_i d_(x_i) d_(xi_i) p, built with Poly.diff and
+, the definition symbols.divergence (the divergence operator D applied to
a field) is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, perm, prod

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


def leibniz_reference(left: PolyDiffOp, right: PolyDiffOp, lowest: int = 0,
                      sign: int = 1) -> PolyDiffOp:
    """sign * the Leibniz expansion over every s <= mu with |s| >= lowest, by definition.

    For left terms f d^mu and right terms g d^nu it sums
    binom(mu, s) f d^s(g) d^(mu - s + nu) over every s <= mu, whether or
    not d^s(g) is 0.  At lowest = 0 and sign = 1 this is left o right.
    """
    ring = left.ring
    terms = {}
    for mu, f in left.terms.items():
        for nu, g in right.terms.items():
            for s in product(*(range(m + 1) for m in mu)):
                if sum(s) < lowest:
                    continue
                key = tuple(m - si + ni for m, si, ni in zip(mu, s, nu))
                term = (f * g.diff_multi(s)).scale(sign * prod(map(comb, mu, s)))
                terms[key] = terms.get(key, Poly.zero(ring)) + term
    return PolyDiffOp(ring, terms)


def symbol_map_reference(op: PolyDiffOp, k: int) -> dict:
    """The entries of op's SymbolMap on S_k, with falling(v, beta) computed for every term.

    A term c x^a xi^b dx^alpha dxi^beta sends x^u xi^v to
    c falling(v, beta) x^a d^alpha(x^u) xi^(v - beta + b), so it adds
    c falling(v, beta) at the key (v, v - beta + b, alpha, a) for every v
    of degree k; the keys whose sum is 0 are dropped.
    """
    n = op.ring.n
    entries: dict = {}
    for mu, coeff in op.terms.items():
        alpha, beta = mu[:n], mu[n:]
        for exp, c in coeff.terms.items():
            a, b = exp[:n], exp[n:]
            for v in xi_simplex(n, k):
                fac = prod(perm(vi, bi) for vi, bi in zip(v, beta))
                if fac:
                    key = (v, tuple(vi - bi + ei for vi, bi, ei in zip(v, beta, b)), alpha, a)
                    entries[key] = entries.get(key, 0) + c * fac
    return {key: c for key, c in entries.items() if c}


def divergence_reference(p: Poly) -> Poly:
    """sum_i d_(x_i) d_(xi_i) p, one Poly.diff pair and one Poly + per coordinate.

    On a field X = X^i xi_i this is div X = dX^i/dx^i.
    """
    ring = p.ring
    out = Poly.zero(ring)
    for i in range(ring.n):
        out = out + p.diff(ring.x(i)).diff(ring.xi(i))
    return out
