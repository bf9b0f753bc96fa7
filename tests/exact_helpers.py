"""Exact helpers that only the tests call.

sys4_residuals evaluates the fourth recurrence of the original system, which
ansatz.recurrence_solutions drops as implied by the other three; the tests
check that it vanishes on every solution.  one_form_primitive integrates a
closed polynomial 1-form, which gives the multiplication operator that
cobounds the div cocycle with a = 0.
"""

from __future__ import annotations

from fractions import Fraction

from cohomolab.ansatz import AnsatzCoefficients
from cohomolab.poly import Coeff, Poly, Ring, StructureError, norm_coeff, rat
from cohomolab.symbols import is_closed


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
