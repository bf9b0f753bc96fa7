"""Differential operators on weighted densities and the quantization cocycles.

With the flat volume trivialization a density is just its coefficient
function, and the weight lambda enters only through the Lie derivative

    L_X = X^i d_i + lambda div(X).

Normal ordering  tau : p(x) xi^v  |->  p(x) d^v  is a section of the
principal symbol, and the connecting cocycle of the symbol filtration is

    gamma(X)(P) = [L_X, tau(P)] - tau(L_X P),

an operator of order at most k-1 on degree-k input (top orders cancel).
Its symbol projections are vector-field cocycles with operator values; the
top projection is trivial exactly at the halfway weight, where the coboundary
solver finds a splitting witness B, sigma_(k-1) gamma(X) = X.B.  The next
projection is then the degree-(k-2) symbol of the connecting cocycle of the
section tau' = tau o (1 - B).  By linearity of tau, and with
X.B = L_X B - B L_X,

    [L_X, tau'(P)] - tau'(L_X P)
        = gamma(X)(P) - ([L_X, tau(BP)] - tau(B L_X P))
        = gamma(X)(P) - gamma(X)(BP) - tau((X.B)P).

gamma(X)(BP) has order <= k-2, so the degree-(k-1) symbol is
sigma_(k-1) gamma(X)(P) - (X.B)P = 0, and the degree-(k-2) symbol
reproduces the degree-two-lowering class.

Each value [L_X, tau'(P)] - tau'(L_X P) has one piece that depends on the
field alone, L_X, and one on the symbol alone, tau'(P); only tau'(L_X P)
depends on both.  quantization_projected_cocycle builds L_X once per field,
and tau'(x^u xi^v) once per monomial symbol, in a table that lives with the
cocycle and is shared by all its fields.  That is exact, not an
approximation: L_X and tau' are fixed linear maps with exact coefficients,
so a shared operator is equal to the one a rebuild would produce.

Closed form of the top projection.  Normal ordering is the standard
(coefficients-left) symbol calculus, in which

    sigma(A o B) = sum_a  d_xi^a sigma(A) * d_x^a sigma(B) / a!

(the calculus of Lecomte and Ovsienko's projectively equivariant
quantization, Lett. Math. Phys. 49 (1999)).  Here sigma(tau(P)) = P and
sigma(L_X) = X + lambda div X is linear in xi, so

    sigma(L_X o tau(P)) = (X + lambda div X) P + X^i d_i P,
    sigma(tau(P) o L_X) = sum_a  d_xi^a P * d_x^a (X + lambda div X) / a!,
    sigma(tau(L_X P))   = X^i d_i P - d_i X^j xi_j d_xi_i P.

In the difference the a = 0 terms, the transport terms and the |a| = 1
terms on X cancel, which leaves

    sigma(gamma(X)(P)) = - sum_{|a| >= 2} d_xi^a P * d_x^a X / a!
                         - lambda sum_{|a| >= 1} d_xi^a P * d_x^a(div X) / a!.

The first sum has xi-degree k + 1 - |a| and the second k - |a|, so only
|a| = 2 on X and |a| = 1 on div X reach degree k - 1.  In the two-point
contractions of the bilinear ansatz (ansatz.py) that top part is
-Dxeta^2 / 2 - lambda Dxxi Dxeta, the (k, p = 1) candidate with
alpha_2 = -1 and beta_2 = -lambda, and quantization_top_cocycle evaluates it
as one operator build per field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod

from .ansatz import AnsatzCoefficients
from .cocycles import OneCocycle, bilinear_cocycle
from .operators import (PolyDiffOp, divergence_diffop, lie_derivative_op, module_action,
                        monomials_up_to, multi_binom, op_str, xi_simplex)
from .poly import Exponent, Poly, StructureError, check_int, rat, single_ring
from .symbols import hamiltonian_action, sl_generators


def _check_x_only(p: Poly) -> Poly:
    if p.terms and p.xi_degree() != 0:
        raise StructureError("density coefficients must be xi-free")
    return p


class DensityOperator:
    """A differential operator sum a_alpha(x) d^alpha on densities of one weight.

    A thin view over an x-only PolyDiffOp on single_ring(n): the calculus is
    the operator's, and the view adds only the weight and its own checks
    (xi-free coefficients, matching n and weight).  A length-n index alpha
    becomes the derivative index alpha + (0,) * n, so an index of another
    length fails the operator's multi-index check.
    """

    __slots__ = ("n", "weight", "op")

    def __init__(self, n: int, weight, terms: dict[Exponent, Poly]):
        ring = single_ring(n)
        for coeff in terms.values():
            _check_x_only(coeff)
        self.n = n
        self.weight = rat(weight)
        self.op = PolyDiffOp(ring, {tuple(alpha) + (0,) * n: c for alpha, c in terms.items()})

    def _like(self, op: PolyDiffOp) -> "DensityOperator":
        out = object.__new__(DensityOperator)
        out.n, out.weight, out.op = self.n, self.weight, op
        return out

    def is_zero(self) -> bool:
        return self.op.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityOperator):
            return NotImplemented
        return (self.n, self.weight) == (other.n, other.weight) and self.op == other.op

    @property
    def order(self) -> int:
        return self.op.order()

    def __add__(self, other: "DensityOperator") -> "DensityOperator":
        self._check_compatible(other)
        return self._like(self.op + other.op)

    def __sub__(self, other: "DensityOperator") -> "DensityOperator":
        self._check_compatible(other)
        return self._like(self.op - other.op)

    def scale(self, c) -> "DensityOperator":
        return self._like(self.op.scale(c))

    def _check_compatible(self, other: "DensityOperator") -> None:
        if self.n != other.n or self.weight != other.weight:
            raise StructureError("density operators live on different spaces")

    def apply(self, f: Poly) -> Poly:
        return self.op.apply(_check_x_only(f))

    def compose(self, other: "DensityOperator") -> "DensityOperator":
        self._check_compatible(other)
        return self._like(self.op.compose(other.op))

    def commutator(self, other: "DensityOperator") -> "DensityOperator":
        return self.compose(other) - other.compose(self)

    def principal_symbol(self, j: int) -> Poly:
        """The degree-j symbol sum_{|alpha| = j} a_alpha(x) xi^alpha."""
        if self.order > j:
            raise StructureError(
                f"operator order {self.order} exceeds requested symbol degree {j}")
        ring = self.op.ring
        pad = (0,) * self.n
        out = Poly.zero(ring)
        for mu, coeff in self.op.terms.items():
            if sum(mu) == j:
                out = out + coeff * Poly.monomial(ring, pad + mu[:self.n])
        return out

    def __repr__(self) -> str:
        return f"DensityOperator[{self.weight}]({op_str(self.op)})"


def weighted_lie_derivative(X: Poly, weight) -> DensityOperator:
    """L_X = X^i d_i + weight * div(X) on densities of the given weight.

    The transport part X^i d_i is the x-derivative half of lie_derivative_op(X),
    the field's one Hamiltonian operator (hamiltonian_op's _ham slot), which
    also checks that X is a vector field; div X = D X applies the divergence
    operator D (operators.divergence_diffop) to the checked field.
    """
    ring = X.ring
    n = ring.n
    terms = {mu[:n]: c for mu, c in lie_derivative_op(X).terms.items() if not any(mu[n:])}
    terms[(0,) * n] = divergence_diffop(ring).apply(X).scale(rat(weight))
    return DensityOperator(n, weight, terms)


def normal_order_section(P: Poly, weight) -> DensityOperator:
    """tau: replace each xi-monomial by the derivative monomial, coefficients left.

    P's terms are grouped by xi-exponent in one raw dict; P's exponents are
    distinct, so no two terms of a group merge.
    """
    n = P.ring.n
    groups: dict[Exponent, dict] = {}
    for exp, c in P.terms.items():
        groups.setdefault(exp[n:], {})[exp[:n] + (0,) * n] = c
    return DensityOperator(n, weight, {v: Poly(P.ring, g, _clean=True)
                                       for v, g in groups.items()})


def split_section(Q: Poly, splitting: PolyDiffOp, weight) -> DensityOperator:
    """tau'(Q) = tau((1 - B)Q) for the splitting B; B = 0 gives tau itself."""
    return normal_order_section(Q - splitting.apply(Q), weight)


def sequence_cocycle(X: Poly, L: DensityOperator, P: Poly, section_P: DensityOperator,
                     splitting: PolyDiffOp) -> DensityOperator:
    """The connecting cocycle value [L_X, tau'(P)] - tau'(L_X P); order <= k-1.

    tau' = tau o (1 - B) for the splitting B: S_k -> S_(k-1); B = 0 gives the
    normal-ordering section itself (module docstring).  The caller passes the
    pieces that do not depend on both arguments, built once where they vary:
    L = weighted_lie_derivative(X, weight), one per field, and
    section_P = split_section(P, splitting, weight), one per symbol.
    tau'(L_X P) depends on both and is built here.  X is checked once, by
    hamiltonian_action (lie_derivative_op checked it when L was built).
    """
    k = P.xi_degree()
    if k is None:
        raise StructureError("the symbol argument must be xi-homogeneous")
    out = (L.commutator(section_P)
           - split_section(hamiltonian_action(X, P), splitting, L.weight))
    if P.terms and out.order > max(k - 1, 0):
        raise StructureError("top symbols failed to cancel in the sequence cocycle")
    return out


def operator_from_symbol_values(n: int, k: int, value_fn, max_x_order: int) -> PolyDiffOp:
    """Reconstruct an operator on S_k from its values on monomials.

    value_fn(u, v) must return the value on x^u xi^v, and is called only on
    |u| <= max_x_order.  An operator sum a_mu d^mu sends x^u xi^v (|v| = k)
    to D_v(x^u), where D_v = sum_alpha v! a_(alpha + v) d^alpha
    differentiates in x only.  The finite difference

        c_alpha = sum_{gamma <= alpha} binom(alpha, gamma) (-x)^(alpha - gamma)
                  value(gamma, v) / alpha!

    inverts that action: it is D_v applied to (y - x)^alpha / alpha! in y
    and set at y = x, where only the d^alpha term survives.  So
    c_alpha = v! a_(alpha + v), and the term c_alpha / v! sits at
    d^(alpha + v).

    Precondition: max_x_order bounds the x-order of the map.  The values on
    |u| <= max_x_order fix the terms of x-order up to max_x_order exactly;
    a term of higher x-order is not detected and is missing from the result.
    """
    ring = single_ring(n)
    pad = (0,) * n
    us = monomials_up_to(n, max_x_order)
    terms: dict[Exponent, Poly] = {}
    for v in xi_simplex(n, k):
        values = {u: val for u in us if (val := value_fn(u, v)).terms}
        for alpha in us:
            c = Poly.zero(ring)
            for gamma, val in values.items():
                shift = tuple(a - g for a, g in zip(alpha, gamma))
                if min(shift) >= 0:
                    c = c + val * Poly.monomial(
                        ring, shift + pad, (-1) ** sum(shift) * multi_binom(alpha, gamma))
            terms[alpha + v] = c.scale(Fraction(1, prod(map(factorial, alpha + v))))
    return PolyDiffOp(ring, terms)


def quantization_top_cocycle(n: int, k: int, weight) -> OneCocycle:
    """The top symbol of the connecting cocycle, as a cocycle S_k -> S_(k-1).

    Evaluated in closed form (module docstring): X |-> sigma_(k-1) gamma(X)
    is the operator P |-> C(X, P) of the bilinear contraction
    C = -Dxeta^2 / 2 - lambda Dxxi Dxeta.  The definition, the principal
    symbol of sequence_cocycle rebuilt by operator_from_symbol_values, gives
    the same canonical form on every field: both rules are linear in X,
    x-translation equivariant and of order <= k + 1 in X (the full symbol in
    the module docstring differentiates X at most k + 1 times), so they agree
    iff they agree on the monomial fields of degree <= k + 1, which the tests
    check.
    """
    check_int(k, 1, "the symbol degree")
    return bilinear_cocycle(
        n, AnsatzCoefficients(k, 1, alpha={2: -1}, beta={2: -rat(weight)}),
        f"sigma{k - 1}-quantization")


def quantization_projected_cocycle(n: int, k: int, weight,
                                   splitting: PolyDiffOp) -> OneCocycle:
    """The degree-(k-2) symbol of the connecting cocycle of tau' = tau o (1 - B).

    The splitting witness B solves  sigma_(k-1) gamma(X) = X.B, so the value
    sequence_cocycle(X, L_X, P, tau'(P), B) has order <= k-2 (module docstring),
    and its top symbol is again a cocycle.  A B that leaves a degree-(k-1)
    symbol is rejected.

    The operator for X is rebuilt from its values on x^u xi^v, each
    sequence_cocycle(X, L_X, P, tau'(P), B) with P = x^u xi^v.  L_X is built
    once per field, and tau'(x^u xi^v) once per (u, v) in the table
    monomial_section, which every field of this cocycle shares (module
    docstring).

    The values used have |u| at most the x-order of B
    (1 for the witness c D), which bounds the x-order of P |-> value: the
    value is gamma(X)(P) - gamma(X)(BP) - tau((X.B)P), whose tau term has
    degree k-1 and no degree-(k-2) symbol; and by the full-symbol formula in
    the module docstring, sigma(gamma(X)(Q)) takes only xi-derivatives of Q
    (P or BP).  That proof is why operator_from_symbol_values runs at this
    bound with no second pass: the operator has no term above it, so the
    values on |u| <= x-order of B determine it exactly.

    The cocycle is marked affine_natural (cocycles.OneCocycle) when
    module_action(A, B) = 0 for every affine generator A, as for the
    witness c D; report.certify_class then checks it on the proved pairs.
    Proof.  For an affine field A, d^a A = 0 at |a| >= 2 and div A is
    constant, so the full-symbol formula in the module docstring gives
    gamma(A) = 0: tau commutes with L_A, [L_A, tau(P)] = tau(L_A P).  As
    A.B = [L_A, B] = 0, tau' = tau o (1 - B) commutes with L_A too, so the
    connecting cocycle Gamma'(X) = [L_X, tau'(.)] - tau'(L_X .) has
    Gamma'(A) = 0.  Gamma' is the coboundary of tau', so
    Gamma'([A, X]) = A.Gamma'(X) - X.Gamma'(A) = [L_A, Gamma'(X)], and
    taking the degree-(k-2) symbol of an operator of order <= k-2 commutes
    with [L_A, .].  Hence gamma'(A) = 0 and [L_A, gamma'(X)] = gamma'([A, X])
    for the projected cocycle gamma', the two facts ansatz.impose_cocycle's
    completeness proof uses; so that proof covers the identity check of
    gamma' on ansatz.cocycle_filter_pairs as well (cocycles.cocycle_check).
    """
    check_int(k, 2, "the symbol degree")
    ring = single_ring(n)
    weight = rat(weight)
    x_order = max((sum(mu[:n]) for mu in splitting.terms), default=0)

    @cache
    def monomial_section(u: Exponent, v: Exponent) -> DensityOperator:
        return split_section(Poly.monomial(ring, u + v), splitting, weight)

    def rule(X: Poly) -> PolyDiffOp:
        L = weighted_lie_derivative(X, weight)

        def value(u, v):
            P = Poly.monomial(ring, u + v)
            out = sequence_cocycle(X, L, P, monomial_section(u, v), splitting)
            if out.order > max(k - 2, 0):
                raise StructureError("splitting witness failed to cancel the top symbol")
            return out.principal_symbol(k - 2)

        return operator_from_symbol_values(n, k, value, max_x_order=x_order)

    natural = all(module_action(A, splitting).is_zero() for A in sl_generators(n).affine())
    return OneCocycle(n, k, k - 2, f"sigma{k - 2}-quantization", rule, affine_natural=natural)
