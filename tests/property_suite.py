"""Sampled laws of the implementation: the randomized exact-invariant suite.

Each law is an exact identity checked on random instances from a seeded
random.Random: the ring axioms, the Leibniz rule, the Jacobi identity of the
Schouten bracket, the module axiom of the operator action, the section
property of normal ordering, and the Euler-divergence commutator.  Every
instance is decided exactly, but the instances are samples, so the suite
tests the implementation and proves no result; it belongs to the tests,
not to the verdicts the package prints.
"""

from __future__ import annotations

import random

from cohomolab.operators import PolyDiffOp, divergence_diffop, euler_diffop, module_action
from cohomolab.poly import Poly
from cohomolab.quantization import normal_order_section
from cohomolab.symbols import schouten_bracket

from plane_ring import R2


def _random_poly(rng, ring, max_degree=6, max_terms=4, coeff_bound=10**6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.randint(-coeff_bound, coeff_bound)
    return Poly(ring, terms)


def _random_field(rng, ring, max_x=3):
    out = Poly.zero(ring)
    for _ in range(rng.randint(1, 3)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_x)):
            exp[ring.x(rng.randrange(ring.n))] += 1
        exp[ring.xi(rng.randrange(ring.n))] += 1
        out = out + Poly.monomial(ring, tuple(exp), rng.randint(-9, 9))
    return out


def _random_op(rng, ring):
    """One or two terms of order <= 2 with monomial coefficients of degree <= 2."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        mu = [0] * ring.nvars
        for _ in range(rng.randint(0, 2)):
            mu[rng.randrange(ring.nvars)] += 1
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, 2)):
            exp[rng.randrange(ring.nvars)] += 1
        coeff = Poly.monomial(ring, tuple(exp), rng.randint(-5, 5))
        key = tuple(mu)
        terms[key] = terms.get(key, Poly.zero(ring)) + coeff
    return PolyDiffOp(ring, terms)


def _random_symbol(rng, ring, k, max_x=3):
    exp = [0] * ring.nvars
    for _ in range(rng.randint(0, max_x)):
        exp[ring.x(rng.randrange(ring.n))] += 1
    for _ in range(k):
        exp[ring.xi(rng.randrange(ring.n))] += 1
    return Poly.monomial(ring, tuple(exp), rng.randint(1, 9))


def run_property_suite(seed: int, count: int) -> list[dict]:
    """The randomized exact-invariant suite on the plane; every instance must hold exactly."""
    ring = R2
    rng = random.Random(seed)
    results = []

    def record(name, fn):
        failures = 0
        for _ in range(count):
            if not fn():
                failures += 1
        results.append({"name": name, "instances": count,
                        "failures": failures, "passed": failures == 0})

    def ring_axioms():
        a, b, c = (_random_poly(rng, ring, max_degree=4) for _ in range(3))
        return (a + b == b + a and (a + b) + c == a + (b + c)
                and a * b == b * a and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c)

    def leibniz():
        a, b = _random_poly(rng, ring), _random_poly(rng, ring)
        var = rng.randrange(ring.nvars)
        return (a * b).diff(var) == a.diff(var) * b + a * b.diff(var)

    def jacobi():
        f, g, h = (_random_poly(rng, ring, max_degree=4, max_terms=3)
                   for _ in range(3))
        return (schouten_bracket(f, schouten_bracket(g, h))
                + schouten_bracket(g, schouten_bracket(h, f))
                + schouten_bracket(h, schouten_bracket(f, g))).is_zero()

    def module_axiom():
        X, Y = _random_field(rng, ring), _random_field(rng, ring)
        A = _random_op(rng, ring)
        lhs = (module_action(X, module_action(Y, A))
               - module_action(Y, module_action(X, A)))
        return lhs == module_action(schouten_bracket(X, Y), A)

    def section_property():
        k = rng.randint(0, 4)
        P = _random_symbol(rng, ring, k)
        return normal_order_section(P, 0).principal_symbol(k) == P

    E, D = euler_diffop(ring), divergence_diffop(ring)

    def euler_divergence():
        m = _random_poly(rng, ring, max_degree=6, max_terms=2)
        return E.apply(D.apply(m)) - D.apply(E.apply(m)) == -D.apply(m)

    record("ring-axioms", ring_axioms)
    record("leibniz-rule", leibniz)
    record("jacobi-identity", jacobi)
    record("module-action-axiom", module_axiom)
    record("section-property", section_property)
    record("euler-divergence-commutator", euler_divergence)
    return results
