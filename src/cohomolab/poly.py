"""Exact sparse polynomial ring in the cotangent variables (x, xi).

A polynomial lives in the ring Q[x1..xn, xi1..xin] of functions on T*R^n,
fiberwise polynomial.  The two-point calculus of bilinear operators needs
no second layout: T*R^n x T*R^n = T*R^(2n), so it runs in single_ring(2n),
whose variables are x, y, xi, eta in that order (y_i is x_(n+i) and eta_i
is xi_(n+i)), and whose xi-degree is the total (xi, eta) degree.

Terms are stored sparsely as a map from exponent tuples to coefficients.
Coefficients are exact rationals; integral values are normalized to Python
ints so that the common integer case stays on the fast arithmetic path
(Fraction(2) == 2 and hash(Fraction(2)) == hash(2), so dict semantics are
unaffected).  The zero polynomial has an empty term map; equality and
hashing are structural.

unit_deriv is the one builder of a unit multi-index e_i over the 2n
variables: Poly.variable's exponent, Poly.diff's derivative, the
derivatives of the standard operators, and the x half or xi half of e_i
that the density operators and the monomial fields take from it.

The term budget COHOMOLAB_MAX_TERMS caps intermediate term counts, and
_term_budget is the one reader of the environment.  check_term_budget
compares against the budget of the running call tree, held in one
ContextVar: budget_scope wraps a driver that loops over kernels, reads the
budget once at its outermost call and resets it when that call ends, so a
nested driver reuses the value.  Outside every scope check_term_budget
reads the environment itself.  A change to the environment made during a
scoped call takes effect at the next outermost call.  The scoped drivers:

    ansatz.build_bilinear, ansatz.impose_cocycle,
    ansatz.solve_equivariant_direct, cocycles.build_report,
    cocycles.cocycle_check, cocycles.field_columns, cocycles.vanishes_on_sl,
    report.check_relation, report.cohomology_table, report.quantization_report
"""

from __future__ import annotations

import os
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from math import perm
from operator import add
from typing import Iterable

Coeff = int | Fraction
Exponent = tuple[int, ...]


class StructureError(ValueError):
    """Raised on ring/dimension mismatches and malformed inputs."""


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed the configured term budget."""


def check_int(value, least: int, what: str) -> int:
    """Return value if it is an int of at least least; what names it in the error.

    The one check of an integer parameter: a dimension, a degree, a degree
    bound, a power or the term budget.  A bool, float or string is refused
    even where it compares equal to an int.
    """
    if type(value) is not int or value < least:
        raise StructureError(f"{what} must be an integer of at least {least}, got {value!r}")
    return value


def _term_budget() -> int:
    raw = os.environ.get("COHOMOLAB_MAX_TERMS", "")
    if not raw:
        return 2_000_000
    try:
        raw = int(raw)
    except ValueError:
        pass
    return check_int(raw, 1, "COHOMOLAB_MAX_TERMS")


_scoped_budget: ContextVar[int | None] = ContextVar("term_budget", default=None)


def budget_scope(driver):
    """driver, with the term budget read once per outermost call (module docstring).

    A StructureError for a malformed budget is raised as the outermost
    driver is entered.
    """
    @wraps(driver)
    def scoped(*args, **kwargs):
        if _scoped_budget.get() is not None:
            return driver(*args, **kwargs)
        token = _scoped_budget.set(_term_budget())
        try:
            return driver(*args, **kwargs)
        finally:
            _scoped_budget.reset(token)
    return scoped


def check_term_budget(n_terms: int, counted: str) -> None:
    """Raise ResourceLimitError when n_terms exceeds the budget; counted names them.

    The budget is the running scope's, or, outside every scope, the
    environment's (module docstring).
    """
    cap = _scoped_budget.get() or _term_budget()
    if n_terms > cap:
        raise ResourceLimitError(
            f"{n_terms} {counted} exceed COHOMOLAB_MAX_TERMS={cap}")


def norm_coeff(c: Coeff) -> Coeff:
    """Normalize a coefficient: Fractions with denominator 1 become ints."""
    if type(c) is int:
        return c
    if c.denominator == 1:
        return c.numerator
    return c


def rat(value) -> Coeff:
    """Parse an exact rational from an int, Fraction, or 'num/den' string.

    The one reader of exact coefficients: a plain int passes as it is, a
    bool is refused, and any other int, Fraction (subclasses too) or string
    goes through one Fraction parse, normalized by norm_coeff.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise StructureError("boolean is not a rational coefficient")
    if isinstance(value, (int, Fraction, str)):
        try:
            return norm_coeff(Fraction(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise StructureError(f"not an exact rational: {value!r}")


def rat_str(c: Coeff) -> str:
    """Canonical 'num/den' form, denominator omitted when 1."""
    c = norm_coeff(c)
    if isinstance(c, int):
        return str(c)
    return f"{c.numerator}/{c.denominator}"


@lru_cache(maxsize=None)
def active_vars(mu: Exponent) -> tuple[tuple[int, int], ...]:
    """The nonzero (variable, order) pairs of a multi-index."""
    return tuple((var, m) for var, m in enumerate(mu) if m)


def diff_terms(terms, multi: Exponent) -> list[tuple[Exponent, Coeff]]:
    """The (exponent, coefficient) pairs of d^multi(g), given those of g.

    The one differentiation kernel of a polynomial, behind Poly.diff_multi
    (and so Poly.diff) and PolyDiffOp.apply.
    Distinct surviving monomials stay distinct, so nothing is merged;
    coefficients come back unnormalized.
    """
    active = active_vars(multi)
    if not active:
        return list(terms)
    out = []
    for exp, c in terms:
        new = list(exp)
        for var, m in active:
            e = exp[var]
            if e < m:
                break
            c *= perm(e, m)
            new[var] = e - m
        else:
            out.append((tuple(new), c))
    return out


def add_scaled_terms(acc: dict, terms, c: Coeff) -> None:
    """Add c * v into acc[e] for each (e, v) of terms; a sum that reaches 0 is dropped.

    c must be nonzero: c = 0 makes the sum 0 at a key not yet in acc, and
    its deletion raises KeyError.  The one sparse accumulator, outside
    operators._leibniz: Poly + and - (Poly._merge), add_product (so
    Poly.__mul__ and PolyDiffOp.apply), operators.linear_combination (so
    PolyDiffOp + and - and scale), commutator_sum's base (one call per
    operator, over its flat packed term list), parse_op,
    SymbolMap.from_operator, BilinearOp.operator_for_field and the
    elimination step of linalg.RowReducer.add_row.  Coefficients stay
    unnormalized.
    """
    for e, v in terms:
        s = acc.get(e)
        s = c * v if s is None else s + c * v
        if s:
            acc[e] = s
        else:
            del acc[e]


def add_product(acc: dict, a, b) -> None:
    """Add the product of two term lists a and b, (exponent, coefficient) pairs, into acc.

    The one raw product, behind Poly.__mul__ and PolyDiffOp.apply: one
    add_scaled_terms call per term of the shorter list, with the other
    shifted by that term's exponent.  Both lists must have a length and be
    iterable twice; coefficients stay unnormalized.
    """
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a:
        add_scaled_terms(acc, [(tuple(map(add, ea, eb)), cb) for eb, cb in b], ca)


@dataclass(frozen=True)
class Ring:
    """Variable layout for a polynomial ring of dimension n >= 2.

    Variable indices: x_i at i and xi_i at n+i (0-based internally, printed
    1-based).  The dimension floor is checked here only: a function taking
    a dimension builds its ring before other work (n = 1 is out of scope).
    A dimension that is not an int (2.0, True) is refused too.
    """

    n: int

    def __post_init__(self):
        check_int(self.n, 2, "dimension")

    @property
    def nvars(self) -> int:
        return 2 * self.n

    def x(self, i: int) -> int:
        self._check_coord(i)
        return i

    def xi(self, i: int) -> int:
        self._check_coord(i)
        return self.n + i

    def _check_coord(self, i: int) -> None:
        if type(i) is not int or not 0 <= i < self.n:
            raise StructureError(f"coordinate index must be an integer from 0 to {self.n - 1},"
                                 f" got {i!r}")

    def var(self, idx: int) -> int:
        """idx, if it is an int naming one of the nvars variables.

        The one check of a variable index; a bool is refused, as check_int
        refuses one.
        """
        if type(idx) is not int or not 0 <= idx < self.nvars:
            raise StructureError(f"variable index must be an integer from 0 to {self.nvars - 1},"
                                 f" got {idx!r}")
        return idx

    def exponent(self, exp) -> Exponent:
        """tuple(exp), if it is nvars ints of at least 0.

        The one check of an exponent or a derivative multi-index, behind the
        Poly and PolyDiffOp constructors; a bool or float entry is refused
        even where it equals an int.
        """
        exp = tuple(exp)
        if len(exp) != self.nvars or not all(type(e) is int and e >= 0 for e in exp):
            raise StructureError(
                f"multi-index {exp!r} must be {self.nvars} integers of at least 0")
        return exp

    def var_name(self, idx: int) -> str:
        block, pos = divmod(self.var(idx), self.n)
        return f"{('x', 'xi')[block]}{pos + 1}"

    def var_index(self, name: str) -> int | None:
        """The index of the variable var_name calls name, or None if there is none."""
        for prefix, block in (("xi", 1), ("x", 0)):
            if name.startswith(prefix) and name[len(prefix):].isdecimal():
                pos = int(name[len(prefix):]) - 1
                if 0 <= pos < self.n:
                    return block * self.n + pos
        return None


@lru_cache(maxsize=None, typed=True)
def single_ring(n: int) -> Ring:
    """The one Ring of dimension n; typed, so 2.0 misses Ring(2) and reaches Ring's check."""
    return Ring(n)


def unit_deriv(ring: Ring, *variables: int) -> Exponent:
    """The multi-index of d_v1 d_v2 ... over all ring variables; repeats add up.

    The one builder of a unit multi-index e_i (and of a sum of them): the
    exponent of Poly.variable, the derivative of Poly.diff and of the
    standard operators, and the x or xi half that ansatz.field_monomials and
    quantization.weighted_lie_derivative read off it.
    """
    mu = [0] * ring.nvars
    for var in variables:
        mu[ring.var(var)] += 1
    return tuple(mu)


def check_same_ring(ring: Ring, other: Ring) -> None:
    """Raise StructureError naming both rings unless two operands share one.

    The one operand-ring check of Poly, PolyDiffOp and the symbol brackets;
    single_ring returns one object per n, so the common case is an identity test.
    """
    if ring is not other and ring != other:
        raise StructureError(f"ring mismatch: {ring} vs {other}")


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    Two slots are filled lazily and then kept for the object's life: _hash
    (the structural hash) and _ham (the Hamiltonian operator, filled by
    operators.hamiltonian_op).  Neither enters equality, hashing or the
    text form.
    """

    __slots__ = ("ring", "terms", "_hash", "_ham")

    def __init__(self, ring: Ring, terms: dict[Exponent, Coeff], *, _clean: bool = False):
        self.ring = ring
        self._ham = None
        if _clean:
            self.terms = terms
        else:
            clean: dict[Exponent, Coeff] = {}
            for exp, c in terms.items():
                exp, c = ring.exponent(exp), rat(c)
                if c:
                    clean[exp] = c
            self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Poly":
        return Poly(ring, {}, _clean=True)

    @staticmethod
    def constant(ring: Ring, c) -> "Poly":
        return Poly(ring, {(0,) * ring.nvars: c})

    @staticmethod
    def variable(ring: Ring, idx: int) -> "Poly":
        return Poly(ring, {unit_deriv(ring, idx): 1}, _clean=True)

    @staticmethod
    def monomial(ring: Ring, exp: Exponent, c=1) -> "Poly":
        return Poly(ring, {tuple(exp): c})

    # -- structural --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        # hash(Fraction(m)) == hash(m), so an int and an equal Fraction hash alike
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._merge(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._merge(other, -1)

    def _merge(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other for sign = 1 or -1, through add_scaled_terms."""
        check_same_ring(self.ring, other.ring)
        if not other.terms:
            return self
        if not self.terms and sign == 1:
            return other
        out = dict(self.terms)
        add_scaled_terms(out, other.terms.items(), sign)
        return Poly(self.ring, {e: norm_coeff(c) for e, c in out.items()}, _clean=True)

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def scale(self, c) -> "Poly":
        c = rat(c)
        if c == 0:
            return Poly.zero(self.ring)
        if c == 1:
            return self
        return Poly(self.ring,
                    {e: norm_coeff(v * c) for e, v in self.terms.items()},
                    _clean=True)

    def __mul__(self, other: "Poly") -> "Poly":
        check_same_ring(self.ring, other.ring)
        if not self.terms or not other.terms:
            return Poly.zero(self.ring)
        out: dict[Exponent, Coeff] = {}
        add_product(out, self.terms.items(), other.terms.items())
        check_term_budget(len(out), "terms of a polynomial product")
        return Poly(self.ring, {e: norm_coeff(c) for e, c in out.items()}, _clean=True)

    def __pow__(self, k: int) -> "Poly":
        out = Poly.constant(self.ring, 1)
        for _ in range(check_int(k, 0, "the power")):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, var: int) -> "Poly":
        """Exact formal partial derivative with respect to variable index var.

        The case of diff_multi at the unit multi-index of var.
        """
        return self.diff_multi(unit_deriv(self.ring, var))

    def diff_multi(self, multi: Exponent) -> "Poly":
        """Iterated partial derivative d^multi, computed in one pass per term."""
        terms = diff_terms(self.terms.items(), multi)
        return Poly(self.ring, {e: norm_coeff(c) for e, c in terms}, _clean=True)

    # -- grading -------------------------------------------------------------

    def xi_degree(self) -> int | None:
        """The xi-degree if xi-homogeneous (0 for the zero polynomial), else None."""
        n = self.ring.n
        degs = {sum(e[n:]) for e in self.terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({self.ring.n}: {poly_str(self)})"


def monomial_factors(ring: Ring, exp: Exponent, prefix: str = "") -> list[str]:
    """The factors 'name' or 'name^e' of the monomial exp, each name after prefix.

    The one writer of monomials: poly_str joins them with '*' after the
    coefficient, op_str with ' * ' after '(coefficient)' and prefix 'd',
    as in 'dx1 * dxi2^2'.  parse_monomial reads them back.
    """
    return [prefix + ring.var_name(idx) + (f"^{e}" if e > 1 else "")
            for idx, e in enumerate(exp) if e]


def parse_monomial(ring: Ring, factors: Iterable[str], prefix: str = "") -> Exponent:
    """The exponent of the product of factors as monomial_factors writes them; repeats add up.

    The one reader of monomials.  A factor that is not prefix and a variable
    of ring, with an optional decimal exponent after '^', raises
    StructureError naming it.
    """
    exp = [0] * ring.nvars
    for f in factors:
        name, caret, e = f.partition("^")
        var = ring.var_index(name[len(prefix):]) if name.startswith(prefix) else None
        if var is None or (caret and not e.isdecimal()):
            raise StructureError(f"bad factor {f!r}: expected {prefix}x<i> or {prefix}xi<i>"
                                 f" with 1 <= i <= {ring.n}, then optionally ^<exponent>")
        exp[var] += int(e) if caret else 1
    return tuple(exp)


def poly_str(p: Poly) -> str:
    """Canonical text form: terms in lexicographic exponent order.

    Coefficients always print, as 'num/den' with the denominator omitted
    when 1; negatives keep their sign inside the coefficient.
    """
    if not p.terms:
        return "0"
    return " + ".join("*".join([rat_str(p.terms[exp]), *monomial_factors(p.ring, exp)])
                      for exp in sorted(p.terms))


def parse_poly(ring: Ring, text: str) -> Poly:
    """Parse the canonical text form produced by poly_str."""
    out = Poly.zero(ring)
    for part in text.strip().split(" + "):
        factors = part.strip().split("*")
        try:
            coeff = rat(factors[0])
        except StructureError:
            raise StructureError("each term starts with its coefficient, as in "
                                 f"'1*x2': got {part.strip()!r}") from None
        out = out + Poly.monomial(ring, parse_monomial(ring, factors[1:]), coeff)
    return out


def check_vector_field(X: Poly) -> Poly:
    """Validate the degree-1 symbol identification of a vector field.

    One loop over the terms, stopped at the first of xi-degree other than 1;
    the zero field passes.
    """
    n = X.ring.n
    for e in X.terms:
        if sum(e[n:]) != 1:
            raise StructureError("a vector field symbol must have xi-degree exactly 1")
    return X
