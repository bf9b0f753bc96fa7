"""The exact gl(n)-closure of a set of field pairs in the exterior square, over Q.

gl(n) is spanned by the linear fields E_ij = x^i xi_j (symbols.sl_generators,
linear[(i, j)]) and acts on a field by the bracket, E . Y = [E, Y]
(symbols.schouten_bracket), and on a pair by the Leibniz rule

    E . (Y ^ Z) = [E, Y] ^ Z + Y ^ [E, Z].

An element of the exterior square is a dict {(a, b): c} over pairs a < b of
the fields' exponents (wedge), so a monomial pair is one key.  A monomial
field x^u xi_m is a weight vector of the diagonal E_ii, of weight u - e_m,
and E_ij moves a weight by e_i - e_j.  So the closure is the direct sum of
its weight spaces: closure() splits each generator into its weight parts
(each lies in the closure, the diagonal acting diagonalizably), keeps one
RowReducer per weight, and feeds every new basis vector's images under the
off-diagonal E_ij to the reducer of their weight until none adds rank.  The
diagonal acts on a weight vector by a scalar, so it adds nothing.

affine_closure() is the same closure on fields rather than pairs, under the
whole affine algebra aff(n): the translations xi_i and the linear fields
x^i xi_j, acting by the bracket.  A bracket with an affine field keeps the
degree or lowers it by one, so the closure of fields of degree <= D is
finite-dimensional and one RowReducer over their exponents holds it.
"""

from __future__ import annotations

from functools import cache

from cohomolab.linalg import RowReducer
from cohomolab.poly import Poly, add_scaled_terms
from cohomolab.symbols import schouten_bracket, sl_generators


def wedge(Y: Poly, Z: Poly) -> dict:
    """Y ^ Z as {(a, b): c} with a < b, a and b monomial exponents."""
    out: dict = {}
    for a, c in Y.terms.items():
        for b, d in Z.terms.items():
            if a != b:
                key, sign = ((a, b), 1) if a < b else ((b, a), -1)
                add_scaled_terms(out, ((key, c * d),), sign)
    return out


@cache
def _moved(E: Poly, a: tuple) -> Poly:
    """[E, x^a] for the monomial field of exponent a."""
    return schouten_bracket(E, Poly.monomial(E.ring, a))


def act(E: Poly, w: dict) -> dict:
    """E . w for a linear field E and an element w of the exterior square."""
    ring = E.ring
    out: dict = {}
    for (a, b), c in w.items():
        Y, Z = Poly.monomial(ring, a), Poly.monomial(ring, b)
        add_scaled_terms(out, wedge(_moved(E, a), Z).items(), c)
        add_scaled_terms(out, wedge(Y, _moved(E, b)).items(), c)
    return out


def weight(n: int, key: tuple) -> tuple[int, ...]:
    """The weight under the diagonal E_ii of a monomial pair: the sum of u - e_m."""
    return tuple(sum(e[i] - e[n + i] for e in key) for i in range(n))


def closure(n: int, pairs) -> dict[tuple[int, ...], RowReducer]:
    """The gl(n)-closure of the span of the pairs (Y, Z), one RowReducer per weight.

    The rank of the closure is the sum of the reducers' ranks (rank).
    """
    linear = sl_generators(n).linear
    movers = [E for (i, j), E in sorted(linear.items()) if i != j]
    reducers: dict[tuple[int, ...], RowReducer] = {}
    columns: dict[tuple[int, ...], dict] = {}

    def added(w: dict) -> bool:
        wt = weight(n, next(iter(w)))
        cols = columns.setdefault(wt, {})
        row = {cols.setdefault(key, len(cols)): c for key, c in w.items()}
        return reducers.setdefault(wt, RowReducer(0)).add_row(row)

    todo = []
    for Y, Z in pairs:
        parts: dict = {}
        for key, c in wedge(Y, Z).items():
            parts.setdefault(weight(n, key), {})[key] = c
        todo += [part for part in parts.values() if added(part)]
    while todo:
        w = todo.pop()
        for E in movers:
            image = act(E, w)
            if image and added(image):
                todo.append(image)
    return reducers


def rank(reducers: dict[tuple[int, ...], RowReducer]) -> int:
    return sum(r.rank for r in reducers.values())


def affine_closure(n: int, fields) -> RowReducer:
    """The span of the fields closed under [A, .] for every affine field A.

    One RowReducer, its columns the monomial exponents in the order met;
    its rank is the dimension of the closure.  Every new basis vector's
    brackets with the affine generators are fed back until none adds rank.
    """
    movers = sl_generators(n).affine()
    reducer = RowReducer(0)
    columns: dict = {}

    def added(Y: Poly) -> bool:
        return reducer.add_row({columns.setdefault(e, len(columns)): c
                                for e, c in Y.terms.items()})

    todo = [Y for Y in fields if added(Y)]
    while todo:
        Y = todo.pop()
        todo += [image for A in movers if added(image := schouten_bracket(A, Y))]
    return reducer
