"""Test oracle: the affine-equivariant operators found by elimination.

affine_equivariant_basis returns the closed form D^(k - ell).  This module
keeps the search that the closed form replaced, so the tests can compare a
proved formula with an independent computation rather than with itself.

Candidates are the constant-coefficient terms xi^b d_x^alpha d_xi^beta of
total order <= max_order with |b| - |beta| = ell - k.  Translation
equivariance holds term by term; the commutators with the linear generators
are imposed exactly through the degree-k canonical form, and the solution
space is reduced to operators independent as maps on degree-k symbols.
"""

from __future__ import annotations

from cohomolab.linalg import RowReducer, keyed_rows, nullspace
from cohomolab.operators import (
    PolyDiffOp,
    linear_combination,
    module_action,
    monomials_up_to,
    xi_simplex,
)
from cohomolab.poly import Poly, single_ring
from cohomolab.symbols import sl_generators


def affine_basis_by_elimination(n: int, k: int, ell: int,
                                max_order: int) -> list[PolyDiffOp]:
    """Basis of the affine-equivariant operators S_k -> S_ell of order <= max_order."""
    ring = single_ring(n)
    shift = ell - k
    candidates: list[PolyDiffOp] = []
    for total in range(max_order + 1):
        for alpha in monomials_up_to(n, total):
            rem = total - sum(alpha)
            for beta in xi_simplex(n, rem) if rem <= k else []:
                bdeg = shift + sum(beta)
                if bdeg < 0:
                    continue
                for b in xi_simplex(n, bdeg):
                    coeff = Poly.monomial(ring, (0,) * n + b)
                    candidates.append(PolyDiffOp(ring, {alpha + beta: coeff}))

    gens = sl_generators(n).affine()
    columns = []
    for cand in candidates:
        column = {}
        for g_idx, X in enumerate(gens):
            defect = module_action(X, cand).symbol_map(k)
            column.update(((g_idx, key), c) for key, c in defect.entries.items())
        columns.append(column)
    ops = [linear_combination(ring, candidates, vec)
           for vec in nullspace(keyed_rows(columns), len(candidates))]

    # keep the operators that the earlier ones do not span as maps on
    # degree-k symbols: exactly the pivot columns of the reduced system
    reducer = RowReducer(len(ops))
    for row in keyed_rows([op.symbol_map(k).entries for op in ops]):
        reducer.add_row(row)
    return [ops[j] for j in sorted(reducer.pivot_rows)]
