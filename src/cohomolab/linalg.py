"""Exact linear algebra over the rationals for constraint solving.

Rows are sparse maps column -> coefficient.  Elimination is deterministic:
rows are consumed in the order supplied and the pivot of each reduced row is
its first nonzero column in ascending column order, so identical inputs give
identical reduced systems, nullspace bases, and solutions on every platform.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Coeff, add_scaled_terms, norm_coeff

Row = dict[int, Coeff]


class RowReducer:
    """Incremental Gaussian elimination over exact rationals.

    Maintains a reduced set of rows, one per pivot column.  Feeding rows one
    at a time lets callers interleave constraint generation with reduction
    and observe the rank as it grows.  Each elimination step is
    poly.add_scaled_terms, so a pivot-row entry may be an integral Fraction
    equal to an int; nullspace normalizes every entry it returns.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add_row(self, row: Row) -> bool:
        """Add a constraint row; returns True if it increased the rank.

        The row is first reduced against the current pivots: every pivot
        column present in it is eliminated, not merely the leading one.  A
        pivot row holds its own pivot column and no other (this method keeps
        that invariant), so eliminating one pivot column neither adds nor
        changes an entry in another: each elimination subtracts the row's
        original entry times its pivot row, the eliminations commute, and
        one pass over the pivot columns present at the start, in any order,
        gives the same exact row.
        """
        red = {c: v for c, v in row.items() if v != 0}
        for hit in red.keys() & self.pivot_rows.keys():
            add_scaled_terms(red, self.pivot_rows[hit].items(), -red[hit])
        if not red:
            return False
        lead = min(red)
        inv = Fraction(1, 1) / Fraction(red[lead])
        red = {c: norm_coeff(v * inv) for c, v in red.items()}
        # keep earlier pivot rows fully reduced against the new one
        for prow in self.pivot_rows.values():
            if lead in prow:
                add_scaled_terms(prow, red.items(), -prow[lead])
        self.pivot_rows[lead] = red
        return True

    def nullspace(self) -> list[list[Coeff]]:
        """Basis of the solution space of (rows) * v = 0, one vector per free column.

        Each basis vector sets its free column to 1 and all other free
        columns to 0; vectors are ordered by free column index.
        """
        basis = []
        for free in range(self.ncols):
            if free in self.pivot_rows:
                continue
            vec: list[Coeff] = [0] * self.ncols
            vec[free] = 1
            for lead, row in self.pivot_rows.items():
                coeff = row.get(free, 0)
                if coeff:
                    vec[lead] = norm_coeff(-coeff)
            basis.append(vec)
        return basis


def keyed_rows(columns: list[dict]) -> list[Row]:
    """The rows of a system given column by column, one row per key.

    columns[j] maps the key of each equation to the coefficient of unknown j
    in it; a key absent from columns[j] leaves no entry for j.  Rows come out
    in ascending key order.  Row order changes neither nullspace nor solve:
    RowReducer keeps the fully reduced echelon form with leading-column
    pivots, which is unique for a given row space.
    """
    rows: dict = {}
    for j, column in enumerate(columns):
        for key, c in column.items():
            rows.setdefault(key, {})[j] = c
    return [rows[key] for key in sorted(rows)]


def _reduced(rows: list[Row], ncols: int) -> RowReducer:
    """A RowReducer over ncols columns fed rows in order: the one row-list reduction."""
    red = RowReducer(ncols)
    for row in rows:
        red.add_row(row)
    return red


def nullspace(rows: list[Row], ncols: int) -> list[list[Coeff]]:
    return _reduced(rows, ncols).nullspace()


def same_span(a: list[list[Coeff]], b: list[list[Coeff]]) -> bool:
    """Exact equality of the spans of two lists of coordinate vectors.

    Each list is reduced once and the pivot rows are compared: RowReducer
    keeps the fully reduced echelon form with leading-column pivots, which
    is unique for a given row space (keyed_rows), so two eliminations decide.
    """
    forms = [_reduced([dict(enumerate(v)) for v in vs], len(vs[0]) if vs else 0).pivot_rows
             for vs in (a, b)]
    return forms[0] == forms[1]


def solve(rows: list[Row], ncols: int) -> list[Coeff] | None:
    """One exact solution v of an augmented system, or None if inconsistent.

    Each row is one equation sum_(c < ncols) row[c] v_c = row[ncols], its
    right-hand side in column ncols.  So v solves the system iff (v, -1)
    lies in the kernel of the augmented rows, and the system is
    inconsistent iff column ncols becomes a pivot.  Otherwise ncols is the
    last free column, and its nullspace vector, the last one, is (-v0, 1),
    where v0 is the solution with every other free variable set to 0; v0 is
    returned (deterministic).
    """
    aug = _reduced(rows, ncols + 1)
    if ncols in aug.pivot_rows:
        return None
    return [-c for c in aug.nullspace()[-1][:ncols]]
