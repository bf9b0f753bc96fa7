import random
from fractions import Fraction

from cohomolab.linalg import RowReducer, keyed_rows, nullspace, same_span, solve

from exact_helpers import rank_of


def test_nullspace_of_simple_system():
    # x0 + x1 = 0, x1 + x2 = 0  ->  span{(1, -1, 1)}
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert [v[0] + v[1], v[1] + v[2]] == [0, 0]
    assert v[2] == 1


def test_nullspace_full_rank_is_empty():
    rows = [{0: 2}, {1: Fraction(1, 3)}]
    assert nullspace(rows, 2) == []


def test_nullspace_vectors_satisfy_random_systems():
    rng = random.Random(99)
    for _ in range(30):
        ncols = rng.randint(2, 6)
        rows = []
        for _ in range(rng.randint(1, 8)):
            rows.append({c: Fraction(rng.randint(-5, 5)) for c in range(ncols)})
        basis = nullspace(rows, ncols)
        for v in basis:
            for row in rows:
                assert sum(row.get(c, 0) * v[c] for c in range(ncols)) == 0
        red = RowReducer(ncols)
        for row in rows:
            red.add_row(dict(row))
        assert len(basis) == ncols - red.rank


def test_rank_and_span():
    a = [[1, 0, 1], [0, 1, 1]]
    b = [[1, 1, 2], [1, -1, 0]]
    assert rank_of(a) == 2
    assert same_span(a, b)
    assert not same_span(a, [[1, 0, 0]])
    assert rank_of(a + [[2, 3, 5]]) == 2
    assert rank_of(a + [[0, 0, 1]]) == 3
    # same_span compares the fully reduced echelon forms of the two lists
    r1, r2 = [1, 0, Fraction(1, 2)], [0, 3, 1]
    both = [r1, r2, [1, 3, Fraction(3, 2)]]  # the third row is r1 + r2
    zero = [0, 0, 0]
    assert same_span(a, a[::-1])
    assert same_span(both, [r1, r2, [2, -3, 0]])  # r1 + r2 replaced by 2 r1 - r2
    assert same_span(a, a + [zero])
    assert same_span([], [])
    assert same_span([], [zero]) and same_span([zero, zero], [])
    assert not same_span(a, [[1, 0, 0], [0, 1, 0]])  # rank 2 each, different planes
    assert not same_span(both, a)


def test_solve_consistent_system():
    # the right-hand side sits in column ncols = 2
    rows = [{0: 1, 1: 2, 2: Fraction(5)}, {0: 1, 1: -1, 2: Fraction(-1)}]
    sol = solve(rows, 2)
    assert sol == [1, 2]


def test_solve_inconsistent_returns_none():
    rows = [{0: 1, 2: 1}, {0: 1, 2: 2}]
    assert solve(rows, 2) is None


def test_solve_underdetermined_picks_zero_free_vars():
    rows = [{0: 1, 1: 1, 3: 3}]
    sol = solve(rows, 3)
    assert sol is not None
    assert sol[0] + sol[1] == 3 and sol[2] == 0


def test_row_with_nonleading_pivot_column():
    # regression: a row whose minimum column is free must still be cleared
    # of every later pivot column before becoming a pivot row itself
    red = RowReducer(3)
    red.add_row({2: Fraction(3)})
    red.add_row({1: 1, 2: 5})
    for lead, prow in red.pivot_rows.items():
        assert not (set(prow) - {lead}) & set(red.pivot_rows)


def test_integral_fraction_pivot_entries_leave_ints_in_nullspace_and_span():
    # (2, 1, 7) becomes the pivot row (1, 1/2, 7/2); clearing column 1 with
    # (0, 1, 1) leaves the entry 7/2 - 1/2 = Fraction(3, 1), which nullspace
    # returns as the int -3 and same_span equates with 3
    rows = [[2, 1, 7], [0, 1, 1]]
    red = RowReducer(3)
    for row in rows:
        red.add_row(dict(enumerate(row)))
    assert red.pivot_rows == {0: {0: 1, 2: 3}, 1: {1: 1, 2: 1}}
    basis = nullspace([dict(enumerate(row)) for row in rows], 3)
    assert basis == [[-3, -1, 1]]
    assert all(type(c) is int for c in basis[0])
    assert same_span(rows, [[1, 0, 3], [0, 1, 1]])
    assert same_span(basis, [[-3, -1, 1]])


def test_nullspace_orthogonal_on_sparse_systems():
    rng = random.Random(100)
    for _ in range(50):
        ncols = rng.randint(3, 9)
        rows = []
        for _ in range(rng.randint(1, 12)):
            cols = rng.sample(range(ncols), rng.randint(1, min(3, ncols)))
            rows.append({c: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for c in cols})
        basis = nullspace([dict(r) for r in rows], ncols)
        for v in basis:
            for row in rows:
                assert sum(row[c] * v[c] for c in row) == 0


def test_deterministic_reduction():
    rng = random.Random(4)
    rows = [{c: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for c in range(5)}
            for _ in range(7)]
    b1 = nullspace([dict(r) for r in rows], 5)
    b2 = nullspace([dict(r) for r in rows], 5)
    assert b1 == b2


def test_keyed_rows_one_row_per_sorted_key():
    # column 1 has no entry under key "a", so row "a" carries column 0 only
    columns = [{"b": 2, "a": 1}, {"c": 5, "b": Fraction(1, 3)}]
    assert keyed_rows(columns) == [{0: 1}, {0: 2, 1: Fraction(1, 3)}, {1: 5}]
    assert keyed_rows([{}, {}]) == []
