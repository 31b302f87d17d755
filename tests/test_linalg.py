"""The exact elimination core against sympy, on small integer and rational
matrices of every shape, including 0 rows, 0 columns and zero matrices."""

import math
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxkit import linalg
from coxkit.freemodule import FormalVector
from coxkit.linalg import (
    NotInSpanError,
    RowSpace,
    determinant,
    exact_div,
    express_all_in_basis,
    express_in_basis,
    is_linearly_independent,
    matrix_rank,
    nullspace,
    solve,
    solve_columns,
)
from oracles import echelon_coordinates, reduced_rows

INTS = st.integers(-3, 3)
RATIONALS = st.one_of(INTS, st.fractions(-3, 3, max_denominator=4))
LARGE = st.one_of(st.integers(-10**20, 10**20),
                  st.fractions(-10**12, 10**12, max_denominator=10**9))


@st.composite
def matrices(draw, entries=RATIONALS, max_rows=5, max_cols=5, square=False):
    """(rows, ncols): a list of rows, with the column count kept even when
    there are no rows."""
    nrows = draw(st.integers(0, max_rows))
    ncols = nrows if square else draw(st.integers(0, max_cols))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    return rows, ncols


def as_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                           for row in rows for x in map(Fraction, row)])


def exact(values) -> bool:
    """Every entry is an int or a Fraction, never a float (or a bool)."""
    return all(type(x) in (int, Fraction) for x in values)


def apply(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def as_maps(rows):
    """The same rows as {column: value} maps; a zero row becomes {}."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def echelon(rows, ncols):
    """The pivot columns of a RowSpace grown from ``rows``, and its reduced
    echelon basis as dense rows of width ``ncols``, read off its stored rows."""
    space = RowSpace()
    for row in rows:
        space.add(row)
    return sorted(space.rows), reduced_rows(space, ncols)


def padded(vector, width):
    """A dense result at a map matrix's width, extended by zeros: columns
    past the last stored entry are zero in every row."""
    return list(vector) + [0] * (width - len(vector))


ZERO_3x2 = ([[0, 0], [0, 0], [0, 0]], 2)
NO_ROWS = ([], 4)
NO_COLS = ([[], [], []], 0)


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(ZERO_3x2)
@example(NO_ROWS)
@example(NO_COLS)
def test_row_space_echelon_and_rank_match_sympy(case):
    rows, ncols = case
    want, want_pivots = as_sympy(rows, ncols).rref()
    want_rows = want.tolist()[:len(want_pivots)]
    pivots, mat = echelon(rows, ncols)
    assert pivots == list(want_pivots)
    assert matrix_rank(rows) == len(want_pivots)
    assert [[sympy.Rational(str(x)) for x in row] for row in mat] == want_rows
    assert exact(x for row in mat for x in row)
    sparse_pivots, sparse_mat = echelon(as_maps(rows), ncols)
    assert sparse_pivots == pivots
    assert matrix_rank(as_maps(rows)) == len(want_pivots)
    assert sparse_mat == mat
    assert exact(x for row in sparse_mat for x in row)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
@example(([], 0))
@example(([[0, 0], [0, 0]], 2))
def test_determinant_matches_sympy(case):
    rows, n = case
    det = determinant(rows)
    assert det == as_sympy(rows, n).det()
    assert exact([det])
    assert determinant(as_maps(rows)) == det


@settings(max_examples=100, deadline=None)
@given(matrices(entries=INTS, square=True))
def test_determinant_of_an_integer_matrix_is_an_int(case):
    assert type(determinant(case[0])) is int
    assert type(determinant(as_maps(case[0]))) is int


def test_determinant_refuses_a_non_square_matrix():
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        determinant([{2: 1}, {0: 1}])


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(ZERO_3x2)
@example(NO_ROWS)
@example(NO_COLS)
def test_nullspace_is_the_kernel(case):
    rows, ncols = case
    basis = nullspace(rows, ncols)
    assert nullspace(as_maps(rows), ncols) == basis
    want = as_sympy(rows, ncols).nullspace()
    assert len(basis) == len(want) == ncols - matrix_rank(rows)
    for x in basis:
        assert len(x) == ncols and exact(x)
        assert not any(apply(rows, x))
    if basis:
        # Same span: neither basis adds anything to the other.
        mixed = as_sympy(basis, ncols).col_join(sympy.Matrix.hstack(*want).T)
        assert mixed.rank() == len(basis) == matrix_rank(basis)


@st.composite
def systems(draw):
    rows, ncols = draw(matrices())
    rhs = [draw(RATIONALS) for _ in rows]
    if rows and draw(st.booleans()):
        # A consistent right-hand side: A times some x.
        rhs = apply(rows, [draw(RATIONALS) for _ in range(ncols)])
    return rows, ncols, rhs


@settings(max_examples=150, deadline=None)
@given(systems())
@example(([[0, 0], [0, 0]], 2, [0, 1]))
@example(([[0, 0], [0, 0]], 2, [0, 0]))
@example(([], 3, []))
@example(([[], []], 0, [0, 0]))
@example(([[], []], 0, [0, 5]))
def test_solve_matches_sympy_consistency(case):
    rows, ncols, rhs = case
    x = solve(rows, rhs)
    A = as_sympy(rows, ncols)
    consistent = A.rank() == A.row_join(as_sympy([[b] for b in rhs], 1)).rank()
    assert (x is not None) == consistent
    if x is not None:
        assert exact(x)
        assert apply(rows, x) == list(rhs)
    sparse_x = solve(as_maps(rows), rhs)
    assert (sparse_x is not None) == consistent
    if sparse_x is not None:
        assert exact(sparse_x)
        assert padded(sparse_x, len(x)) == x


@st.composite
def multi_systems(draw):
    """(rows, ncols, columns): a matrix and up to four right-hand sides,
    each one of its column combinations or an arbitrary vector."""
    rows, ncols = draw(matrices())
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            columns.append(apply(rows, [draw(RATIONALS) for _ in range(ncols)]))
        else:
            columns.append([draw(RATIONALS) for _ in rows])
    return rows, ncols, columns


@settings(max_examples=150, deadline=None)
@given(multi_systems())
@example(([[1, 0], [0, 0]], 2, [[0, 1], [1, 0], [0, 1], [2, 0]]))
@example(([[0, 0], [0, 0]], 2, [[1, 0], [0, 1], [0, 0]]))
@example(([], 3, [[], []]))
@example(([[], []], 0, [[0, 5], [0, 0]]))
def test_solve_columns_is_each_one_column_solve(case):
    # an inconsistent column before or after a consistent one leaves its
    # answer, to the type of each entry, as the one-column solve gives it
    rows, ncols, columns = case
    xs = solve_columns(rows, columns)
    assert len(xs) == len(columns)
    A = as_sympy(rows, ncols)
    for b, x in zip(columns, xs):
        consistent = A.rank() == A.row_join(as_sympy([[c] for c in b], 1)).rank()
        assert (x is not None) == consistent
        single = solve_columns(rows, [b])[0]
        assert x == single and [type(c) for c in x or ()] == [type(c) for c in single or ()]
        if x is not None:
            assert exact(x) and apply(rows, x) == list(b)


def integral_as_int(values) -> bool:
    """Every entry that is an integer is an int, not a Fraction."""
    return all(type(x) is int for x in values if x == int(x))


@st.composite
def integer_systems(draw):
    """(rows, x, y): an integer matrix, an integer vector of its width and
    one integer per row."""
    rows, ncols = draw(matrices(entries=INTS))
    return rows, [draw(INTS) for _ in range(ncols)], [draw(INTS) for _ in rows]


@settings(max_examples=150, deadline=None)
@given(integer_systems())
@example(([[2, 1], [1, 3]], [2, 1], [1, 1]))
def test_integer_systems_give_int_results(case):
    # A x = b has the integer solution x; the combination sum y_i row_i
    # lies in the row space.  Every integral result entry must be an int.
    rows, x, y = case
    rhs = apply(rows, x)
    got = solve(rows, rhs)
    assert apply(rows, got) == rhs and integral_as_int(got)
    assert all(integral_as_int(v) for v in nullspace(rows, len(x)))
    combo = [sum(c * row[j] for c, row in zip(y, rows)) for j in range(len(x))]
    space = RowSpace()
    for row in rows:
        space.add(row)
    coords = echelon_coordinates(space, combo)
    assert coords is not None and integral_as_int(coords)
    basis = [FormalVector(dict(enumerate(row))) for row in rows]
    coeffs = express_in_basis(FormalVector(dict(enumerate(combo))), basis)
    assert len(coeffs) == len(rows) and integral_as_int(coeffs)


def test_solve_of_an_integer_system_returns_ints():
    x = solve([[2, 1], [1, 3]], [5, 5])
    assert x == [2, 1] and all(type(c) is int for c in x)


def test_integers_stay_integers_with_unit_pivots():
    rows = [[1, 2, -1, 3], [0, -1, 4, 2], [0, 0, 1, -5], [2, 3, 2, 4]]
    _, mat = echelon(rows, 4)
    assert all(type(x) is int for row in mat for x in row)
    assert all(type(x) is int for v in nullspace(rows, 4) for x in v)
    assert all(type(x) is int for x in solve(rows, [1, 2, 3, 4]))


def stored_rows_are_primitive(space) -> bool:
    """Each stored row is a map of nonzero ints with gcd 1, positive at its
    pivot and absent at every other pivot; ``_leads`` holds exactly the
    pivot entries other than 1."""
    for p, row in space.rows.items():
        if not row or not all(type(x) is int and x for x in row.values()):
            return False
        if row.get(p, 0) <= 0 or math.gcd(*row.values()) != 1 or set(row) & set(space.rows) - {p}:
            return False
    return space._leads == {p: row[p] for p, row in space.rows.items() if row[p] != 1}


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(entries=INTS), matrices(), matrices(entries=LARGE, max_rows=4)))
@example(([[2, 4, 6], [3, 5, 7], [1, 1, 2]], 3))
@example(([[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 3), Fraction(-5, 7)]], 2))
def test_stored_rows_stay_primitive_integer_maps(case):
    # after every step the rows are primitive int maps whose quotients by
    # their pivot entries are sympy's reduced echelon form
    rows, ncols = case
    space = RowSpace()
    for row in rows:
        space.add(row)
        assert stored_rows_are_primitive(space)
    want, want_pivots = as_sympy(rows, ncols).rref()
    assert sorted(space.rows) == list(want_pivots)
    got = reduced_rows(space, ncols)
    assert [[sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, row)]
            for row in got] == want.tolist()[:len(want_pivots)]
    assert all(integral_as_int(row) and exact(row) for row in got)


class _NoFraction:
    def __new__(cls, *args):
        raise AssertionError(f"Fraction{args} built during integer elimination")


@settings(max_examples=100, deadline=None)
@given(matrices(entries=st.integers(-6, 6), square=True))
@example(([[2, 4, 6], [3, 5, 7], [1, 1, 2]], 3))
def test_integer_elimination_builds_no_fraction(case):
    # the rank, the stored integer rows and the determinant of an int
    # matrix build no Fraction, whatever its pivots
    rows, n = case
    with mock.patch.object(linalg, "Fraction", _NoFraction):
        space = RowSpace()
        for row in rows:
            space._insert(row)
        assert matrix_rank(rows) == matrix_rank(as_maps(rows)) == len(space.rows)
        assert type(determinant(rows)) is int
    assert stored_rows_are_primitive(space)


def test_integral_results_build_no_fraction():
    rows = [[2, 4, 6], [3, 5, 7], [1, 1, 2]]
    with mock.patch.object(linalg, "Fraction", _NoFraction):
        assert solve(rows, [12, 15, 4]) == [1, 1, 1]
        assert nullspace([[2, 4, 6], [3, 6, 9]], 3) == [[-2, 1, 0], [-3, 0, 1]]
        assert determinant(rows) == -2
        assert exact_div(-12, 4) == -3


@pytest.mark.parametrize("rows,entry", [([[1, 2], [2, 4.0]], "4.0"), ([[0.5, 1]], "0.5"),
                                        ([{0: 1, 3: 2.5}], "2.5"), ([[1, 0.0]], "0.0"),
                                        ([[1, "2"]], "'2'")])
def test_a_float_or_other_entry_is_refused_by_the_row_normalizer(rows, entry):
    with pytest.raises(TypeError, match=f"entry {entry} at column"):
        matrix_rank(rows)
    with pytest.raises(TypeError, match=f"entry {entry} at column"):
        RowSpace().add(rows[-1])
    with pytest.raises(TypeError, match=f"entry {entry} at column"):
        solve([], rows[-1])


def test_exact_div():
    assert exact_div(6, -3) == -2 and type(exact_div(6, -3)) is int
    assert exact_div(3, 6) == Fraction(1, 2)
    assert type(exact_div(Fraction(4, 2), Fraction(1, 3))) is int


def test_row_space_grows_one_vector_at_a_time():
    space = RowSpace()
    assert space.add([0, 2, 4]) == (1, 2)
    assert space.add([0, 1, 2]) == (None, 0)
    assert space.add([3, 0, 3]) == (0, 3)
    assert reduced_rows(space, 3) == [[1, 0, 1], [0, 1, 2]]
    assert echelon_coordinates(space, [2, 3, 8]) == [2, 3]
    assert echelon_coordinates(space, [0, 0, 1]) is None


def test_row_space_reads_map_rows():
    space = RowSpace()
    assert space.add({1: 2, 2: 4, 5: 0}) == (1, 2)
    assert space.add({1: 1, 2: 2}) == (None, 0)
    assert space.add({0: 3, 2: 3}) == (0, 3)
    assert space.rows == {1: {1: 1, 2: 2}, 0: {0: 1, 2: 1}}
    assert space.add({0: 2, 1: 3, 2: 8}) == (None, 0)
    assert space.add({2: 5}) == (2, 5)


def test_residual_only_in_column_zero_is_outside_the_span():
    for v in ([1, 0], {0: 1}):
        space = RowSpace()
        space.add([0, 1])
        assert space.add(v) == (0, 1)
        assert space.rows == {1: {1: 1}, 0: {0: 1}}


def test_express_in_basis_and_independence():
    a = FormalVector({"x": 1, "y": 1})
    b = FormalVector({"y": 2})
    assert express_in_basis(FormalVector({"x": 3, "y": 4}), [a, b]) == [3, Fraction(1, 2)]
    with pytest.raises(NotInSpanError):
        express_in_basis(FormalVector({"z": 1}), [a, b])
    assert is_linearly_independent([a, b])
    assert not is_linearly_independent([a, b, a + b])
    assert is_linearly_independent([])


def test_express_all_in_basis_is_each_express_in_basis():
    a = FormalVector({"x": 1, "y": 1})
    b = FormalVector({"y": 2})
    targets = [FormalVector({"x": 3, "y": 4}), FormalVector(), FormalVector({"y": -6}), a + b]
    assert express_all_in_basis(targets, [a, b]) \
        == [express_in_basis(t, [a, b]) for t in targets] \
        == [[3, Fraction(1, 2)], [0, 0], [0, -3], [1, 1]]
    assert express_all_in_basis([], [a, b]) == []
    with pytest.raises(NotInSpanError):
        express_all_in_basis([a, FormalVector({"z": 1})], [a, b])


def test_express_in_basis_all_zero():
    # with no keys there are no equations, but still one coefficient per
    # basis vector
    assert express_in_basis(FormalVector(), [FormalVector(), FormalVector()]) == [0, 0]
    assert express_in_basis(FormalVector(), []) == []
    with pytest.raises(NotInSpanError):
        express_in_basis(FormalVector({"x": 1}), [])
