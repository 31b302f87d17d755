"""Exact linear algebra on small dense matrices (lists of ints and Fractions).

All row reduction in coxkit is one Gauss-Jordan step, :meth:`RowSpace.add`;
everything here is built on it.  Integers stay integers: a row is divided
by its leading entry only when that is not +-1, and a quotient becomes a
``Fraction`` only when it is not an integer.  Results are never floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


class NotInSpanError(ValueError):
    """Target vector is not a combination of the given basis."""


def exact_div(a, b):
    """The exact quotient a / b: an int when it is one, else a Fraction."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


class RowSpace:
    """A row space in reduced row echelon form, grown one vector at a time:
    ``rows`` maps each pivot column to its row (1 there, 0 at other pivots)."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, list] = {}

    def basis(self) -> list[list]:
        """The rows, ordered by pivot column."""
        return [self.rows[p] for p in sorted(self.rows)]

    def reduce(self, v: Sequence) -> tuple[dict[int, object], list]:
        """(c, rest) with v = sum(c[p] * rows[p]) + rest, rest 0 at every pivot."""
        rest = list(v)
        coeffs = {p: rest[p] for p in self.rows if rest[p]}
        for p, c in coeffs.items():
            rest = [a - c * b if b else a for a, b in zip(rest, self.rows[p])]
        return coeffs, rest

    def add(self, v: Sequence) -> tuple[Optional[int], object]:
        """One Gauss-Jordan step: insert v, returning its new pivot column and
        the leading entry it was divided by, or (None, 0) if v is in the span."""
        _, rest = self.reduce(v)
        col = next((i for i, x in enumerate(rest) if x), None)
        if col is None:
            return None, 0
        lead = rest[col]
        if lead == -1:
            rest = [-x for x in rest]
        elif lead != 1:
            rest = [exact_div(x, lead) if x else x for x in rest]
        for p, row in self.rows.items():
            c = row[col]
            if c:
                self.rows[p] = [a - c * b if b else a for a, b in zip(row, rest)]
        self.rows[col] = rest
        return col, lead

    def coordinates(self, v: Sequence) -> list:
        """Coefficients of v on :meth:`basis`; NotInSpanError outside the span."""
        coeffs, rest = self.reduce(v)
        if any(rest):
            raise NotInSpanError("vector is outside the row space")
        return [coeffs.get(p, 0) for p in sorted(self.rows)]


def rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices),
    the matrix padded with zero rows to the input's row count."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    space = RowSpace()
    for row in rows:
        space.add(row)
        if len(space.rows) == ncols:
            break
    mat = space.basis()
    mat += [[0] * ncols for _ in range(len(rows) - len(mat))]
    return mat, sorted(space.rows)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[list]:
    """Basis of the right kernel of a matrix with ``ncols`` columns (one
    vector per free column).  With no rows every column is free."""
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list]:
    """One exact solution of A x = b, or None when inconsistent."""
    if not rows:
        return [] if not any(rhs) else None
    ncols = len(rows[0])
    mat, pivots = rref([[*row, b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = mat[r][ncols]
    return x


def determinant(rows: Sequence[Sequence]):
    """Determinant of a square matrix: the product of the leading entries
    the rows are divided by, signed by the order of their pivots."""
    rows = list(rows)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    space, det, order = RowSpace(), 1, []
    for row in rows:
        col, lead = space.add(row)
        if col is None:
            return 0
        det *= -lead if sum(c > col for c in order) % 2 else lead
        order.append(col)
    return exact_div(det, 1)  # an int whenever the value is one


def express_in_basis(target, basis: Sequence) -> list:
    """Exact coefficients writing ``target`` as a combination of ``basis``.

    Operands are anything with a sparse ``terms`` mapping (series,
    polynomials, formal vectors).  Raises :class:`NotInSpanError` when no
    combination exists; with a dependent basis some solution is returned.
    There is one coefficient per basis vector, all 0 when every operand is 0.
    """
    keys = sorted(
        {k for b in basis for k in b.terms} | set(target.terms),
        key=repr,
    )
    if not keys:
        return [0] * len(basis)
    rows = [[b.terms.get(k, 0) for b in basis] for k in keys]
    rhs = [target.terms.get(k, 0) for k in keys]
    x = solve(rows, rhs)
    if x is None:
        raise NotInSpanError("target is not in the span of the basis")
    return x


def is_linearly_independent(vectors: Sequence) -> bool:
    keys = sorted({k for v in vectors for k in v.terms}, key=repr)
    rows = [[v.terms.get(k, 0) for k in keys] for v in vectors]
    return matrix_rank(rows) == len(vectors)
