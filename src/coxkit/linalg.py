"""Exact linear algebra on rows of ints and Fractions: each row is a dense
sequence or a ``{column: value}`` dict (as wide as its last key plus one).

All row reduction in coxkit is one Gauss-Jordan step, :meth:`RowSpace.add`;
everything here is built on it.  Integers stay integers: a row is divided
by its leading entry only when that is not +-1, and a quotient becomes a
``Fraction`` only when it is not an integer.  Inside a row space an entry
may still be an integral ``Fraction`` (a difference of two fractions); the
results that leave :func:`solve_columns`, :func:`nullspace`,
:meth:`RowSpace.coordinates` and :func:`express_all_in_basis` are turned back
into ints wherever they are integers.  Results are never floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence


class NotInSpanError(ValueError):
    """Target vector is not a combination of the given basis."""


def exact_div(a, b):
    """The exact quotient a / b: an int when it is one, else a Fraction."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _integral(x):
    """x, as an int when it is an integral Fraction."""
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


def _sparse(v) -> dict[int, object]:
    """The one row normalizer: a fresh map of a row's nonzero entries."""
    return {j: c for j, c in (v.items() if isinstance(v, dict) else enumerate(v)) if c}


def _width(rows: Sequence) -> int:
    return max((max(r, default=-1) + 1 if isinstance(r, dict) else len(r) for r in rows),
               default=0)


class RowSpace:
    """A row space in reduced row echelon form, grown one vector at a time:
    ``rows`` maps each pivot column to its row (a map: 1 there, no other
    pivot, no zero); a new pivot j clears only the rows in ``_holders[j]``."""

    __slots__ = ("rows", "_holders")

    def __init__(self):
        self.rows: dict[int, dict[int, object]] = {}
        self._holders: dict[int, set[int]] = {}

    def basis(self) -> list[dict[int, object]]:
        """Copies of the rows, ordered by pivot column."""
        return [dict(self.rows[p]) for p in sorted(self.rows)]

    def reduce(self, v) -> tuple[dict[int, object], dict[int, object]]:
        """(c, rest) with v = sum(c[p] * rows[p]) + rest, rest a map empty at every pivot."""
        rest = _sparse(v)
        coeffs = {p: rest[p] for p in rest if p in self.rows}
        for p, c in coeffs.items():
            for j, b in self.rows[p].items():
                rest[j] = rest.get(j, 0) - c * b
        return coeffs, {j: x for j, x in rest.items() if x}

    def add(self, v) -> tuple[Optional[int], object]:
        """One Gauss-Jordan step: insert v, returning its new pivot column and
        the leading entry it was divided by, or (None, 0) if v is in the span."""
        _, rest = self.reduce(v)
        if not rest:
            return None, 0
        col = min(rest)
        lead = rest[col]
        if lead == -1:
            rest = {j: -x for j, x in rest.items()}
        elif lead != 1:
            rest = {j: exact_div(x, lead) for j, x in rest.items()}
        for p in self._holders.pop(col, ()):
            row = self.rows[p]
            c = row.get(col)
            if c:
                for j, b in rest.items():
                    row[j] = row.get(j, 0) - c * b
                    self._holders.setdefault(j, set()).add(p)
                self.rows[p] = {j: x for j, x in row.items() if x}
        for j in rest:
            self._holders.setdefault(j, set()).add(col)
        self.rows[col] = rest
        return col, lead

    def coordinates(self, v) -> list:
        """Coefficients of v on :meth:`basis`; NotInSpanError outside the span."""
        coeffs, rest = self.reduce(v)
        if rest:
            raise NotInSpanError("vector is outside the row space")
        return [_integral(coeffs.get(p, 0)) for p in sorted(self.rows)]


def _span(rows: Iterable) -> RowSpace:
    space = RowSpace()
    for row in rows:
        space.add(row)
    return space


def matrix_rank(rows: Iterable) -> int:
    return len(_span(rows).rows)


def nullspace(rows: Sequence, ncols: int) -> list[list]:
    """Basis of the right kernel of a matrix with ``ncols`` columns (one
    vector per free column).  With no rows every column is free."""
    space = _span(rows)
    free = [c for c in range(ncols) if c not in space.rows]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for pc, row in space.rows.items():
            vec[pc] = _integral(-row.get(fc, 0))
        basis.append(vec)
    return basis


def solve(rows: Sequence, rhs: Sequence) -> Optional[list]:
    """One exact solution of A x = b, or None when inconsistent."""
    return solve_columns(rows, [rhs])[0]


def solve_columns(rows: Sequence, columns: Sequence[Sequence]) -> list[Optional[list]]:
    """One exact solution of A x = b for each right-hand side b in
    ``columns`` (None where inconsistent), from one elimination of
    [A | b_1 ... b_k].  A b is inconsistent exactly when a row whose pivot
    lies right of A is nonzero at b; the other rows give its solution with
    every free variable 0, so each answer is the one-column answer."""
    if not rows:
        return [[] if not any(b) else None for b in columns]
    ncols = _width(rows)
    space = _span({**_sparse(row), **{ncols + t: b[i] for t, b in enumerate(columns)}}
                  for i, row in enumerate(rows))
    blocked = {j for p, row in space.rows.items() if p >= ncols for j in row}
    out: list[Optional[list]] = []
    for j in range(ncols, ncols + len(columns)):
        x = None
        if j not in blocked:
            x = [0] * ncols
            for c, row in space.rows.items():
                if c < ncols:
                    x[c] = _integral(row.get(j, 0))
        out.append(x)
    return out


def determinant(rows: Sequence):
    """Determinant of a square matrix: the product of the leading entries
    the rows are divided by, signed by the order of their pivots."""
    rows = list(rows)
    if _width(rows) > len(rows) or any(
            not isinstance(row, dict) and len(row) != len(rows) for row in rows):
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
    return express_all_in_basis([target], basis)[0]


def express_all_in_basis(targets: Sequence, basis: Sequence) -> list[list]:
    """:func:`express_in_basis` of every target, from one elimination of
    the basis with all the targets beside it."""
    keys = sorted({k for v in (*basis, *targets) for k in v.terms}, key=repr)
    if not keys:
        return [[0] * len(basis) for _ in targets]
    rows = [[b.terms.get(k, 0) for b in basis] for k in keys]
    xs = solve_columns(rows, [[t.terms.get(k, 0) for k in keys] for t in targets])
    if None in xs:
        raise NotInSpanError("target is not in the span of the basis")
    return xs


def is_linearly_independent(vectors: Sequence) -> bool:
    keys = sorted({k for v in vectors for k in v.terms}, key=repr)
    rows = [[v.terms.get(k, 0) for k in keys] for v in vectors]
    return matrix_rank(rows) == len(vectors)
