"""Exact linear algebra on rows of ints and Fractions: each row is a dense
sequence or a ``{column: value}`` dict (as wide as its last key plus one).

All row reduction in coxkit is one Gauss-Jordan step, :meth:`RowSpace.add`;
everything here is built on it.  Elimination runs on integers only.  The
one row normalizer scales a row with Fraction entries to integers (an int
row is taken as it is) and refuses any other entry.  A :class:`RowSpace`
keeps its reduced echelon form as primitive integer rows: each is positive
at its pivot and zero at every other pivot, and the reduced row is that row
divided by its pivot entry.  A new pivot is cleared from a row by integer
cross-multiplication and one ``gcd``; a row whose pivot entry is 1 is
cleared as in plain Gauss-Jordan, with neither.  Quotients are taken only
for results, once per entry, by :func:`exact_div`: an int wherever it is
an integer, else a Fraction, and never a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence


class NotInSpanError(ValueError):
    """Target vector is not a combination of the given basis."""


def exact_div(a, b):
    """The exact quotient a / b: an int when it is one, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _sparse(v) -> tuple[dict[int, int], int]:
    """The one row normalizer: (w, d) with v = w / d, where w is a fresh map
    of the row's nonzero entries as ints and d a positive int (1 for an int
    row).  An entry that is not an int or a Fraction raises TypeError."""
    if isinstance(v, dict):
        values, items = v.values(), v.items()
    elif isinstance(v, (list, tuple)):
        values, items = v, enumerate(v)
    else:
        return _sparse(list(v))
    try:
        # int + x is an int only for an int x: a Fraction or float entry
        # makes the sum a Fraction or a float
        if type(sum(values)) is int:
            return {j: c for j, c in items if c}, 1
    except TypeError:
        pass
    row = {}
    for j, c in items:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"entry {c!r} at column {j} is not an int or a Fraction")
        if c:
            row[j] = c
    d = math.lcm(*(c.denominator for c in row.values()))
    return {j: c.numerator * (d // c.denominator) for j, c in row.items()}, d


def _width(rows: Sequence) -> int:
    return max((max(r, default=-1) + 1 if isinstance(r, dict) else len(r) for r in rows),
               default=0)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


class RowSpace:
    """A row space in reduced row echelon form, grown one vector at a time:
    ``rows`` maps each pivot column to its row, a primitive map of ints
    (positive there, 0 at every other pivot, no zero stored) whose quotient
    by its pivot entry is the reduced row, and ``_leads`` holds the pivot
    entries other than 1."""

    __slots__ = ("rows", "_leads")

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self._leads: dict[int, int] = {}

    def _insert(self, v) -> tuple[Optional[int], int, int]:
        """:meth:`add` with its divisor as a fraction: (column, numerator,
        positive denominator), or (None, 0, 1) if v is in the span.  The
        int map of v is first scaled by s, the lcm of the pivot entries it
        meets (1 when all are 1), so that each of those rows clears in ints."""
        w, d = _sparse(v)
        rows, leads = self.rows, self._leads
        hit = [p for p in w if p in rows]
        s = math.lcm(*[leads[p] for p in hit if p in leads]) if leads else 1
        if s != 1:
            w = {j: s * x for j, x in w.items()}
        for p in hit:
            row = rows[p]
            c = w[p] if s == 1 else w[p] // row[p]
            for j, b in row.items():
                w[j] = w.get(j, 0) - c * b
        rest = {j: x for j, x in w.items() if x}
        if not rest:
            return None, 0, 1
        col = min(rest)
        lead = rest[col]
        if lead == -1:
            rest = {j: -x for j, x in rest.items()}
        elif lead != 1:
            rest = _primitive(rest if lead > 0 else {j: -x for j, x in rest.items()})
        a = rest[col]
        for p, row in rows.items():
            c = row.get(col)
            if c:
                if a != 1:
                    row = {j: a * x for j, x in row.items()}
                for j, b in rest.items():
                    row[j] = row.get(j, 0) - c * b
                row = {j: x for j, x in row.items() if x}
                if row[p] != 1:
                    row = _primitive(row)
                    if row[p] != 1:
                        leads[p] = row[p]
                    else:
                        leads.pop(p, None)
                rows[p] = row
        rows[col] = rest
        if a != 1:
            leads[col] = a
        return col, lead, s * d

    def add(self, v) -> tuple[Optional[int], object]:
        """One Gauss-Jordan step: insert v, returning its new pivot column and
        the leading entry it was divided by, or (None, 0) if v is in the span."""
        col, lead, den = self._insert(v)
        return col, lead if den == 1 else exact_div(lead, den)


def _span(rows: Iterable) -> RowSpace:
    space = RowSpace()
    for row in rows:
        space._insert(row)
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
            x = row.get(fc)
            if x:
                vec[pc] = -x if row[pc] == 1 else exact_div(-x, row[pc])
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
        return [None if _sparse(b)[0] else [] for b in columns]
    ncols = _width(rows)
    space = _span({**(row if isinstance(row, dict) else dict(enumerate(row))),
                   **{ncols + t: b[i] for t, b in enumerate(columns)}}
                  for i, row in enumerate(rows))
    blocked = {j for p, row in space.rows.items() if p >= ncols for j in row}
    out: list[Optional[list]] = []
    for j in range(ncols, ncols + len(columns)):
        x = None
        if j not in blocked:
            x = [0] * ncols
            for c, row in space.rows.items():
                b = row.get(j)
                if c < ncols and b:
                    x[c] = b if row[c] == 1 else exact_div(b, row[c])
        out.append(x)
    return out


def determinant(rows: Sequence):
    """Determinant of a square matrix: the product of the leading entries
    the rows are divided by, signed by the order of their pivots, taken as
    one integer numerator over one denominator."""
    rows = list(rows)
    if _width(rows) > len(rows) or any(
            not isinstance(row, dict) and len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    space, num, den, order = RowSpace(), 1, 1, []
    for row in rows:
        col, lead, d = space._insert(row)
        if col is None:
            return 0
        num *= -lead if sum(c > col for c in order) % 2 else lead
        den *= d
        order.append(col)
    return exact_div(num, den)


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
