"""Exact rational linear algebra on small dense matrices (lists of Fractions)."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


class NotInSpanError(ValueError):
    """Target vector is not a combination of the given basis."""


def _as_fraction_rows(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = _as_fraction_rows(rows)
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a matrix with ``ncols`` columns (one
    vector per free column).  With no rows every column is free."""
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of A x = b, or None when inconsistent."""
    if not rows:
        return [] if not any(rhs) else None
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    mat, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = mat[r][ncols]
    return x


def determinant(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-preserving Gaussian elimination."""
    mat = _as_fraction_rows(rows)
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c]:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def express_in_basis(target, basis: Sequence) -> list[Fraction]:
    """Exact coefficients writing ``target`` as a combination of ``basis``.

    Operands are anything with a sparse ``terms`` mapping (series,
    polynomials, formal vectors).  Raises :class:`NotInSpanError` when no
    combination exists; with a dependent basis some solution is returned.
    """
    keys = sorted(
        {k for b in basis for k in b.terms} | set(target.terms),
        key=repr,
    )
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
