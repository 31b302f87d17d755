"""Degenerate Hecke algebra representations over the rationals.

A module is given by one square matrix per acting generator for the
nilpotent-style generators (square equals minus themselves); the
idempotent generators are recovered by adding the identity.  Matrices are
dense lists of ints, with Fractions only where a division is inexact; all
row reduction (kernels, ranks) is done by :mod:`coxkit.linalg`.

The module constructors mirror the combinatorial structure theory.  The
regular module, the projective indecomposables and the mixed projectives
are all built on Norton's basis, the elements whose descent sets lie in an
interval [low, high] of subsets, with each generator acting by -1, by a
move to sw, or by 0.  Beside them are the one-dimensional simples indexed
by generator subsets, and induction along a parabolic via the three-case
rewrite of generator action on coset representatives.

Composition factors are read off one rank per subset of the acting set:
the simples are one-dimensional, so the fixed spaces of the idempotent
generators count them, and a Moebius inversion over the subsets separates
the labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .freemodule import FormalVector
from .linalg import matrix_rank
from .qsym import CPoly, fundamental_qsym, fundamental_qsym_b, fundamental_qsym_d
from .systems import (
    CoxeterSystem,
    all_subsets,
    composition_from_descents,
    descent_class,
    min_coset_reps,
    parabolic_elements,
)

Matrix = list[list]


class NonProjectiveError(ValueError):
    """Multiplicity bookkeeping detected a non-projective module."""


# -- small exact matrix helpers -------------------------------------------------


def zero_matrix(n: int) -> Matrix:
    return [[0] * n for _ in range(n)]


def identity_matrix(n: int) -> Matrix:
    out = zero_matrix(n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_scale(a: Matrix, c) -> Matrix:
    return [[c * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row-sparse product: skips zero entries of ``a``."""
    n, m = len(a), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i, row in enumerate(a):
        acc = out[i]
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
    return out


def mat_transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def alternating_product(a: Matrix, b: Matrix, m: int) -> Matrix:
    """(a b a ...) with m factors."""
    out = identity_matrix(len(a))
    for i in range(m):
        out = mat_mul(out, a if i % 2 == 0 else b)
    return out


@dataclass
class HModule:
    """A finite-dimensional module: one matrix per acting generator.

    The dimension is stored, not read off the matrices, because a module
    with an empty acting set has no matrices to read it from.
    """

    system: CoxeterSystem
    acting: frozenset[int]
    mats: dict[int, Matrix]
    dim: int
    labels: Optional[tuple] = None

    def validate(self) -> None:
        """Quadratic relations X^2 = -X and all pairwise braid relations."""
        for s, X in self.mats.items():
            if mat_mul(X, X) != mat_scale(X, -1):
                raise AssertionError(f"quadratic relation fails for generator {s}")
        acting = sorted(self.acting)
        for i, s in enumerate(acting):
            for t in acting[i + 1:]:
                m = self.system.coxeter_order(s, t)
                lhs = alternating_product(self.mats[s], self.mats[t], m)
                rhs = alternating_product(self.mats[t], self.mats[s], m)
                if lhs != rhs:
                    raise AssertionError(f"braid relation fails for ({s}, {t})")


# -- module constructors ----------------------------------------------------------


def _descent_interval_module(system: CoxeterSystem, low: frozenset[int],
                             high: frozenset[int], carrier: frozenset[int]) -> HModule:
    """Norton's basis: the w of the carrier parabolic with low <= D(w) <= high,
    in the order of :func:`parabolic_elements`, which are also the labels.

    X_s sends b_w to -b_w when length(sw) < length(w), to b_sw when sw is
    again in the basis, and to 0 otherwise.  A rise sw keeps every right
    descent of w, so it never leaves ``low``: the module is the quotient of
    the span of {D(w) >= low} in the regular module by the span of
    {D(w) not <= high}, and both spans are submodules.
    """
    basis = tuple(w for w in parabolic_elements(system, carrier)
                  if low <= w.descent_set() <= high)
    index = {w: i for i, w in enumerate(basis)}
    mats: dict[int, Matrix] = {}
    for s in carrier:
        g = system.generator(s)
        X = zero_matrix(len(basis))
        for j, w in enumerate(basis):
            sw = g * w
            if sw.length() < w.length():
                X[j][j] = -1
            elif sw in index:
                X[index[sw]][j] = 1
        mats[s] = X
    return HModule(system, carrier, mats, len(basis), labels=basis)


def regular_module(system: CoxeterSystem, carrier: Optional[frozenset[int]] = None) -> HModule:
    """Left multiplication on the group basis: basis vector at w is sent to
    the one at sw when the length rises and to minus itself otherwise.

    With ``carrier`` the module is the regular module of the parabolic
    subalgebra, on the subgroup basis.
    """
    carrier = system.generator_set if carrier is None else carrier
    return _descent_interval_module(system, frozenset(), carrier, carrier)


def simple_module(system: CoxeterSystem, subset: frozenset[int],
                  acting: Optional[frozenset[int]] = None) -> HModule:
    """One-dimensional module: generators in ``subset`` act by -1, others by 0."""
    acting = system.generator_set if acting is None else acting
    if not subset <= acting:
        raise ValueError("label must consist of acting generators")
    return HModule(
        system, acting, {s: [[-1 if s in subset else 0]] for s in acting}, 1
    )


def projective_module(system: CoxeterSystem, subset: frozenset[int],
                      carrier: Optional[frozenset[int]] = None) -> HModule:
    """Projective indecomposable attached to ``subset`` over the carrier
    parabolic, on the descent class of ``subset`` inside it (Norton 1979).

    It is isomorphic to the cyclic module of the regular module seeded at
    (nilpotent product over the longest element of ``subset``) times
    (idempotent product over the longest element of its complement)."""
    carrier = system.generator_set if carrier is None else carrier
    if not subset <= carrier:
        raise ValueError("subset must lie in the carrier")
    return _descent_interval_module(system, subset, subset, carrier)


def mixed_projective_module(system: CoxeterSystem, subset: frozenset[int],
                            within: frozenset[int]) -> HModule:
    """Module over the full algebra on the elements w with
    subset <= D(w) <= (complement of within) union subset; it is isomorphic
    to the cyclic module seeded with the idempotent part over ``within``
    minus ``subset`` only."""
    return _descent_interval_module(
        system, subset, (system.generator_set - within) | subset, system.generator_set)


def induce(module: HModule) -> HModule:
    """Induction to the full algebra along the parabolic on the acting set.

    Basis pairs (z, m) over minimal left-coset representatives z; a
    generator s sends (z, m) to minus itself when s is a left descent of
    z, to (sz, m) when sz is again a representative, and otherwise acts
    through the conjugated generator inside the parabolic.
    """
    system = module.system
    I = module.acting
    reps = min_coset_reps(system, I, "left")
    rep_index = {z: i for i, z in enumerate(reps)}
    gen_label = {system.generator(s): s for s in I}
    d = module.dim
    dim = len(reps) * d

    def idx(zi: int, mi: int) -> int:
        return zi * d + mi

    mats: dict[int, Matrix] = {}
    for s in system.generators:
        g = system.generator(s)
        X = zero_matrix(dim)
        for zi, z in enumerate(reps):
            sz = g * z
            if sz.length() < z.length():
                for mi in range(d):
                    X[idx(zi, mi)][idx(zi, mi)] = -1
            elif sz in rep_index:
                ti = rep_index[sz]
                for mi in range(d):
                    X[idx(ti, mi)][idx(zi, mi)] = 1
            else:
                r = gen_label[z.inverse() * g * z]
                R = module.mats[r]
                for mi in range(d):
                    for out_i in range(d):
                        if R[out_i][mi]:
                            X[idx(zi, out_i)][idx(zi, mi)] = R[out_i][mi]
        mats[s] = X
    labels = tuple((z, mi) for z in reps for mi in range(d))
    return HModule(system, system.generator_set, mats, dim, labels=labels)


def restrict(module: HModule, subset: frozenset[int]) -> HModule:
    if not subset <= module.acting:
        raise ValueError("can only restrict to a subset of the acting generators")
    return HModule(
        module.system, subset, {s: module.mats[s] for s in subset}, module.dim, module.labels
    )


# -- composition series and multiplicities ----------------------------------------


def _eigen_patterns(module: HModule) -> list[frozenset[int]]:
    """Subsets of the acting set, in the order of :func:`all_subsets`."""
    return [I for I in all_subsets(module.system) if I <= module.acting]


def _shifted_rows(module: HModule, pattern: frozenset[int]) -> list[list]:
    """Rows of the transpose of X_s + [s in pattern] * I over the acting s:
    their kernel is the space of maps onto the simple with that pattern."""
    rows = []
    for s in module.acting:
        for i, row in enumerate(mat_transpose(module.mats[s])):
            if s in pattern:
                row[i] += 1
            rows.append(row)
    return rows


def composition_factors(module: HModule) -> FormalVector:
    """Multiset of simple factors, from the ranks of the fixed spaces.

    The idempotent pi_s = X_s + 1 acts on the simple C_J by 0 for s in J
    and by 1 otherwise.  The common kernel of the X_s over s in K is the
    image of the idempotent pi_{w0(K)}, and the rank of an idempotent is
    its trace, which adds up along a composition series.  So
    t(K) = dim - rank(X_s : s in K) counts the factors C_J with J disjoint
    from K, and Moebius inversion over the subsets B = A - K of the acting
    set A recovers each multiplicity (Norton 1979; Krob-Thibon 1997).
    """
    A = module.acting
    patterns = _eigen_patterns(module)
    fixed = {
        K: module.dim - matrix_rank([row for s in K for row in module.mats[s]])
        for K in patterns
    }
    return FormalVector(
        ((J, sum((-1) ** len(J - B) * fixed[A - B] for B in patterns if B <= J))
         for J in patterns),
        kind="g0",
    )


def hom_to_simple_dim(module: HModule, pattern: frozenset[int]) -> int:
    """Dimension of the space of maps onto the simple with the given pattern."""
    return module.dim - matrix_rank(_shifted_rows(module, pattern))


def projective_multiplicities(module: HModule) -> FormalVector:
    """Multiplicity of each projective indecomposable among the acting set,
    with a dimension audit that flags non-projective inputs."""
    out = FormalVector(kind="k0")
    total = 0
    for pattern in _eigen_patterns(module):
        m = hom_to_simple_dim(module, pattern)
        if m:
            out += FormalVector.basis(pattern, m, kind="k0")
            total += m * len(descent_class(module.system, pattern, module.acting))
    if total != module.dim:
        raise NonProjectiveError(
            f"projective dims sum to {total}, module dim is {module.dim}"
        )
    return out


# -- characteristic maps ------------------------------------------------------------


def characteristic_polynomial(system: CoxeterSystem, g0: FormalVector, K: int):
    """Expand Ch of a simple-factor vector as a commutative truncation."""
    fund = {
        "A": fundamental_qsym,
        "B": fundamental_qsym_b,
        "D": fundamental_qsym_d,
    }[system.family]
    out = CPoly()
    for subset, coeff in g0.terms.items():
        out += fund(composition_from_descents(system, subset), K).scale(coeff)
    return out


# -- sorting operators ---------------------------------------------------------------


def sorting_operator(family: str, s: int, word: tuple[int, ...]) -> tuple[int, ...]:
    """Idempotent word operators realizing the generators on integer words."""
    a = list(word)
    if s == 0:
        if family == "B":
            if a and a[0] > 0:
                a[0] = -a[0]
        elif family == "D":
            if len(a) >= 2 and a[0] + a[1] > 0:
                a[0], a[1] = -a[1], -a[0]
        else:
            raise ValueError("type A has no generator 0")
    else:
        if s >= len(a):
            raise ValueError("generator index out of range")
        if a[s - 1] < a[s]:
            a[s - 1], a[s] = a[s], a[s - 1]
    return tuple(a)
