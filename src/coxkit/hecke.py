"""Degenerate Hecke algebra representations over the rationals.

A module is given by one operator per acting generator for the
nilpotent-style generators (square equals minus themselves); the
idempotent generators are recovered by adding the identity.  Each is a
sparse column map ``{j: {i: c}}`` (column j is the image of basis vector
j; no zero is stored), whose columns :func:`coxkit.linalg.matrix_rank` reads.

The module constructors mirror the combinatorial structure theory.  The
regular module, the projective indecomposables and the mixed projectives
are all built on Norton's basis, the elements whose descent sets lie in an
interval [low, high] of subsets, with each generator acting by -1, by a
move to sw, or by 0.  Beside them are the one-dimensional simples indexed
by generator subsets, and induction along a parabolic, which takes its -1
and move columns from Norton's basis of the minimal coset representatives
and reads the inner module only where a generator conjugates into the
parabolic.

Composition factors are read off one rank per subset of the acting set:
the simples are one-dimensional, so the fixed spaces of the idempotent
generators count them, and a Moebius inversion over the subsets separates
the labels.  Every module built here is monomial (each column is -b_j, a
rise b_i or zero), and there each rank is a count of the rows hit and
each Hom dimension a count of sign-consistent components; any other
module is reduced by elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .freemodule import FormalVector
from .linalg import matrix_rank
from .qsym import CPoly, fundamental_qsym, fundamental_qsym_b, fundamental_qsym_d
from .systems import (
    CoxeterSystem,
    _root_table,
    all_subsets,
    composition_from_descents,
    descent_class,
    descent_interval,
    descent_interval_left_masks,
    generator_bits,
    reflect,
    simple_image,
)

#: X_s as a sparse column map: column j (the image of b_j) is {i: c}.
ColumnMap = dict[int, dict[int, object]]

#: A monomial module's columns, per generator: (rows hit, columns missing,
#: rise neighbours of each basis vector); see :func:`_monomial_shape`.
Shape = dict[int, tuple[set[int], set[int], dict[int, list[int]]]]


class NonProjectiveError(ValueError):
    """Multiplicity bookkeeping detected a non-projective module."""


def _apply(X: ColumnMap, v: dict[int, object]) -> dict[int, object]:
    """X v for a sparse vector v ({index: coefficient}), zeros dropped."""
    out: dict[int, object] = {}
    for j, c in v.items():
        for i, x in X.get(j, {}).items():
            out[i] = out.get(i, 0) + c * x
    return {i: c for i, c in out.items() if c}


@dataclass
class HModule:
    """A finite-dimensional module: one sparse column map per acting generator.

    The dimension is stored, not read off the maps, because a module
    with an empty acting set has no maps to read it from.
    """

    system: CoxeterSystem
    acting: frozenset[int]
    mats: dict[int, ColumnMap]
    dim: int
    labels: Optional[tuple] = None

    def validate(self) -> None:
        """Quadratic relations X^2 = -X and all pairwise braid relations,
        checked on each basis vector."""
        for s, X in self.mats.items():
            if any(_apply(X, _apply(X, {j: 1})) != _apply(X, {j: -1}) for j in range(self.dim)):
                raise AssertionError(f"quadratic relation fails for generator {s}")
        acting = sorted(self.acting)
        for i, s in enumerate(acting):
            for t in acting[i + 1:]:
                m = self.system.coxeter_order(s, t)
                for j in range(self.dim):
                    # (X_s X_t X_s ...) b_j against (X_t X_s X_t ...) b_j, m factors
                    lhs = rhs = {j: 1}
                    for k in reversed(range(m)):
                        lhs = _apply(self.mats[(s, t)[k % 2]], lhs)
                        rhs = _apply(self.mats[(t, s)[k % 2]], rhs)
                    if lhs != rhs:
                        raise AssertionError(f"braid relation fails for ({s}, {t})")


# -- module constructors ----------------------------------------------------------


def _descent_interval_module(system: CoxeterSystem, low: frozenset[int],
                             high: frozenset[int], carrier: frozenset[int]) -> HModule:
    """Norton's basis: the w of the carrier parabolic with low <= D(w) <= high,
    in the (length, window) order of :func:`descent_interval`; they are also the labels.

    X_s sends b_w to -b_w when s is a left descent of w, to b_sw when sw is
    again in the basis, and to 0 otherwise.  A rise sw keeps every right
    descent of w, so it never leaves ``low``: the module is the quotient of
    the span of {D(w) >= low} in the regular module by the span of
    {D(w) not <= high}, and both spans are submodules.
    """
    basis = descent_interval(system, low, high, carrier)
    index = {w: i for i, w in enumerate(basis)}
    left = descent_interval_left_masks(system, low, high, carrier)
    bits = generator_bits(system)
    mats: dict[int, ColumnMap] = {}
    for s in carrier:
        g, bit = system.generator(s), bits[s]
        X: ColumnMap = {}
        for j, w in enumerate(basis):
            if left[j] & bit:
                X[j] = {j: -1}
                continue
            sw = g * w
            if sw in index:
                X[j] = {index[sw]: 1}
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
    return HModule(system, acting, {s: {0: {0: -1}} if s in subset else {} for s in acting}, 1)


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

    Basis pairs (z, m) over the minimal left-coset representatives z, which
    are Norton's basis of the interval [{}, S - I].  Where that module moves
    b_z (to -b_z, or to b_sz), X_s moves each (z, m) alike; where it has no
    column, sz = z s_t with s_t in the parabolic, and X_s acts on the pairs
    at z through the inner X_t, read off the root z^{-1}(alpha_s) = alpha_t
    with no Element conjugated.
    """
    system = module.system
    reps = _descent_interval_module(system, frozenset(), system.generator_set - module.acting,
                                    system.generator_set)
    d = module.dim
    mats: dict[int, ColumnMap] = {}
    for s in system.generators:
        Z = reps.mats[s]
        X: ColumnMap = {}
        for zi, z in enumerate(reps.labels):
            # (z, m) has index zi * d + m
            at = zi * d
            if zi in Z:
                (to, c), = Z[zi].items()
                to *= d
                for mi in range(d):
                    X[at + mi] = {to + mi: c}
            else:
                R = module.mats[simple_image(z.inverse(), s)]
                for mi, col in R.items():
                    X[at + mi] = {at + i: c for i, c in col.items()}
        mats[s] = X
    labels = tuple((z, mi) for z in reps.labels for mi in range(d))
    return HModule(system, system.generator_set, mats, reps.dim * d, labels=labels)


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


def _monomial_shape(module: HModule) -> Optional[Shape]:
    """Per acting s, the rows X_s hits, the columns it leaves out and each
    basis vector's neighbours along its rises, when every stored column of
    X_s is {j: -1} or a rise {i: 1} with i != j; otherwise None."""
    shape: Shape = {}
    for s, X in module.mats.items():
        rows: set[int] = set()
        rises: dict[int, list[int]] = {}
        for j, col in X.items():
            if len(col) != 1:
                return None
            (i, c), = col.items()
            if c != (-1 if i == j else 1):
                return None
            rows.add(i)
            if i != j:
                rises.setdefault(i, []).append(j)
                rises.setdefault(j, []).append(i)
        shape[s] = rows, set(range(module.dim)).difference(X), rises
    return shape


def composition_factors(module: HModule) -> FormalVector:
    """Multiset of simple factors, from the ranks of the fixed spaces.

    The idempotent pi_s = X_s + 1 acts on the simple C_J by 0 for s in J
    and by 1 otherwise.  The common kernel of the X_s over s in K is the
    image of the idempotent pi_{w0(K)}, and the rank of an idempotent is
    its trace, which adds up along a composition series.  So
    t(K) = dim - rank(X_s : s in K) counts the factors C_J with J disjoint
    from K, and Moebius inversion over the subsets B = A - K of the acting
    set A recovers each multiplicity (Norton 1979; Krob-Thibon 1997).

    Each rank is taken on the stored columns, the rows of the transposes, so
    t(K) is read on the dual module; its composition factors are the same,
    as the transposes keep the relations and each C_J is its own dual.  On
    a monomial module (:func:`_monomial_shape`; every module built here is
    one) each column is one signed unit vector, so the rank is the number
    of distinct rows the columns hit and no elimination runs; any other
    module goes through :func:`~coxkit.linalg.matrix_rank`.
    """
    A = module.acting
    patterns = _eigen_patterns(module)
    shape = _monomial_shape(module)
    fixed = {
        K: module.dim - (
            matrix_rank(col for s in K for col in module.mats[s].values()) if shape is None
            else len(set().union(*(shape[s][0] for s in K))))
        for K in patterns
    }
    return FormalVector(
        ((J, sum((-1) ** len(J - B) * fixed[A - B] for B in patterns if B <= J))
         for J in patterns),
        kind="g0",
    )


def hom_to_simple_dim(module: HModule, pattern: frozenset[int]) -> int:
    """Dimension of the space of maps onto the simple with the given pattern:
    the kernel of the stacked transposes of X_s + [s in pattern] * I, by column."""
    return _hom_dim(module, _monomial_shape(module), pattern)


def _hom_dim(module: HModule, shape: Optional[Shape], pattern: frozenset[int]) -> int:
    """:func:`hom_to_simple_dim`, given the module's :func:`_monomial_shape`.

    On a monomial module the kernel's equations on f have at most two terms.
    A rise j -> i of X_s gives f(i) = -f(j) for s in the pattern and
    f(i) = 0 otherwise; a diagonal column j gives f(j) = 0 for s outside
    it; a missing column j gives f(j) = 0 for s in it.  So the dimension
    is the number of components of the rise graph of the pattern that hold
    no forced zero and no odd cycle, found by a two-colouring search from
    the basis vectors that are not forced to zero.
    """
    if shape is None:
        def shifted_rows():
            for s in module.acting:
                for i in range(module.dim):
                    col = module.mats[s].get(i, {})
                    yield {**col, i: col.get(i, 0) + 1} if s in pattern else col

        return module.dim - matrix_rank(shifted_rows())
    J = pattern & module.acting
    zero = set().union(*(shape[s][0] for s in module.acting - J), *(shape[s][1] for s in J))
    rises = [shape[s][2] for s in J]
    side: dict[int, int] = {}
    count = 0
    for v in set(range(module.dim)) - zero:
        if v in side:
            continue
        side[v], stack, free = 0, [v], True
        while stack:
            x = stack.pop()
            for edges in rises:
                for y in edges.get(x, ()):
                    if y in zero:
                        free = False
                    elif y not in side:
                        side[y] = side[x] ^ 1
                        stack.append(y)
                    elif side[y] == side[x]:
                        free = False
        count += free
    return count


def projective_multiplicities(module: HModule) -> FormalVector:
    """Multiplicity of each projective indecomposable among the acting set,
    with a dimension audit that flags non-projective inputs."""
    shape = _monomial_shape(module)
    out = FormalVector(kind="k0")
    total = 0
    for pattern in _eigen_patterns(module):
        m = _hom_dim(module, shape, pattern)
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
    """Idempotent word operators realizing the generators on integer words.

    The word moves to its reflection in the simple root a_s of the family's
    system on len(word) letters when <a_s, word> > 0, and otherwise stays.
    A generator that system lacks is a ValueError.
    """
    for t, i, a, j, b in _root_table(family, len(word)).simple:
        if t == s:
            return reflect((i, a, j, b), word) if a * word[i] + b * word[j] > 0 else tuple(word)
    raise ValueError(f"no generator {s} for a word of length {len(word)}")
