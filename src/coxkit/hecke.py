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
the labels.  Every module built here is monomial: each column is a
signed unit vector (-b_j or a rise b_i) or absent.  One scan of the
columns, kept on the module, turns such a module into signed integer
images (:class:`Monomial`).  Its relations are checked on those
integers, each rank is a count of the rows hit, and each Hom dimension a
count of sign-consistent components.  Any other module is validated by
applying its columns to each basis vector and reduced by elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .freemodule import FormalVector
from .linalg import matrix_rank
from .qsym import CPoly, fundamental_qsym, fundamental_qsym_b, fundamental_qsym_d
from .systems import (
    CoxeterSystem,
    Element,
    _capped_cache,
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
    with an empty acting set has no maps to read it from.  The maps are
    not changed after construction: the :func:`_monomial_shape` scan is
    kept on the module.
    """

    system: CoxeterSystem
    acting: frozenset[int]
    mats: dict[int, ColumnMap]
    dim: int
    labels: Optional[tuple] = None

    @cached_property
    def _monomial(self) -> Optional["Monomial"]:
        return Monomial.scan(self.mats, self.dim)

    def validate(self) -> None:
        """Quadratic relations X^2 = -X and all pairwise braid relations,
        checked on each basis vector: on the signed integer images of a
        monomial module (:func:`_monomial_shape`), each X_s a lookup in
        its signed table, and on sparse vectors through :func:`_apply` for
        any other module."""
        shape = _monomial_shape(self)
        if shape is None:
            def act(s, vectors):
                return [_apply(self.mats[s], v) for v in vectors]

            def negate(vectors):
                return [{i: -c for i, c in v.items()} for v in vectors]

            basis = [{j: 1} for j in range(self.dim)]
        else:
            tables = {s: _signed_lookup(img) for s, img in shape.images.items()}

            def act(s, vectors):
                return list(map(tables[s].__getitem__, vectors))

            def negate(vectors):
                return [-x for x in vectors]

            basis = range(1, self.dim + 1)
        for s in self.mats:
            once = act(s, basis)
            if act(s, once) != negate(once):
                raise AssertionError(f"quadratic relation fails for generator {s}")
        acting = sorted(self.acting)
        for i, s in enumerate(acting):
            for t in acting[i + 1:]:
                # (X_s X_t X_s ...) b_j against (X_t X_s X_t ...) b_j, m factors
                lhs = rhs = basis
                for k in reversed(range(self.system.coxeter_order(s, t))):
                    lhs = act((s, t)[k % 2], lhs)
                    rhs = act((t, s)[k % 2], rhs)
                if lhs != rhs:
                    raise AssertionError(f"braid relation fails for ({s}, {t})")


def _signed_lookup(image: Sequence[int]) -> tuple[int, ...]:
    """The table that applies a signed map of {±1, ..., ±d} to a signed
    integer x by ``table[x]``: (0, image..., -image reversed), so a
    negative x reads -image[-x - 1] through Python's negative indexing
    and 0 stays 0.  A window composes this way, s·w = map(table of s, w),
    and so does a monomial X_s on the basis vectors j + 1."""
    return (0, *image, *(-x for x in reversed(image)))


class Monomial:
    """A module whose every column is a signed unit vector, as integers.

    ``images[s][j]`` is i + 1 when X_s b_j = b_i, -(i + 1) when
    X_s b_j = -b_i, and 0 when column j is absent: basis vector j is the
    integer j + 1.  The counting structures are read off the images, once
    each, with no further scan of the columns.
    """

    def __init__(self, images: dict[int, list[int]]):
        self.images = images

    @staticmethod
    def scan(mats: dict[int, ColumnMap], dim: int) -> Optional["Monomial"]:
        """The view of the columns ``mats`` of a module of dimension
        ``dim``, or None when some column is not {i: 1} or {i: -1} with
        i and its own index in range(dim)."""
        images = {}
        for s, X in mats.items():
            img = images[s] = [0] * dim
            for j, col in X.items():
                if len(col) != 1 or not 0 <= j < dim:
                    return None
                (i, c), = col.items()
                if not 0 <= i < dim or c not in (1, -1):
                    return None
                img[j] = i + 1 if c == 1 else -i - 1
        return Monomial(images)

    @cached_property
    def rows(self) -> dict[int, set[int]]:
        """Per generator, the basis vectors (as j + 1) that X_s hits."""
        return {s: set(map(abs, img)).difference((0,)) for s, img in self.images.items()}

    @cached_property
    def forced(self) -> dict[int, set[int]]:
        """Per generator s, the basis vectors v (as j + 1) where the Hom
        equation of an s in the pattern forces f(v) = 0: the columns X_s
        leaves out, and those it sends to +b_j, where it reads 2 f(v) = 0."""
        return {s: {v for v, x in enumerate(img, 1) if x == 0 or x == v}
                for s, img in self.images.items()}

    @cached_property
    def links(self) -> dict[int, dict[int, list[int]]]:
        """Per generator s, each basis vector's neighbours along the
        columns of X_s off the diagonal, signed: u when the Hom equation
        of an s in the pattern gives f(u) = -f(v), and -u when it gives
        f(u) = f(v)."""
        out = {}
        for s, img in self.images.items():
            edges: dict[int, list[int]] = {}
            for v, x in enumerate(img, 1):
                if x and x != v and x != -v:
                    edges.setdefault(v, []).append(x)
                    edges.setdefault(abs(x), []).append(v if x > 0 else -v)
            out[s] = edges
        return out


# -- module constructors ----------------------------------------------------------


def _norton_images(system: CoxeterSystem, low: frozenset[int], high: frozenset[int],
                   carrier: frozenset[int]) -> tuple[tuple, dict[int, list[int]]]:
    """Norton's basis: the w of the carrier parabolic with low <= D(w) <= high,
    in the (length, window) order of :func:`descent_interval`, and each
    X_s on it as signed integer images (:class:`Monomial`).

    X_s sends b_w to -b_w when s is a left descent of w, to b_sw when sw is
    again in the basis, and to 0 otherwise.  A rise sw keeps every right
    descent of w, so it never leaves ``low``: the module is the quotient of
    the span of {D(w) >= low} in the regular module by the span of
    {D(w) not <= high}, and both spans are submodules.  The window of sw
    is w's window mapped through the :func:`_signed_lookup` of s, and the
    basis is indexed by window, so no Element product is made.
    """
    basis = descent_interval(system, low, high, carrier)
    left = descent_interval_left_masks(system, low, high, carrier)
    windows = [w.window for w in basis]
    index = {w: v for v, w in enumerate(windows, 1)}
    bits = generator_bits(system)
    images = {}
    for s in carrier:
        lookup, bit = _signed_lookup(system.generator(s).window), bits[s]
        images[s] = [-v if mask & bit else index.get(tuple(map(lookup.__getitem__, w)), 0)
                     for v, (w, mask) in enumerate(zip(windows, left), 1)]
    return basis, images


def _descent_interval_module(system: CoxeterSystem, low: frozenset[int],
                             high: frozenset[int], carrier: frozenset[int]) -> HModule:
    """The module on :func:`_norton_images`, labelled by its basis, with
    its view kept on it: it needs no scan."""
    basis, images = _norton_images(system, low, high, carrier)
    mats = {s: {j: {x - 1: 1} if x > 0 else {-x - 1: -1} for j, x in enumerate(img) if x}
            for s, img in images.items()}
    module = HModule(system, carrier, mats, len(basis), labels=basis)
    module._monomial = Monomial(images)
    return module


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


@_capped_cache
def _coset_moves(system: CoxeterSystem, acting: frozenset[int]
                 ) -> tuple[tuple[Element, ...], dict[int, list[int]], tuple[Element, ...]]:
    """The minimal left-coset representatives z of the parabolic on
    ``acting``, as Norton's basis of the interval [{}, S - I] with its
    :func:`_norton_images`, and the inverse of each z.  Kept in the group's
    store, one entry per acting set, so every induction along one parabolic
    reads the same build; the callers only read it."""
    reps, moves = _norton_images(system, frozenset(), system.generator_set - acting,
                                 system.generator_set)
    return reps, moves, tuple(z.inverse() for z in reps)


def induce(module: HModule) -> HModule:
    """Induction to the full algebra along the parabolic on the acting set.

    Basis pairs (z, m) over the minimal left-coset representatives z, which
    are Norton's basis of the interval [{}, S - I] (:func:`_coset_moves`).
    Where that module moves b_z (to -b_z, or to b_sz), X_s moves each (z, m)
    alike; where it has no column, sz = z s_t with s_t in the parabolic, and
    X_s acts on the pairs at z through the inner X_t, read off the root
    z^{-1}(alpha_s) = alpha_t with no Element conjugated.
    """
    system = module.system
    reps, moves, inverses = _coset_moves(system, module.acting)
    d = module.dim
    mats: dict[int, ColumnMap] = {}
    for s in system.generators:
        X: ColumnMap = {}
        for zi, x in enumerate(moves[s]):
            # (z, m) has index zi * d + m
            at = zi * d
            if x:
                to, c = (x - 1, 1) if x > 0 else (-x - 1, -1)
                to *= d
                for mi in range(d):
                    X[at + mi] = {to + mi: c}
            else:
                R = module.mats[simple_image(inverses[zi], s)]
                for mi, col in R.items():
                    X[at + mi] = {at + i: c for i, c in col.items()}
        mats[s] = X
    labels = tuple((z, mi) for z in reps for mi in range(d))
    return HModule(system, system.generator_set, mats, len(reps) * d, labels=labels)


def restrict(module: HModule, subset: frozenset[int]) -> HModule:
    """The same columns, for the generators of ``subset`` only; a
    :class:`Monomial` view the module holds is restricted alike."""
    if not subset <= module.acting:
        raise ValueError("can only restrict to a subset of the acting generators")
    out = HModule(
        module.system, subset, {s: module.mats[s] for s in subset}, module.dim, module.labels
    )
    shape = vars(module).get("_monomial")
    if shape is not None:
        out._monomial = Monomial({s: shape.images[s] for s in subset})
    return out


# -- composition series and multiplicities ----------------------------------------


def _eigen_patterns(module: HModule) -> list[frozenset[int]]:
    """Subsets of the acting set, in the order of :func:`all_subsets`."""
    return [I for I in all_subsets(module.system) if I <= module.acting]


def _monomial_shape(module: HModule) -> Optional[Monomial]:
    """The :class:`Monomial` view of the module when every stored column
    is a signed unit vector, otherwise None: one scan of the columns,
    made on the first read and kept on the module."""
    return module._monomial


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
            else len(set().union(*(shape.rows[s] for s in K))))
        for K in patterns
    }
    return FormalVector(
        {J: sum((-1) ** len(J - B) * fixed[A - B] for B in patterns if B <= J)
         for J in patterns},
        kind="g0",
    )


def hom_to_simple_dim(module: HModule, pattern: frozenset[int]) -> int:
    """Dimension of the space of maps onto the simple with the given pattern:
    the kernel of the stacked transposes of X_s + [s in pattern] * I, by column."""
    return _hom_dim(module, _monomial_shape(module), pattern)


def _hom_dim(module: HModule, shape: Optional[Monomial], pattern: frozenset[int]) -> int:
    """:func:`hom_to_simple_dim`, given the module's :func:`_monomial_shape`.

    On a monomial module the kernel's equations on f have at most two
    terms.  For s in the pattern, a column j -> c b_i gives
    f(i) = -c f(j) when i != j, and f(j) = 0 when it is missing or
    i = j with c = 1; for s outside it, every row i that X_s hits gives
    f(i) = 0.  So the dimension is the number of components of the signed
    graph of the pattern's :attr:`Monomial.links` that hold no forced zero
    and no cycle whose signs disagree, found by a two-colouring search from
    the basis vectors that are not forced to zero.
    """
    if shape is None:
        def shifted_rows():
            for s in module.acting:
                for i in range(module.dim):
                    col = module.mats[s].get(i, {})
                    yield {**col, i: col.get(i, 0) + 1} if s in pattern else col

        return module.dim - matrix_rank(shifted_rows())
    zero: set[int] = set()
    links = []
    for s in module.acting:
        if s in pattern:
            zero |= shape.forced[s]
            if shape.links[s]:
                links.append(shape.links[s])
        else:
            zero |= shape.rows[s]
    if not links:
        return module.dim - len(zero)
    side: dict[int, int] = {}
    count = 0
    for v in range(1, module.dim + 1):
        if v in zero or v in side:
            continue
        side[v], stack, free = 0, [v], True
        while stack:
            x = stack.pop()
            for edges in links:
                for e in edges.get(x, ()):
                    y, flip = abs(e), e > 0
                    if y in zero:
                        free = False
                    elif y not in side:
                        side[y] = side[x] ^ flip
                        stack.append(y)
                    elif side[y] != side[x] ^ flip:
                        free = False
        count += free
    return count


def projective_multiplicities(module: HModule) -> FormalVector:
    """Multiplicity of each projective indecomposable among the acting set,
    with a dimension audit that flags non-projective inputs."""
    shape = _monomial_shape(module)
    out = FormalVector({pattern: _hom_dim(module, shape, pattern)
                        for pattern in _eigen_patterns(module)}, kind="k0")
    total = sum(m * len(descent_class(module.system, pattern, module.acting))
                for pattern, m in out.terms.items())
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
