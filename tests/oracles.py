"""Brute-force oracles for the fast paths of coxkit.

Each function here is the direct, slow definition that a fast path in the
package replaced: the tests compare the two on small ranks.
"""

import itertools
import json
import operator
import struct
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from coxkit.descents import SIGMA
from coxkit.freemodule import FormalVector
from coxkit.hecke import HModule, regular_module
from coxkit.linalg import RowSpace, exact_div, matrix_rank, nullspace, solve
from coxkit.roots import chamber, linear_extension_set, positive_roots, simple_roots
from coxkit.series import NCSeries, s_series
from coxkit.systems import (
    CoxeterSystem,
    Element,
    all_subsets,
    descent_class,
    descent_interval,
    descent_masks,
    descents_of_composition,
    elements,
    generator_bits,
    longest_element,
    parabolic_decompose_left,
    word_cube,
)
from coxkit.systems import _RAMP, _family_rule, _Lanes, _lanes

#: Every system up to rank 4, ranks 0 and 1 included: the fast paths are
#: checked against the oracles on these.
ORACLE_SYSTEMS = tuple(
    [CoxeterSystem("A", n) for n in range(6)]
    + [CoxeterSystem("B", n) for n in range(5)]
    + [CoxeterSystem("D", n) for n in range(2, 5)]
)


@lru_cache(maxsize=None)
def cayley_distances(system: CoxeterSystem) -> dict[Element, int]:
    """Breadth-first distance from the identity to every element in the
    Cayley graph of the generators, built from ``*`` and ``generator`` only:
    the length by its definition as the shortest word."""
    gens = [system.generator(s) for s in system.generators]
    dist = {system.identity(): 0}
    layer = [system.identity()]
    while layer:
        nxt = []
        for w in layer:
            for g in gens:
                if w * g not in dist:
                    dist[w * g] = dist[w] + 1
                    nxt.append(w * g)
        layer = nxt
    return dist


def elements_by_length_sort(system: CoxeterSystem) -> tuple[Element, ...]:
    """Every signed permutation window the validated ``Element`` accepts,
    one ``Element`` each, sorted by ``(w.length(), w.window)``."""
    n = system.n
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            try:
                out.append(Element(system, tuple(s * v for s, v in zip(signs, perm))))
            except ValueError:
                continue
    return tuple(sorted(out, key=lambda w: (w.length(), w.window)))


def family_windows(system: CoxeterSystem) -> list[tuple[int, ...]]:
    """Every window of the group as a tuple, in the order of its family
    rule: each permutation times each sign vector in turn."""
    perms, signs = _family_rule(system)
    return [tuple(map(operator.mul, s, perm)) for perm in perms for s in signs]


def pack_windows(windows: Sequence[tuple[int, ...]], n: int) -> _Lanes:
    """The ``windows``, each of size ``n``, in lanes, one tuple at a time:
    the signed bytes of all their entries are shifted by n in one
    translate, and the bytes of each column are read, little-endian, as the
    low bytes of its lanes."""
    size = len(windows)
    flat = struct.pack(f"<{size * n}b", *itertools.chain.from_iterable(windows))
    flat = flat.translate(_RAMP[n:n + 256])
    lane, packed = bytearray(2 * size), []
    for p in range(n):
        lane[::2] = flat[p::n]
        packed.append(int.from_bytes(lane, "little"))
    return _lanes(n, size, int.from_bytes(b"\1\0" * size, "little"), packed)


def element_descent_masks(system: CoxeterSystem, pool: Iterable[Element]
                          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The right and the left descent mask of each w of ``pool``, one
    element at a time: bit k is set when ``system.generators[k]`` is in
    ``w.descent_set()`` (right) or ``w.inverse().descent_set()`` (left)."""
    bit = {s: 1 << k for k, s in enumerate(system.generators)}
    pool = list(pool)
    return (tuple(sum(bit[s] for s in w.descent_set()) for w in pool),
            tuple(sum(bit[s] for s in w.inverse().descent_set()) for w in pool))


@lru_cache(maxsize=None)
def parabolic_elements_by_words(system: CoxeterSystem,
                                subset: frozenset[int]) -> tuple[Element, ...]:
    """The elements of W, in the order of ``elements``, that have a reduced
    word in the generators of ``subset``."""
    return tuple(w for w in elements(system) if frozenset(w.reduced_word()) <= subset)


@lru_cache(maxsize=None)
def parabolic_conjugates(system: CoxeterSystem,
                         subset: frozenset[int]) -> frozenset[frozenset[tuple[int, ...]]]:
    """All subgroups conjugate to the standard parabolic on ``subset``, each
    as the set of its windows: the orbit of W_subset under conjugation."""
    base = parabolic_elements_by_words(system, subset)
    seen = set()
    for w in elements(system):
        wi = w.inverse()
        seen.add(frozenset((w * x * wi).window for x in base))
    return frozenset(seen)


def right_coset_reps_by_inverse_descents(system: CoxeterSystem, subset: frozenset[int],
                                         within: Optional[frozenset[int]] = None
                                         ) -> set[Element]:
    """The minimal right-coset representatives by their definition,
    {w : D(w^{-1}) disjoint from subset}, over the whole group or the
    parabolic on ``within``."""
    pool = elements(system) if within is None else parabolic_elements_by_words(system, within)
    return {w for w in pool if not w.inverse().descent_set() & subset}


def class_rep_bounds_by_products(z: Element, subset: frozenset[int], target: frozenset[int]
                                 ) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """:func:`coxkit.descents.class_rep_bounds` by its walk on products:
    E = D(s z^{-1}) & subset is read from the element s * z^{-1}."""
    if z.left_descent_set() & subset:
        raise ValueError("z is not a minimal right-coset representative")
    dz = z.descent_set()
    if not dz <= target:
        return None
    system = z.system
    zinv = z.inverse()
    low: frozenset[int] = frozenset()
    high = subset
    for s in system.generators:
        if s in dz:
            continue
        ds_zinv = (system.generator(s) * zinv).descent_set() & subset
        if s not in target:
            high = high - ds_zinv
        elif ds_zinv:
            low = low | ds_zinv
        else:
            return None
    return (low, high) if low <= high else None


def orbit_conjugacy_classes(system: CoxeterSystem) -> tuple[tuple[frozenset[int], ...], ...]:
    """Classes of subsets I, where I ~ J iff W_{I^c} and W_{J^c} are
    conjugate: J joins the first class whose orbit holds W_{J^c}."""
    S = system.generator_set
    classes: list[list[frozenset[int]]] = []
    for I in all_subsets(system):
        base = frozenset(w.window for w in parabolic_elements_by_words(system, S - I))
        for cls in classes:
            if base in parabolic_conjugates(system, S - cls[0]):
                cls.append(I)
                break
        else:
            classes.append([I])
    return tuple(tuple(cls) for cls in classes)


def descent_interval_by_sets(system: CoxeterSystem, low: frozenset[int], high: frozenset[int],
                             within: Optional[frozenset[int]] = None) -> tuple[Element, ...]:
    """The w of the pool (the group, or the parabolic on ``within``) with
    low <= D(w) <= high, in the pool's order: one descent frozenset per
    element, compared as sets."""
    pool = elements(system) if within is None else parabolic_elements_by_words(system, within)
    return tuple(w for w in pool if low <= w.descent_set() <= high)


def interval_selectors_by_mask_pass(system: CoxeterSystem, low: frozenset[int],
                                    high: frozenset[int], within: Optional[frozenset[int]],
                                    side: int = 0) -> list[bool]:
    """The descent-interval filter as one pass over the group: for each
    position of ``elements``, whether its descent mask d, right (``side``
    0) or left (1), has d & lo == lo and d | hi == hi and, for a ``within``
    that misses a generator, the element lies in that parabolic.  Labels of
    ``high`` outside the generators are dropped; a ``low`` holding one
    keeps nothing."""
    bit = generator_bits(system)
    if not low <= bit.keys():
        return [False] * system.order()
    lo, hi = sum(bit[s] for s in low), sum(bit.get(s, 0) for s in high)
    kept = [d & lo == lo and d | hi == hi for d in descent_masks(system)[side]]
    if within is not None and not system.generator_set <= within:
        flags = _parabolic_membership_by_words(system, within & system.generator_set)
        kept = [k and f for k, f in zip(kept, flags)]
    return kept


@lru_cache(maxsize=None)
def _parabolic_membership_by_words(system: CoxeterSystem, subset: frozenset[int]
                                   ) -> tuple[bool, ...]:
    """For each position of ``elements``, whether that element has a reduced
    word in the generators of ``subset`` (:func:`parabolic_elements_by_words`)."""
    members = set(parabolic_elements_by_words(system, subset))
    return tuple(w in members for w in elements(system))


def element_descent_pairs(system: CoxeterSystem) -> list[int]:
    """Solomon's descent-pair histogram by one Element inverse and two
    descent frozensets per element: with r generators, the entry at
    (row << r) | col counts the w with D(w^{-1}) = row and D(w) = col,
    bit k of a mask standing for the k-th generator."""
    bit = {s: 1 << i for i, s in enumerate(system.generators)}
    r = len(bit)
    pairs = [0] * (1 << 2 * r)
    for w in elements(system):
        pairs[sum(bit[s] for s in w.inverse().descent_set()) << r
              | sum(bit[s] for s in w.descent_set())] += 1
    return pairs


def scan_mutual_descent_count(system: CoxeterSystem, row: frozenset[int],
                              col: frozenset[int]) -> int:
    """#{w : D(w^{-1}) = row and D(w) = col}, by a scan of W."""
    return sum(1 for w in elements(system)
               if w.descent_set() == col and w.inverse().descent_set() == row)


def scan_weak_descent_count(system: CoxeterSystem, row: frozenset[int],
                            col: frozenset[int]) -> int:
    """#{w : D(w) <= row and D(w^{-1}) <= col}, by a scan of W."""
    return sum(1 for w in elements(system)
               if w.descent_set() <= row and w.inverse().descent_set() <= col)


def collect_by_descents(system: CoxeterSystem, x: FormalVector,
                        within: Optional[frozenset[int]] = None) -> FormalVector:
    """Express an element vector in descent classes; error if not constant on them.

    This is the inverse of ``descents.embed_sigma`` on its image, and the
    brute-force oracle for the closed formulas of ``coxkit.descents``.
    """
    buckets: dict[frozenset[int], dict] = {}
    for w, c in x.terms.items():
        buckets.setdefault(w.descent_set(), {})[w] = c
    out = FormalVector(kind=SIGMA)
    for I, seen in buckets.items():
        cls = descent_class(system, I, within)
        coeffs = {seen.get(w, 0) for w in cls}
        if len(coeffs) != 1:
            raise ValueError(f"vector is not constant on the descent class of {sorted(I)}")
        out += FormalVector.basis(I, coeffs.pop(), kind=SIGMA)
    return out


def double_coset_count(system: CoxeterSystem, left: frozenset[int], right: frozenset[int]) -> int:
    """Number of (W_left, W_right) double cosets, by BFS orbit decomposition."""
    unassigned = set(elements(system))
    count = 0
    while unassigned:
        seed = unassigned.pop()
        frontier = [seed]
        while frontier:
            w = frontier.pop()
            for s in left:
                v = w.system.generator(s) * w
                if v in unassigned:
                    unassigned.remove(v)
                    frontier.append(v)
            for s in right:
                v = w * w.system.generator(s)
                if v in unassigned:
                    unassigned.remove(v)
                    frontier.append(v)
        count += 1
    return count


def expected_mixed_projective_dim(system: CoxeterSystem, subset: frozenset[int],
                                  within: frozenset[int]) -> int:
    """#{w : subset <= D(w) <= (complement of within) union subset}, by a scan of W."""
    hi = (system.generator_set - within) | subset
    return sum(1 for w in elements(system) if subset <= w.descent_set() <= hi)


def zero_matrix(n: int) -> list[list]:
    return [[0] * n for _ in range(n)]


def identity_matrix(n: int) -> list[list]:
    out = zero_matrix(n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_scale(a: list[list], c) -> list[list]:
    return [[c * x for x in row] for row in a]


def mat_mul(a: list[list], b: list[list]) -> list[list]:
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


def alternating_product(a: list[list], b: list[list], m: int) -> list[list]:
    """(a b a ...) with m factors."""
    out = identity_matrix(len(a))
    for i in range(m):
        out = mat_mul(out, a if i % 2 == 0 else b)
    return out


def module_from_matrices(system: CoxeterSystem, acting: frozenset[int],
                         mats: dict[int, list[list]], dim: int) -> HModule:
    """The module whose X_s has the dense matrix ``mats[s]`` (a list of
    rows), stored as the column map that keeps only nonzero entries."""
    columns = {}
    for s, X in mats.items():
        columns[s] = {}
        for i, row in enumerate(X):
            for j, x in enumerate(row):
                if x:
                    columns[s].setdefault(j, {})[i] = x
    return HModule(system, acting, columns, dim)


def descent_interval_module_by_products(system: CoxeterSystem, low: frozenset[int],
                                        high: frozenset[int], carrier: frozenset[int]
                                        ) -> HModule:
    """Norton's module on the w of the carrier parabolic with
    low <= D(w) <= high, in the order of ``descent_interval``, with g * w
    built as an Element product for each generator g and looked up in an
    Element-keyed index: X_s b_w is -b_w when s is a left descent of w,
    b_sw when sw is in the basis, and 0 otherwise."""
    basis = descent_interval(system, low, high, carrier)
    index = {w: i for i, w in enumerate(basis)}
    mats = {}
    for s in carrier:
        g = system.generator(s)
        X = {}
        for j, w in enumerate(basis):
            if s in w.left_descent_set():
                X[j] = {j: -1}
                continue
            sw = g * w
            if sw in index:
                X[j] = {index[sw]: 1}
        mats[s] = X
    return HModule(system, carrier, mats, len(basis), labels=basis)


def induce_by_decomposition(module: HModule) -> HModule:
    """Induction along the parabolic on the acting set I, each generator's
    action read off the factorization sz = c * p of
    :func:`~coxkit.systems.parabolic_decompose_left`: on the pair (z, m) over
    a minimal left-coset representative z, X_s gives -(z, m) when sz is
    shorter than z, (c, m) when p is the identity, and the inner X_t on the
    pairs at z when p is the generator s_t (then c = z)."""
    system = module.system
    I = module.acting
    reps = sorted((w for w in elements(system) if not w.descent_set() & I),
                  key=lambda w: (w.length(), w.window))
    index = {z: i for i, z in enumerate(reps)}
    d = module.dim
    mats = {}
    for s in system.generators:
        X = {}
        for zi, z in enumerate(reps):
            sz = system.generator(s) * z
            at = zi * d
            if sz.length() < z.length():
                X.update((at + mi, {at + mi: -1}) for mi in range(d))
                continue
            c, p = parabolic_decompose_left(sz, I)
            if p == system.identity():
                X.update((at + mi, {index[c] * d + mi: 1}) for mi in range(d))
                continue
            assert c == z
            t, = (t for t in I if p == system.generator(t))
            X.update((at + mi, {at + i: x for i, x in col.items()})
                     for mi, col in module.mats[t].items())
        mats[s] = X
    labels = tuple((z, mi) for z in reps for mi in range(d))
    return HModule(system, system.generator_set, mats, len(reps) * d, labels=labels)


def dense_matrix(module: HModule, s: int) -> list[list]:
    """X_s of ``module`` as a dense dim x dim list of rows, read off its
    sparse columns."""
    out = [[0] * module.dim for _ in range(module.dim)]
    for j, col in module.mats[s].items():
        for i, c in col.items():
            out[i][j] = c
    return out


def _mat_apply(a: list[list], v: Sequence) -> list:
    """Matrix times vector, touching only the nonzero entries of ``v``."""
    nonzero = [(j, y) for j, y in enumerate(v) if y]
    return [sum(row[j] * y for j, y in nonzero) for row in a]


def idempotent_matrix(module: HModule, s: int) -> list[list]:
    """The matrix of pi_s = X_s + 1."""
    return [[x + (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(dense_matrix(module, s))]


def act_word(module: HModule, word: Iterable[int], v: Sequence, bar: bool = True) -> list:
    """Apply the product of generators along a word to a vector: the
    nilpotent X_s with ``bar``, else the idempotent pi_s = X_s + 1.

    The word is read as a product of operators applied left to right
    on the left, so the last letter acts first.
    """
    out = list(v)
    word = tuple(word)
    mats = {s: dense_matrix(module, s) for s in set(word)}
    for s in reversed(word):
        image = _mat_apply(mats[s], out)
        # pi_s = X_s + 1, applied without building its matrix
        out = image if bar else [a + b for a, b in zip(image, out)]
    return out


def reduced_rows(space: RowSpace, width: int) -> list[list]:
    """The reduced echelon basis of ``space`` as dense rows of ``width``
    entries, ordered by pivot column: each stored row divided by its pivot
    entry."""
    return [[exact_div(row.get(j, 0), row[p]) for j in range(width)]
            for p, row in sorted(space.rows.items())]


def echelon_coordinates(space: RowSpace, v: Sequence) -> Optional[list]:
    """The coefficients of the dense vector v on :func:`reduced_rows`: its
    entries at the pivot columns, ints where they are integers, or None
    when those entries do not rebuild v (v is outside the row space)."""
    coeffs = [exact_div(v[p], 1) for p in sorted(space.rows)]
    rebuilt = [0] * len(v)
    for c, row in zip(coeffs, reduced_rows(space, len(v))):
        rebuilt = [x + c * b for x, b in zip(rebuilt, row)]
    return coeffs if rebuilt == list(v) else None


def submodule_coordinates(ambient: HModule, seeds: Sequence[Sequence]) -> HModule:
    """The submodule generated by the seed vectors, in its own coordinates:
    the reduced echelon basis of its span, ordered by pivot column."""
    dense = {s: dense_matrix(ambient, s) for s in ambient.acting}
    space = RowSpace()
    frontier = [list(v) for v in seeds]
    while frontier:
        v = frontier.pop()
        if space.add(v)[0] is not None:
            frontier.extend(_mat_apply(dense[s], v) for s in ambient.acting)
    basis = reduced_rows(space, ambient.dim)
    # column j of X_s holds the coordinates of X_s b_j
    mats = {}
    for s in ambient.acting:
        cols = [echelon_coordinates(space, _mat_apply(dense[s], b)) for b in basis]
        assert None not in cols, "the span is not closed under the action"
        mats[s] = [[col[i] for col in cols] for i in range(len(basis))]
    return module_from_matrices(ambient.system, ambient.acting, mats, len(basis))


def projective_seed(reg: HModule, subset: frozenset[int], idem: frozenset[int]) -> list:
    """X_{w0(subset)} pi_{w0(idem)} e in the regular module ``reg``: the
    seed of the cyclic projective, in the coordinates of ``reg.labels``."""
    system = reg.system
    e = [0] * reg.dim
    e[reg.labels.index(system.identity())] = 1
    seed = act_word(reg, longest_element(system, idem).reduced_word(), e, bar=False)
    return act_word(reg, longest_element(system, subset).reduced_word(), seed, bar=True)


def stated_projective_basis(system: CoxeterSystem, subset: frozenset[int],
                            within: Optional[frozenset[int]] = None) -> list[list]:
    """The expected basis vectors: nilpotent product over w times the seed
    idempotent, for every w in the descent-condition set (regular coordinates)."""
    S = system.generator_set
    within = S if within is None else within
    reg = regular_module(system)
    tail = projective_seed(reg, frozenset(), within - subset)
    hi = (S - within) | subset
    return [
        act_word(reg, w.reduced_word(), tail, bar=True)
        for w in elements(system)
        if subset <= w.descent_set() <= hi
    ]


def _common_eigenvectors(module: HModule, pattern: frozenset[int]) -> list[list]:
    """Vectors on which each acting generator acts by -1 (inside the pattern)
    or 0 (outside): the kernel of the stacked X_s + [s in pattern] * I."""
    rows = []
    for s in module.acting:
        for i, row in enumerate(dense_matrix(module, s)):
            if s in pattern:
                row = list(row)
                row[i] += 1
            rows.append(row)
    return nullspace(rows, module.dim)


def _quotient_by_line(module: HModule, v: Sequence) -> HModule:
    """The quotient module by the line through the common eigenvector v,
    on the basis that drops v's first nonzero coordinate."""
    p = next(i for i, x in enumerate(v) if x)
    keep = [i for i in range(module.dim) if i != p]
    ratio = [exact_div(x, v[p]) if x else 0 for x in v]
    mats = {}
    for s in module.mats:
        X = dense_matrix(module, s)
        mats[s] = [
            [X[i][j] - X[p][j] * ratio[i] for j in keep] if ratio[i] else [X[i][j] for j in keep]
            for i in keep
        ]
    return module_from_matrices(module.system, module.acting, mats, len(keep))


def extracted_composition_factors(module: HModule) -> FormalVector:
    """Multiset of simple factors, by iterated extraction of minimal
    one-dimensional submodules (every nonzero module has one)."""
    patterns = [I for I in all_subsets(module.system) if I <= module.acting]
    out = FormalVector(kind="g0")
    current = module
    while current.dim:
        for pattern in patterns:
            vecs = _common_eigenvectors(current, pattern)
            if vecs:
                out += FormalVector.basis(pattern, kind="g0")
                current = _quotient_by_line(current, vecs[0])
                break
        else:
            raise AssertionError("no one-dimensional submodule found")
    return out


def hom_dim(source: HModule, target: HModule) -> int:
    """Dimension of the intertwiner space (small modules only)."""
    ds, dt = source.dim, target.dim
    rows = []
    for s in source.acting:
        A, B = dense_matrix(source, s), dense_matrix(target, s)
        for i in range(dt):
            for j in range(ds):
                row = [0] * (dt * ds)
                for k in range(ds):
                    if A[k][j]:
                        row[i * ds + k] += A[k][j]
                for k in range(dt):
                    if B[i][k]:
                        row[k * ds + j] -= B[i][k]
                rows.append(row)
    return dt * ds - matrix_rank(rows)


def caratheodory_cone_contains(generators: Sequence[tuple[int, ...]], target: tuple[int, ...],
                               dim: int) -> bool:
    """Whether target lies in the nonnegative span of the generators.

    By the cone version of Caratheodory's theorem it suffices to scan
    subsets of size at most ``dim``; solutions are found exactly.
    """
    gens = list(dict.fromkeys(generators))
    for size in range(1, min(dim, len(gens)) + 1):
        for subset in itertools.combinations(gens, size):
            rows = [[subset[k][i] for k in range(size)] for i in range(dim)]
            x = solve(rows, list(target))
            if x is not None and all(c >= 0 for c in x):
                return True
    return False


def chamber_intersection(system: CoxeterSystem, roots: Iterable[tuple[int, ...]]
                         ) -> Optional[frozenset[tuple[int, ...]]]:
    """The parset closure of ``roots`` by its definition through chambers:
    the intersection of the chambers w * (positive roots) of the elements w
    of :func:`~coxkit.roots.linear_extension_set`, or None when no chamber
    contains ``roots``."""
    extensions = linear_extension_set(system, roots)
    if not extensions:
        return None
    return frozenset.intersection(*map(chamber, extensions))


def solved_parabolic_positive_roots(system: CoxeterSystem,
                                    subset: frozenset[int]) -> frozenset[tuple[int, ...]]:
    """Positive roots with nonnegative coordinates on the subset's simple
    roots, by one exact solve per positive root."""
    simples = [simple_roots(system)[s] for s in sorted(subset)]
    out = set()
    for root in positive_roots(system):
        if not simples:
            continue
        rows = [[simples[k][i] for k in range(len(simples))] for i in range(system.n)]
        x = solve(rows, list(root))
        if x is not None and all(c >= 0 for c in x):
            out.add(root)
    return frozenset(out)


def inner(root: tuple[int, ...], f: Iterable[int]) -> int:
    return sum(a * b for a, b in zip(root, f))


def h_block(family: str, k: int, window: int) -> NCSeries:
    """Degree-k one-block piece: weakly increasing words, from 0 up for the
    signed families and unrestricted for type A."""
    lo = 0 if family in ("B", "D") else -window
    words = (
        f
        for f in word_cube(k, window)
        if all(f[i] <= f[i + 1] for i in range(k - 1)) and (not f or f[0] >= lo)
    )
    return NCSeries.from_words(k, window, words)


def s_basis_by_class(system: CoxeterSystem, alpha: tuple[int, ...], window: int) -> NCSeries:
    """The ribbon element by its definition: the sum of the standardization
    fibers over the descent class of alpha."""
    out = NCSeries(system.n, window)
    for w in descent_class(system, descents_of_composition(alpha)):
        out += s_series(w, window)
    return out


def two_run_reps(family: str, system: CoxeterSystem, m: int) -> list[Element]:
    """The minimal representatives z of the cosets z (W_m x S_n) in the
    ``family`` group of window size m + n, as validated elements of
    ``system``: z(m+1) < ... < z(m+n), with any signs in B and D and all
    positive in A; 0 < z(1) < ... < z(m), except that in D the sign of z(1)
    makes the sign count even."""
    values = range(1, system.n + 1)
    out = []
    for head in itertools.combinations(values, m):
        rest = [x for x in values if x not in head]
        signs = itertools.product((1,) if family == "A" else (1, -1), repeat=len(rest))
        for sign in signs:
            tail = tuple(sorted(s * x for s, x in zip(sign, rest)))
            odd = family == "D" and sign.count(-1) % 2
            out.append(system.element(((-head[0],) + head[1:] if odd else head) + tail))
    return out


def series_output(x: NCSeries, fmt: str) -> str:
    """What ``coxkit series`` prints for x in ``fmt`` ("text" or "json"),
    formatted line by line: the (word, coefficient) pairs sorted, and one
    f-string per line of text."""
    terms = sorted(x.terms.items())
    if fmt == "json":
        return json.dumps({"degree": x.degree, "window": x.window,
                           "terms": [{"word": list(wrd), "coeff": c} for wrd, c in terms]},
                          sort_keys=True) + "\n"
    lines = [f"{c}\t{','.join(map(str, wrd))}" for wrd, c in terms] + [f"# {len(terms)} words"]
    return "\n".join(lines) + "\n"
