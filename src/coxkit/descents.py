"""The descent-class span inside the group module, its dual, and the
symmetric-function-level quotient.

Vectors here are keyed by generator subsets.  Three roles appear:

* "sigma": spanned by descent classes D_I (each class identified with the
  sum of its elements),
* "sigma_star": the dual basis D*_I,
* "sym": the image of sigma under chi' (keys are still subsets, but the
  spanning vectors are no longer independent in general).

Closed combinatorial formulas are provided for inducing/restricting in
all three roles, together with the bilinear forms and the conjugacy-class
bases at the sym level.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional

from .freemodule import FormalVector
from .systems import (
    CoxeterSystem,
    Element,
    _capped_cache,
    all_subsets,
    descent_class,
    descent_interval_left_masks,
    descent_pair_counts,
    generator_bits,
    min_coset_reps,
    normalizer_complement_order,
    parabolic_conjugacy_classes,
    simple_image,
    subset_sort_key,
)

SIGMA = "sigma"
SIGMA_STAR = "sigma_star"
SYM = "sym"


def sigma_basis(subset: frozenset[int]) -> FormalVector:
    return FormalVector.basis(subset, kind=SIGMA)


def sigma_star_basis(subset: frozenset[int]) -> FormalVector:
    return FormalVector.basis(subset, kind=SIGMA_STAR)


def sym_basis(subset: frozenset[int]) -> FormalVector:
    return FormalVector.basis(subset, kind=SYM)


def embed_sigma(system: CoxeterSystem, x: FormalVector,
                within: Optional[frozenset[int]] = None) -> FormalVector:
    """iota: replace each subset key by the sum of its descent class."""
    return x.map_to_vectors(
        lambda I: FormalVector.from_keys(descent_class(system, I, within)),
        kind="element",
    )


# -- closed formulas -----------------------------------------------------------


def sigma_induce(system: CoxeterSystem, subset: frozenset[int], x: FormalVector) -> FormalVector:
    """Induce descent classes: D_J of the parabolic goes to sum of D_{J'} with
    J' meeting ``subset`` exactly in J."""
    def one(J: frozenset[int]) -> FormalVector:
        if not J <= subset:
            raise ValueError(f"key {sorted(J)} does not lie inside {sorted(subset)}")
        return FormalVector.from_keys(
            [Jp for Jp in all_subsets(system) if Jp & subset == J], kind=SIGMA
        )
    return x.map_to_vectors(one, kind=SIGMA)


def _simple_pairs(z: Element, subset: frozenset[int]) -> dict[int, int]:
    """{s: t} for the generators s with z(a_s) = a_t, t in ``subset``."""
    return {s: t for s in z.system.generators if (t := simple_image(z, s)) in subset}


def class_rep_bounds(z: Element, subset: frozenset[int], target: frozenset[int]
                     ) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Bounds (low, high) inside ``subset`` such that for u in its parabolic,
    D(u z) = target iff low <= D(u) <= high; None when z is the minimal-coset
    part of no w with D(w) = target.  z must be a minimal right-coset
    representative (ValueError otherwise).  By Deodhar's lemma,
    D(u z) = D(z) | {s : z(a_s) = a_t, t in D(u)} (:func:`_induce_counts`):
    so ``low`` holds the t of the s in the target and ``high`` drops the t
    of the others; each s of the target outside D(z) needs its t.  As
    s -> z(a_s) is injective, low <= high always holds.
    """
    if z.left_descent_set() & subset:
        raise ValueError("z is not a minimal right-coset representative")
    dz, pairs = z.descent_set(), _simple_pairs(z, subset)
    if not dz <= target <= z.system.generator_set or not target - dz <= pairs.keys():
        return None
    return (frozenset(t for s, t in pairs.items() if s in target),
            subset - {t for s, t in pairs.items() if s not in target})


@_capped_cache
def _induce_counts(system: CoxeterSystem, subset: frozenset[int]
                   ) -> dict[frozenset[int], Counter]:
    """The count table c_I(J, K) = #{z : D(u z) = K} of I = ``subset``, over
    the minimal right representatives z, for any u in W_I with D(u) = J: for
    each J <= I, the Counter of D(w0(J) z).  Dual induction reads it by rows
    and restriction by columns.  By Deodhar's lemma, z(a_s) for s outside
    D(z) is a_t with t in I or a positive root outside W_I, and every
    descent of z is one of u z; so D(u z) = D(z) | {s : z(a_s) = a_t, t in J},
    and the representatives are read once, grouped by D(z) and their pairs.
    """
    shapes = Counter((z.descent_set(), tuple(_simple_pairs(z, subset).items()))
                     for z in min_coset_reps(system, subset, "right"))
    counts: dict[frozenset[int], Counter] = {}
    for J in all_subsets(system):
        if J <= subset:
            row = counts[J] = Counter()
            for (dz, pairs), n in shapes.items():
                row[dz | {s for s, t in pairs if t in J}] += n
    return counts


def sigma_restrict(system: CoxeterSystem, subset: frozenset[int], x: FormalVector) -> FormalVector:
    """Restrict descent classes: D_K goes to the sum of c_I(J, K) D_J over
    J <= I, column K of :func:`_induce_counts`.  A key holding a label that
    is not a generator is no descent set, and goes to 0."""
    counts = _induce_counts(system, subset & system.generator_set)
    return x.map_to_vectors(
        lambda K: FormalVector(((J, row[K]) for J, row in counts.items()), kind=SIGMA), kind=SIGMA)


def sigma_star_restrict(system: CoxeterSystem, subset: frozenset[int],
                        x: FormalVector) -> FormalVector:
    """Dual restriction: D*_K goes to D*_{K & subset}.  A key holding a label
    that is not a generator is no descent set, and goes to 0."""
    gens = system.generator_set
    return FormalVector(((K & subset, c) for K, c in x.terms.items() if K <= gens),
                        kind=SIGMA_STAR)


def sigma_star_induce(system: CoxeterSystem, subset: frozenset[int], x: FormalVector) -> FormalVector:
    """Dual induction: D*_J goes to the sum of D*_{D(u z)} over minimal reps z,
    for any u of the parabolic with D(u) = J: row J of :func:`_induce_counts`.
    A key holding a label that is not a generator goes to 0, as in
    :func:`sigma_induce`."""
    counts = _induce_counts(system, subset & system.generator_set)

    def one(J: frozenset[int]) -> FormalVector:
        if not J <= subset:
            raise ValueError(f"key {sorted(J)} does not lie inside {sorted(subset)}")
        return FormalVector(counts.get(J), kind=SIGMA_STAR)

    return x.map_to_vectors(one, kind=SIGMA_STAR)


def sym_induce(system: CoxeterSystem, subset: frozenset[int], x: FormalVector) -> FormalVector:
    """Sym-level induction follows the same subset formula as sigma_induce."""
    out = sigma_induce(system, subset, FormalVector(x.terms, kind=SIGMA))
    return FormalVector(out.terms, kind=SYM)


def sym_restrict(system: CoxeterSystem, subset: frozenset[int], x: FormalVector) -> FormalVector:
    """Sym-level restriction follows the same column sum as sigma_restrict."""
    out = sigma_restrict(system, subset, FormalVector(x.terms, kind=SIGMA))
    return FormalVector(out.terms, kind=SYM)


def sym_to_sigma_star(system: CoxeterSystem, x: FormalVector,
                      within: Optional[frozenset[int]] = None) -> FormalVector:
    """Expand sym-level spanning vectors in dual-descent coordinates:
    the I-th spanning vector is the sum of D*_{D(w^{-1})} over the class of I,
    read from the class's left descent masks: no element is inverted."""
    def one(I: frozenset[int]) -> FormalVector:
        left = Counter(descent_interval_left_masks(system, I, I, within))
        return FormalVector(((frozenset(s for s, b in generator_bits(system).items() if m & b), c)
                             for m, c in left.items()), kind=SIGMA_STAR)
    return x.map_to_vectors(one, kind=SIGMA_STAR)


# -- bilinear forms ------------------------------------------------------------


@_capped_cache
def _weak_counts(system: CoxeterSystem) -> list[int]:
    """The subset-sum (zeta) transform of Solomon's descent-pair histogram
    (:func:`~coxkit.systems.descent_pair_counts`) over both masks, built by
    the first weak-count read: the entry at :func:`_pair_indices` (row, col)
    counts D(w^{-1}) <= row and D(w) <= col."""
    below = descent_pair_counts(system)[:]
    for b in range(2 * len(system.generators)):
        step = 1 << b
        for i in range(len(below)):
            if i & step:
                below[i] += below[i ^ step]
    return below


def _pair_indices(system: CoxeterSystem, rows, cols) -> list[list[int]]:
    """The position in the pair tables of each (row, col) in ``rows`` x ``cols``:
    (mask of row) << r | (mask of col) with r generators, each subset's mask
    made once from :func:`~coxkit.systems.generator_bits`; other labels are dropped."""
    bits = generator_bits(system)
    col_masks = [sum(bits.get(s, 0) for s in J) for J in cols]
    row_masks = (sum(bits.get(s, 0) for s in I) << len(bits) for I in rows)
    return [[r | c for c in col_masks] for r in row_masks]


def mutual_descent_count(system: CoxeterSystem, row: frozenset[int], col: frozenset[int]) -> int:
    """#{w : D(w^{-1}) = row and D(w) = col}; the sym-level Gram entry.

    A read of Solomon's (1976) descent-pair histogram, built by one pass
    over W; a key outside the generators gives 0.
    """
    if not row | col <= system.generator_set:
        return 0
    (k,), = _pair_indices(system, [row], [col])
    return descent_pair_counts(system)[k]


def c_matrix(system: CoxeterSystem) -> list[list[int]]:
    """Every :func:`mutual_descent_count` over all_subsets, from one fetch."""
    pairs, subsets = descent_pair_counts(system), all_subsets(system)
    return [[pairs[k] for k in row] for row in _pair_indices(system, subsets, subsets)]


def weak_descent_count(system: CoxeterSystem, row: frozenset[int], col: frozenset[int]) -> int:
    """#{w : D(w) <= row and D(w^{-1}) <= col}; equals the double-coset count.

    Each such w is the minimal representative of one (W_col, W_row)
    double coset (Solomon 1976).  The count is a read of the subset-sum
    transform of the descent-pair histogram; keys outside the generators
    are dropped, since descent sets lie inside them.
    """
    (k,), = _pair_indices(system, [col], [row])
    return _weak_counts(system)[k]


# -- conjugacy-class bases at the sym level ------------------------------------


def h_in_monomial_coordinates(system: CoxeterSystem, subset: frozenset[int]) -> FormalVector:
    """The complete-homogeneous sym element attached to a subset, written in
    monomial coordinates (keyed by subsets): coefficient at J counts
    {w : D(w) <= subset, D(w^{-1}) <= J}."""
    below, keys = _weak_counts(system), all_subsets(system)
    column = _pair_indices(system, keys, [subset])
    return FormalVector(((J, below[k]) for J, (k,) in zip(keys, column)), kind="monomial")


def conjugacy_class_of(system: CoxeterSystem, subset: frozenset[int]) -> tuple[frozenset[int], ...]:
    for cls in parabolic_conjugacy_classes(system):
        if subset in cls:
            return cls
    raise KeyError(subset)


def class_label(cls: tuple[frozenset[int], ...]) -> frozenset[int]:
    """Canonical representative subset of a conjugacy class."""
    return min(cls, key=subset_sort_key)


def h_class_basis(system: CoxeterSystem) -> dict[frozenset[int], FormalVector]:
    """One h vector per parabolic conjugacy class, in monomial coordinates.

    Asserts that members of a class share the same expansion before
    collapsing them to a single representative.
    """
    out: dict[frozenset[int], FormalVector] = {}
    for cls in parabolic_conjugacy_classes(system):
        vecs = [h_in_monomial_coordinates(system, I) for I in cls]
        for v in vecs[1:]:
            if v != vecs[0]:
                raise AssertionError(f"h vectors differ within class {cls}")
        out[class_label(cls)] = vecs[0]
    return out


def m_class_basis(system: CoxeterSystem) -> dict[frozenset[int], FormalVector]:
    """m vector per class: the sum of the monomial keys in the class."""
    return {
        class_label(cls): FormalVector.from_keys(cls, kind="monomial")
        for cls in parabolic_conjugacy_classes(system)
    }


def class_index(system: CoxeterSystem, subset: frozenset[int]) -> Fraction:
    """|W^{J^c}| divided by the number of conjugates of the parabolic W_{J^c}.

    By Howlett's (1980) decomposition N_W(W_K) = W_K x| N_K that quotient
    is |N_K| for K = J^c (see :func:`normalizer_complement_order`).
    """
    return Fraction(normalizer_complement_order(system, system.generator_set - subset))


def p_class_basis(system: CoxeterSystem) -> dict[frozenset[int], FormalVector]:
    """Power-sum analogues: over representatives I, sum the class m-vectors of
    all J <= I weighted by the class index.  Rational in general."""
    m_vecs = m_class_basis(system)
    out = {}
    for cls in parabolic_conjugacy_classes(system):
        I = class_label(cls)
        acc = FormalVector(kind="monomial")
        for J in all_subsets(system):
            if J <= I:
                label = class_label(conjugacy_class_of(system, J))
                acc += m_vecs[label].scale(class_index(system, J))
        out[I] = acc
    return out


def h_gram_matrix(system: CoxeterSystem) -> tuple[list[frozenset[int]], list[list[int]]]:
    """Gram matrix of the class h basis under the weak-descent-count form; the
    capped counts come first, so a group past the cap makes no conjugacy move."""
    below = _weak_counts(system)
    labels = [class_label(cls) for cls in parabolic_conjugacy_classes(system)]
    # entry (a, b) reads the table at (b, a): the columns of the index matrix
    gram = [[below[k] for k in col] for col in zip(*_pair_indices(system, labels, labels))]
    return labels, gram
