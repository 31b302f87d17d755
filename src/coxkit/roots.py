"""Root systems for the three families, partial root systems, and the
lattice-point machinery behind the generating-function realizations.

Roots are integer coordinate vectors; each family's simple and positive
roots, its parabolic positive roots and root negation are stated once, in
:mod:`coxkit.systems`, and re-exported here.  A partial root system is a
root subset P with no opposite pair that contains every root lying in the
positive cone of P: the roots in a cone of the reflection arrangement, so
the closure of a root set is the intersection of the chambers that contain
it (Bjorner-Brenti 2005, ch. 4; Reiner 1993), read off the sign of every
root on every window (:func:`coxkit.systems.root_sign_masks`).  Its lattice
points over a finite alphabet window, together with the chamber
decomposition, drive the series module.

Lattice points are enumerated level by level.  A root bounds its highest
nonzero coordinate once the coordinates below are fixed, so one list of
prefixes is extended one coordinate at a time, each prefix by the interval
(its run) that its roots leave.  Coordinates that no root links fall into
independent blocks: each block is walked on its own and the blocks are
joined in lexicographic order.  The walk ends in the runs of the last
coordinate: :func:`lattice_runs` returns them as (prefix, lo, hi) triples,
so that a caller that only prints the points need not build them, and
:func:`lattice_points` is their expansion.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .systems import (CoxeterSystem, Element, Root, check_word_cube, elements, negate,
                      parabolic_positive_roots, positive_roots, root_sign_masks, simple_roots)

__all__ = ["all_roots", "chamber", "is_parset", "is_positive_root", "lattice_points",
           "lattice_runs", "linear_extension_set", "negate", "parabolic_positive_roots",
           "parset_closure", "positive_roots", "random_parset", "simple_roots"]


@lru_cache(maxsize=None)
def all_roots(system: CoxeterSystem) -> frozenset[Root]:
    pos = positive_roots(system)
    return pos | frozenset(map(negate, pos))


def is_positive_root(root: Root) -> bool:
    """Positivity: the highest nonzero coordinate is positive (all families)."""
    for c in reversed(root):
        if c:
            return c > 0
    raise ValueError("zero vector is not a root")


@lru_cache(maxsize=None)
def chamber(w: Element) -> frozenset[Root]:
    """The parset w * (positive roots)."""
    return frozenset(w.apply_to_root(a) for a in positive_roots(w.system))


# -- partial root systems --------------------------------------------------------


def is_parset(system: CoxeterSystem, roots: Iterable[Root]) -> bool:
    """Whether ``roots`` is a set of roots that is its own :func:`parset_closure`."""
    P = frozenset(roots)
    return P <= all_roots(system) and parset_closure(system, P) == P


def parset_closure(system: CoxeterSystem, roots: Iterable[Root]) -> frozenset[Root] | None:
    """The roots in the positive cone of P = ``roots``, or None when it
    holds an opposite pair; a vector that is no root is a ValueError.

    The closure is the intersection of the chambers that contain P: those
    of the windows outside every generator's mask
    (:func:`~coxkit.systems.root_sign_masks`, which keeps the positive
    roots' masks; a negative root's is the complement of its opposite's,
    as no root vanishes on a window).  (subset) A chamber, the
    roots positive on an open region, that contains P contains cone(P).
    (superset) By Farkas' lemma a root b outside cone(P) has a y with
    <p, y> >= 0 on P and <b, y> < 0; adding a little of a point of a
    chamber that contains P, then moving off the reflecting hyperplanes,
    gives a region whose chamber holds P and not b.  No chamber contains P
    exactly when (Gordan) a nonzero nonnegative combination of P vanishes:
    then cone(P) holds a line and -p for some p in P, so the answer is None.
    """
    masks, everywhere = root_sign_masks(system)
    phi, cut = all_roots(system), 0
    for p in roots:
        if p in masks:
            cut |= masks[p]
        elif p in phi:
            cut |= everywhere ^ masks[negate(p)]
        else:
            raise ValueError(f"vector {p} is not a root of {system}")
    chambers = everywhere ^ cut  # the windows on which every root of P is positive
    if not chambers:
        return None
    kept, flipped = [], []
    for a, mask in masks.items():
        hit = mask & chambers
        if not hit:
            kept.append(a)
        elif hit == chambers:  # a is negative on every chamber, so -a is positive
            flipped.append(negate(a))
    return frozenset(kept + flipped)


def lattice_points(system: CoxeterSystem, parset: Iterable[Root], window: int) -> list[tuple[int, ...]]:
    """All integer vectors f in [-window, window]^n weakly on the nonnegative
    side of every given root, strictly for the negative ones.  Any set of
    roots will do, a parset or not (the signed simple roots of a descent
    set, say); each must have length n.

    The result is in lexicographic order: the expansion of
    :func:`lattice_runs`, or ``[()]`` at rank 0.  The last block's runs are
    expanded once and then joined to the leading points, as in
    :func:`_block_runs`.
    """
    leading, runs = _block_runs(system, parset, window)
    if not system.n:
        return [()]
    return _join(leading, _expand(runs, window, [(v,) for v in range(-window, window + 1)]))


def lattice_runs(system: CoxeterSystem, roots: Iterable[Root], window: int
                 ) -> list[tuple[tuple[int, ...], int, int]]:
    """The points of :func:`lattice_points` as runs of their last coordinate:
    lexicographically ordered (prefix, lo, hi) triples, one per prefix of
    length n - 1 that has a point, whose points are prefix + (v,) for
    lo <= v <= hi.  Every run is non-empty.  Rank 0 has no last coordinate
    and no run; its one point () is :func:`lattice_points`' own.

    A root whose highest nonzero coordinate is j bounds f_j once
    f_0..f_{j-1} are known.  Coordinate k starts a new block when no root
    with top coordinate >= k reads below k; each block is walked one level
    at a time, extending every prefix by the interval its roots leave (the
    last level's intervals are the runs), and the blocks are then joined.
    The cost follows the output, not the cube.
    """
    leading, runs = _block_runs(system, roots, window)
    if leading == [()]:
        return runs
    return [(p + q, lo, hi) for p in leading for q, lo, hi in runs]


def _block_runs(system: CoxeterSystem, roots: Iterable[Root], window: int
                ) -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, ...], int, int]]]:
    """The one walk behind :func:`lattice_runs` and :func:`lattice_points`:
    the points of every block but the last, joined in lexicographic order
    (``[()]`` when there is one block), and the runs of the last block.  A
    run of the whole is a leading point followed by a run of the last
    block, so the leading points are joined only to what each caller needs.
    Rank 0 is ``([()], [])``."""
    n = system.n
    check_word_cube(n, window)
    roots = set(roots)
    for r in roots:
        if len(r) != n:
            raise ValueError(f"vector {r} has length {len(r)}, not n = {n}")
    if not n:
        return [()], []
    # tops: (j, r, threshold) with j the top coordinate of r; r.f must reach
    # the threshold.  low[j]: the lowest coordinate a root with top j reads.
    tops, low = [], list(range(n))
    for r in roots:
        threshold = 0 if is_positive_root(r) else 1
        read = [i for i, c in enumerate(r) if c]
        j = read[-1]
        low[j] = min(low[j], read[0])
        tops.append((j, r, threshold))
    starts, reach = [], n
    for k in reversed(range(n)):
        reach = min(reach, low[k])
        if reach >= k:
            starts.append(k)
    starts.reverse()
    blocks = list(zip(starts, starts[1:] + [n]))
    start_of = [b for b, e in blocks for _ in range(b, e)]
    # levels[j]: [lo, hi, lower bounds, upper bounds, general bounds] of f_j.
    # lo and hi hold the roots that read no earlier coordinate; a root
    # a*f_j + c*f_i reading one coordinate i of its block is (i, c, t, a),
    # one reading several is (a, ((i, c), ...), t).
    levels = [[-window, window, [], [], []] for _ in range(n)]
    for j, r, t in tops:
        level, a, b = levels[j], r[j], start_of[j]
        lower = [(i - b, c) for i, c in enumerate(r[:j]) if c]
        if len(lower) > 1:
            level[4].append((a, tuple(lower), t))
        elif lower:
            (i, c), = lower
            level[2 if a > 0 else 3].append((i, c, t, a))
        elif a > 0:
            level[0] = max(level[0], -(-t // a))
        else:
            level[1] = min(level[1], t // a)
    singles = [(v,) for v in range(-window, window + 1)]  # (v,) at index v + window
    # the points of every block but the last, joined, then the last one's runs
    points: list[tuple[int, ...]] = [()]
    for b, e in blocks[:-1]:
        points = _join(points, _block_points(levels[b:e], window, singles))
    b, e = blocks[-1]
    *inner, last = levels[b:e]
    return points, _level_runs(_block_points(inner, window, singles), last)


def _block_points(levels: list, window: int, singles: list[tuple[int]]) -> list[tuple[int, ...]]:
    """The points of the coordinates of ``levels``, one block or the start
    of one, in lexicographic order: the prefixes are extended one level at
    a time, each by its run."""
    points: list[tuple[int, ...]] = [()]
    for level in levels:
        points = _expand(_level_runs(points, level), window, singles)
        if not points:
            break
    return points


def _join(left: list[tuple[int, ...]], right: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Each point of ``left`` followed by each point of ``right``, in
    lexicographic order when both are."""
    if left == [()]:
        return right
    points: list[tuple[int, ...]] = []
    for p in left:
        points.extend(map(p.__add__, right))
    return points


def _expand(runs: list[tuple[tuple[int, ...], int, int]], window: int,
            singles: list[tuple[int]]) -> list[tuple[int, ...]]:
    """The points of ``runs``, in order; ``singles`` holds (v,) at index
    v + window."""
    points: list[tuple[int, ...]] = []
    extend = points.extend
    for p, lo, hi in runs:
        extend(map(p.__add__, singles[lo + window:hi + window + 1]))
    return points


def _level_runs(points: list[tuple[int, ...]], level: list) -> list[tuple[tuple[int, ...], int, int]]:
    """The run (p, lo, hi) of each prefix p of ``points`` at one level: the
    interval of the level's coordinate that p leaves, kept when non-empty."""
    lo0, hi0, lows, highs, general = level
    if not (lows or highs or general):
        return [(p, lo0, hi0) for p in points] if lo0 <= hi0 else []
    runs = []
    for p in points:
        lo, hi = lo0, hi0
        for i, c, t, a in lows:  # a*f_j + c*f_i >= t, a > 0
            v = -((c * p[i] - t) // a)
            if v > lo:
                lo = v
        for i, c, t, a in highs:  # the same, a < 0
            v = (t - c * p[i]) // a
            if v < hi:
                hi = v
        for a, lower, t in general:
            need = t - sum(c * p[i] for i, c in lower)
            if a > 0:
                lo = max(lo, -(-need // a))
            else:
                hi = min(hi, need // a)
        if lo <= hi:
            runs.append((p, lo, hi))
    return runs


def linear_extension_set(system: CoxeterSystem, parset: Iterable[Root]) -> list[Element]:
    """All w whose chamber contains the parset."""
    P = frozenset(parset)
    return [w for w in elements(system) if P <= chamber(w)]


def random_parset(system: CoxeterSystem, rng) -> frozenset[Root]:
    """A uniform-ish valid parset: close at most four random roots, retry on conflict."""
    roots = sorted(all_roots(system))
    while True:
        k = rng.randint(0, min(4, len(roots)))
        seed = rng.sample(roots, k) if k else []
        closed = parset_closure(system, seed)
        if closed is not None:
            return closed
