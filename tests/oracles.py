"""Brute-force oracles for the fast paths of coxkit.

Each function here is the direct, slow definition that a fast path in the
package replaced: the tests compare the two on small ranks.
"""

from functools import lru_cache

from coxkit.systems import CoxeterSystem, Element, all_subsets, elements

#: Every system up to rank 4, ranks 0 and 1 included: the fast paths are
#: checked against the oracles on these.
ORACLE_SYSTEMS = tuple(
    [CoxeterSystem("A", n) for n in range(6)]
    + [CoxeterSystem("B", n) for n in range(5)]
    + [CoxeterSystem("D", n) for n in range(2, 5)]
)


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
