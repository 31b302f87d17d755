"""Standardization maps and the shifted-shuffle style (co)products.

Words are plain integer tuples.  Four product/coproduct families act on
formal sums of group elements:

* ``_a``  : permutations with permutations (self-dual Hopf structure),
* ``_b``  : signed permutations with permutations (module/comodule),
* ``_d``  : even-signed permutations with permutations (module/comodule),
* ``_bb`` : signed with signed via the sign-shifted embedding (Hopf).

Products return multiplicity-free element vectors; coproducts return
vectors keyed by ordered pairs.  The empty window is a legal operand.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .freemodule import FormalVector
from .systems import CoxeterSystem, Element

Word = tuple[int, ...]

def _ranks(order: list[int], n: int) -> list[int]:
    out = [0] * n
    for rank, pos in enumerate(order, start=1):
        out[pos] = rank
    return out


def standardize(word: Iterable[int]) -> Element:
    """The permutation with the same relative order, ties broken left to right."""
    a = tuple(word)
    n = len(a)
    order = sorted(range(n), key=lambda i: (a[i], i))
    return Element(CoxeterSystem("A", n), tuple(_ranks(order, n)))


def standardize_signed(word: Iterable[int]) -> Element:
    """Signed standardization: ranks by absolute value, negatives keep their
    positions and break ties right to left, positives left to right."""
    a = tuple(word)
    n = len(a)
    order = sorted(
        range(n), key=lambda i: (abs(a[i]), 0 if a[i] < 0 else 1, -i if a[i] < 0 else i)
    )
    ranks = _ranks(order, n)
    return Element(
        CoxeterSystem("B", n),
        tuple(-r if x < 0 else r for r, x in zip(ranks, a)),
    )


def flip_value_sign(w: Element) -> Element:
    """Negate the entries of absolute value 1 (left multiplication by the
    first sign generator of the signed group)."""
    return Element(w.system, tuple(-v if abs(v) == 1 else v for v in w.window))


def flip_first_position(w: Element) -> Element:
    """Negate the first window entry (right multiplication by the same)."""
    return Element(w.system, (-w.window[0],) + w.window[1:])


def _to_even(w: Element) -> Element:
    return Element(CoxeterSystem("D", w.system.n), w.window)


def standardize_even_left(word: Iterable[int]) -> Element:
    """Even-signed standardization, correcting an odd sign count on values."""
    a = tuple(word)
    if len(a) < 2:
        raise ValueError("even-signed standardization needs length >= 2")
    u = standardize_signed(a)
    if sum(1 for v in u.window if v < 0) % 2:
        u = flip_value_sign(u)
    return _to_even(u)


def standardize_even_right(word: Iterable[int]) -> Element:
    """Even-signed standardization, correcting an odd sign count in position 1."""
    a = tuple(word)
    if len(a) < 2:
        raise ValueError("even-signed standardization needs length >= 2")
    u = standardize_signed(a)
    if sum(1 for v in u.window if v < 0) % 2:
        u = flip_first_position(u)
    return _to_even(u)


def hat_word(word: Iterable[int]) -> Word:
    """Negated negatives read right to left, then the nonnegatives in order."""
    a = tuple(word)
    return tuple(-x for x in reversed(a) if x < 0) + tuple(x for x in a if x >= 0)


def abs_restrict(word: Iterable[int], lo: int, hi: int) -> Word:
    """Subword of letters whose absolute value lies in [lo, hi]."""
    return tuple(x for x in word if lo <= abs(x) <= hi)


# -- embeddings ----------------------------------------------------------------


def cross_a(u: Element, v: Element) -> Element:
    """Block embedding of a pair (signed or plain, plain) by shifting v up."""
    m = u.system.n
    window = u.window + tuple(m + x for x in v.window)
    return Element(CoxeterSystem(u.system.family, m + v.system.n), window)


def cross_bb(u: Element, v: Element) -> Element:
    """Sign-preserving block embedding of two signed permutations."""
    m = u.system.n
    shifted = tuple(x + m if x > 0 else x - m for x in v.window)
    return Element(CoxeterSystem("B", m + v.system.n), u.window + shifted)


# -- minimal coset representatives, generated directly --------------------------


def _signed_ascending(values: Iterable[int]) -> Iterator[tuple[int, ...]]:
    vals = sorted(values)
    for signs in itertools.product((1, -1), repeat=len(vals)):
        yield tuple(sorted(s * v for s, v in zip(signs, vals)))


def _b_two_run_reps(m: int, n: int) -> Iterator[Element]:
    """Signed permutations with 0 < z(1) < ... < z(m) and z(m+1) < ... ascending."""
    system = CoxeterSystem("B", m + n)
    for first in itertools.combinations(range(1, m + n + 1), m):
        rest = set(range(1, m + n + 1)) - set(first)
        for tail in _signed_ascending(rest):
            yield Element(system, first + tail)


def _d_two_run_reps(m: int, n: int) -> Iterator[Element]:
    """Even-signed analogue: the leading entry may be negated, parity even."""
    system = CoxeterSystem("D", m + n)
    for first in itertools.combinations(range(1, m + n + 1), m):
        rest = set(range(1, m + n + 1)) - set(first)
        for lead_sign in (1, -1):
            head = (lead_sign * first[0],) + first[1:]
            for tail in _signed_ascending(rest):
                window = head + tail
                if sum(1 for x in window if x < 0) % 2 == 0:
                    yield Element(system, window)


def _interleavings(a: Word, b: Word) -> Iterator[Word]:
    for positions in itertools.combinations(range(len(a) + len(b)), len(a)):
        word = [0] * (len(a) + len(b))
        pos_set = set(positions)
        ia, ib = iter(a), iter(b)
        for i in range(len(word)):
            word[i] = next(ia) if i in pos_set else next(ib)
        yield tuple(word)


# -- type A --------------------------------------------------------------------


def shuffle_a(u: Element, v: Element) -> FormalVector:
    """All interleavings of u with the shifted window of v."""
    m, n = u.system.n, v.system.n
    system = CoxeterSystem("A", m + n)
    shifted = tuple(m + x for x in v.window)
    return FormalVector.from_keys(
        (Element(system, w) for w in _interleavings(u.window, shifted)),
        kind="element",
    )


def cup_a(u: Element, v: Element) -> FormalVector:
    """All w whose first block standardizes to u and second block to v."""
    m, n = u.system.n, v.system.n
    system = CoxeterSystem("A", m + n)
    out = []
    for chosen in itertools.combinations(range(1, m + n + 1), m):
        rest = sorted(set(range(1, m + n + 1)) - set(chosen))
        block1 = tuple(chosen[p - 1] for p in u.window)
        block2 = tuple(rest[p - 1] for p in v.window)
        out.append(Element(system, block1 + block2))
    return FormalVector.from_keys(out, kind="element")


def unshuffle_a(u: Element) -> FormalVector:
    """Sum of standardized (prefix, suffix) splits of the window."""
    a = u.window
    return FormalVector.from_keys(
        ((standardize(a[:i]), standardize(a[i:])) for i in range(len(a) + 1)),
        kind="pair",
    )


def cap_a(u: Element) -> FormalVector:
    """Sum over splits of (small-letter subword, standardized rest)."""
    a = u.window
    return FormalVector.from_keys(
        (
            (Element(CoxeterSystem("A", i), abs_restrict(a, 1, i)),
             standardize(abs_restrict(a, i + 1, len(a))))
            for i in range(len(a) + 1)
        ),
        kind="pair",
    )


# -- type B (signed with plain) --------------------------------------------------


def shuffle_b(u: Element, v: Element) -> FormalVector:
    m, n = u.system.n, v.system.n
    x = cross_a(u, v)
    return FormalVector.from_keys(
        (x * z.inverse() for z in _b_two_run_reps(m, n)), kind="element"
    )


def cup_b(u: Element, v: Element) -> FormalVector:
    m, n = u.system.n, v.system.n
    x = cross_a(u, v)
    return FormalVector.from_keys(
        (z * x for z in _b_two_run_reps(m, n)), kind="element"
    )


def unshuffle_b(u: Element) -> FormalVector:
    a = u.window
    return FormalVector.from_keys(
        ((standardize_signed(a[:i]), standardize(a[i:])) for i in range(len(a) + 1)),
        kind="pair",
    )


def cap_b(u: Element) -> FormalVector:
    a = u.window
    hat = hat_word(a)
    return FormalVector.from_keys(
        (
            (Element(CoxeterSystem("B", i), abs_restrict(a, 1, i)),
             standardize(abs_restrict(hat, i + 1, len(a))))
            for i in range(len(a) + 1)
        ),
        kind="pair",
    )


# -- type D (even-signed with plain) ---------------------------------------------


def shuffle_d(u: Element, v: Element) -> FormalVector:
    if u.system.n < 2:
        raise ValueError("even-signed factor needs window size >= 2")
    m, n = u.system.n, v.system.n
    x = Element(CoxeterSystem("D", m + n), cross_a(u, v).window)
    return FormalVector.from_keys(
        (x * z.inverse() for z in _d_two_run_reps(m, n)), kind="element"
    )


def cup_d(u: Element, v: Element) -> FormalVector:
    if u.system.n < 2:
        raise ValueError("even-signed factor needs window size >= 2")
    m, n = u.system.n, v.system.n
    x = Element(CoxeterSystem("D", m + n), cross_a(u, v).window)
    return FormalVector.from_keys(
        (z * x for z in _d_two_run_reps(m, n)), kind="element"
    )


def unshuffle_d(u: Element) -> FormalVector:
    a = u.window
    return FormalVector.from_keys(
        (
            (standardize_even_left(a[:i]), standardize(a[i:]))
            for i in range(2, len(a) + 1)
        ),
        kind="pair",
    )


def cap_d(u: Element) -> FormalVector:
    a = u.window
    hat = hat_word(a)
    return FormalVector.from_keys(
        (
            (standardize_even_right(abs_restrict(a, 1, i)),
             standardize(abs_restrict(hat, i + 1, len(a))))
            for i in range(2, len(a) + 1)
        ),
        kind="pair",
    )


# -- signed with signed (sign-shifted embedding) ---------------------------------


def shuffle_bb(u: Element, v: Element) -> FormalVector:
    m = u.system.n
    shifted = tuple(x + m if x > 0 else x - m for x in v.window)
    system = CoxeterSystem("B", m + v.system.n)
    return FormalVector.from_keys(
        (Element(system, w) for w in _interleavings(u.window, shifted)),
        kind="element",
    )


def cup_bb(u: Element, v: Element) -> FormalVector:
    m, n = u.system.n, v.system.n
    system = CoxeterSystem("B", m + n)
    out = []
    for chosen in itertools.combinations(range(1, m + n + 1), m):
        rest = sorted(set(range(1, m + n + 1)) - set(chosen))
        block1 = tuple(chosen[abs(p) - 1] * (1 if p > 0 else -1) for p in u.window)
        block2 = tuple(rest[abs(p) - 1] * (1 if p > 0 else -1) for p in v.window)
        out.append(Element(system, block1 + block2))
    return FormalVector.from_keys(out, kind="element")


def unshuffle_bb(u: Element) -> FormalVector:
    a = u.window
    return FormalVector.from_keys(
        (
            (standardize_signed(a[:i]), standardize_signed(a[i:]))
            for i in range(len(a) + 1)
        ),
        kind="pair",
    )


def cap_bb(u: Element) -> FormalVector:
    a = u.window
    return FormalVector.from_keys(
        (
            (Element(CoxeterSystem("B", i), abs_restrict(a, 1, i)),
             standardize_signed(abs_restrict(a, i + 1, len(a))))
            for i in range(len(a) + 1)
        ),
        kind="pair",
    )


PRODUCTS = {
    "shuffleA": shuffle_a,
    "cupA": cup_a,
    "shuffleB": shuffle_b,
    "cupB": cup_b,
    "shuffleD": shuffle_d,
    "cupD": cup_d,
    "shuffleBB": shuffle_bb,
    "cupBB": cup_bb,
}

COPRODUCTS = {
    "shuffleA": unshuffle_a,
    "cupA": cap_a,
    "shuffleB": unshuffle_b,
    "cupB": cap_b,
    "shuffleD": unshuffle_d,
    "cupD": cap_d,
    "shuffleBB": unshuffle_bb,
    "cupBB": cap_bb,
}


def coproduct_component(vec: FormalVector, i: int) -> FormalVector:
    """Terms of a pair vector whose first slot has window size i."""
    return FormalVector(
        ((k, c) for k, c in vec.terms.items() if k[0].system.n == i), kind="pair"
    )
