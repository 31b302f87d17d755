"""Standardization maps and the shifted-shuffle style (co)products.

Words are plain integer tuples.  Four product/coproduct flavors act on
formal sums of group elements:

* ``A``  : permutations with permutations (self-dual Hopf structure),
* ``B``  : signed permutations with permutations (module/comodule),
* ``D``  : even-signed permutations with permutations (module/comodule),
* ``BB`` : signed with signed via the sign-shifted embedding (Hopf).

They are one construction, read from the table :data:`FLAVORS`, and four
functions carry it out, each taking the flavor as its first argument: the
products :func:`shuffle` and :func:`cup` and the coproducts
:func:`unshuffle` and :func:`cap`.  With x the block embedding of (u, v)
and z running over the minimal "two-run" coset representatives of the
block subgroup W_m x W_n of W_{m+n}, the shuffle product is the sum of
x z^{-1} and the cup product the sum of z x.  The representatives of each
(family, m + n, m) are built once and kept in one cache,
:func:`_two_run_table`, as plain tuples: z's signed lookup table and
z^{-1}'s index tuple, the two halves of a composition of windows (see
``_lookup``).  A product composes x's window with every representative on
these tuples and builds its result dict once: distinct representatives
give distinct terms, so every coefficient is 1.  The coproducts split a
window into standardized prefix and suffix pieces; the prefixes of the
splits differ in size, so these terms are distinct too.  Products return
element vectors and coproducts vectors keyed by ordered pairs.  The empty
window is a legal operand.  An operand of the wrong family raises
ValueError.

:data:`PRODUCTS` and :data:`COPRODUCTS` give the function of each of the
sixteen command-line names, whose suffix is the flavor: ``shuffleB`` is
:func:`shuffle` called with flavor ``B`` and, as a coproduct,
:func:`unshuffle`; ``cupB`` is :func:`cup` and :func:`cap`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .freemodule import FormalVector
from .systems import CoxeterSystem, Element, _trusted_element

Word = tuple[int, ...]


@lru_cache(maxsize=None)
def _system(family: str, n: int) -> CoxeterSystem:
    """The one system of each (family, window size) that the maps below
    build their results in."""
    return CoxeterSystem(family, n)


def _ranks(order: list[int], n: int) -> list[int]:
    out = [0] * n
    for rank, pos in enumerate(order, start=1):
        out[pos] = rank
    return out


def standardize(word: Iterable[int]) -> Element:
    """The permutation with the same relative order, ties broken left to right."""
    a = tuple(word)
    n = len(a)
    order = sorted(range(n), key=a.__getitem__)
    return _trusted_element(_system("A", n), tuple(_ranks(order, n)))


def standardize_signed(word: Iterable[int]) -> Element:
    """Signed standardization: ranks by absolute value, negatives keep their
    positions and break ties right to left, positives left to right."""
    a = tuple(word)
    n = len(a)
    order = sorted(
        range(n), key=lambda i: (abs(a[i]), 0 if a[i] < 0 else 1, -i if a[i] < 0 else i)
    )
    ranks = _ranks(order, n)
    return _trusted_element(
        _system("B", n),
        tuple(-r if x < 0 else r for r, x in zip(ranks, a)),
    )


def _even_signed(word: Iterable[int]) -> tuple[Word, bool]:
    """The signed standardization of a word of length >= 2, and whether it
    has an odd number of negative entries."""
    a = tuple(word)
    if len(a) < 2:
        raise ValueError("even-signed standardization needs length >= 2")
    window = standardize_signed(a).window
    return window, sum(1 for v in window if v < 0) % 2 == 1


def standardize_even_left(word: Iterable[int]) -> Element:
    """Even-signed standardization, correcting an odd sign count on values:
    the entry of absolute value 1 changes sign (left multiplication by the
    first sign generator of the signed group)."""
    window, odd = _even_signed(word)
    if odd:
        window = tuple(-v if abs(v) == 1 else v for v in window)
    return _trusted_element(_system("D", len(window)), window)


def standardize_even_right(word: Iterable[int]) -> Element:
    """Even-signed standardization, correcting an odd sign count in
    position 1 (right multiplication by the same generator)."""
    window, odd = _even_signed(word)
    if odd:
        window = (-window[0],) + window[1:]
    return _trusted_element(_system("D", len(window)), window)


def hat_word(word: Iterable[int]) -> Word:
    """Negated negatives read right to left, then the nonnegatives in order."""
    a = tuple(word)
    return tuple(-x for x in reversed(a) if x < 0) + tuple(x for x in a if x >= 0)


def abs_restrict(word: Iterable[int], lo: int, hi: int) -> Word:
    """Subword of letters whose absolute value lies in [lo, hi]."""
    return tuple(x for x in word if lo <= abs(x) <= hi)


# -- embeddings ----------------------------------------------------------------


def cross_a(u: Element, v: Element) -> Element:
    """Block embedding of a pair (signed or plain, plain) by shifting v up;
    a right operand outside family A is a ValueError."""
    if v.system.family != "A":
        raise ValueError(f"cross_a needs a right operand of family A, not {v.system.family}")
    m = u.system.n
    window = u.window + tuple(m + x for x in v.window)
    return _trusted_element(_system(u.system.family, m + v.system.n), window)


def cross_bb(u: Element, v: Element) -> Element:
    """Sign-preserving block embedding of two signed permutations; an
    operand outside family B is a ValueError."""
    if u.system.family != "B" or v.system.family != "B":
        raise ValueError("cross_bb needs operands of family B")
    m = u.system.n
    shifted = tuple(x + m if x > 0 else x - m for x in v.window)
    return _trusted_element(_system("B", m + v.system.n), u.window + shifted)


# -- the flavor table -------------------------------------------------------------


class Flavor(NamedTuple):
    """How one flavor instantiates the common construction.

    ``family`` and ``right`` are the families of the left and right
    operands; products land in ``family``.  ``embed`` is the block
    embedding of (u, v), and ``reps`` the family whose two-run coset
    representatives the products sum over.  The coproducts split at
    i = ``first_split``, ..., n: the unshuffle into ``prefix`` and
    ``suffix`` of the window, the cap into ``cap_prefix`` of the letters
    of absolute value at most i and ``suffix`` of the other letters, read
    from the hat word when ``cap_hat`` is set.
    """

    family: str
    right: str
    embed: Callable[[Element, Element], Element]
    reps: str
    prefix: Callable[[Iterable[int]], Element]
    cap_prefix: Callable[[Iterable[int]], Element]
    suffix: Callable[[Iterable[int]], Element]
    first_split: int
    cap_hat: bool


FLAVORS = {
    "A": Flavor("A", "A", cross_a, "A", standardize, standardize, standardize, 0, False),
    "B": Flavor("B", "A", cross_a, "B", standardize_signed, standardize_signed,
                standardize, 0, True),
    "D": Flavor("D", "A", cross_a, "D", standardize_even_left, standardize_even_right,
                standardize, 2, True),
    "BB": Flavor("B", "B", cross_bb, "A", standardize_signed, standardize_signed,
                 standardize_signed, 0, False),
}


def _flavor(flavor: str, u: Element, v: Element | None = None) -> Flavor:
    """The table entry of ``flavor``, once the operand families match it."""
    f = FLAVORS[flavor]
    if u.system.family != f.family or (v is not None and v.system.family != f.right):
        raise ValueError(f"flavor {flavor} needs operands of families {f.family}"
                         + (f" and {f.right}" if v is not None else ""))
    return f


def _signed_ascending(values: list[int]) -> Iterator[Word]:
    for signs in itertools.product((1, -1), repeat=len(values)):
        yield tuple(sorted(s * v for s, v in zip(signs, values)))


# -- products, composed on windows ---------------------------------------------------
#
# The window of x y is read from two tuples: x's signed lookup table, which
# holds x(t) at index t + n for -n <= t <= n, and y's index tuple, which
# holds y(i) + n.  So x y = tuple(map(_lookup(x).__getitem__, _indices(y))).


def _lookup(w: Word) -> Word:
    return tuple(-x for x in reversed(w)) + (0,) + w


def _indices(w: Word) -> Word:
    n = len(w)
    return tuple(t + n for t in w)


@lru_cache(maxsize=None)
def _two_run_table(family: str, total: int, m: int) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """The minimal representatives z of the cosets z (W_m x S_n) in the
    ``family`` group of window size total = m + n, as two tuples in the
    same order: the lookup tables of the z, and the index tuples of their
    inverses.

    z(m+1) < ... < z(m+n), with any signs in B and D, and all positive in
    A.  The head is 0 < z(1) < ... < z(m); in D it is |z(1)| < z(2) < ...
    < z(m), and the sign of z(1) makes the sign count even.  There are
    C(total, m) of them, times 2^n in B and D: a few, not a group, so the
    cache has no order cap.
    """
    system = _system(family, total)
    values = range(1, total + 1)
    reps = []
    for head in itertools.combinations(values, m):
        rest = [x for x in values if x not in head]
        tails = [tuple(rest)] if family == "A" else _signed_ascending(rest)
        for tail in tails:
            odd = family == "D" and sum(1 for x in tail if x < 0) % 2
            reps.append(_trusted_element(system, ((-head[0],) + head[1:] if odd else head) + tail))
    return (tuple(_lookup(z.window) for z in reps),
            tuple(_indices(z.inverse().window) for z in reps))


def _distinct_sum(keys: list, kind: str) -> FormalVector:
    """The sum of ``keys``, which are distinct, each with coefficient 1."""
    return FormalVector(kind=kind)._with_terms(dict.fromkeys(keys, 1))


def shuffle(flavor: str, u: Element, v: Element) -> FormalVector:
    """The sum of x z^{-1} over the two-run representatives z."""
    f = _flavor(flavor, u, v)
    x = f.embed(u, v)
    system, at = x.system, _lookup(x.window).__getitem__
    _, inverses = _two_run_table(f.reps, system.n, u.system.n)
    return _distinct_sum(
        [_trusted_element(system, tuple(map(at, zinv))) for zinv in inverses], "element")


def cup(flavor: str, u: Element, v: Element) -> FormalVector:
    """The sum of z x over the two-run representatives z."""
    f = _flavor(flavor, u, v)
    x = f.embed(u, v)
    system, xs = x.system, _indices(x.window)
    lookups, _ = _two_run_table(f.reps, system.n, u.system.n)
    return _distinct_sum(
        [_trusted_element(system, tuple(map(z.__getitem__, xs))) for z in lookups], "element")


def unshuffle(flavor: str, u: Element) -> FormalVector:
    """Sum of the standardized (prefix, suffix) splits of the window; the
    splits have prefixes of distinct sizes, so the pairs are distinct."""
    f = _flavor(flavor, u)
    a = u.window
    return _distinct_sum(
        [(f.prefix(a[:i]), f.suffix(a[i:])) for i in range(f.first_split, len(a) + 1)],
        "pair",
    )


def cap(flavor: str, u: Element) -> FormalVector:
    """Sum over splits of (the small letters, the other letters), standardized;
    the prefixes have distinct sizes, as in :func:`unshuffle`."""
    f = _flavor(flavor, u)
    a = u.window
    n = len(a)
    rest = hat_word(a) if f.cap_hat else a
    return _distinct_sum(
        [
            (f.cap_prefix(abs_restrict(a, 1, i)), f.suffix(abs_restrict(rest, i + 1, n)))
            for i in range(f.first_split, n + 1)
        ],
        "pair",
    )


#: The function of each command-line name; the name's suffix is the flavor
#: it is called with (see the module docstring).
PRODUCTS = {f"{kind}{name}": op
            for name in FLAVORS for kind, op in (("shuffle", shuffle), ("cup", cup))}
COPRODUCTS = {f"{kind}{name}": op
              for name in FLAVORS for kind, op in (("shuffle", unshuffle), ("cup", cap))}
