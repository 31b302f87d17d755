"""Finite Coxeter systems of types A, B, D realized as (signed) permutation groups.

Type A with window size n is the symmetric group on {1..n} (generators
s_1..s_{n-1}), type B is the group of signed permutations (generators
s_0..s_{n-1} where s_0 negates the first entry), and type D is the
subgroup of B with an even number of negative window entries (s_0 swaps
and negates the first two entries).

A system is the tuple ``(family, n)`` and an Element the tuple ``(system,
window)``, with the window in full.  Both subclass ``namedtuple``, so
hashing and equality are tuple's own: two Elements are equal exactly when
family, window size and window agree.  As a tuple, an Element also equals
the plain tuple ``(system, window)``, has length 2 and unpacks to
``(system, window)``; nothing here relies on that.  All objects are
immutable, and each result derived from a group enumeration is held in
that group's one store, which checks the size cap on every read.

A window is checked where it enters: ``Element(...)``,
``CoxeterSystem.element``, :func:`parse_window` and unpickling raise
ValueError on an invalid one.  Maps that turn valid elements into valid
elements (products, inverses, enumeration, standardization) skip the check
through the one trusted constructor, :func:`_trusted_element`.
"""

from __future__ import annotations

import itertools
import operator
import os
import struct
from array import array
from collections import defaultdict, namedtuple
from functools import cached_property, lru_cache, partial, reduce, wraps
from math import factorial
from typing import Iterable, NamedTuple, Optional

FAMILIES = ("A", "B", "D")

#: Enumeration refuses groups and word cubes larger than this unless
#: overridden via COXKIT_MAX_ORDER or :func:`set_max_order`.
DEFAULT_MAX_ORDER = 10**6

_max_order_override: Optional[int] = None


class CapExceededError(RuntimeError):
    """Raised when a group or word-cube enumeration would exceed the size cap."""


def set_max_order(limit: Optional[int]) -> None:
    """Override the enumeration cap in-process (None restores the default)."""
    global _max_order_override
    _max_order_override = limit


def max_order() -> int:
    """The enumeration cap: :func:`set_max_order`'s value, else
    COXKIT_MAX_ORDER, else the default when that is unset or empty.  A
    variable that is not a nonnegative integer raises ValueError naming it."""
    if _max_order_override is not None:
        return _max_order_override
    env = os.environ.get("COXKIT_MAX_ORDER")
    if not env:
        return DEFAULT_MAX_ORDER
    try:
        value = int(env)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise ValueError(f"COXKIT_MAX_ORDER={env!r} is not a nonnegative integer")


def check_word_cube(n: int, window: int) -> None:
    """Pre-flight for anything that ranges over the length-n words over
    [-window, window]: a negative window is a ValueError, and a cube of
    more than :func:`max_order` words is refused before any work."""
    if window < 0:
        raise ValueError(f"window must be nonnegative, got {window}")
    size = (2 * window + 1) ** n
    if size > max_order():
        raise CapExceededError(
            f"word cube (2*{window}+1)^{n} = {size} exceeds cap {max_order()}"
        )


def word_cube(n: int, window: int) -> Iterable[tuple[int, ...]]:
    """The length-n words over [-window, window], in lexicographic order;
    the cube is checked by :func:`check_word_cube` up front."""
    check_word_cube(n, window)
    return itertools.product(range(-window, window + 1), repeat=n)


class CoxeterSystem(namedtuple("CoxeterSystem", "family n")):
    """A realized Coxeter system, identified by family and window size.

    ``n`` is the window size: A gives the symmetric group S_n (rank n-1),
    B gives the signed permutation group of order 2^n n! (rank n), and D
    the even-signed subgroup (rank n, requires n >= 2).
    """

    def __new__(cls, family: str, n: int) -> "CoxeterSystem":
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if n < 0:
            raise ValueError("window size must be nonnegative")
        if family == "D" and n < 2:
            raise ValueError("family D requires rank >= 2")
        return tuple.__new__(cls, (family, n))

    def __reduce__(self):
        # through the checks again, and without the cached root table
        return type(self), tuple(self)

    @classmethod
    def of_rank(cls, family: str, rank: int) -> "CoxeterSystem":
        """Build from the generator count: A_rank has window size rank+1."""
        if family == "A":
            return cls("A", rank + 1)
        return cls(family, rank)

    @property
    def rank(self) -> int:
        return max(self.n - 1, 0) if self.family == "A" else self.n

    @property
    def generators(self) -> tuple[int, ...]:
        if self.family == "A":
            return tuple(range(1, self.n))
        return tuple(range(self.n))

    @property
    def generator_set(self) -> frozenset[int]:
        return frozenset(self._roots.generators)

    def order(self) -> int:
        if self.family == "A":
            return factorial(self.n)
        if self.family == "B":
            return 2**self.n * factorial(self.n)
        return 2 ** (self.n - 1) * factorial(self.n)

    def coxeter_order(self, s: int, t: int) -> int:
        """Order m_st of the product of two generators: 2, 3 or 4 as the simple
        roots a, b have 4<a,b>^2 / (|a|^2 |b|^2) = 0, 1 or 2."""
        if s == t:
            return 1
        roots = simple_roots(self)
        if s not in roots or t not in roots:
            raise ValueError(f"no generators {s}, {t} in {self}")
        a, b = roots[s], roots[t]
        return 2 + 4 * _inner(a, b) ** 2 // (_inner(a, a) * _inner(b, b))

    def identity(self) -> "Element":
        return _trusted_element(self, tuple(range(1, self.n + 1)))

    def generator(self, i: int) -> "Element":
        """The reflection in the simple root of ``i``."""
        if i not in self._roots.generators:
            raise ValueError(f"no generator {i} in {self}")
        return _trusted_element(self, self._roots.generators[i])

    @cached_property
    def _roots(self) -> "_RootTable":
        """The root table, kept in the instance dict: the kernel never hashes the system."""
        return _root_table(self.family, self.n)

    def element(self, window: Iterable[int]) -> "Element":
        return Element(self, tuple(window))

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.family!r}, {self.n})"


# -- roots: each family is stated once, by its simple and positive roots; the
# element kernel reads them through the table ``CoxeterSystem._roots`` ---------

Root = tuple[int, ...]


def _unit(n: int, i: int) -> Root:
    return tuple(int(k == i) for k in range(n))


def _pair(n: int, j: int, i: int, sign_i: int) -> Root:
    return tuple(1 if k == j else sign_i if k == i else 0 for k in range(n))


@lru_cache(maxsize=None)
def simple_roots(system: CoxeterSystem) -> dict[int, Root]:
    """Simple root attached to each generator label: e_{s+1} - e_s for s >= 1,
    and e_1 in B or e_1 + e_2 in D for s = 0."""
    n = system.n
    return {s: _pair(n, s, s - 1, -1) if s else _unit(n, 0) if system.family == "B"
            else _pair(n, 1, 0, 1) for s in system.generators}


@lru_cache(maxsize=None)
def positive_roots(system: CoxeterSystem) -> frozenset[Root]:
    """e_j - e_i for i < j; in B and D also e_j + e_i; in B also every e_j."""
    n, signs = system.n, (-1,) if system.family == "A" else (-1, 1)
    units = [_unit(n, j) for j in range(n)] if system.family == "B" else []
    return frozenset(units + [_pair(n, j, i, c) for j in range(n) for i in range(j) for c in signs])


def negate(root: Root) -> Root:
    return tuple(-c for c in root)


def _inner(a: Root, b: Root) -> int:
    return sum(x * y for x, y in zip(a, b))


def reflect(root: tuple[int, int, int, int], v: tuple[int, ...]) -> tuple[int, ...]:
    """The reflection v - (2<r, v>/<r, r>) r of v in the root r = a e_i + b e_j
    given as (i, a, j, b).  Exact, since <r, r> is 1 or 2."""
    i, a, j, b = root
    k = 2 * (a * v[i] + b * v[j]) // (a * a + b * b)
    return tuple(x - k * (a * (p == i) + b * (p == j)) for p, x in enumerate(v))


class _RootTable(NamedTuple):
    """A system's roots as the kernel reads them: (s, i, a, j, b) per simple
    root a_s = a e_i + b e_j, (i, a, j, b) per positive root (j = i, b = 0 if
    it has one nonzero coordinate), each generator's window: (1, ..., n)
    reflected in its simple root, each generator's bit in a descent mask
    (bit k is the k-th generator), each generator's simple root, and the
    generator of each simple root."""

    simple: tuple[tuple[int, int, int, int, int], ...]
    positive: tuple[tuple[int, int, int, int], ...]
    generators: dict[int, tuple[int, ...]]
    bits: dict[int, int]
    alpha: dict[int, Root]
    labels: dict[Root, int]


def _coordinates(root: Root) -> tuple[int, int, int, int]:
    """The root a e_i + b e_j as (i, a, j, b); (i, a, i, 0) for a e_i."""
    (i, a), *rest = [(k, c) for k, c in enumerate(root) if c]
    return (i, a, *(rest[0] if rest else (i, 0)))


@lru_cache(maxsize=None)
def _root_table(family: str, n: int) -> _RootTable:
    """The root table of ``CoxeterSystem(family, n)``, one per equal system."""
    system = CoxeterSystem(family, n)
    simple = tuple((s, *_coordinates(r)) for s, r in sorted(simple_roots(system).items()))
    identity = tuple(range(1, n + 1))
    return _RootTable(simple, tuple(sorted(map(_coordinates, positive_roots(system)))),
                      {s: reflect((i, a, j, b), identity) for s, i, a, j, b in simple},
                      {s: 1 << k for k, s in enumerate(system.generators)},
                      simple_roots(system), {a: s for s, a in simple_roots(system).items()})


def _validate_window(system: CoxeterSystem, window: tuple[int, ...]) -> None:
    n = system.n
    if len(window) != n:
        raise ValueError(f"window length {len(window)} != {n}")
    if frozenset(abs(x) for x in window) != frozenset(range(1, n + 1)):
        raise ValueError(f"not a signed permutation window: {window}")
    negatives = sum(1 for x in window if x < 0)
    if system.family == "A" and negatives:
        raise ValueError("type A windows must be positive")
    if system.family == "D" and negatives % 2:
        raise ValueError("type D windows need an even number of signs")


class Element(namedtuple("Element", "system window")):
    """A group element in window notation ``(w(1), ..., w(n))``."""

    __slots__ = ()

    def __new__(cls, system: CoxeterSystem, window: tuple[int, ...]) -> "Element":
        _validate_window(system, window)
        return tuple.__new__(cls, (system, window))

    def __reduce__(self):
        return type(self), tuple(self)

    # -- basic group structure ------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        if self.system != other.system:
            raise ValueError("elements from different systems")
        w = self.window
        return _trusted_element(
            self.system,
            tuple(w[v - 1] if v > 0 else -w[-v - 1] for v in other.window),
        )

    def inverse(self) -> "Element":
        inv = [0] * len(self.window)
        for i, v in enumerate(self.window, start=1):
            if v > 0:
                inv[v - 1] = i
            else:
                inv[-v - 1] = -i
        return _trusted_element(self.system, tuple(inv))

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.system.n + 1))

    # -- length and descents --------------------------------------------------

    def length(self) -> int:
        """The number of positive roots a with <a, window> < 0."""
        w = self.window
        return len([1 for i, a, j, b in self.system._roots.positive if a * w[i] + b * w[j] < 0])

    def descent_set(self) -> frozenset[int]:
        """Right descents {s : length(w*s) < length(w)}: the s whose simple
        root a_s has <a_s, window> < 0."""
        w = self.window
        return frozenset([s for s, i, a, j, b in self.system._roots.simple
                          if a * w[i] + b * w[j] < 0])

    def left_descent_set(self) -> frozenset[int]:
        return self.inverse().descent_set()

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word: what :func:`_peel` takes off w, in reverse."""
        return tuple(reversed(_peel(self, self.system.generator_set)[1]))

    def apply_to_root(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """Push a coordinate vector through w (e_i goes to sign * e_{|w(i)|})."""
        out = [0] * len(root)
        for i, c in enumerate(root):
            if c:
                v = self.window[i]
                if v > 0:
                    out[v - 1] += c
                else:
                    out[-v - 1] -= c
        return tuple(out)

    def __repr__(self) -> str:
        return f"{self.system.family}{self.system.n}[{format_window(self.window)}]"


def _trusted_element(system: CoxeterSystem, window: tuple[int, ...]) -> Element:
    """Build an Element without checking its window.

    Precondition: ``window`` is a tuple that is a valid window of
    ``system`` by construction, because it was computed from valid
    elements by a map that preserves validity (a product, an inverse, a
    standardized word, a coset representative).  A window that comes from
    outside goes through ``Element`` or ``CoxeterSystem.element``, which
    check it.
    """
    return tuple.__new__(Element, (system, window))


def format_window(window: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in window)


def parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated ints, optionally parenthesized: "2,-1" or "(2,-1)".
    Windows and (pseudo-)compositions are written this way."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def parse_window(system: CoxeterSystem, text: str) -> Element:
    """The element whose window :func:`parse_ints` reads from ``text``; an
    empty window is the identity."""
    window = parse_ints(text)
    return system.element(window) if window else system.identity()


def from_word(system: CoxeterSystem, word: Iterable[int]) -> Element:
    return reduce(lambda a, b: a * b, map(system.generator, word), system.identity())


# -- whole-group machinery ----------------------------------------------------


def _check_order(system: CoxeterSystem) -> None:
    if system.order() > max_order():
        raise CapExceededError(
            f"|W| = {system.order()} exceeds cap {max_order()}"
        )


@lru_cache(maxsize=None)
def _store(system: CoxeterSystem) -> dict:
    """The group's one store: every result of :func:`_capped_cache` for it,
    keyed by (function, arguments)."""
    return {}


def _capped_cache(fn):
    """Keep ``fn(system, *args)`` in the group's :func:`_store`, but check
    the order cap on every call first: a cap lowered after a group was
    enumerated still refuses it, and a refused read makes no store.  The
    store's statistics stay readable through ``cache_info``, which counts
    groups, and ``cache_clear`` empties every group's store."""

    @wraps(fn)
    def call(system, *args):
        _check_order(system)
        store, key = _store(system), (fn, args)
        try:
            return store[key]
        except KeyError:
            value = store[key] = fn(system, *args)
            return value

    call.cache_info, call.cache_clear = _store.cache_info, _store.cache_clear
    return call


def _family_rule(system: CoxeterSystem) -> tuple[Iterable[tuple[int, ...]], list[tuple[int, ...]]]:
    """The family's rule for its windows, the one place that states it: the
    permutations of 1..n in lexicographic order, as an iterator, and the
    sign vectors, all of them in B, those with an even number of -1 in D,
    and only the vector of +1 in A.  The windows are each permutation times
    each sign vector in turn.  A window size past :data:`_LANE_MAX_N`, which
    the lanes cannot hold, is refused with ValueError before any permutation
    is made."""
    if system.n > _LANE_MAX_N:
        raise ValueError(f"window size {system.n} exceeds {_LANE_MAX_N}, "
                         "the most 16-bit lanes hold")
    if system.family == "A":
        signs = [(1,) * system.n]
    else:
        signs = [s for s in itertools.product((1, -1), repeat=system.n)
                 if system.family == "B" or s.count(-1) % 2 == 0]
    return itertools.permutations(range(1, system.n + 1)), signs


# -- the group table in 16-bit lanes: a column of windows is one int, and a
# root's sign on every window at once is a few big-integer operations --------

#: Every byte value twice: ``_RAMP[n:n + 256]`` is the :meth:`bytes.translate`
#: table that turns the two's-complement byte of v into v + n.
_RAMP = bytes(range(256)) * 2

#: The largest window size the lanes hold: a descent mask has one bit per
#: generator, at most n of them, in a 16-bit lane.
_LANE_MAX_N = 16


class _Lanes(NamedTuple):
    """``size`` windows of size ``n`` packed column by column: lane k, bits
    16k to 16k + 15 of an int, belongs to window k, so one operation on the
    ints acts on every window.  Column p is the triple of the lanes of
    c * w(p) + n for c = 0, 1, -1, indexed by c, so that a root coefficient
    picks its lanes, and every lane lies in [0, 2n], below the guard bit 15
    of its lane."""

    n: int
    size: int
    ones: int
    guard: int
    columns: list[tuple[int, int, int]]


def _lanes(n: int, size: int, ones: int, packed: Iterable[int]) -> _Lanes:
    """The :class:`_Lanes` whose column p holds the lanes w(p) + n of
    ``packed``; ``ones`` holds 1 in each of the ``size`` lanes."""
    zero = n * ones
    return _Lanes(n, size, ones, ones << 15, [(zero, x, 2 * zero - x) for x in packed])


def _family_lanes(system: CoxeterSystem) -> _Lanes:
    """The group's windows in lanes, in the order of its family rule
    (:func:`_family_rule`), the one path from that rule into lanes or
    windows.  Each permutation p is followed by every sign vector, so in
    column q the block of p is one byte pattern of the value p(q), the
    lanes' low bytes n + s(q) * p(q) over the sign vectors s: the column is
    those patterns joined over the bytes p(q), read as ``flat[q::n]`` off
    the permutations in one byte string, or, with one sign vector, those
    bytes shifted by n in one translate."""
    n = system.n
    perms, signs = _family_rule(system)
    flat = bytes(itertools.chain.from_iterable(perms))
    size = factorial(n) * len(signs)
    lane, packed = bytearray(2 * size), []
    for q in range(n):
        if len(signs) == 1:
            lane[::2] = flat[q::n].translate(_RAMP[n:n + 256])
        else:
            blocks = [bytes(n + s[q] * v for s in signs) for v in range(n + 1)]
            lane[::2] = b"".join(map(blocks.__getitem__, flat[q::n]))
        packed.append(int.from_bytes(lane, "little"))
    return _lanes(n, size, int.from_bytes(b"\1\0" * size, "little"), packed)


def _lane_windows(lanes: _Lanes) -> list[tuple[int, ...]]:
    """The windows of ``lanes``, in their order: the low bytes of each
    column, shifted back by n and read as signed bytes, zipped."""
    n, size = lanes.n, lanes.size
    if not n:
        return [()] * size
    back = _RAMP[256 - n:512 - n]
    return list(zip(*[array("b", x.to_bytes(2 * size, "little")[::2].translate(back))
                      for _, x, _ in lanes.columns]))


def _root_flags(lanes: _Lanes, roots: Iterable[tuple[int, int, int, int]]) -> list[int]:
    """For each root (i, a, j, b), the guard bit of each lane whose window
    has <a e_i + b e_j, w> < 0, that is a * w(i) < -b * w(j).  With x and y
    the lanes of both sides, (x | guard) - y keeps a lane's guard bit
    exactly when x >= y, and borrows from no other lane."""
    cols, guard = lanes.columns, lanes.guard
    return [((cols[i][a] | guard) - cols[j][-b] & guard) ^ guard for i, a, j, b in roots]


def _unpack(size: int, flags: int) -> tuple[int, ...]:
    """Lane by lane, over ``size`` lanes, a sum of :func:`_root_flags` times
    small ints: each flag counts 1 at the guard bit, and every lane's sum is
    below 2^16."""
    return struct.unpack(f"<{size}H", (flags >> 15).to_bytes(2 * size, "little"))


def _lane_masks(system: CoxeterSystem, lanes: _Lanes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The right and the left descent mask of each window of ``lanes``: the
    sum of the flags of the simple roots a_s, each times its
    :func:`generator_bits` bit (both are in the order of the generators),
    on the lanes of the windows and on those of their inverses
    (:func:`_inverse_lanes`)."""
    roots = system._roots
    simple, bits = [r[1:] for r in roots.simple], roots.bits.values()
    right = sum(map(operator.mul, bits, _root_flags(lanes, simple)))
    left = sum(map(operator.mul, bits, _root_flags(_inverse_lanes(lanes), simple)))
    return _unpack(lanes.size, right), _unpack(lanes.size, left)


def _lane_lengths(system: CoxeterSystem, lanes: _Lanes) -> tuple[int, ...]:
    """The length of each window of ``lanes``: the number of positive roots
    a with <a, window> < 0 (Bjorner-Brenti 2005, ch. 8)."""
    return _unpack(lanes.size, sum(_root_flags(lanes, system._roots.positive)))


def _inverse_lanes(lanes: _Lanes) -> _Lanes:
    """The lanes of the inverse windows: column v of w^{-1} holds p where
    column p of w holds v and -p where it holds -v, so it is n plus the sum
    over p of p * ([w(p) = v] - [w(p) = -v]).  A lane of x ^ (c | guard)
    minus one keeps its guard bit exactly when x != c there, so that
    difference is [w(p) != -v] - [w(p) != v]."""
    n, ones, guard = lanes.n, lanes.ones, lanes.guard
    columns = [x for _, x, _ in lanes.columns]
    packed = []
    for v in range(1, n + 1):
        plus, minus, signed = (n + v) * ones | guard, (n - v) * ones | guard, 0
        for p, x in enumerate(columns, start=1):
            signed += p * (((x ^ minus) - ones & guard) - ((x ^ plus) - ones & guard))
        packed.append(n * ones + (signed >> 15))
    return _lanes(n, lanes.size, ones, packed)


@_capped_cache
def descent_pair_counts(system: CoxeterSystem) -> list[int]:
    """Solomon's (1976) descent-pair histogram from one pass over W: with r
    generators, the entry at (row mask) << r | (col mask) counts the w with
    D(w^{-1}) = row and D(w) = col, each mask of :func:`generator_bits`.
    The count does not depend on the order of W, so the lanes are packed
    straight from the family rule (:func:`_family_lanes`) and read for both
    masks at once (:func:`_lane_masks`): no window tuple, no sort, no length
    and no :class:`Element`, and only the counts are kept."""
    right, left = _lane_masks(system, _family_lanes(system))
    r = len(system.generators)
    pairs = [0] * (1 << 2 * r)
    for col, row in zip(right, left):
        pairs[row << r | col] += 1
    return pairs


@_capped_cache
def root_sign_masks(system: CoxeterSystem) -> tuple[dict[Root, int], int]:
    """For each positive root a, the :func:`_root_flags` mask of the windows
    x, in the lanes of :func:`_family_lanes`, with <a, x> < 0; and the mask
    of every window.  No root vanishes on a window, so the mask of -a is
    the mask of every window xor that of a, and the roots whose mask misses
    x are the chamber w * (positive roots) of the w with w^{-1} = x."""
    lanes, positive = _family_lanes(system), positive_roots(system)
    return dict(zip(positive, _root_flags(lanes, map(_coordinates, positive)))), lanes.guard


class _Table(NamedTuple):
    """The group's table in (length, window) order: its windows, its right
    and its left descent masks, and the position in the family rule
    (:func:`_family_lanes`) of each of its windows."""

    windows: tuple[tuple[int, ...], ...]
    masks: tuple[tuple[int, ...], tuple[int, ...]]
    order: array


@_capped_cache
def _ordered_table(system: CoxeterSystem) -> _Table:
    """The group's :class:`_Table`, read off the family lanes: the masks
    (:func:`_lane_masks`), the lengths (:func:`_lane_lengths`) and the
    windows (:func:`_lane_windows`).  The family positions are sorted by
    window, then stably by length, and kept as an unsigned-int array."""
    lanes = _family_lanes(system)
    windows = _lane_windows(lanes)
    right, left = _lane_masks(system, lanes)
    lengths = _lane_lengths(system, lanes)
    order = sorted(range(lanes.size), key=windows.__getitem__)
    order.sort(key=lengths.__getitem__)
    return _Table(tuple(map(windows.__getitem__, order)),
                  (tuple(map(right.__getitem__, order)), tuple(map(left.__getitem__, order))),
                  array("I", order))


@_capped_cache
def elements(system: CoxeterSystem) -> tuple[Element, ...]:
    """All group elements, sorted by (length, window) for determinism: the
    windows of :func:`_ordered_table`."""
    return tuple(map(_trusted_element, itertools.repeat(system),
                     _ordered_table(system).windows))


def subset_sort_key(subset: frozenset[int]) -> tuple:
    return (len(subset), tuple(sorted(subset)))


@lru_cache(maxsize=None)
def all_subsets(system: CoxeterSystem) -> tuple[frozenset[int], ...]:
    gens = system.generators
    subs = [
        frozenset(c)
        for r in range(len(gens) + 1)
        for c in itertools.combinations(gens, r)
    ]
    return tuple(sorted(subs, key=subset_sort_key))


def parabolic_elements(system: CoxeterSystem, subset: frozenset[int]) -> tuple[Element, ...]:
    """Elements of the standard parabolic subgroup generated by ``subset``,
    sorted by (length, window) like :func:`elements`: the group's elements
    that :func:`_parabolic_flags` keeps, read through :func:`descent_interval`.
    A parabolic's lengths are the group's, so its order is the group's.
    Refused when :func:`elements` would refuse the whole group; when
    ``subset`` covers the generators the result is that group's own tuple.
    """
    if system.generator_set <= subset:
        return elements(system)
    return descent_interval(system, frozenset(), system.generator_set, subset)


def in_parabolic(w: Element, subset: frozenset[int]) -> bool:
    """Whether w lies in W_I, I = ``subset``: exactly when every positive root
    a it inverts, <a, w> < 0, lies in :func:`parabolic_positive_roots`
    (Humphreys 1990, ch. 1 and 5).  No peel, and no Element is built."""
    inside = parabolic_positive_roots(w.system, subset)
    return w.length() == sum(1 for a in inside if _inner(a, w.window) < 0)


@lru_cache(maxsize=None)
def parabolic_positive_roots(system: CoxeterSystem, subset: frozenset[int]) -> frozenset[Root]:
    """The positive roots of W_I, I = ``subset``: the inversion set of its
    longest element, the positive roots a with <a, w0(I)> < 0 (Bjorner-Brenti
    2005, ch. 1-2).  Labels outside the generators are dropped."""
    w0 = longest_element(system, subset).window
    return frozenset(a for a in positive_roots(system) if _inner(a, w0) < 0)


def longest_element(system: CoxeterSystem, subset: frozenset[int]) -> Element:
    """The longest element of the parabolic subgroup, by greedy ascent."""
    w = system.identity()
    des = w.descent_set()
    while True:
        up = [s for s in sorted(subset & system.generator_set) if s not in des]
        if not up:
            return w
        w = w * system.generator(up[0])
        des = w.descent_set()


def _peel(w: Element, subset: frozenset[int]) -> tuple[Element, list[int]]:
    """The greedy peel: right-multiply w by its smallest right descent in
    ``subset`` until none is left.  Returns the minimal representative of
    w W_I, I = ``subset``, and the generators taken off, in order."""
    word: list[int] = []
    generator = w.system.generator
    while des := w.descent_set() & subset:
        word.append(s := min(des))
        w = w * generator(s)
    return w, word


def parabolic_decompose_left(w: Element, subset: frozenset[int]) -> tuple[Element, Element]:
    """Split w = c * p with p in the parabolic and c of minimal coset length.

    The representative c has no right descent inside ``subset`` and
    lengths add: length(w) = length(c) + length(p).
    """
    c = _peel(w, subset)[0]
    return c, c.inverse() * w


def parabolic_decompose_right(w: Element, subset: frozenset[int]) -> tuple[Element, Element]:
    """Split w = p * c with p parabolic and c of minimal length: the
    decomposition is unique, so it is the left one of w^{-1}, inverted."""
    c, p = parabolic_decompose_left(w.inverse(), subset)
    return p.inverse(), c.inverse()


def generator_bits(system: CoxeterSystem) -> dict[int, int]:
    """Each generator's bit in a descent mask (bit k for ``system.generators[k]``); shared."""
    return system._roots.bits


def simple_image(w: Element, s: int) -> Optional[int]:
    """The generator t with w(a_s) = a_t, or None when w(a_s) is no simple
    root, read off the root table."""
    roots = w.system._roots
    return roots.labels.get(w.apply_to_root(roots.alpha[s]))


def descent_masks(system: CoxeterSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The right and the left descent mask of each group element, as two
    tuples in the (length, window) order of :func:`elements`.  A mask holds
    the :func:`generator_bits` of the s whose simple root a has
    <a, window> < 0, read on the window for the right mask and on the
    inverse window for the left one: sums of root flags over the lanes of
    all windows at once (:func:`_lane_masks`), permuted into the order of
    :func:`_ordered_table`."""
    return _ordered_table(system).masks


@_capped_cache
def _mask_runs(system: CoxeterSystem, on_left: bool) -> dict[int, array]:
    """For each right (left ``on_left``) mask of :func:`descent_masks` that
    occurs, the positions holding it, in increasing order, as an
    unsigned-int array."""
    runs = defaultdict(partial(array, "I"))
    for k, d in enumerate(descent_masks(system)[on_left]):
        runs[d].append(k)
    return dict(runs)


@_capped_cache
def _parabolic_flags(system: CoxeterSystem, subset: frozenset[int]) -> tuple[bool, ...]:
    """For each window of :func:`_ordered_table`, whether it lies in W_I,
    I = ``subset``, a set that misses a generator: whether it inverts no
    positive root outside :func:`parabolic_positive_roots`, the test of
    :func:`in_parabolic`.  The OR of those roots' :func:`root_sign_masks`
    is decoded once and read through the table's family positions, so no
    lane is packed, and no window or :class:`Element` is built."""
    masks, everywhere = root_sign_masks(system)
    outside = positive_roots(system) - parabolic_positive_roots(system, subset)
    inverted = reduce(operator.or_, map(masks.__getitem__, outside), 0)
    order = _ordered_table(system).order
    kept = _unpack(len(order), inverted ^ everywhere)
    return tuple(map(bool, map(kept.__getitem__, order)))


def _interval_positions(system: CoxeterSystem, low: frozenset[int], high: frozenset[int],
                        within: Optional[frozenset[int]], on_left: bool = False) -> array:
    """The one filter of group elements by descent set: the positions in
    :func:`elements`, in increasing order and as an unsigned-int array (a
    single :func:`_mask_runs` array itself), of the w with low <= D(w) <= high
    (D(w^{-1}) ``on_left``) in the parabolic on ``within`` when it misses a
    generator (:func:`_parabolic_flags`).  Only the :func:`_mask_runs` (of
    the right or, ``on_left``, the left masks) whose mask d has d & lo == lo
    and d | hi == hi are merged, so the cost is the size of the answer, not
    of the group.  Labels of ``high`` outside the generators are dropped,
    and a ``low`` holding one keeps nothing."""
    bit = generator_bits(system)
    if not low <= bit.keys():
        return array("I")
    lo, hi = sum(bit[s] for s in low), sum(bit.get(s, 0) for s in high)
    runs = [run for d, run in _mask_runs(system, on_left).items()
            if d & lo == lo and d | hi == hi]
    positions = runs[0] if len(runs) == 1 \
        else array("I", sorted(itertools.chain.from_iterable(runs)))
    if within is not None and not system.generator_set <= within:
        flags = _parabolic_flags(system, within & system.generator_set)
        positions = array("I", itertools.compress(positions, map(flags.__getitem__, positions)))
    return positions


def descent_interval(system: CoxeterSystem, low: frozenset[int], high: frozenset[int],
                     within: Optional[frozenset[int]] = None) -> tuple[Element, ...]:
    """The w with low <= D(w) <= high, in the order of :func:`elements`,
    kept to the parabolic on ``within`` when one is given
    (:func:`_interval_positions`)."""
    return _interval_entry(system, low, high, within, False)


def _interval_entry(system: CoxeterSystem, low: frozenset[int], high: frozenset[int],
                    within: Optional[frozenset[int]], on_left: bool) -> tuple[Element, ...]:
    """The stored :func:`_descent_interval`, one entry per interval however
    it is spelled: ``high`` and ``within`` keep only generator labels, and a
    ``within`` that covers the generators is None.  A ``low`` holding another
    label keeps nothing, so it is answered, after the cap, with no entry."""
    gens = system.generator_set
    if not low <= gens:
        _check_order(system)
        return _NO_INTERVAL
    if within is not None:
        within = None if gens <= within else within & gens
    return _descent_interval(system, low, high & gens, within, on_left)


class _Interval(tuple):
    """The elements of a descent interval, in the order of :func:`elements`,
    with ``positions``, theirs in it as an unsigned-int array, from the one
    :func:`_interval_positions` pass that chose them.  ``left``, their left
    descent masks, is read at those positions on first use."""

    positions: array
    left: Optional[tuple[int, ...]] = None


_NO_INTERVAL = _Interval()
_NO_INTERVAL.positions, _NO_INTERVAL.left = array("I"), ()


@_capped_cache
def _descent_interval(system, low, high, within, on_left):
    positions = _interval_positions(system, low, high, within, on_left)
    interval = _Interval(map(elements(system).__getitem__, positions))
    interval.positions = positions
    return interval


def descent_interval_left_masks(system: CoxeterSystem, low: frozenset[int],
                                high: frozenset[int], within: Optional[frozenset[int]]
                                ) -> tuple[int, ...]:
    """The left descent masks (:func:`descent_masks`) of the elements of
    :func:`descent_interval` with the same arguments, in its order: read at
    the positions its store entry keeps, once, and kept there."""
    interval = _interval_entry(system, low, high, within, False)
    if interval.left is None:
        interval.left = tuple(map(descent_masks(system)[1].__getitem__, interval.positions))
    return interval.left


def min_coset_reps(
    system: CoxeterSystem,
    subset: frozenset[int],
    side: str = "left",
    within: Optional[frozenset[int]] = None,
) -> tuple[Element, ...]:
    """Minimal-length representatives of the cosets of W_I, I = ``subset``:
    the group's own elements, in the order of :func:`elements`.

    side="left" gives {w : D(w) disjoint from I} (left cosets w*W_I) and
    side="right" {w : D(w^{-1}) disjoint from I} (right cosets W_I*w), the
    same interval read on left descents (Bjorner-Brenti 2005, ch. 2).  With
    ``within`` the ambient group is the parabolic on that generator set.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if within is not None and not subset <= within:
        raise ValueError("subset must lie inside the ambient generator set")
    ambient = system.generator_set if within is None else within
    return _interval_entry(system, frozenset(), ambient - subset, within, side == "right")


def descent_class(system: CoxeterSystem, subset: frozenset[int],
                  within: Optional[frozenset[int]] = None) -> tuple[Element, ...]:
    """All elements with descent set exactly ``subset``."""
    return descent_interval(system, subset, subset, within)


def class_maximum(system: CoxeterSystem, subset: frozenset[int]) -> Element:
    """The longest element whose descent set is contained in ``subset``."""
    return descent_interval(system, frozenset(), subset)[-1]


# -- compositions and pseudo-compositions -------------------------------------


def descents_of_composition(alpha: tuple[int, ...]) -> frozenset[int]:
    """Partial sums of all but the last part (0 included when alpha_1 = 0)."""
    total, out = 0, []
    for part in alpha[:-1]:
        total += part
        out.append(total)
    if alpha and alpha[0] == 0:
        out.append(0)
    return frozenset(out)


def composition_from_descents(system: CoxeterSystem, subset: frozenset[int]) -> tuple[int, ...]:
    """Inverse of the descent-set bijection for the system's index family."""
    return _composition(subset, system.n)


def _composition(subset: frozenset[int], n: int) -> tuple[int, ...]:
    """The (pseudo-)composition of n cut at the points of ``subset``: a cut
    at 0 gives a leading 0 part."""
    if n == 0:
        return ()
    prev, parts = 0, []
    for cut in sorted(subset) + [n]:
        parts.append(cut - prev)
        prev = cut
    return tuple(parts)


def is_valid_composition(system: CoxeterSystem, alpha: tuple[int, ...]) -> bool:
    """Whether alpha indexes a descent set of the system: a (pseudo-)
    composition of n whose descents are generators (so B0 takes only ())."""
    if sum(alpha) != system.n:
        return False
    if any(p < 0 for p in alpha):
        return False
    if system.family == "A":
        return all(p > 0 for p in alpha)
    return all(p > 0 for p in alpha[1:]) and descents_of_composition(alpha) <= system.generator_set


def near_concat_compositions(alpha: tuple[int, ...], beta: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Join alpha and beta by fusing the boundary parts; None if either is empty."""
    if not alpha or not beta:
        return None
    return alpha[:-1] + (alpha[-1] + beta[0],) + beta[1:]


def refines(alpha: tuple[int, ...], beta: tuple[int, ...]) -> bool:
    """True when beta refines alpha (same size, descents of alpha included)."""
    return sum(alpha) == sum(beta) and descents_of_composition(alpha) <= descents_of_composition(beta)


def shape_of_composition(system: CoxeterSystem, alpha: tuple[int, ...]) -> tuple[int, ...]:
    """Sorting invariant: full sort for A, tail sort after the first part for B/D."""
    if system.family == "A":
        return tuple(sorted(alpha, reverse=True))
    if not alpha:
        return ()
    return (alpha[0],) + tuple(sorted(alpha[1:], reverse=True))


def composition_prefix_split(alpha: tuple[int, ...], i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split alpha at total size i into a prefix (same family) and an A-suffix.

    The prefix and suffix are the unique pieces whose plain or fused
    concatenation recovers alpha.
    """
    n = sum(alpha)
    if not 0 <= i <= n:
        raise ValueError("split point out of range")
    des = descents_of_composition(alpha)
    return (_composition(frozenset(d for d in des if d < i), i),
            _composition(frozenset(d - i for d in des if d > i), n - i))


# -- conjugacy of parabolic subgroups ------------------------------------------


@lru_cache(maxsize=None)
def parabolic_conjugacy_classes(system: CoxeterSystem) -> tuple[tuple[frozenset[int], ...], ...]:
    """Classes of subsets I, where I ~ J iff W_{I^c} and W_{J^c} are conjugate.

    Deodhar's (1982) elementary moves (Geck-Pfeiffer 2000, section 2.3):
    for K a set of generators, s not in K and L = K + {s}, conjugation by
    the longest element w0(L) maps K onto another subset of L, and two
    standard parabolics are conjugate exactly when a chain of such moves
    joins their generator sets.  The move sends K = L - {s} to L - {t} for
    w0(alpha_s) = -alpha_t, as w0 s w0 = s_t.  A union-find over the
    complements I = S - K collects the classes.

    Classes, and the members of each, come in order of first appearance in
    :func:`all_subsets`.
    """
    S, roots = system.generator_set, system._roots
    parent = {I: I for I in all_subsets(system)}

    def find(I: frozenset[int]) -> frozenset[int]:
        while parent[I] != I:
            parent[I] = parent[parent[I]]
            I = parent[I]
        return I

    for L in all_subsets(system):
        w0 = longest_element(system, L)
        for s in L:
            t = roots.labels[negate(w0.apply_to_root(roots.alpha[s]))]
            parent[find((S - L) | {t})] = find((S - L) | {s})
    classes: dict[frozenset[int], list[frozenset[int]]] = {}
    for I in all_subsets(system):
        classes.setdefault(find(I), []).append(I)
    return tuple(tuple(cls) for cls in classes.values())


@_capped_cache
def normalizer_complement_order(system: CoxeterSystem, subset: frozenset[int]) -> int:
    """|N_J| for J = ``subset``: the minimal left-coset representatives w
    of W_J with w(Delta_J) = Delta_J.

    Howlett (1980): the normalizer of the standard parabolic W_J is the
    semidirect product W_J x| N_J, where N_J = {w : w(Delta_J) = Delta_J}.
    As w s_j w^{-1} = s_{w(alpha_j)}, no Element is multiplied.
    """
    J = subset & system.generator_set
    return sum(1 for w in min_coset_reps(system, J, "left")
               if all(simple_image(w, j) in J for j in J))


def parabolic_class_size(system: CoxeterSystem, subset: frozenset[int]) -> int:
    """The number of conjugates of the standard parabolic W_J on ``subset``:
    |W : N_W(W_J)| = |W^J| / |N_J| by Howlett's (1980) decomposition
    N_W(W_J) = W_J x| N_J (see :func:`normalizer_complement_order`)."""
    J = subset & system.generator_set
    return len(min_coset_reps(system, J, "left")) // normalizer_complement_order(system, J)
