"""Commutative polynomial truncations: quasisymmetric-style bases in
variables indexed by an integer window.

Monomial keys are ascending tuples of variable indices.  Type A bases use
indices 1..K, type B uses 0..K, and the type D bases allow one negative
index of minimal absolute value.  All coefficients are exact.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, factorial, prod
from typing import Iterable

from .freemodule import FormalVector
from .systems import (
    CapExceededError,
    composition_prefix_split,
    descents_of_composition,
    max_order,
)

Monomial = tuple[int, ...]


class CPoly(FormalVector):
    """Sparse integer polynomial keyed by sorted variable-index tuples."""

    __slots__ = ()

    @staticmethod
    def _key(mono: Iterable[int]) -> Monomial:
        return tuple(sorted(mono))

    @classmethod
    def monomial(cls, indices: Iterable[int], coeff=1) -> "CPoly":
        return cls([(indices, coeff)])

    @classmethod
    def one(cls) -> "CPoly":
        return cls({(): 1})

    def __mul__(self, other: "CPoly") -> "CPoly":
        """The product, term by term; more than :func:`max_order` term
        pairs is refused before any is multiplied."""
        pairs = len(self.terms) * len(other.terms)
        if pairs > max_order():
            raise CapExceededError(f"polynomial product {len(self.terms)} x {len(other.terms)}"
                                   f" = {pairs} term pairs exceed cap {max_order()}")
        return CPoly(
            ((m1 + m2, c1 * c2)
             for m1, c1 in self.terms.items()
             for m2, c2 in other.terms.items())
        )

    def __repr__(self) -> str:
        return f"CPoly({len(self.terms)} terms)"


def _weak_chains(lo: int, hi: int, length: int):
    """Ascending-or-equal index chains i_1 <= ... <= i_length in [lo, hi],
    in lexicographic order.  There are C(hi - lo + length, length) of them;
    more than :func:`max_order` is refused before the walk."""
    count = comb(max(hi - lo + length, 0), length)
    if count > max_order():
        raise CapExceededError(
            f"weak chains C({hi - lo + length}, {length}) = {count} exceed cap {max_order()}")
    return itertools.combinations_with_replacement(range(lo, hi + 1), length)


# -- type A -------------------------------------------------------------------


def _check_monomials(count: int, what: str) -> None:
    if count > max_order():
        raise CapExceededError(f"{what} = {count} monomials exceed cap {max_order()}")


def monomial_qsym(alpha: tuple[int, ...], K: int) -> CPoly:
    """Sum of x_{i_1}^{a_1} ... x_{i_l}^{a_l} over 0 < i_1 < ... < i_l <= K;
    more than :func:`max_order` index sets, C(K, l), is refused up front."""
    ell = len(alpha)
    _check_monomials(comb(K, ell), f"index sets C({K}, {ell})")
    out = []
    for idx in itertools.combinations(range(1, K + 1), ell):
        mono = tuple(i for i, a in zip(idx, alpha) for _ in range(a))
        out.append((mono, 1))
    return CPoly(out)


def _rising_at_descents(alpha: tuple[int, ...], chains, head=lambda chain: 0) -> CPoly:
    """The chains that rise strictly at each descent of alpha, read after the
    letter ``head(chain)``: the three fundamental truncations differ only there."""
    des = descents_of_composition(alpha)
    out = []
    for chain in chains:
        full = (head(chain),) + chain
        if all(full[j] < full[j + 1] for j in des):
            out.append((chain, 1))
    return CPoly(out)


def fundamental_qsym(alpha: tuple[int, ...], K: int) -> CPoly:
    """Weakly increasing index words with strict rises at the descents."""
    return _rising_at_descents(alpha, _weak_chains(1, K, sum(alpha)))


def complete_homogeneous(k: int, K: int, lo: int = 1) -> CPoly:
    return CPoly(((chain, 1) for chain in _weak_chains(lo, K, k)))


def sym_h(lam: tuple[int, ...], K: int) -> CPoly:
    out = CPoly.one()
    for part in lam:
        out = out * complete_homogeneous(part, K)
    return out


def _rearrangements(parts: tuple[int, ...]):
    """Each distinct ordering of the multiset ``parts`` once, without
    producing the repeats among all len(parts)! permutations."""
    if not parts:
        yield ()
        return
    for first in sorted(set(parts)):
        rest = list(parts)
        rest.remove(first)
        for tail in _rearrangements(tuple(rest)):
            yield (first,) + tail


def _refuse_zero_parts(lam: tuple[int, ...], first: int = 0) -> None:
    """A zero part from position ``first`` on counts x^0 = 1 once per index,
    so it is refused."""
    if 0 in lam[first:]:
        raise ValueError(f"index {lam} has a zero part at position {lam.index(0, first) + 1}")


def sym_m(lam: tuple[int, ...], K: int) -> CPoly:
    """Sum of the monomial truncations over the distinct rearrangements of
    ``lam``; an index longer than K has no monomials, so then it is 0.  More
    than :func:`max_order` monomials, the multinomial count of rearrangements
    times C(K, l), is refused before any is built."""
    _refuse_zero_parts(lam)
    out = CPoly()
    if len(lam) > K:
        return out
    orderings = factorial(len(lam)) // prod(map(factorial, Counter(lam).values()))
    _check_monomials(orderings * comb(K, len(lam)),
                     f"{orderings} rearrangements x C({K}, {len(lam)})")
    for alpha in _rearrangements(lam):
        out += monomial_qsym(alpha, K)
    return out


def sym_p(lam: tuple[int, ...], K: int) -> CPoly:
    """The product of the power sums over the parts; a zero part raises ValueError."""
    _refuse_zero_parts(lam)
    out = CPoly.one()
    for part in lam:
        out = out * CPoly((((i,) * part, 1) for i in range(1, K + 1)))
    return out


# -- type B (nonnegative indices, x_0 distinguished) ---------------------------


def x0_power(k: int) -> CPoly:
    """The monomial x_0^k; a k above :func:`max_order` is refused before
    the k-tuple of its key is built."""
    if k > max_order():
        raise CapExceededError(f"x0 power {k} exceeds cap {max_order()}")
    return CPoly.monomial((0,) * k)


def monomial_qsym_b(alpha: tuple[int, ...], K: int) -> CPoly:
    if not alpha:
        return CPoly.one()
    return x0_power(alpha[0]) * monomial_qsym(alpha[1:], K)


def fundamental_qsym_b(alpha: tuple[int, ...], K: int) -> CPoly:
    return _rising_at_descents(alpha, _weak_chains(0, K, sum(alpha)))


def sym_h_b_block(k: int, K: int) -> CPoly:
    """One signed-family h block: weakly increasing chains from 0."""
    return complete_homogeneous(k, K, lo=0)


def folded_h_block(k: int, K: int) -> CPoly:
    """Absolute-value image of the full-alphabet degree-k block: weakly
    increasing integer chains folded by |.|, i.e. sum of h_a x_0^b h_c
    over a + b + c = k."""
    out = CPoly()
    for a in range(k + 1):
        for b in range(k - a + 1):
            c = k - a - b
            out += complete_homogeneous(a, K) * x0_power(b) * complete_homogeneous(c, K)
    return out


def sym_h_b(alpha: tuple[int, ...], K: int) -> CPoly:
    """Block product: the first part uses the 0-anchored block, later parts
    the folded full-alphabet blocks."""
    if not alpha:
        return CPoly.one()
    out = sym_h_b_block(alpha[0], K)
    for part in alpha[1:]:
        out = out * folded_h_block(part, K)
    return out


def sym_m_b(lam: tuple[int, ...], K: int) -> CPoly:
    """x_0 to the first part times sym_m of the rest; only the first part may be 0."""
    _refuse_zero_parts(lam, 1)
    if not lam:
        return CPoly.one()
    return x0_power(lam[0]) * sym_m(lam[1:], K)


# -- type D (one signed minimal index) ------------------------------------------


def _d_chains(n: int, K: int):
    """Chains -i_2 <= i_1 <= i_2 <= ... <= i_n within [-K, K]: a tail of
    :func:`_weak_chains` from i_2 = a takes 2a + 1 values of i_1, so there
    are (2K + 1) C(K + n - 1, n - 1) - 2 (n - 1) C(K + n - 1, n) chains; more
    than :func:`max_order` is refused, after the tails, before the walk."""
    if n < 2:
        raise ValueError("type D truncations need degree >= 2")
    tails = _weak_chains(0, K, n - 1)
    top = max(K + n - 1, 0)
    count = (2 * K + 1) * comb(top, n - 1) - 2 * (n - 1) * comb(top, n)
    if count > max_order():
        raise CapExceededError(
            f"degree-{n} type D chains in [-{K}, {K}] = {count} exceed cap {max_order()}")
    return ((i1,) + tail for tail in tails for i1 in range(-tail[0], tail[0] + 1))


def monomial_qsym_d(alpha: tuple[int, ...], K: int) -> CPoly:
    n = sum(alpha)
    des = descents_of_composition(alpha)
    out = []
    for chain in _d_chains(n, K):
        full = (-chain[1],) + chain
        if all((full[j] < full[j + 1]) == (j in des) for j in range(n)):
            out.append((chain, 1))
    return CPoly(out)


def fundamental_qsym_d(alpha: tuple[int, ...], K: int) -> CPoly:
    return _rising_at_descents(alpha, _d_chains(sum(alpha), K), lambda chain: -chain[1])


# -- coproduct splitting at the polynomial level ---------------------------------


def split_fundamental_b(alpha: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (prefix, suffix) composition splits of a signed-family index."""
    n = sum(alpha)
    return [composition_prefix_split(alpha, i) for i in range(n + 1)]


def split_fundamental_d(alpha: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    n = sum(alpha)
    return [composition_prefix_split(alpha, i) for i in range(2, n + 1)]


def split_monomial_b(alpha: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(alpha[:j], alpha[j:]) for j in range(1, len(alpha) + 1)]


def split_monomial_d(alpha: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    k = 1
    while sum(alpha[:k]) < 2:
        k += 1
    return [(alpha[:j], alpha[j:]) for j in range(k, len(alpha) + 1)]
