"""Truncated noncommutative power series over an integer alphabet window.

A series of degree n over window m is a sparse integer combination of
length-n words with letters in [-m, m].  The generating functions of
partial root systems live here, together with the word-sum bases indexed
by group elements, subsets and (pseudo-)compositions, and the projections
to commutative polynomials.

Truncation policy: identities of degree n are checked at window n + 1.
Equality of truncations refutes an identity conclusively; the identities
asserted by the verification suites are theorems, so truncation equality
is the expected outcome rather than numerical evidence.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection, Iterable, Optional

from .freemodule import FormalVector
from .qsym import CPoly
from .roots import chamber, lattice_points, negate, parabolic_positive_roots, simple_roots
from .systems import (
    CoxeterSystem,
    Element,
    Root,
    check_word_cube,
    descents_of_composition,
)
from .words import FLAVORS, shuffle

Word = tuple[int, ...]


class WindowError(ValueError):
    """A truncated-series operation was attempted outside its trusted window."""


class NCSeries(FormalVector):
    """Sparse integer combination of equal-length words over [-window, window].

    Every word handed to the constructor is checked for its length and its
    letters; sums and differences need equal degree and window.
    """

    __slots__ = ("degree", "window")

    def __init__(self, degree: int, window: int, terms=None):
        self.degree = degree
        self.window = window
        super().__init__(terms)

    def _key(self, word: Word) -> Word:
        if len(word) != self.degree:
            raise ValueError(f"word {word} has length != {self.degree}")
        if word and (min(word) < -self.window or max(word) > self.window):
            raise WindowError(f"letter outside window in {word}")
        return word

    def _with_terms(self, terms: dict) -> "NCSeries":
        out = super()._with_terms(terms)
        out.degree = self.degree
        out.window = self.window
        return out

    @classmethod
    def from_words(cls, degree: int, window: int, words: Iterable[Word]) -> "NCSeries":
        return cls(degree, window, ((w, 1) for w in words))

    def _check_compatible(self, other: "NCSeries") -> None:
        super()._check_compatible(other)
        if self.degree != other.degree or self.window != other.window:
            raise ValueError("degree/window mismatch")

    def __eq__(self, other: object) -> bool:
        return (
            super().__eq__(other)
            and self.degree == other.degree
            and self.window == other.window
        )

    def __mul__(self, other: "NCSeries") -> "NCSeries":
        """Word concatenation.  Trusted only when the window dominates the
        total degree; refuse otherwise rather than risk truncation bias."""
        if self.window != other.window:
            raise ValueError("window mismatch")
        total = self.degree + other.degree
        if self.window < total + 1:
            raise WindowError(
                f"window {self.window} too small for a degree-{total} product"
            )
        return NCSeries(
            total, self.window,
            ((w1 + w2, c1 * c2)
             for w1, c1 in self.terms.items()
             for w2, c2 in other.terms.items()),
        )

    def __repr__(self) -> str:
        return f"NCSeries(degree={self.degree}, window={self.window}, {len(self.terms)} terms)"


# -- generating functions ---------------------------------------------------------


def _word_sum(n: int, window: int, words: Iterable[Word]) -> NCSeries:
    """Trusted word sum: the words are distinct lattice points, so each
    already has length n and letters inside the window."""
    return NCSeries(n, window)._with_terms(dict.fromkeys(words, 1))


def parset_series(system: CoxeterSystem, parset, window: int) -> NCSeries:
    """Word sum over the lattice points of a partial root system."""
    return _word_sum(system.n, window, lattice_points(system, parset, window))


@lru_cache(maxsize=None)
def _fiber_words(w: Element, window: int) -> tuple[Word, ...]:
    return tuple(lattice_points(w.system, chamber(w.inverse()), window))


def s_series(w: Element, window: int) -> NCSeries:
    """Word sum over the standardization fiber of w (the chamber of w^{-1})."""
    check_word_cube(w.system.n, window)
    return _word_sum(w.system.n, window, _fiber_words(w, window))


def f_series(w: Element, window: int) -> NCSeries:
    """Generating function of the chamber of w."""
    return s_series(w.inverse(), window)


# -- word-sum bases ---------------------------------------------------------------


def basis_roots(system: CoxeterSystem, kind: str, alpha: tuple[int, ...]
                ) -> Optional[Collection[Root]]:
    """The roots whose lattice points are the words of the basis element of
    ``kind`` at alpha, or None when that element has no word.

    For the ribbon kind "s", a word f has s as a descent exactly when
    <alpha_s, f> < 0: the roots are alpha_s (weak) for s outside D(alpha)
    and -alpha_s (strict) for s in it (Gessel 1984, Chow 2001), and a key
    with a descent outside the generators has no word.  For the complete
    kind "h", they are the positive roots of the parabolic complementary
    to D(alpha).
    """
    descents = descents_of_composition(alpha)
    if kind == "h":
        return parabolic_positive_roots(system, system.generator_set - descents)
    if not descents <= system.generator_set:
        return None
    return [negate(r) if s in descents else r for s, r in simple_roots(system).items()]


def s_basis(system: CoxeterSystem, alpha: tuple[int, ...], window: int) -> NCSeries:
    """Sum of s_series over the descent class of alpha: the words whose
    descent set is D(alpha), the lattice points of
    :func:`basis_roots` (a key with a descent outside the generators has
    none)."""
    check_word_cube(system.n, window)
    roots = basis_roots(system, "s", alpha)
    if roots is None:
        return NCSeries(system.n, window)
    return _word_sum(system.n, window, lattice_points(system, roots, window))


def h_basis(system: CoxeterSystem, alpha: tuple[int, ...], window: int) -> NCSeries:
    """Complete-homogeneous analogue: the generating function of the positive
    roots of the parabolic complementary to the descents of alpha."""
    return parset_series(system, basis_roots(system, "h", alpha), window)


# -- projections to commutative polynomials ----------------------------------------


def project_positive(x: NCSeries) -> CPoly:
    """Keep the words over the letters 1..m of the window [-m, m] and
    abelianize: x_i = 0 for i <= 0, which keeps a quasisymmetric function
    quasisymmetric, on the m letters of :func:`~coxkit.qsym.fundamental_qsym`."""
    return CPoly((tuple(sorted(w)), c) for w, c in x.terms.items() if min(w, default=1) > 0)


def project_absolute(x: NCSeries) -> CPoly:
    """Letter-wise absolute value, then abelianize (monoid homomorphism)."""
    return CPoly(
        ((tuple(sorted(abs(letter) for letter in w)), c) for w, c in x.terms.items())
    )


def project_signed_min(x: NCSeries) -> CPoly:
    """Absolute values sorted, with the minimal slot carrying the sign parity
    of the word.  Linear but not multiplicative."""
    out = []
    for w, c in x.terms.items():
        mono = sorted(abs(letter) for letter in w)
        if sum(1 for letter in w if letter < 0) % 2 and mono:
            mono[0] = -mono[0]
        out.append((tuple(mono), c))
    return CPoly(out)


def projection(family: str):
    return {"A": project_positive, "B": project_absolute, "D": project_signed_min}[family]


# -- module action and coproduct grading ------------------------------------------


def f_action(u: Element, v: Element, window: int) -> FormalVector:
    """Right action on the chamber basis, in the flavor that takes the operand
    families (u's own flavor refuses any other pair): the label vector of
    the product, cross-checked against literal series multiplication."""
    families = (u.system.family, v.system.family)
    flavor = next((name for name, f in FLAVORS.items() if (f.family, f.right) == families),
                  u.system.family)
    labels = shuffle(flavor, u, v)
    literal = f_series(u, window) * f_series(v, window)
    total = NCSeries(u.system.n + v.system.n, window)
    for w in labels.terms:
        total += f_series(w, window)
    if total != literal:
        raise AssertionError("shuffle expansion disagrees with series product")
    return labels


def graded_pieces(vec: FormalVector) -> dict[int, FormalVector]:
    """A pair vector split by the window size of its first slot."""
    pieces: dict[int, dict] = {}
    for (w1, w2), c in vec.terms.items():
        pieces.setdefault(w1.system.n, {})[(w1, w2)] = c
    return {n: FormalVector(kind="pair")._with_terms(terms) for n, terms in pieces.items()}
