"""Sparse formal linear combinations with exact integer/rational coefficients.

:class:`FormalVector` is the one sparse container of the package: the
free-module elements here, and through thin subclasses the truncated
noncommutative series (:class:`coxkit.series.NCSeries`) and the
commutative polynomial truncations (:class:`coxkit.qsym.CPoly`).  All of
them share the zero-dropping accumulation below and the linear operations
built on it.

``a + b`` returns a new object and leaves both operands alone; ``a += b``
merges ``b`` into ``a`` in place.  Use ``+=`` only on an accumulator the
calling code created itself, never on a vector taken from a cache or
handed in by a caller, since every other holder of ``a`` sees the change.

The linear extensions :meth:`FormalVector.map_keys` and
:meth:`FormalVector.map_to_vectors` add every image into one new
accumulator through the same zero-dropping accumulation, with no
intermediate or scaled vector; ``map_to_vectors`` runs each image through
the checks of ``+=``, so it refuses what ``+=`` refuses: an image of
another class (TypeError) and an image in another basis (ValueError).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from fractions import Fraction
from types import GeneratorType
from typing import Union

Scalar = Union[int, Fraction]


def sort_key(key: Hashable):
    """A total order on mixed basis keys, for deterministic iteration."""
    if type(key) is tuple:
        return (1, len(key), tuple(sort_key(k) for k in key))
    if isinstance(key, frozenset):
        return (0, len(key), tuple(sorted(key)))
    if isinstance(key, (int, Fraction)):
        return (2, key)
    # an Element is a tuple too, but only a plain tuple takes the tuple branch
    if hasattr(key, "window"):
        return (3, key.system.family, key.system.n, key.window)
    return (4, repr(key))


class FormalVector:
    """A free-module element: sparse map from basis keys to exact scalars.

    Zero coefficients are never stored.  The optional ``kind`` tag names
    the basis (e.g. "element", "sigma", "sigma_star") and guards the
    pairing against mixing bases.

    Subclasses that restrict or normalise their keys set ``_key`` to a
    function applied to every key handed to the constructor; it is None
    here, so plain vectors pay nothing for it.  Objects of different
    classes never compare equal and cannot be added.
    """

    __slots__ = ("terms", "kind")

    _key: Callable[[Hashable], Hashable] | None = None

    def __init__(self, terms: Union[Mapping, Iterable, None] = None, kind: str | None = None):
        self.terms: dict = {}
        self.kind = kind
        if terms:
            # dicts and generators are told apart by their concrete types
            # first, so they never walk the ABC registry behind Mapping
            if isinstance(terms, dict):
                items = terms.items()
            elif isinstance(terms, GeneratorType):
                items = terms
            else:
                items = terms.items() if isinstance(terms, Mapping) else terms
            if self._key is not None:
                key = self._key
                items = ((key(k), c) for k, c in items)
            self._accumulate(items)

    def _accumulate(self, items: Iterable) -> None:
        """Add (key, coefficient) pairs into ``terms``, dropping zeros."""
        data = self.terms
        for key, coeff in items:
            if coeff:
                acc = data.get(key, 0) + coeff
                if acc:
                    data[key] = acc
                else:
                    del data[key]

    def _with_terms(self, terms: dict) -> "FormalVector":
        """Trusted constructor: an object of this class and tags that takes
        over ``terms``, which must already hold only nonzero, normalised
        entries."""
        out = object.__new__(type(self))
        out.terms = terms
        out.kind = self.kind
        return out

    @classmethod
    def basis(cls, key: Hashable, coeff: Scalar = 1, kind: str | None = None) -> "FormalVector":
        return cls({key: coeff}, kind=kind)

    @classmethod
    def from_keys(cls, keys: Iterable[Hashable], kind: str | None = None) -> "FormalVector":
        return cls(((k, 1) for k in keys), kind=kind)

    def _merge_kind(self, other: "FormalVector") -> str | None:
        if self.kind is not None and other.kind is not None and self.kind != other.kind:
            raise ValueError(f"mixing bases {self.kind!r} and {other.kind!r}")
        return self.kind if self.kind is not None else other.kind

    def _check_compatible(self, other: "FormalVector") -> None:
        """Refuse to combine with ``other``; subclasses add their own tags."""
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")

    def __iadd__(self, other: "FormalVector") -> "FormalVector":
        self._check_compatible(other)
        self.kind = self._merge_kind(other)
        self._accumulate(other.terms.items())
        return self

    def __add__(self, other: "FormalVector") -> "FormalVector":
        out = self._with_terms(dict(self.terms))
        out += other
        return out

    def __sub__(self, other: "FormalVector") -> "FormalVector":
        return self + (-other)

    def __neg__(self) -> "FormalVector":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "FormalVector":
        return self._with_terms({k: c * v for k, v in self.terms.items()} if c else {})

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, key: Hashable) -> Scalar:
        return self.terms.get(key, 0)

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: sort_key(kv[0]))

    def support(self):
        return sorted(self.terms, key=sort_key)

    def coefficient_sum(self) -> Scalar:
        return sum(self.terms.values())

    def map_keys(self, f: Callable, kind: str | None = None) -> "FormalVector":
        """Linear extension of a key-to-key map (collects collisions)."""
        out = FormalVector(kind=kind)
        out._accumulate((f(k), c) for k, c in self.terms.items())
        return out

    def map_to_vectors(self, f: Callable[[Hashable], "FormalVector"], kind: str | None = None) -> "FormalVector":
        """Linear extension of a key-to-vector map.  Each image must be a
        plain :class:`FormalVector`, and the images' kinds must agree with
        each other and with ``kind`` when that is given."""
        out = FormalVector(kind=kind)
        for key, coeff in self.terms.items():
            image = f(key)
            out._check_compatible(image)
            out.kind = out._merge_kind(image)
            items = image.terms.items()
            out._accumulate(items if coeff == 1 else ((k, coeff * c) for k, c in items))
        out.kind = kind
        return out

    def pairing(self, other: "FormalVector") -> Scalar:
        """Bilinear extension of <u, v> = delta_{u,v} on basis keys."""
        self._merge_kind(other)
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        return sum(c * big.terms.get(k, 0) for k, c in small.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key, coeff in self.items():
            bits.append(f"{coeff}*{key}" if coeff != 1 else f"{key}")
        return " + ".join(bits)
