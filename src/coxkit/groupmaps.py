"""Induction/restriction-style linear maps on the free module over a group.

For a generator subset I the four maps act on formal sums of elements:

* ``induce_left``      u |-> (sum of minimal left-coset reps) * u
* ``restrict_left``    w |-> p, where w = c * p with p in W_I
* ``induce_right``     u |-> u * (sum of minimal right-coset reps)
* ``restrict_right``   w |-> p, where w = p * c with p in W_I

with the inductions relative to an optional ambient parabolic ``within``.  They
satisfy the composition laws along chains I <= J <= S, and each induction is
adjoint to the restriction on its own side: for x on W_I and y on W,
<induce_left(x), y> = <x, restrict_left(y)> and
<induce_right(x), y> = <x, restrict_right(y)>.
"""

from __future__ import annotations

from typing import Optional

from .freemodule import FormalVector
from .systems import (
    CoxeterSystem,
    Element,
    in_parabolic,
    min_coset_reps,
    parabolic_decompose_left,
    parabolic_decompose_right,
)

ELEMENT = "element"
DUAL_DESCENT = "sigma_star"


def element_vector(*ws: Element) -> FormalVector:
    return FormalVector.from_keys(ws, kind=ELEMENT)


def _check_keys_in_parabolic(x: FormalVector, subset: frozenset[int]) -> None:
    for w in x.terms:
        if not in_parabolic(w, subset):
            raise ValueError(f"{w} is not in the parabolic on {sorted(subset)}")


def induce_left(system: CoxeterSystem, subset: frozenset[int], x: FormalVector,
                within: Optional[frozenset[int]] = None) -> FormalVector:
    """mu: u |-> sum over minimal left-coset reps z of z*u."""
    _check_keys_in_parabolic(x, subset)
    reps = min_coset_reps(system, subset, "left", within)
    return FormalVector(
        ((z * u, c) for u, c in x.terms.items() for z in reps), kind=ELEMENT
    )


def induce_right(system: CoxeterSystem, subset: frozenset[int], x: FormalVector,
                 within: Optional[frozenset[int]] = None) -> FormalVector:
    """mu-bar: u |-> sum over minimal right-coset reps z of u*z."""
    _check_keys_in_parabolic(x, subset)
    reps = min_coset_reps(system, subset, "right", within)
    return FormalVector(
        ((u * z, c) for u, c in x.terms.items() for z in reps), kind=ELEMENT
    )


def restrict_right(system: CoxeterSystem, subset: frozenset[int], x: FormalVector) -> FormalVector:
    """rho: w |-> p where w = p * c with p in the parabolic."""
    del system  # decomposition is intrinsic to each element
    return x.map_keys(lambda w: parabolic_decompose_right(w, subset)[0], kind=ELEMENT)


def restrict_left(system: CoxeterSystem, subset: frozenset[int], x: FormalVector) -> FormalVector:
    """rho-bar: w |-> p where w = c * p with p in the parabolic."""
    del system
    return x.map_keys(lambda w: parabolic_decompose_left(w, subset)[1], kind=ELEMENT)


def invert_vector(x: FormalVector) -> FormalVector:
    """Key-wise group inverse; an involution of the free module."""
    return x.map_keys(lambda w: w.inverse(), kind=x.kind)


def descent_projection(system: CoxeterSystem, x: FormalVector) -> FormalVector:
    """chi: w |-> dual-basis key at the descent set of w (surjects onto duals)."""
    del system
    return x.map_keys(lambda w: w.descent_set(), kind=DUAL_DESCENT)


def descent_projection_inv(system: CoxeterSystem, x: FormalVector) -> FormalVector:
    """chi': w |-> dual-basis key at the descent set of w^{-1}."""
    return descent_projection(system, invert_vector(x))
