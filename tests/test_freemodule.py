"""The shared sparse container: FormalVector and its NCSeries / CPoly subclasses."""

from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import freemodule
from coxkit.freemodule import FormalVector
from coxkit.groupmaps import invert_vector
from coxkit.qsym import CPoly
from coxkit.series import NCSeries, WindowError
from coxkit.systems import CoxeterSystem, elements

from oracles import invert_vector_by_map_keys, map_keys_by_constructor, map_to_vectors_by_iadd

WORDS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
TERMS = st.dictionaries(WORDS, st.integers(-3, 3), max_size=8)

MAKERS = {
    "vector": lambda terms: FormalVector(terms, kind="pair"),
    "series": lambda terms: NCSeries(2, 2, terms),
    "poly": lambda terms: CPoly(terms),
}


def _no_zeros(x) -> bool:
    return all(x.terms.values())


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
@given(a_terms=TERMS, b_terms=TERMS)
@settings(max_examples=60)
def test_add_and_iadd(make, a_terms, b_terms):
    a, b = make(a_terms), make(b_terms)
    a_before, b_before = dict(a.terms), dict(b.terms)
    total = a + b
    assert a.terms == a_before and b.terms == b_before
    assert _no_zeros(a) and _no_zeros(b) and _no_zeros(total)
    assert type(total) is type(a)

    c = make(a_terms)
    c += b
    assert c == total
    assert b.terms == b_before and a.terms == a_before
    assert _no_zeros(c)

    c += c
    assert c == total.scale(2)
    c -= total.scale(2)
    assert not c and c.terms == {}
    assert (a - a).terms == {} and (-a).scale(-1) == a


def test_iadd_merges_into_the_left_operand():
    acc = FormalVector(kind="pair")
    alias = acc
    acc += FormalVector({1: 2, 3: 1})
    acc += FormalVector({1: -2})
    assert alias is acc and acc.terms == {3: 1} and acc.kind == "pair"


def test_iadd_keeps_the_kind_guard():
    acc = FormalVector({1: 1}, kind="a")
    with pytest.raises(ValueError):
        acc += FormalVector({1: 1}, kind="b")


@pytest.mark.parametrize("other", (NCSeries(3, 2), NCSeries(2, 3)))
def test_series_iadd_needs_equal_degree_and_window(other):
    acc = NCSeries(2, 2, {(1, 1): 1})
    with pytest.raises(ValueError):
        acc += other
    with pytest.raises(ValueError):
        acc + other
    assert acc.terms == {(1, 1): 1}


def test_series_checks_constructor_words():
    with pytest.raises(ValueError):
        NCSeries(2, 2, {(1,): 1})
    with pytest.raises(WindowError):
        NCSeries(2, 2, {(3, 0): 0})
    s = NCSeries(2, 2, {(1, 1): 1})
    assert (s + s).degree == 2 and s.scale(3).window == 2 and (-s).terms == {(1, 1): -1}


def test_poly_keys_stay_sorted():
    acc = CPoly({(3, 1): 1})
    acc += CPoly([((2, 1, 1), 4), ((1, 3), 1)])
    acc += CPoly.monomial([1, 2, 1], -4)
    assert acc.terms == {(1, 3): 2}
    assert all(list(k) == sorted(k) for k in (CPoly({(2, 0): 1}) * CPoly({(1,): 1})).terms)


def test_equal_terms_in_different_classes_never_compare_equal():
    terms = {(1, 2): 1}
    vec, series, poly = FormalVector(terms), NCSeries(2, 2, terms), CPoly(terms)
    for x, y in ((vec, series), (vec, poly), (series, poly)):
        assert x != y and y != x
        with pytest.raises(TypeError):
            x + y
    assert series != NCSeries(2, 3, terms) and series == NCSeries(2, 2, terms)


class _CountingMeta(type):
    """isinstance against a class of this type records the object and
    answers as :class:`collections.abc.Mapping` does."""

    def __instancecheck__(cls, obj):
        cls.seen.append(obj)
        return isinstance(obj, Mapping)


class _CountingMapping(metaclass=_CountingMeta):
    seen: list = []


def test_dict_and_generator_inputs_skip_the_mapping_check(monkeypatch):
    monkeypatch.setattr(freemodule, "Mapping", _CountingMapping)
    _CountingMapping.seen.clear()
    assert FormalVector({1: 2, 3: 0}).terms == {1: 2}
    assert FormalVector((k, 1) for k in (1, 2, 1)).terms == {1: 2, 2: 1}
    assert _CountingMapping.seen == []
    # any other Mapping still reads as one, through the check
    proxy = MappingProxyType({1: 2, 3: -1})
    assert FormalVector(proxy).terms == {1: 2, 3: -1}
    assert FormalVector([(1, 1), (1, -1), (2, 3)]).terms == {2: 3}
    assert _CountingMapping.seen[0] is proxy


COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
#: Small int keys, so the key maps below collide and terms cancel.
KEYED = st.dictionaries(st.integers(0, 6), COEFFS, max_size=6)
KINDS = st.sampled_from((None, "a", "b"))


def _outcome(fn):
    """What calling ``fn`` gives: the result's class, terms and kind, or the
    exception's class and message."""
    try:
        out = fn()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    assert all(out.terms.values())
    return type(out), out.terms, out.kind


@given(terms=KEYED, modulus=st.integers(1, 4), kind=KINDS, source=KINDS)
@settings(max_examples=150)
def test_map_keys_matches_the_constructor(terms, modulus, kind, source):
    x = FormalVector(terms, kind=source)
    f = lambda k: k % modulus  # noqa: E731
    assert _outcome(lambda: x.map_keys(f, kind=kind)) \
        == _outcome(lambda: map_keys_by_constructor(x, f, kind=kind))


#: Per key of the mapped vector: an image's terms, its kind, and its class
#: (a series or a polynomial image is of another class than FormalVector).
IMAGES = st.dictionaries(
    st.integers(0, 6),
    st.tuples(st.dictionaries(st.integers(0, 4), COEFFS, max_size=4), KINDS,
              st.sampled_from(("vector",) * 6 + ("series", "poly"))),
    min_size=7, max_size=7)


def _image(terms, kind, cls):
    if cls == "series":
        return NCSeries(1, 4, {(k % 3 - 1,): c for k, c in terms.items()})
    if cls == "poly":
        return CPoly({(k,): c for k, c in terms.items()})
    return FormalVector(terms, kind=kind)


@given(terms=KEYED, images=IMAGES, kind=KINDS)
@settings(max_examples=200)
def test_map_to_vectors_matches_one_iadd_per_image(terms, images, kind):
    x = FormalVector(terms)
    table = {k: _image(*spec) for k, spec in images.items()}
    assert _outcome(lambda: x.map_to_vectors(table.__getitem__, kind=kind)) \
        == _outcome(lambda: map_to_vectors_by_iadd(x, table.__getitem__, kind=kind))


def test_map_to_vectors_refuses_what_iadd_refuses():
    x = FormalVector({0: 1, 1: 2})
    mixed = {0: FormalVector({0: 1}, kind="a"), 1: FormalVector({0: 1}, kind="b")}
    with pytest.raises(ValueError, match="mixing bases 'a' and 'b'"):
        x.map_to_vectors(mixed.__getitem__)
    with pytest.raises(ValueError, match="mixing bases 'c' and 'a'"):
        x.map_to_vectors(mixed.__getitem__, kind="c")
    with pytest.raises(TypeError, match="cannot add CPoly to FormalVector"):
        x.map_to_vectors(lambda k: CPoly({(k,): 1}))
    # the kind passed wins over the images' kinds in the result
    assert x.map_to_vectors(lambda k: FormalVector({k: 1}, kind="a")).kind is None


B3_GROUP = elements(CoxeterSystem("B", 3))


@given(picks=st.dictionaries(st.integers(0, len(B3_GROUP) - 1), COEFFS, max_size=10),
       kind=KINDS)
@settings(max_examples=60)
def test_invert_vector_matches_the_key_map(picks, kind):
    x = FormalVector({B3_GROUP[i]: c for i, c in picks.items()}, kind=kind)
    assert _outcome(lambda: invert_vector(x)) == _outcome(lambda: invert_vector_by_map_keys(x))
