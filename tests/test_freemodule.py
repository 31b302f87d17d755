"""The shared sparse container: FormalVector and its NCSeries / CPoly subclasses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit.freemodule import FormalVector
from coxkit.qsym import CPoly
from coxkit.series import NCSeries, WindowError

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
