"""Windows are checked where they enter, and every producer that builds
elements without a check only ever builds valid ones.

Each element below comes from a producer that skips the window check
(``*``, ``inverse``, ``identity``, ``generator``, ``elements``, the
standardizers and the sixteen (co)products); it must pass the check when
it is built again through the validating ``CoxeterSystem.element``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import words as wd
from coxkit.systems import CoxeterSystem, elements

SYSTEMS = tuple(CoxeterSystem("A", n) for n in range(1, 5)) \
    + tuple(CoxeterSystem("B", n) for n in range(1, 4)) \
    + tuple(CoxeterSystem("D", n) for n in range(2, 4))

#: Operand systems per family, the empty window included where it is legal.
OPERANDS = {
    "A": tuple(CoxeterSystem("A", n) for n in range(0, 5)),
    "B": tuple(CoxeterSystem("B", n) for n in range(0, 4)),
    "D": tuple(CoxeterSystem("D", n) for n in range(2, 4)),
}

STANDARDIZERS = (wd.standardize, wd.standardize_signed,
                 wd.standardize_even_left, wd.standardize_even_right)


def assert_revalidates(w):
    assert w.system.element(w.window) == w


@pytest.mark.parametrize("system", SYSTEMS, ids=repr)
def test_enumerated_elements_and_generators_revalidate(system):
    for w in elements(system):
        assert_revalidates(w)
    assert_revalidates(system.identity())
    for s in system.generators:
        assert_revalidates(system.generator(s))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_products_and_inverses_revalidate(data):
    system = data.draw(st.sampled_from(SYSTEMS))
    u = data.draw(st.sampled_from(elements(system)))
    v = data.draw(st.sampled_from(elements(system)))
    for w in (u * v, u.inverse(), v * u.inverse()):
        assert_revalidates(w)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=7))
def test_standardized_words_revalidate(word):
    for st_map in STANDARDIZERS if len(word) >= 2 else STANDARDIZERS[:2]:
        assert_revalidates(st_map(word))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(wd.FLAVORS)), st.data())
def test_products_and_coproducts_revalidate(flavor, data):
    f = wd.FLAVORS[flavor]
    u = data.draw(st.sampled_from(elements(data.draw(st.sampled_from(OPERANDS[f.family])))))
    v = data.draw(st.sampled_from(elements(data.draw(st.sampled_from(OPERANDS[f.right])))))
    for product in (wd.shuffle, wd.cup):
        vec = product(flavor, u, v)
        assert vec
        for w in vec.terms:
            assert w.system == CoxeterSystem(f.family, u.system.n + v.system.n)
            assert_revalidates(w)
    for coproduct in (wd.unshuffle, wd.cap):
        for a, b in coproduct(flavor, u).terms:
            assert_revalidates(a)
            assert_revalidates(b)


def A(*w):
    return CoxeterSystem("A", len(w)).element(w)


def B(*w):
    return CoxeterSystem("B", len(w)).element(w)


# Per flavor: product operands and a coproduct operand, each time with one
# operand of the wrong family whose window would be valid in the right
# one, so that only the family tag can refuse it.
WRONG_OPERANDS = {
    "A": ((B(2, 1), A(1)), (B(2, 1),)),
    "B": ((A(2, 1), A(1)), (A(2, 1),)),
    "D": ((B(2, 1), A(1)), (B(2, 1),)),
    "BB": ((B(2, 1), A(1)), (A(2, 1),)),
}
WRONG_FAMILY_CASES = [
    pytest.param(getattr(wd, op), flavor, WRONG_OPERANDS[flavor][op in ("unshuffle", "cap")],
                 id=f"{op}_{flavor.lower()}")
    for flavor in WRONG_OPERANDS
    for op in ("shuffle", "cup", "unshuffle", "cap")
]


@pytest.mark.parametrize("op,flavor,operands", WRONG_FAMILY_CASES)
def test_wrong_family_operand_is_refused(op, flavor, operands):
    with pytest.raises(ValueError):
        op(flavor, *operands)
