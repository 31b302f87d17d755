from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit.freemodule import FormalVector
from coxkit.groupmaps import element_vector, induce_left, induce_right, invert_vector
from coxkit.series import graded_pieces
from coxkit.systems import CoxeterSystem, elements, min_coset_reps
from coxkit.words import (
    COPRODUCTS,
    FLAVORS,
    PRODUCTS,
    abs_restrict,
    cap,
    cross_a,
    cross_bb,
    cup,
    hat_word,
    shuffle,
    standardize,
    standardize_even_left,
    standardize_even_right,
    standardize_signed,
    unshuffle,
)
from oracles import two_run_reps

words_strategy = st.lists(st.integers(-6, 6), min_size=0, max_size=7).map(tuple)
words_strategy_2 = st.lists(st.integers(-6, 6), min_size=2, max_size=7).map(tuple)


def A(*w):
    return CoxeterSystem("A", len(w)).element(w)


def B(*w):
    return CoxeterSystem("B", len(w)).element(w)


def D(*w):
    return CoxeterSystem("D", len(w)).element(w)


def wins(vec):
    return sorted(k.window for k in vec.terms)


def pairs(vec):
    return sorted((k[0].window, k[1].window) for k in vec.terms)


class TestStandardize:
    def test_worked_example(self):
        assert standardize((3, 2, 2, 3, 6, 2, 5)).window == (4, 1, 2, 5, 7, 3, 6)

    def test_increasing_word(self):
        assert standardize((-3, 0, 5)).is_identity()

    @given(words_strategy)
    @settings(max_examples=100)
    def test_idempotent(self, a):
        w = standardize(a)
        assert standardize(w.window) == w

    @given(words_strategy)
    @settings(max_examples=100)
    def test_order_preserving(self, a):
        w = standardize(a).window
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                assert (w[i] < w[j]) == (a[i] <= a[j])


class TestStandardizeSigned:
    def test_worked_example(self):
        assert standardize_signed((2, -4, 3, -2, 0, 2, 0, -2)).window == (5, -8, 7, -4, 1, 6, 2, -3)

    @given(words_strategy)
    @settings(max_examples=100)
    def test_fixes_signed_windows(self, a):
        w = standardize_signed(a)
        assert standardize_signed(w.window) == w

    @given(words_strategy)
    @settings(max_examples=100)
    def test_signs_and_hat(self, a):
        w = standardize_signed(a)
        assert [x < 0 for x in a] == [x < 0 for x in w.window]
        assert standardize(hat_word(a)) == standardize(hat_word(w.window))

    @given(words_strategy)
    @settings(max_examples=100)
    def test_defining_comparisons(self, a):
        w = standardize_signed(a).window
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                lhs = abs(w[i]) < abs(w[j])
                rhs = (abs(a[i]) < abs(a[j])) or (a[i] == a[j] >= 0) or (a[i] == -a[j] < 0)
                assert lhs == rhs

    @given(words_strategy)
    @settings(max_examples=100)
    def test_plain_standardization_factors_through(self, a):
        assert standardize(standardize_signed(a).window) == standardize(a)


class TestStandardizeEven:
    def test_plain_case(self):
        for f in (standardize_signed, standardize_even_left, standardize_even_right):
            assert f((2, 1, 1, -3, 2, -1)).window == (4, 2, 3, -6, 5, -1)

    def test_corrected_cases(self):
        assert standardize_signed((2, 1, -1, -3, 2, -1)).window == (4, 3, -2, -6, 5, -1)
        assert standardize_even_left((2, 1, -1, -3, 2, -1)).window == (4, 3, -2, -6, 5, 1)
        assert standardize_even_right((2, 1, -1, -3, 2, -1)).window == (-4, 3, -2, -6, 5, -1)

    @given(words_strategy_2)
    @settings(max_examples=100)
    def test_lands_in_even_group(self, a):
        for f in (standardize_even_left, standardize_even_right):
            w = f(a)
            assert w.system.family == "D"
            assert f(w.window) == w

    def test_fixes_even_windows(self):
        for w in elements(CoxeterSystem("D", 3)):
            assert standardize_even_left(w.window).window == w.window


class TestTypeAProducts:
    def test_shuffle_example(self):
        got = wins(shuffle("A", A(2, 1), A(1, 2)))
        assert got == sorted([(2, 1, 3, 4), (2, 3, 1, 4), (3, 2, 1, 4),
                              (2, 3, 4, 1), (3, 2, 4, 1), (3, 4, 2, 1)])

    def test_cup_example(self):
        got = wins(cup("A", A(2, 1), A(1, 2)))
        assert got == sorted([(2, 1, 3, 4), (3, 1, 2, 4), (3, 2, 1, 4),
                              (4, 1, 2, 3), (4, 2, 1, 3), (4, 3, 1, 2)])

    def test_unshuffle_example(self):
        got = pairs(unshuffle("A", A(2, 4, 3, 1)))
        assert got == sorted([((), (2, 4, 3, 1)), ((1,), (3, 2, 1)), ((1, 2), (2, 1)),
                              ((1, 3, 2), (1,)), ((2, 4, 3, 1), ())])

    def test_cap_example(self):
        got = pairs(cap("A", A(2, 4, 3, 1)))
        assert got == sorted([((), (2, 4, 3, 1)), ((1,), (1, 3, 2)), ((2, 1), (2, 1)),
                              ((2, 3, 1), (1,)), ((2, 4, 3, 1), ())])

    def test_unit_laws(self):
        e = CoxeterSystem("A", 0).identity()
        u = A(3, 1, 2)
        assert wins(shuffle("A", u, e)) == [u.window]
        assert wins(shuffle("A", e, u)) == [u.window]
        assert wins(cup("A", u, e)) == [u.window]

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_cardinalities(self, m, n):
        for u in elements(CoxeterSystem("A", m)):
            for v in elements(CoxeterSystem("A", n)):
                assert len(shuffle("A", u, v)) == comb(m + n, m)
                assert len(cup("A", u, v)) == comb(m + n, m)

    def test_membership_characterization(self):
        u, v = A(2, 1), A(1, 2)
        prod = shuffle("A", u, v)
        for w in elements(CoxeterSystem("A", 4)):
            member = (abs_restrict(w.window, 1, 2) == u.window
                      and standardize(abs_restrict(w.window, 3, 4)).window == v.window)
            assert (w in prod.terms) == member


class TestTypeBProducts:
    def test_shuffle_example(self):
        got = wins(shuffle("B", B(-1), A(2, 1)))
        assert got == sorted([(-1, 3, 2), (3, -1, 2), (3, 2, -1),
                              (-1, -3, 2), (-3, -1, 2), (-3, 2, -1),
                              (-1, 2, -3), (2, -1, -3), (2, -3, -1),
                              (-1, -2, -3), (-2, -1, -3), (-2, -3, -1)])

    def test_cup_example(self):
        got = wins(cup("B", B(-1), A(2, 1)))
        assert got == sorted([(-1, 3, 2), (-2, 3, 1), (-3, 2, 1),
                              (-1, 3, -2), (-2, 3, -1), (-3, 2, -1),
                              (-1, 2, -3), (-2, 1, -3), (-3, 1, -2),
                              (-1, -2, -3), (-2, -1, -3), (-3, -1, -2)])

    def test_unshuffle_example(self):
        got = pairs(unshuffle("B", B(2, -4, -3, 1)))
        assert got == sorted([((), (4, 1, 2, 3)), ((1,), (1, 2, 3)), ((1, -2), (1, 2)),
                              ((1, -3, -2), (1,)), ((2, -4, -3, 1), ())])

    def test_cap_example(self):
        got = pairs(cap("B", B(2, -4, -3, 1)))
        assert got == sorted([((), (3, 4, 2, 1)), ((1,), (2, 3, 1)), ((2, 1), (1, 2)),
                              ((2, -3, 1), (1,)), ((2, -4, -3, 1), ())])

    def test_unit_law(self):
        u = B(2, -3, 1)
        e = CoxeterSystem("A", 0).identity()
        assert wins(shuffle("B", u, e)) == [u.window]

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2)])
    def test_cardinality(self, m, n):
        for u in elements(CoxeterSystem("B", m)):
            for v in elements(CoxeterSystem("A", n)):
                assert len(shuffle("B", u, v)) == comb(m + n, m) * 2**n
                assert len(cup("B", u, v)) == comb(m + n, m) * 2**n

    def test_membership_characterization(self):
        u, v = B(-1), A(2, 1)
        prod = shuffle("B", u, v)
        for w in elements(CoxeterSystem("B", 3)):
            member = (abs_restrict(w.window, 1, 1) == u.window
                      and standardize(abs_restrict(hat_word(w.window), 2, 3)).window == v.window)
            assert (w in prod.terms) == member

    def test_agrees_with_coset_maps(self):
        system = CoxeterSystem("B", 3)
        I = frozenset([0, 2])  # block subset for sizes (1, 2)
        for u in elements(CoxeterSystem("B", 1)):
            for v in elements(CoxeterSystem("A", 2)):
                x = element_vector(cross_a(u, v))
                assert shuffle("B", u, v) == induce_right(system, I, x)
                assert cup("B", u, v) == induce_left(system, I, x)

    def test_factorization_components(self):
        # unique block factorization: every w determines its pieces by
        # restriction and standardization, on both sides
        m, n = 2, 1
        for w in elements(CoxeterSystem("B", 3)):
            u = B(*abs_restrict(w.window, 1, m))
            v = standardize(abs_restrict(hat_word(w.window), m + 1, m + n))
            assert w in shuffle("B", u, v).terms
            winv = w.inverse()
            u2 = standardize_signed(winv.window[:m])
            v2 = standardize(winv.window[m:])
            assert u2 == u.inverse() and v2 == v.inverse()

    @pytest.mark.parametrize("total", [2, 3, 4])
    def test_unique_factorization_exhaustive(self, total):
        # every element factors uniquely over ascending two-run inverses and
        # the four component formulas all hold
        system = CoxeterSystem("B", total)
        for m in range(total + 1):
            n = total - m
            seen = set()
            for w in elements(system):
                u = B(*abs_restrict(w.window, 1, m))
                v = standardize(abs_restrict(hat_word(w.window), m + 1, total))
                x = cross_a(u, v)
                z = x.inverse() * w
                zinv = z.inverse()
                assert all(zinv.window[i] < zinv.window[i + 1] for i in range(m - 1))
                assert all(0 < zinv.window[i] for i in range(m))
                assert all(zinv.window[i] < zinv.window[i + 1] for i in range(m, total - 1))
                winv = w.inverse()
                assert standardize_signed(winv.window[:m]) == u.inverse()
                assert standardize(winv.window[m:]) == v.inverse()
                seen.add((u, v, z))
            assert len(seen) == system.order()


class TestUniqueFactorizationD:
    @pytest.mark.parametrize("m,n", [(2, 0), (2, 1), (2, 2), (3, 1)])
    def test_unique_factorization_exhaustive(self, m, n):
        total = m + n
        system = CoxeterSystem("D", total)
        for w in elements(system):
            u = standardize_even_right(abs_restrict(w.window, 1, m))
            v = standardize(abs_restrict(hat_word(w.window), m + 1, total))
            x = system.element(cross_a(u, v).window)
            z = x.inverse() * w
            zinv = z.inverse()
            assert -zinv.window[1] < zinv.window[0]
            assert all(zinv.window[i] < zinv.window[i + 1] for i in range(m - 1))
            assert all(zinv.window[i] < zinv.window[i + 1] for i in range(m, total - 1))
            winv = w.inverse()
            assert standardize_even_left(winv.window[:m]) == u.inverse()
            assert standardize(winv.window[m:]) == v.inverse()


class TestTypeDProducts:
    def test_shuffle_example(self):
        got = wins(shuffle("D", D(-2, 3, -1), A(1)))
        assert got == sorted([(-2, 3, -1, 4), (-2, 3, 4, -1), (-2, 4, 3, -1), (4, -2, 3, -1),
                              (2, 3, -1, -4), (2, 3, -4, -1), (2, -4, 3, -1), (-4, 2, 3, -1)])

    def test_cup_example(self):
        got = wins(cup("D", D(-2, 3, -1), A(1)))
        assert got == sorted([(-2, 3, -1, 4), (-2, 4, -1, 3), (-3, 4, -1, 2), (-3, 4, -2, 1),
                              (-2, 3, 1, -4), (-2, 4, 1, -3), (-3, 4, 1, -2), (-3, 4, 2, -1)])

    def test_unshuffle_example(self):
        got = pairs(unshuffle("D", D(2, -4, -3, 1)))
        assert got == sorted([((-1, -2), (1, 2)), ((1, -3, -2), (1,)), ((2, -4, -3, 1), ())])

    def test_cap_example(self):
        got = pairs(cap("D", D(2, -4, -3, 1)))
        assert got == sorted([((2, 1), (1, 2)), ((-2, -3, 1), (1,)), ((2, -4, -3, 1), ())])

    def test_small_factor_rejected(self):
        with pytest.raises(ValueError):
            standardize_even_left((5,))

    @pytest.mark.parametrize("m,n", [(2, 0), (2, 1), (2, 2), (3, 1)])
    def test_cardinality(self, m, n):
        for u in elements(CoxeterSystem("D", m)):
            for v in elements(CoxeterSystem("A", n)):
                assert len(shuffle("D", u, v)) == comb(m + n, m) * 2**n


class TestSignShiftedProducts:
    def test_shuffle_example(self):
        got = wins(shuffle("BB", B(-2, 1), B(1, -2)))
        assert got == sorted([(-2, 1, 3, -4), (-2, 3, 1, -4), (3, -2, 1, -4),
                              (-2, 3, -4, 1), (3, -2, -4, 1), (3, -4, -2, 1)])

    def test_cup_example(self):
        got = wins(cup("BB", B(-2, 1), B(1, -2)))
        assert got == sorted([(-2, 1, 3, -4), (-3, 1, 2, -4), (-3, 2, 1, -4),
                              (-4, 1, 2, -3), (-4, 2, 1, -3), (-4, 3, 1, -2)])

    def test_unshuffle_example(self):
        got = pairs(unshuffle("BB", B(-2, 4, -3, 1)))
        assert got == sorted([((), (-2, 4, -3, 1)), ((-1,), (3, -2, 1)), ((-1, 2), (-2, 1)),
                              ((-1, 3, -2), (1,)), ((-2, 4, -3, 1), ())])

    def test_embedding(self):
        assert cross_bb(B(-2, 1), B(1, -2)).window == (-2, 1, 3, -4)

    def test_hopf_compatibility_small(self):
        # coproduct of a product equals component-wise product of coproducts
        for total in (2, 3):
            for m in range(total + 1):
                for u in elements(CoxeterSystem("B", m)):
                    for v in elements(CoxeterSystem("B", total - m)):
                        lhs = FormalVector(kind="pair")
                        for w, c in shuffle("BB", u, v).terms.items():
                            lhs = lhs + unshuffle("BB", w).scale(c)
                        rhs = FormalVector(kind="pair")
                        for (a1, a2), c1 in unshuffle("BB", u).terms.items():
                            for (b1, b2), c2 in unshuffle("BB", v).terms.items():
                                for x1, cx1 in shuffle("BB", a1, b1).terms.items():
                                    for x2, cx2 in shuffle("BB", a2, b2).terms.items():
                                        rhs = rhs + FormalVector.basis(
                                            (x1, x2), c1 * c2 * cx1 * cx2, kind="pair")
                        assert lhs == rhs

    def test_associativity_small(self):
        sizes = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
                 if 0 < a + b + c <= 3]
        for ma, mb, mc in sizes:
            for u in elements(CoxeterSystem("B", ma)):
                for v in elements(CoxeterSystem("B", mb)):
                    for r in elements(CoxeterSystem("B", mc)):
                        lhs = shuffle("BB", u, v).map_to_vectors(
                            lambda w: shuffle("BB", w, r), kind="element")
                        rhs = shuffle("BB", v, r).map_to_vectors(
                            lambda x: shuffle("BB", u, x), kind="element")
                        assert lhs == rhs

    def test_inversion_isomorphism(self):
        for m in range(3):
            for u in elements(CoxeterSystem("B", m)):
                for v in elements(CoxeterSystem("B", 3 - m)):
                    assert invert_vector(shuffle("BB", u, v)) == cup("BB", u.inverse(), v.inverse())


class TestModuleComoduleAxioms:
    def test_signed_action_associativity(self):
        for mu in (0, 1, 2):
            for mv in range(0, 3 - mu + 1):
                mr = 3 - mu - mv
                for u in elements(CoxeterSystem("B", mu)):
                    for v in elements(CoxeterSystem("A", mv)):
                        for r in elements(CoxeterSystem("A", mr)):
                            lhs = cup("B", u, v).map_to_vectors(
                                lambda w: cup("B", w, r), kind="element")
                            rhs = cup("A", v, r).map_to_vectors(
                                lambda x: cup("B", u, x), kind="element")
                            assert lhs == rhs

    def test_duality_of_shuffle_and_cap(self):
        for mu in (0, 1, 2):
            for mv in range(0, 3 - mu + 1):
                for u in elements(CoxeterSystem("B", mu)):
                    for v in elements(CoxeterSystem("A", mv)):
                        prod = shuffle("B", u, v)
                        for w in elements(CoxeterSystem("B", mu + mv)):
                            comp = graded_pieces(cap("B", w)).get(mu, FormalVector(kind="pair"))
                            assert prod.terms.get(w, 0) == comp.terms.get((u, v), 0)

    def test_inverse_map_intertwines(self):
        for mu in (0, 1, 2):
            for mv in range(0, 3 - mu + 1):
                for u in elements(CoxeterSystem("B", mu)):
                    for v in elements(CoxeterSystem("A", mv)):
                        assert invert_vector(cup("B", u, v)) == shuffle("B", u.inverse(), v.inverse())

    def test_non_bialgebra_witness(self):
        # the coproduct of this product does NOT factor component-wise
        b1 = CoxeterSystem("B", 1).element([1])
        a1 = CoxeterSystem("A", 1).element([1])
        lhs = FormalVector(kind="pair")
        for w, c in shuffle("B", b1, a1).terms.items():
            lhs = lhs + unshuffle("B", w).scale(c)
        rhs = FormalVector(kind="pair")
        for (x1, x2), c1 in unshuffle("B", b1).terms.items():
            for (y1, y2), c2 in unshuffle("A", a1).terms.items():
                for z1, cz1 in shuffle("B", x1, y1).terms.items():
                    for z2, cz2 in shuffle("A", x2, y2).terms.items():
                        rhs = rhs + FormalVector.basis((z1, z2), c1 * c2 * cz1 * cz2, kind="pair")
        assert lhs != rhs


def _flavor_key(name):
    """The flavor of the command-line name ``name``: its suffix."""
    return name.removeprefix("shuffle").removeprefix("cup")


def _operand_pairs(name, max_total=4):
    """Every (u, v) of the families of product ``name`` with total window at
    most ``max_total``: empty operands included, D's left operand of size >= 2."""
    f = FLAVORS[_flavor_key(name)]
    for total in range(max_total + 1):
        for m in range(2 if f.family == "D" else 0, total + 1):
            for u in elements(CoxeterSystem(f.family, m)):
                for v in elements(CoxeterSystem(f.right, total - m)):
                    yield f, u, v


class TestProductKernel:
    """The window-composing products against the element-level definition."""

    def test_sixteen_command_line_names(self):
        names = ["cupA", "cupB", "cupBB", "cupD", "shuffleA", "shuffleB", "shuffleBB", "shuffleD"]
        assert sorted(PRODUCTS) == names
        assert sorted(COPRODUCTS) == names

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_products_match_oracle(self, name):
        for f, u, v in _operand_pairs(name):
            x = f.embed(u, v)
            reps = two_run_reps(f.reps, x.system, u.system.n)
            if name.startswith("shuffle"):
                terms = [x * z.inverse() for z in reps]
            else:
                terms = [z * x for z in reps]
            got = PRODUCTS[name](_flavor_key(name), u, v)
            assert got == FormalVector.from_keys(terms, kind="element")
            assert len(got) == len(terms)
            assert set(got.terms.values()) <= {1}

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_products_match_coset_maps(self, name):
        # A, B, D: the block parabolic W_m x S_n is standard (generators
        # without m); BB sums over the S_m x S_n representatives inside the
        # type-A parabolic on generators 1..m+n-1
        for f, u, v in _operand_pairs(name):
            x = f.embed(u, v)
            system, m = x.system, u.system.n
            subset = frozenset(system.generators) - {m}
            side = "right" if name.startswith("shuffle") else "left"
            if f.embed is cross_bb:
                within = frozenset(range(1, system.n))
                reps = min_coset_reps(system, subset & within, side, within)
                terms = [x * z for z in reps] if side == "right" else [z * x for z in reps]
                expected = FormalVector.from_keys(terms, kind="element")
            else:
                induce = induce_right if side == "right" else induce_left
                expected = induce(system, subset, element_vector(x))
            assert PRODUCTS[name](_flavor_key(name), u, v) == expected

    def test_cross_a_refuses_a_right_operand_outside_a(self):
        with pytest.raises(ValueError):
            cross_a(B(1), B(-1))
        with pytest.raises(ValueError):
            cross_a(A(1), B(1))
        assert cross_a(D(-1, -2), A(1)).window == (-1, -2, 3)

    def test_cross_bb_refuses_operands_outside_b(self):
        with pytest.raises(ValueError):
            cross_bb(A(1), B(1))
        with pytest.raises(ValueError):
            cross_bb(B(1), A(1))
