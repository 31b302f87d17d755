import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit.freemodule import FormalVector
from coxkit.groupmaps import (
    descent_projection,
    descent_projection_inv,
    element_vector,
    induce_left,
    induce_right,
    invert_vector,
    restrict_left,
    restrict_right,
)
from coxkit.systems import (
    CoxeterSystem,
    all_subsets,
    descent_class,
    elements,
    min_coset_reps,
    parabolic_elements,
)

B2 = CoxeterSystem("B", 2)
B3 = CoxeterSystem("B", 3)
D3 = CoxeterSystem("D", 3)


def chains(system):
    for J in all_subsets(system):
        for I in all_subsets(system):
            if I <= J:
                yield I, J


def adjoint(system, induce, restrict):
    """Whether <induce(u), w> = <u, restrict(w)> for every generator subset
    I, every u in W_I and every w in W."""
    for I in all_subsets(system):
        induced = {(w, u): c for u in parabolic_elements(system, I)
                   for w, c in induce(system, I, element_vector(u)).terms.items()}
        restricted = {(w, u): c for w in elements(system)
                      for u, c in restrict(system, I, element_vector(w)).terms.items()}
        if induced != restricted:
            return False
    return True


class TestFormalVector:
    def test_zero_coefficients_dropped(self):
        v = FormalVector({1: 2}) - FormalVector({1: 2})
        assert not v and len(v) == 0

    def test_kind_guard(self):
        with pytest.raises(ValueError):
            FormalVector({1: 1}, kind="a").pairing(FormalVector({1: 1}, kind="b"))

    @given(coeffs=st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3)), max_size=8))
    @settings(max_examples=50)
    def test_linear_structure(self, coeffs):
        v = FormalVector(coeffs)
        assert v + FormalVector() == v
        assert v - v == FormalVector()
        assert v.scale(2) == v + v

    def test_pairing_orthonormal(self):
        u = FormalVector({("x",): 1})
        v = FormalVector({("y",): 1})
        assert u.pairing(u) == 1 and u.pairing(v) == 0


class TestFourMaps:
    def test_identity_subset(self):
        S = B2.generator_set
        for u in elements(B2):
            assert induce_left(B2, S, element_vector(u)) == element_vector(u)
            assert restrict_right(B2, S, element_vector(u)) == element_vector(u)

    def test_induce_identity_element(self):
        I = frozenset([1])
        out = induce_left(B2, I, element_vector(B2.identity()))
        assert out == FormalVector.from_keys(min_coset_reps(B2, I, "left"), kind="element")

    def test_induce_counts_cosets(self):
        s3 = CoxeterSystem("A", 3)
        I = frozenset([1])
        out = induce_left(s3, I, element_vector(s3.generator(1)))
        assert len(out) == 3

    def test_key_validation(self):
        with pytest.raises(ValueError):
            induce_left(B2, frozenset([1]), element_vector(B2.generator(0)))

    def test_restrict_examples(self):
        for w in elements(B3):
            out = restrict_left(B3, B3.generator_set, element_vector(w))
            assert out == element_vector(w)

    @pytest.mark.parametrize("system", (B3, D3))
    def test_chain_composition_laws(self, system):
        for I, J in chains(system):
            for u in parabolic_elements(system, I):
                xu = element_vector(u)
                step = induce_left(system, I, xu, within=J)
                assert induce_left(system, J, step) == induce_left(system, I, xu)
                step_bar = induce_right(system, I, xu, within=J)
                assert induce_right(system, J, step_bar) == induce_right(system, I, xu)
            for w in elements(system):
                xw = element_vector(w)
                assert restrict_right(system, I, restrict_right(system, J, xw)) \
                    == restrict_right(system, I, xw)
                assert restrict_left(system, I, restrict_left(system, J, xw)) \
                    == restrict_left(system, I, xw)

    def test_mixed_chain_variant_fails(self):
        # substituting the left-handed inner induction into the right-handed
        # chain law breaks it; the two inductions are genuinely different
        I, J = frozenset([0]), frozenset([0, 1])
        u = element_vector(B3.identity())
        mixed = induce_right(B3, J, induce_left(B3, I, u, within=J))
        assert mixed != induce_right(B3, I, u)

    def test_duality_exhaustive_b2(self):
        for I in all_subsets(B2):
            for u in parabolic_elements(B2, I):
                mu_u = induce_left(B2, I, element_vector(u))
                mub_u = induce_right(B2, I, element_vector(u))
                for w in elements(B2):
                    yw = element_vector(w)
                    assert mu_u.pairing(yw) == element_vector(u).pairing(
                        restrict_left(B2, I, yw))
                    assert restrict_right(B2, I, yw).pairing(element_vector(u)) \
                        == yw.pairing(mub_u)

    @pytest.mark.parametrize("system", (B3, CoxeterSystem("A", 4), CoxeterSystem("D", 4)),
                             ids=repr)
    def test_each_induction_pairs_with_the_restriction_on_its_side(self, system):
        assert adjoint(system, induce_left, restrict_left)
        assert adjoint(system, induce_right, restrict_right)
        # the crossed pairs fail, so the partner of each induction is pinned
        assert not adjoint(system, induce_left, restrict_right)
        assert not adjoint(system, induce_right, restrict_left)

    def test_inverse_involution(self):
        for w in elements(B3):
            v = element_vector(w) + element_vector(w.inverse()).scale(3)
            assert invert_vector(invert_vector(v)) == v
        assert invert_vector(element_vector(B3.identity())) == element_vector(B3.identity())

    @pytest.mark.parametrize("system", (B2,))
    def test_inverse_intertwines(self, system):
        for I in all_subsets(system):
            for u in parabolic_elements(system, I):
                xu = element_vector(u)
                assert invert_vector(induce_left(system, I, xu)) \
                    == induce_right(system, I, invert_vector(xu))
            for w in elements(system):
                xw = element_vector(w)
                assert invert_vector(restrict_right(system, I, xw)) \
                    == restrict_left(system, I, invert_vector(xw))


class TestBlockProjections:
    def test_restrictions_are_standardized_blocks(self):
        # for a block subset, both parabolic parts are computed by
        # standardizing the appropriate letter blocks
        from coxkit.words import abs_restrict, hat_word, standardize, standardize_signed

        system = CoxeterSystem("B", 3)
        for m in range(4):
            I = system.generator_set - {m}
            for w in elements(system):
                xw = element_vector(w)
                (left_part,) = restrict_left(system, I, xw).support()
                u = standardize_signed(w.window[:m])
                v = standardize(w.window[m:])
                assert left_part.window == u.window + tuple(
                    m + x for x in v.window)
                (right_part,) = restrict_right(system, I, xw).support()
                v2 = standardize(abs_restrict(hat_word(w.window), m + 1, 3))
                expected = abs_restrict(w.window, 1, m) + tuple(
                    m + x for x in v2.window)
                assert right_part.window == expected

    def test_a_parabolic_projection_is_hat_standardization(self):
        # the extreme block (no signed part) projects onto the plain
        # standardization of the hat word
        from coxkit.words import hat_word, standardize

        system = CoxeterSystem("B", 3)
        I = frozenset([1, 2])
        for w in elements(system):
            (right_part,) = restrict_right(system, I, element_vector(w)).support()
            assert right_part.window == standardize(hat_word(w.window)).window
            (left_part,) = restrict_left(system, I, element_vector(w)).support()
            assert left_part.window == standardize(w.window).window


class TestDescentProjection:
    def test_identity_goes_to_empty(self):
        out = descent_projection(B3, element_vector(B3.identity()))
        assert out == FormalVector({frozenset(): 1}, kind="sigma_star")

    def test_class_vector_collapses(self):
        for I in all_subsets(B3):
            cls = FormalVector.from_keys(descent_class(B3, I), kind="element")
            out = descent_projection(B3, cls)
            assert out == FormalVector({I: len(descent_class(B3, I))}, kind="sigma_star")

    def test_surjective(self):
        images = set()
        for w in elements(B2):
            images.update(descent_projection(B2, element_vector(w)).support())
        assert images == set(all_subsets(B2))

    def test_dual_to_inclusion(self):
        # <class sum of I, w> = <indicator of I, projection of w>
        for I in all_subsets(B2):
            cls = FormalVector.from_keys(descent_class(B2, I), kind="element")
            for w in elements(B2):
                lhs = cls.pairing(element_vector(w))
                rhs = FormalVector({I: 1}, kind="sigma_star").pairing(
                    descent_projection(B2, element_vector(w)))
                assert lhs == rhs

    def test_inverted_projection(self):
        for w in elements(B2):
            out = descent_projection_inv(B2, element_vector(w))
            assert out == FormalVector({w.inverse().descent_set(): 1}, kind="sigma_star")


class TestFullDiagramSquares:
    """Every square of the three-by-four map diagram, on every basis element."""

    @pytest.mark.parametrize("system", (B3,))
    def test_all_squares(self, system):
        from coxkit.descents import (
            embed_sigma,
            sigma_basis,
            sigma_induce,
            sigma_restrict,
            sigma_star_basis,
            sigma_star_induce,
            sigma_star_restrict,
        )

        for I in all_subsets(system):
            for J in (X for X in all_subsets(system) if X <= I):
                # inclusion then induction = induction then inclusion
                lhs = induce_left(system, I, embed_sigma(system, sigma_basis(J), within=I))
                rhs = embed_sigma(system, sigma_induce(system, I, sigma_basis(J)))
                assert lhs == rhs
            for u in parabolic_elements(system, I):
                xu = element_vector(u)
                # inversion square (induction row)
                assert invert_vector(induce_left(system, I, xu)) \
                    == induce_right(system, I, invert_vector(xu))
                # projection square (induction row)
                lhs = descent_projection(system, induce_right(system, I, xu))
                rhs = sigma_star_induce(system, I, sigma_star_basis(u.descent_set()))
                assert lhs == rhs
            for K in all_subsets(system):
                lhs = restrict_right(system, I, embed_sigma(system, sigma_basis(K)))
                rhs = embed_sigma(system, sigma_restrict(system, I, sigma_basis(K)), within=I)
                assert lhs == rhs
            for w in elements(system):
                xw = element_vector(w)
                assert invert_vector(restrict_right(system, I, xw)) \
                    == restrict_left(system, I, invert_vector(xw))
                lhs = descent_projection(system, restrict_left(system, I, xw))
                rhs = sigma_star_restrict(system, I, sigma_star_basis(w.descent_set()))
                assert lhs == rhs
