import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import cli, hecke

from coxkit.descents import (
    class_rep_bounds,
    sigma_basis,
    sigma_restrict,
    sigma_star_basis,
    sigma_star_induce,
)
from coxkit.freemodule import FormalVector
from coxkit.hecke import (
    HModule,
    NonProjectiveError,
    characteristic_polynomial,
    composition_factors,
    hom_to_simple_dim,
    induce,
    mixed_projective_module,
    projective_module,
    projective_multiplicities,
    regular_module,
    restrict,
    simple_module,
    sorting_operator,
)
from coxkit.linalg import matrix_rank, solve
from coxkit.series import projection, s_basis
from coxkit.systems import (
    CoxeterSystem,
    Element,
    all_subsets,
    composition_from_descents,
    descent_class,
    elements,
    longest_element,
    min_coset_reps,
    parabolic_decompose_right,
    parabolic_elements,
)

from oracles import (
    ORACLE_SYSTEMS,
    act_word,
    alternating_product,
    dense_matrix,
    descent_interval_module_by_products,
    expected_mixed_projective_dim,
    extracted_composition_factors,
    hom_dim,
    idempotent_matrix,
    identity_matrix,
    induce_by_decomposition,
    mat_mul,
    mat_scale,
    module_from_matrices,
    projective_seed,
    stated_projective_basis,
    submodule_coordinates,
    zero_matrix,
)

A3 = CoxeterSystem("A", 3)
A4 = CoxeterSystem("A", 4)
B2 = CoxeterSystem("B", 2)
B3 = CoxeterSystem("B", 3)
D3 = CoxeterSystem("D", 3)
D4 = CoxeterSystem("D", 4)


class TestRegularModule:
    @pytest.mark.parametrize("system", (A3, B2, B3, D3))
    def test_relations(self, system):
        reg = regular_module(system)
        assert reg.dim == system.order()
        reg.validate()

    def test_braid_matrices_a2(self):
        reg = regular_module(A3)
        assert alternating_product(dense_matrix(reg, 1), dense_matrix(reg, 2), 3) \
            == alternating_product(dense_matrix(reg, 2), dense_matrix(reg, 1), 3)

    def test_idempotent_generators(self):
        reg = regular_module(B2)
        for s in B2.generators:
            X = idempotent_matrix(reg, s)
            assert mat_mul(X, X) == X

    def test_d4_relations(self):
        reg = regular_module(D4)
        assert reg.dim == 192
        reg.validate()

    def test_regular_factors_small(self):
        cf = composition_factors(regular_module(A3))
        assert cf.coefficient_sum() == 6
        assert all(cf[I] >= 1 for I in all_subsets(A3))

    def test_parabolic_carrier(self):
        reg = regular_module(B3, frozenset([1, 2]))
        assert reg.dim == 6
        reg.validate()


class TestSimpleModules:
    def test_action_values(self):
        C = simple_module(B2, frozenset([0]))
        assert dense_matrix(C, 0) == [[-1]] and dense_matrix(C, 1) == [[0]]

    def test_restriction_of_simples(self):
        I = frozenset([1, 2])
        for K in all_subsets(B3):
            res = restrict(simple_module(B3, K), I)
            expected = simple_module(B3, K & I, acting=I)
            assert res.mats == expected.mats

    def test_factors_of_simple(self):
        for I in all_subsets(B2):
            assert composition_factors(simple_module(B2, I)) \
                == FormalVector({I: 1}, kind="g0")


class TestProjectiveModules:
    @pytest.mark.parametrize("system", (A3, B2, B3, D3))
    def test_projective_decomposition_of_regular(self, system):
        total = 0
        for I in all_subsets(system):
            P = projective_module(system, I)
            assert P.dim == len(descent_class(system, I))
            P.validate()
            total += P.dim
        assert total == system.order()

    def test_stated_basis_spans(self):
        for I in all_subsets(B2):
            vecs = stated_projective_basis(B2, I)
            assert matrix_rank(vecs) == len(vecs) == projective_module(B2, I).dim

    def test_mixed_projective_dims(self):
        J = frozenset([0, 1])
        for I in all_subsets(B2):
            if not I <= J:
                continue
            P = mixed_projective_module(B2, I, J)
            assert P.dim == expected_mixed_projective_dim(B2, I, J)
        # with the full set the mixed module is the plain projective
        S = B2.generator_set
        for I in all_subsets(B2):
            assert mixed_projective_module(B2, I, S).dim \
                == projective_module(B2, I).dim

    def test_top_is_the_labelled_simple(self):
        for I in all_subsets(B2):
            P = projective_module(B2, I)
            for J in all_subsets(B2):
                assert hom_to_simple_dim(P, J) == (1 if I == J else 0)

    def test_projective_multiplicity_of_regular(self):
        pm = projective_multiplicities(regular_module(B2))
        assert pm == FormalVector({I: 1 for I in all_subsets(B2)}, kind="k0")

    def test_projective_multiplicity_of_regular_d5(self):
        D5 = CoxeterSystem("D", 5)
        pm = projective_multiplicities(regular_module(D5))
        assert pm == FormalVector({I: 1 for I in all_subsets(D5)}, kind="k0")

    def test_non_projective_detection(self):
        with pytest.raises(NonProjectiveError):
            projective_multiplicities(simple_module(B2, frozenset([0])))


def _sympy_submodule(ambient, seed):
    """Oracle for submodule_coordinates: the span closure and the matrices
    on its reduced echelon basis, computed with sympy."""
    import sympy

    X = {s: sympy.Matrix(dense_matrix(ambient, s)) for s in ambient.mats}
    span = sympy.Matrix([seed])
    while True:
        rows = [span.row(i) for i in range(span.rows)]
        rows += [(X[s] * r.T).T for r in rows for s in ambient.acting]
        grown, pivots = sympy.Matrix.vstack(*rows).rref()
        grown = grown[:len(pivots), :]
        if grown.rows == span.rows:
            break
        span = grown
    # On a reduced echelon basis the coordinates of v are its pivot entries.
    mats = {s: [[(X[s] * span.row(j).T)[p] for j in range(span.rows)] for p in pivots]
            for s in ambient.acting}
    return span.rows, mats


class TestSubmoduleCoordinates:
    # Dimensions and composition factors of the projectives P_J as computed
    # before the closure was rebuilt on linalg.RowSpace.
    EXPECTED = {
        "B2": {(): (1, {(): 1}), (0,): (3, {(0,): 2, (1,): 1}),
               (1,): (3, {(0,): 1, (1,): 2}), (0, 1): (1, {(0, 1): 1})},
        "B3": {(): (1, {(): 1}),
               (0,): (7, {(0,): 3, (0, 2): 1, (1,): 2, (2,): 1}),
               (1,): (11, {(0,): 2, (0, 2): 2, (1,): 4, (1, 2): 1, (2,): 2}),
               (2,): (5, {(0,): 1, (1,): 2, (2,): 2}),
               (0, 1): (5, {(0, 1): 2, (0, 2): 2, (1, 2): 1}),
               (0, 2): (11, {(0,): 1, (0, 1): 2, (0, 2): 4, (1,): 2, (1, 2): 2}),
               (1, 2): (7, {(0, 1): 1, (0, 2): 2, (1,): 1, (1, 2): 3}),
               (0, 1, 2): (1, {(0, 1, 2): 1})},
    }

    @pytest.mark.parametrize("name,system", [("B2", B2), ("B3", B3)])
    def test_projectives_are_unchanged(self, name, system):
        for J, (dim, factors) in self.EXPECTED[name].items():
            P = projective_module(system, frozenset(J))
            assert P.dim == dim
            assert composition_factors(P) == FormalVector(
                {frozenset(k): c for k, c in factors.items()}, kind="g0")

    @pytest.mark.parametrize("system", [B2, B3])
    def test_matches_a_sympy_closure(self, system):
        reg = regular_module(system)
        for J in all_subsets(system):
            seed = stated_projective_basis(system, J)[0]
            dim, mats = _sympy_submodule(reg, seed)
            M = submodule_coordinates(reg, [seed])
            assert M.dim == dim
            dense = {s: dense_matrix(M, s) for s in M.mats}
            assert dense == mats
            assert all(type(x) is int for m in dense.values() for row in m for x in row)


class TestInduction:
    def test_identity_induction(self):
        M = simple_module(B2, frozenset([0]), acting=B2.generator_set)
        ind = induce(M)
        assert ind.dim == 1
        assert composition_factors(ind) == FormalVector({frozenset([0]): 1}, kind="g0")

    def test_dimension(self):
        I = frozenset([1])
        M = simple_module(B2, frozenset(), acting=I)
        assert induce(M).dim == len(min_coset_reps(B2, I, "left"))

    @pytest.mark.parametrize("system,I", [
        (B3, frozenset([1, 2])),
        (B3, frozenset([0, 1])),
        (D3, frozenset([1, 2])),
    ])
    def test_induced_simple_factors(self, system, I):
        reps = min_coset_reps(system, I, "right")
        for J in (X for X in all_subsets(system) if X <= I):
            ind = induce(simple_module(system, J, acting=I))
            ind.validate()
            u = longest_element(system, J)
            expected = FormalVector((((u * z).descent_set(), 1) for z in reps), kind="g0")
            assert composition_factors(ind) == expected

    def test_induced_filtration_triangular(self):
        # ordering the induced basis by representative length makes every
        # generator matrix lower triangular with diagonal entries 0 or -1,
        # and the diagonal patterns read off the factor labels
        system, I = B3, frozenset([1, 2])
        reps = min_coset_reps(system, I, "left")
        assert all(reps[i].length() <= reps[i + 1].length() for i in range(len(reps) - 1))
        for J in (X for X in all_subsets(system) if X <= I):
            ind = induce(simple_module(system, J, acting=I))
            u = longest_element(system, J)
            dense = {s: dense_matrix(ind, s) for s in system.generators}
            for s in system.generators:
                X = dense[s]
                for i in range(ind.dim):
                    for j in range(i + 1, ind.dim):
                        assert X[i][j] == 0
            for k, z in enumerate(reps):
                pattern = frozenset(
                    s for s in system.generators if dense[s][k][k] == -1)
                # the diagonal pattern at block z is the descent set of u z^{-1}
                assert pattern == (u * z.inverse()).descent_set()

    def test_each_representative_is_inverted_once(self, monkeypatch):
        # the conjugated generator is read off z^{-1}(alpha_s): one inverse
        # per coset representative, however many generators read it
        calls = []
        inverse = Element.inverse
        monkeypatch.setattr(Element, "inverse", lambda w: calls.append(w) or inverse(w))
        for I in (frozenset([1, 2]), frozenset([0, 2]), frozenset()):
            calls.clear()
            ind = induce(simple_module(B3, frozenset(), acting=I))
            assert sorted(calls) == sorted(min_coset_reps(B3, I, "left"))
            assert ind.dim == len(calls)

    def test_projective_induction_pattern(self):
        # inducing a parabolic projective spreads over the complement subsets
        system = B3
        S = system.generator_set
        for J in (frozenset([1, 2]), frozenset([0, 2])):
            for I in (X for X in all_subsets(system) if X <= J):
                ind = induce(projective_module(system, I, carrier=J))
                mixed = mixed_projective_module(system, I, J)
                assert ind.dim == mixed.dim == expected_mixed_projective_dim(system, I, J)
                expected = FormalVector({I | K: 1 for K in all_subsets(system) if K <= S - J},
                                        kind="k0")
                assert projective_multiplicities(ind) == expected
                assert projective_multiplicities(mixed) == expected


class TestGrothendieckCommutativityD4:
    """Factor/multiplicity maps commute with the subset-level formulas on the
    larger even-signed group along a maximal parabolic."""

    I = frozenset([0, 1, 2])

    def test_induced_simple_factors(self):
        system, I = D4, self.I
        for J in (X for X in all_subsets(system) if X <= I):
            ind = induce(simple_module(system, J, acting=I))
            assert composition_factors(ind) == sigma_star_induce(system, I, sigma_star_basis(J))

    def test_restricted_simples(self):
        system, I = D4, self.I
        for K in all_subsets(system):
            res = restrict(simple_module(system, K), I)
            assert res.mats == simple_module(system, K & I, acting=I).mats

    def test_induced_projectives_small_classes(self):
        # multiplicity pattern on the labels whose parabolic classes stay small
        system, I = D4, self.I
        S = system.generator_set
        for J in (frozenset(), frozenset([0]), I):
            if len(descent_class(system, J, within=I)) > 5:
                continue
            ind = induce(projective_module(system, J, carrier=I))
            expected = FormalVector({J | K: 1 for K in all_subsets(system) if K <= S - I},
                                    kind="k0")
            assert projective_multiplicities(ind) == expected


class TestRestriction:
    def test_restrict_to_full_is_identity(self):
        P = projective_module(B2, frozenset([0]))
        assert restrict(P, B2.generator_set).mats == P.mats

    def test_restricted_projective_pattern(self):
        system, I = B3, frozenset([1, 2])
        for K in all_subsets(system):
            res = restrict(projective_module(system, K), I)
            assert projective_multiplicities(res) == sigma_restrict(system, I, sigma_basis(K))

    def test_restriction_block_isomorphism(self):
        # the block of the restricted projective at a fixed representative is
        # isomorphic to a mixed projective of the parabolic, via the
        # coefficient-preserving basis correspondence
        system, I = B3, frozenset([1, 2])
        reg = regular_module(system)
        e = [0] * reg.dim
        e[reg.labels.index(system.identity())] = 1
        for K in all_subsets(system):
            tail_k = act_word(
                reg, longest_element(system, system.generator_set - K).reduced_word(), e,
                bar=False)
            blocks: dict = {}
            for w in descent_class(system, K):
                part, coset = parabolic_decompose_right(w, I)
                blocks.setdefault(coset, []).append((w, part))
            for z, members in blocks.items():
                low, high = class_rep_bounds(z, I, K)
                tail_z = act_word(
                    reg, longest_element(system, I - high).reduced_word(), e, bar=False)
                source = [act_word(reg, w.reduced_word(), tail_k, bar=True)
                          for w, _ in members]
                target = [act_word(reg, part.reduced_word(), tail_z, bar=True)
                          for _, part in members]
                for s in I:
                    X = dense_matrix(reg, s)
                    for idx, (w, part) in enumerate(members):
                        img_src = [sum(X[i][j] * source[idx][j]
                                       for j in range(reg.dim) if source[idx][j])
                                   for i in range(reg.dim)]
                        img_tgt = [sum(X[i][j] * target[idx][j]
                                       for j in range(reg.dim) if target[idx][j])
                                   for i in range(reg.dim)]
                        coeff_src = solve([[v[i] for v in source] for i in range(reg.dim)],
                                          img_src)
                        coeff_tgt = solve([[v[i] for v in target] for i in range(reg.dim)],
                                          img_tgt)
                        assert coeff_src is not None and coeff_tgt is not None
                        assert coeff_src == coeff_tgt


RANKS_0_TO_2 = [("A", 0), ("A", 1), ("B", 0), ("B", 1), ("B", 2)]


class TestEmptyActingSet:
    """A module whose acting set is empty has no matrices; its dimension
    must still be the stored one."""

    @pytest.mark.parametrize("family,rank", RANKS_0_TO_2)
    def test_induce_trivial_simple_is_regular_sized(self, family, rank):
        system = CoxeterSystem.of_rank(family, rank)
        reg = regular_module(system)
        ind = induce(simple_module(system, frozenset(), acting=frozenset()))
        assert ind.dim == system.order()
        assert ind.mats == reg.mats
        assert tuple(z for z, _ in ind.labels) == reg.labels
        assert composition_factors(ind) == composition_factors(reg)
        assert projective_multiplicities(ind) == projective_multiplicities(reg)

    @pytest.mark.parametrize("family,rank", RANKS_0_TO_2 + [("D", 2)])
    def test_induce_from_the_full_generator_set_keeps_the_module(self, family, rank):
        # the only minimal coset representative of the whole group is the
        # identity, so each generator acts through the inner module's own X_s
        system = CoxeterSystem.of_rank(family, rank)
        for J in all_subsets(system):
            P = projective_module(system, J)
            ind = induce(P)
            assert ind.mats == P.mats and ind.dim == P.dim, sorted(J)

    @pytest.mark.parametrize("family", ("A", "B"))
    def test_rank_zero_regular_module(self, family):
        reg = regular_module(CoxeterSystem.of_rank(family, 0))
        assert reg.dim == 1 and reg.mats == {}
        assert composition_factors(reg) == FormalVector({frozenset(): 1}, kind="g0")
        assert hom_dim(reg, reg) == 1

    def test_restrict_to_no_generators_keeps_dimension(self):
        P = projective_module(B2, frozenset([0]))
        res = restrict(P, frozenset())
        assert res.dim == P.dim
        assert composition_factors(res) == FormalVector({frozenset(): P.dim}, kind="g0")

    @pytest.mark.parametrize("family,rank", RANKS_0_TO_2 + [("A", 2), ("A", 3)])
    def test_verify_suite_passes(self, family, rank):
        from coxkit.verify import run_suite

        checks = run_suite("hecke", family, CoxeterSystem.of_rank(family, rank).n)
        assert len(checks) == 8
        assert [c for c in checks if not c.passed] == []


ORACLE_MODULE_SYSTEMS = (
    [CoxeterSystem("A", n) for n in range(1, 5)]
    + [CoxeterSystem("B", n) for n in range(4)]
    + [CoxeterSystem("D", n) for n in range(2, 4)]
)


def _modules_up_to_48(system):
    """The regular and parabolic-regular modules, every P_J, the mixed
    projectives, the simples of every parabolic, the simples and projectives
    induced from every parabolic, and the projectives restricted to every
    parabolic; on the oracle systems all have dimension <= 48."""
    subsets = all_subsets(system)
    S = system.generator_set
    for I in subsets:
        yield f"regular on {sorted(I)}", regular_module(system, I)
        for J in (X for X in subsets if X <= I):
            yield f"P{sorted(J)} on {sorted(I)}", projective_module(system, J, carrier=I)
            yield f"mixed P{sorted(J)} within {sorted(I)}", \
                mixed_projective_module(system, J, I)
            yield f"C{sorted(J)} on {sorted(I)}", simple_module(system, J, acting=I)
            yield f"induced C{sorted(J)} from {sorted(I)}", \
                induce(simple_module(system, J, acting=I))
            yield f"induced P{sorted(J)} from {sorted(I)}", \
                induce(projective_module(system, J, carrier=I))
    for K in subsets:
        P = projective_module(system, K)
        for I in subsets:
            if I != S:
                yield f"P{sorted(K)} restricted to {sorted(I)}", restrict(P, I)


class TestInduceOracle:
    """Induction on Norton's basis of the coset representatives against the
    case-by-case reading of each sz by its parabolic factorization."""

    @pytest.mark.parametrize("system", ORACLE_MODULE_SYSTEMS, ids=repr)
    def test_matches_decomposition(self, system):
        subsets = all_subsets(system)
        for I in subsets:
            inner = [(f"regular on {sorted(I)}", regular_module(system, I))]
            for J in (X for X in subsets if X <= I):
                inner += [(f"C{sorted(J)} on {sorted(I)}", simple_module(system, J, acting=I)),
                          (f"P{sorted(J)} on {sorted(I)}",
                           projective_module(system, J, carrier=I))]
            for name, M in inner:
                got, want = induce(M), induce_by_decomposition(M)
                assert (got.mats, got.dim, got.labels) == (want.mats, want.dim, want.labels), name


class TestNortonBuilderOracle:
    """Norton's basis built on windows against the Element-product build:
    the same labels, and the same columns in the same order."""

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_matches_the_product_build(self, system):
        S = system.generator_set
        for C in all_subsets(system):
            built = [(regular_module(system, C), (frozenset(), C, C))]
            for J in (X for X in all_subsets(system) if X <= C):
                built += [(projective_module(system, J, carrier=C), (J, J, C)),
                          (mixed_projective_module(system, J, C), (J, (S - C) | J, S))]
            for M, key in built:
                want = descent_interval_module_by_products(system, *key)
                assert (M.labels, M.dim, M.acting) == (want.labels, want.dim, want.acting), key
                assert repr(M.mats) == repr(want.mats), key


class TestStorageForm:
    """Each X_s is a sparse column map: no zero is stored, and on Norton's
    basis (and the simples and inductions built from it) every column
    holds at most one entry, -b_j or a rise b_i, so every such module is
    monomial and takes the counting path."""

    @pytest.mark.parametrize("system", ORACLE_MODULE_SYSTEMS, ids=repr)
    def test_columns_are_sparse_and_single(self, system):
        for name, M in _modules_up_to_48(system):
            assert set(M.mats) == M.acting, name
            for s, X in M.mats.items():
                for j, col in X.items():
                    assert 0 <= j < M.dim and all(0 <= i < M.dim for i in col), (name, s)
                    assert all(col.values()), (name, s, j)
                    assert len(col) <= 1, (name, s, j)
            # the view a builder or restrict hands over is the scan's
            shape = hecke._monomial_shape(M)
            assert shape is not None, name
            assert shape.images == hecke.Monomial.scan(M.mats, M.dim).images, name

    def test_missing_columns_render_as_zero(self):
        C = simple_module(B2, frozenset())
        assert C.mats == {0: {}, 1: {}}
        assert dense_matrix(C, 0) == dense_matrix(C, 1) == zero_matrix(1)

    def test_d5_regular_module_is_small(self):
        # the dense form of the 1920-dimensional module held 5 * 1920^2
        # list slots; the column maps hold one small dict per column
        import tracemalloc

        tracemalloc.start()
        try:
            reg = regular_module(CoxeterSystem("D", 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reg.dim == 1920
        assert peak < 32 * 2**20


class TestValidateFailures:
    def test_broken_quadratic_relation(self):
        # X = 1 squares to itself, not to its negative
        X = identity_matrix(1)
        assert mat_mul(X, X) != mat_scale(X, -1)
        M = module_from_matrices(A3, frozenset([1]), {1: X}, 1)
        with pytest.raises(AssertionError, match="quadratic relation fails for generator 1"):
            M.validate()

    def test_broken_braid_relation(self):
        # X_1 and X_3 square to their negatives but do not commute, while
        # s_1 and s_3 do (m = 2)
        X1, X3 = [[-1, 1], [0, 0]], [[0, 0], [0, -1]]
        assert A4.coxeter_order(1, 3) == 2
        for X in (X1, X3):
            assert mat_mul(X, X) == mat_scale(X, -1)
        assert alternating_product(X1, X3, 2) != alternating_product(X3, X1, 2)
        M = module_from_matrices(A4, frozenset([1, 3]), {1: X1, 3: X3}, 2)
        with pytest.raises(AssertionError, match=r"braid relation fails for \(1, 3\)"):
            M.validate()

    def test_broken_braid_relation_off_the_integer_path(self):
        # X_1 has a coefficient 2, so the module is checked through _apply:
        # X_1 and X_3 square to their negatives but do not commute
        X1, X3 = [[-1, 2], [0, 0]], [[0, 0], [0, -1]]
        for X in (X1, X3):
            assert mat_mul(X, X) == mat_scale(X, -1)
        assert alternating_product(X1, X3, 2) != alternating_product(X3, X1, 2)
        M = module_from_matrices(A4, frozenset([1, 3]), {1: X1, 3: X3}, 2)
        assert hecke._monomial_shape(M) is None
        with pytest.raises(AssertionError, match=r"braid relation fails for \(1, 3\)"):
            M.validate()


class TestDescentClassBasis:
    """Norton's descent-class basis against the echelon closure of the
    seeded cyclic module inside the regular module: the matrices agree
    entry for entry, not just up to isomorphism."""

    @staticmethod
    def assert_matches_closure(module, reg, subset, idem):
        closure = submodule_coordinates(reg, [projective_seed(reg, subset, idem)])
        assert module.dim == closure.dim
        assert module.mats == closure.mats

    @pytest.mark.parametrize("system", ORACLE_MODULE_SYSTEMS, ids=repr)
    def test_projectives_on_every_carrier(self, system):
        for C in all_subsets(system):
            reg = regular_module(system, C)
            for J in (X for X in all_subsets(system) if X <= C):
                P = projective_module(system, J, carrier=C)
                assert P.labels == descent_class(system, J, within=C), (C, J)
                self.assert_matches_closure(P, reg, J, C - J)

    def test_projectives_d4(self):
        reg = regular_module(D4)
        for J in all_subsets(D4):
            P = projective_module(D4, J)
            assert P.labels == descent_class(D4, J)
            self.assert_matches_closure(P, reg, J, D4.generator_set - J)

    @pytest.mark.parametrize("system", ORACLE_MODULE_SYSTEMS, ids=repr)
    def test_mixed_projectives(self, system):
        reg = regular_module(system)
        S = system.generator_set
        for within in all_subsets(system):
            for I in (X for X in all_subsets(system) if X <= within):
                P = mixed_projective_module(system, I, within)
                high = (S - within) | I
                assert P.labels == tuple(
                    w for w in elements(system) if I <= w.descent_set() <= high)
                self.assert_matches_closure(P, reg, I, within - I)

    @pytest.mark.parametrize("system", (B2, B3, D3), ids=repr)
    def test_intertwines_with_the_stated_basis(self, system):
        # b_w -> X_w pi_{w0(within - I)} e maps the module into the regular one
        reg = regular_module(system)
        for within in all_subsets(system):
            for I in (X for X in all_subsets(system) if X <= within):
                P = mixed_projective_module(system, I, within)
                vecs = stated_projective_basis(system, I, within)
                for s in system.generators:
                    X = dense_matrix(P, s)
                    for j, v in enumerate(vecs):
                        image = act_word(reg, (s,), v)
                        expected = [sum(X[i][j] * u[k] for i, u in enumerate(vecs))
                                    for k in range(reg.dim)]
                        assert image == expected, (within, I, s, j)


class TestCompositionFactors:
    """The fixed-space ranks and their Moebius inversion against the
    iterated extraction of one-dimensional submodules."""

    @pytest.mark.parametrize("system", ORACLE_MODULE_SYSTEMS, ids=repr)
    def test_matches_the_extraction(self, system):
        for name, M in _modules_up_to_48(system):
            assert composition_factors(M) == extracted_composition_factors(M), name

    @pytest.mark.parametrize("family,n", [("A", 5), ("B", 4), ("D", 4), ("D", 5)])
    def test_regular_module_counts_descent_classes(self, family, n):
        system = CoxeterSystem(family, n)
        expected = FormalVector(
            {J: len(descent_class(system, J)) for J in all_subsets(system)}, kind="g0")
        assert composition_factors(regular_module(system)) == expected

    @pytest.mark.parametrize("acting", [frozenset(), frozenset([1]), B2.generator_set])
    def test_dimension_zero(self, acting):
        M = module_from_matrices(B2, acting, {s: [] for s in acting}, 0)
        assert composition_factors(M) == extracted_composition_factors(M) \
            == FormalVector(kind="g0")


MONOMIAL_SYSTEMS = [CoxeterSystem.of_rank(family, rank)
                    for family in "ABD" for rank in range(5) if family != "D" or rank >= 2]


def _subsets_of(generators):
    return st.frozensets(st.sampled_from(sorted(generators))) if generators \
        else st.just(frozenset())


@st.composite
def _monomial_modules(draw):
    """A regular, projective, mixed projective or simple module of a
    parabolic on ranks 0-4 of every family, then up to four restrictions
    and inductions; an induction that would pass dimension 200 is skipped."""
    system = draw(st.sampled_from(MONOMIAL_SYSTEMS))
    carrier = draw(_subsets_of(system.generators))
    label = draw(_subsets_of(carrier))
    kind = draw(st.sampled_from(("regular", "P", "mixed", "C")))
    M = {"regular": lambda: regular_module(system, carrier),
         "P": lambda: projective_module(system, label, carrier),
         "mixed": lambda: mixed_projective_module(system, label, carrier),
         "C": lambda: simple_module(system, label, acting=carrier)}[kind]()
    for op in draw(st.lists(st.sampled_from(("induce", "restrict")), max_size=4)):
        if op == "restrict":
            M = restrict(M, draw(_subsets_of(M.acting)))
        elif M.dim * system.order() <= 200 * len(parabolic_elements(system, M.acting)):
            M = induce(M)
    return M


def _counts(M):
    """composition_factors and every hom_to_simple_dim of M."""
    patterns = [J for J in all_subsets(M.system) if J <= M.acting]
    return composition_factors(M), [hom_to_simple_dim(M, J) for J in patterns]


def _counts_by_elimination(M):
    """The same counts through the retained elimination, on the same columns."""
    with mock.patch.object(hecke, "_monomial_shape", lambda module: None):
        return _counts(M)


class _Eliminated(Exception):
    pass


def _refuse_elimination(rows):
    raise _Eliminated


class TestMonomialCounting:
    """On a monomial module (each column {j: -1} or {i: 1} with i != j) the
    factors come from counting the rows hit and each Hom dimension from the
    components of a parity search; both against the rank path."""

    @settings(max_examples=120, deadline=None)
    @given(_monomial_modules())
    def test_counts_match_the_rank_path(self, M):
        assert hecke._monomial_shape(M) is not None
        assert _counts(M) == _counts_by_elimination(M)

    @pytest.mark.parametrize("system", [CoxeterSystem.of_rank(f, r) for f in "AB" for r in (0, 1)],
                             ids=repr)
    def test_rank_zero_and_one(self, system):
        for M in (regular_module(system), induce(simple_module(system, frozenset(), frozenset())),
                  *(projective_module(system, J) for J in all_subsets(system))):
            assert _counts(M) == _counts_by_elimination(M)

    def test_empty_acting_set(self):
        for M in (simple_module(B2, frozenset(), acting=frozenset()),
                  restrict(regular_module(B2), frozenset())):
            assert _counts(M) == _counts_by_elimination(M) \
                == (FormalVector({frozenset(): M.dim}, kind="g0"), [M.dim])

    @pytest.mark.parametrize("acting", [frozenset(), frozenset([1]), B2.generator_set])
    def test_dimension_zero(self, acting):
        M = HModule(B2, acting, {s: {} for s in acting}, 0)
        assert _counts(M) == _counts_by_elimination(M) \
            == (FormalVector(kind="g0"), [0] * 2 ** len(acting))

    def test_forced_zero_beside_a_free_component(self):
        # two copies of the regular module of <s1> on the basis pairs {0, 1}
        # and {2, 3}; X_2 acts by -1 on the first and by 0 on the second
        A2 = CoxeterSystem("A", 3)
        M = HModule(A2, A2.generator_set, {
            1: {0: {1: 1}, 1: {1: -1}, 2: {3: 1}, 3: {3: -1}},
            2: {0: {0: -1}, 1: {1: -1}},
        }, 4)
        M.validate()
        # pattern {1, 2}: the rise 0 -> 1 joins a free component, and the
        # missing columns 2, 3 of X_2 force the component of 2 -> 3 to zero;
        # pattern {1}: X_2 hits rows 0 and 1, and {2, 3} is free
        for J in (frozenset({1, 2}), frozenset({1})):
            assert hom_to_simple_dim(M, J) == 1
        assert _counts(M) == _counts_by_elimination(M)

    @pytest.mark.parametrize("length,dim", [(3, 0), (4, 1), (5, 0)])
    def test_cycle_of_rises(self, length, dim):
        # X_s b_j = b_{j+1 mod length}: each equation is f(j+1) = -f(j) on
        # the pattern {s}, so an odd cycle forces f = 0 and an even one does not
        A1 = CoxeterSystem("A", 2)
        M = HModule(A1, A1.generator_set, {1: {j: {(j + 1) % length: 1}
                                                for j in range(length)}}, length)
        assert hom_to_simple_dim(M, A1.generator_set) == dim
        assert _counts(M) == _counts_by_elimination(M)

    def test_counting_runs_no_elimination(self, monkeypatch):
        I, K, J = frozenset({1, 2}), frozenset({0, 2}), frozenset({2})
        regular = FormalVector({X: len(descent_class(B3, X)) for X in all_subsets(B3)},
                               kind="g0")
        monkeypatch.setattr(hecke, "matrix_rank", _refuse_elimination)
        assert composition_factors(regular_module(B3)) == regular
        assert projective_multiplicities(restrict(projective_module(B3, K), I)) \
            == sigma_restrict(B3, I, sigma_basis(K))
        assert composition_factors(induce(simple_module(B3, J, acting=I))) \
            == sigma_star_induce(B3, I, sigma_star_basis(J))
        # the conjugated module of test_factors_invariant_under_basis_change
        # is not monomial, so it still reaches the elimination
        P = projective_module(B2, frozenset([0]))
        n = P.dim
        U = [[1 if i == j else (1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
        Uinv = solve_matrix_inverse(U)
        conj = {s: mat_mul(mat_mul(U, dense_matrix(P, s)), Uinv) for s in P.mats}
        M = module_from_matrices(P.system, P.acting, conj, P.dim)
        with pytest.raises(_Eliminated):
            composition_factors(M)
        with pytest.raises(_Eliminated):
            hom_to_simple_dim(M, frozenset([0]))


def _verdict(M):
    """The message validate raises on M, or None when it passes."""
    try:
        M.validate()
    except AssertionError as exc:
        return str(exc)
    return None


@st.composite
def _signed_unit_modules(draw):
    """A module whose every column is a signed unit vector or absent: a
    built monomial module with up to three columns redrawn (a sign flipped,
    a column sent to another row or dropped), or one drawn at random on
    dimension at most 6."""
    if draw(st.booleans()):
        M = draw(_monomial_modules())
        system, acting, dim = M.system, M.acting, M.dim
        images = {s: list(img) for s, img in hecke._monomial_shape(M).images.items()}
        if dim and images:
            for _ in range(draw(st.integers(0, 3))):
                s = draw(st.sampled_from(sorted(images)))
                images[s][draw(st.integers(0, dim - 1))] = draw(st.integers(-dim, dim))
    else:
        system = draw(st.sampled_from(MONOMIAL_SYSTEMS))
        acting = draw(_subsets_of(system.generators))
        dim = draw(st.integers(0, 6))
        images = {s: draw(st.lists(st.integers(-dim, dim), min_size=dim, max_size=dim))
                  for s in sorted(acting)}
    mats = {s: {j: {abs(x) - 1: 1 if x > 0 else -1} for j, x in enumerate(img) if x}
            for s, img in images.items()}
    return HModule(system, acting, mats, dim)


class TestIntegerValidation:
    """validate on signed integer images against validate through _apply."""

    @settings(max_examples=200, deadline=None)
    @given(_signed_unit_modules())
    def test_same_verdict_as_apply(self, M):
        assert hecke._monomial_shape(M) is not None
        with mock.patch.object(hecke, "_monomial_shape", lambda module: None):
            by_columns = _verdict(M)
        assert _verdict(M) == by_columns

    @settings(max_examples=100, deadline=None)
    @given(_signed_unit_modules())
    def test_counts_match_the_rank_path(self, M):
        # negative rises and +b_j diagonals are counted too
        assert _counts(M) == _counts_by_elimination(M)

    def test_built_modules_never_apply(self, monkeypatch):
        def refuse(X, v):
            raise _Eliminated

        monkeypatch.setattr(hecke, "_apply", refuse)
        for M in (regular_module(B3), induce(simple_module(B3, frozenset({1}), frozenset({1, 2}))),
                  restrict(projective_module(D4, frozenset({1})), frozenset({0, 1}))):
            M.validate()

    @pytest.mark.parametrize("X", [
        [[-1, 0], [-1, 0]],  # a column of two entries
        [[-1, 2], [0, 0]],   # a coefficient of 2
    ])
    def test_other_columns_go_through_apply(self, X, monkeypatch):
        A1 = CoxeterSystem("A", 2)
        assert mat_mul(X, X) == mat_scale(X, -1)
        M = module_from_matrices(A1, A1.generator_set, {1: X}, 2)
        assert hecke._monomial_shape(M) is None
        calls = []
        apply = hecke._apply
        monkeypatch.setattr(hecke, "_apply", lambda X, v: calls.append(v) or apply(X, v))
        M.validate()
        assert calls


class TestAtTheCap:
    def test_verify_hecke_at_a_rank_6(self, capsys):
        # window 7, the largest type-A group under the default cap
        names = {}
        for rank in (3, 6):
            assert cli.main(["verify", "--suite", "hecke", "--type", "A", "--rank", str(rank),
                             "--format", "json"]) == 0
            checks = json.loads(capsys.readouterr().out)["suites"]["hecke"]["checks"]
            names[rank] = [c["name"] for c in checks]
        assert names[6] == names[3] and len(names[3]) == 8


class TestGrothendieck:
    def test_factor_count_is_dimension(self):
        for I in all_subsets(B2):
            P = projective_module(B2, I)
            assert composition_factors(P).coefficient_sum() == P.dim

    def test_projective_factors_are_inverse_descents(self):
        for I in all_subsets(B2):
            P = projective_module(B2, I)
            expected = FormalVector(
                ((w.inverse().descent_set(), 1) for w in descent_class(B2, I)), kind="g0")
            assert composition_factors(P) == expected

    def test_frobenius_reciprocity_spot(self):
        I = frozenset([1])
        for J in (frozenset(), I):
            N = simple_module(B2, J, acting=I)
            ind = induce(N)
            for K in all_subsets(B2):
                M = simple_module(B2, K)
                assert hom_dim(ind, M) == hom_dim(N, restrict(M, I))
            P = projective_module(B2, frozenset([0]))
            assert hom_dim(ind, P) == hom_dim(N, restrict(P, I))

    def test_factors_invariant_under_basis_change(self):
        P = projective_module(B2, frozenset([0]))
        # conjugate all matrices by a unimodular change of basis
        n = P.dim
        U = [[1 if i == j else (1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
        Uinv = solve_matrix_inverse(U)
        conj = {s: mat_mul(mat_mul(U, dense_matrix(P, s)), Uinv) for s in P.mats}
        M = module_from_matrices(P.system, P.acting, conj, P.dim)
        assert composition_factors(M) == composition_factors(P)


def solve_matrix_inverse(U):
    n = len(U)
    cols = []
    for j in range(n):
        rhs = [1 if i == j else 0 for i in range(n)]
        cols.append(solve(U, rhs))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


class TestCharacteristicMaps:
    def test_simple_goes_to_one_block(self):
        from coxkit.qsym import fundamental_qsym, fundamental_qsym_b

        for system, fund in ((B2, fundamental_qsym_b), (A3, fundamental_qsym)):
            C = simple_module(system, frozenset())
            poly = characteristic_polynomial(system, composition_factors(C), 3)
            assert poly == fund((system.n,), 3)

    @pytest.mark.parametrize("system", (B2, B3, CoxeterSystem("D", 2), D3, CoxeterSystem("A", 2), A3))
    def test_projective_characteristic_is_ribbon(self, system):
        K = system.n + 1
        proj = projection(system.family)
        for I in all_subsets(system):
            alpha = composition_from_descents(system, I)
            P = projective_module(system, I)
            assert characteristic_polynomial(system, composition_factors(P), K) \
                == proj(s_basis(system, alpha, K))

    def test_induction_compatible_with_ribbon_product(self):
        # inducing a block-parabolic projective matches the two-term
        # concatenation rule on ribbon labels: plain and fused boundary
        system = B3
        for J in (frozenset([0, 1]), frozenset([0, 2])):
            boundary = system.generator_set - J
            for I in (X for X in all_subsets(system) if X <= J):
                ind = induce(projective_module(system, I, carrier=J))
                got = projective_multiplicities(ind)
                expected = FormalVector({I: 1, I | boundary: 1}, kind="k0")
                assert got == expected


class TestSortingOperators:
    def test_branch_examples(self):
        assert sorting_operator("A", 1, (1, 2)) == (2, 1)
        assert sorting_operator("A", 1, (2, 1)) == (2, 1)
        assert sorting_operator("B", 0, (2, 5)) == (-2, 5)
        assert sorting_operator("B", 0, (-2, 5)) == (-2, 5)
        assert sorting_operator("D", 0, (1, 2, 3)) == (-2, -1, 3)
        assert sorting_operator("D", 0, (-1, -2, 3)) == (-1, -2, 3)

    @pytest.mark.parametrize("family,s,word", [
        ("B", 0, ()), ("D", 0, (1,)), ("D", 1, ()), ("A", 0, (1, 2)), ("A", 2, (1, 2)),
        ("A", -1, (1, 2, 3)), ("B", 2, (1, 2)), ("D", 3, (1, 2, 3)),
    ])
    def test_refuses_a_generator_the_word_system_lacks(self, family, s, word):
        with pytest.raises(ValueError):
            sorting_operator(family, s, word)

    @pytest.mark.parametrize("family,n", [("A", 2), ("B", 2), ("D", 2), ("D", 3)])
    def test_idempotent(self, family, n):
        gens = CoxeterSystem(family, n).generators
        for w in itertools.product(range(-2, 3), repeat=n):
            for s in gens:
                once = sorting_operator(family, s, w)
                assert sorting_operator(family, s, once) == once

    @pytest.mark.parametrize("family,n", [("A", 3), ("B", 2), ("B", 3), ("D", 3)])
    def test_braid_relations(self, family, n):
        system = CoxeterSystem(family, n)
        words = list(itertools.product(range(-2, 3), repeat=n))
        for s, t in itertools.combinations(system.generators, 2):
            m = system.coxeter_order(s, t)
            for w in words:
                lhs = rhs = w
                for i in range(m):
                    lhs = sorting_operator(family, s if i % 2 == 0 else t, lhs)
                    rhs = sorting_operator(family, t if i % 2 == 0 else s, rhs)
                assert lhs == rhs

    def test_filtration_eigenvalues(self):
        # On the word span, the subspaces spanned by fibers of length >= k
        # are stable under the nilpotent operators (move output climbs one
        # level), so each graded word is a common eigenvector: eigenvalue -1
        # where the operator moves the word, 0 where it fixes it.
        from coxkit.words import standardize_signed

        words = list(itertools.product(range(-2, 3), repeat=2))
        lengths = {w: standardize_signed(w).length() for w in words}
        for w in words:
            u = standardize_signed(w)
            for s in (0, 1):
                out = sorting_operator("B", s, w)
                if out != w:
                    # a move climbs exactly one level and multiplies the
                    # standardization by the generator on the right
                    assert lengths[out] == lengths[w] + 1
                    assert standardize_signed(out) == u * u.system.generator(s)
            # graded eigenvalue pattern: -1 on moved generators, 0 on fixed;
            # moved generators are right ascents of the standardization
            pattern = frozenset(
                s for s in (0, 1) if sorting_operator("B", s, w) != w)
            ascents = frozenset(
                s for s in (0, 1)
                if (u * u.system.generator(s)).length() > u.length())
            assert pattern <= ascents
