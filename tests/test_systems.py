import ast
import copy
import itertools
import operator
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxkit.freemodule import FormalVector
from coxkit.roots import parabolic_positive_roots
from coxkit.systems import (
    CapExceededError,
    CoxeterSystem,
    Element,
    _descent_interval,
    _family_lanes,
    _family_rule,
    _LANE_MAX_N,
    _inverse_lanes,
    _lane_lengths,
    _lane_masks,
    _lane_windows,
    _mask_runs,
    _ordered_table,
    _parabolic_flags,
    _store,
    _trusted_element,
    all_subsets,
    class_maximum,
    composition_from_descents,
    composition_prefix_split,
    descent_class,
    descent_interval,
    descent_interval_left_masks,
    descent_masks,
    descent_pair_counts,
    descents_of_composition,
    elements,
    from_word,
    generator_bits,
    in_parabolic,
    is_valid_composition,
    longest_element,
    min_coset_reps,
    near_concat_compositions,
    negate,
    normalizer_complement_order,
    parabolic_class_size,
    parabolic_conjugacy_classes,
    parabolic_decompose_left,
    parabolic_decompose_right,
    parabolic_elements,
    parse_window,
    refines,
    root_sign_masks,
    set_max_order,
    shape_of_composition,
    simple_image,
    simple_roots,
    word_cube,
)

from oracles import (
    ORACLE_SYSTEMS,
    cayley_distances,
    descent_interval_by_sets,
    element_descent_masks,
    element_descent_pairs,
    elements_by_length_sort,
    family_windows,
    interval_selectors_by_mask_pass,
    orbit_conjugacy_classes,
    pack_windows,
    parabolic_conjugates,
    parabolic_elements_by_words,
    right_coset_reps_by_inverse_descents,
)

A3 = CoxeterSystem("A", 3)
A4 = CoxeterSystem("A", 4)
B2 = CoxeterSystem("B", 2)
B3 = CoxeterSystem("B", 3)
B4 = CoxeterSystem("B", 4)
D3 = CoxeterSystem("D", 3)
D4 = CoxeterSystem("D", 4)

SMALL = (A4, B3, D3)


def entries(system, fn):
    """The arguments of each entry of the capped ``fn`` in the group's one
    store."""
    return [args for f, args in _store(system) if f is fn.__wrapped__]


def random_element(system, data):
    word = data.draw(st.lists(st.sampled_from(system.generators), max_size=12))
    return from_word(system, word)


systems_strategy = st.sampled_from([A3, A4, B2, B3, D3])


class TestWindows:
    def test_identity_window(self):
        assert B3.identity().window == (1, 2, 3)

    def test_hash_and_equality_are_tuples(self):
        # dict operations hash and compare in tuple's own slots; equality
        # still tells systems apart
        for cls in (Element, CoxeterSystem):
            assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__
        w, v = B2.element((2, 1)), CoxeterSystem("A", 2).element((2, 1))
        assert w != v and len({w, v, B2.element([2, 1])}) == 2

    def test_generator_windows(self):
        assert B2.generator(0).window == (-1, 2)
        assert B2.generator(1).window == (2, 1)
        assert D3.generator(0).window == (-2, -1, 3)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            A3.element([1, -2, 3])
        with pytest.raises(ValueError):
            D3.element([-1, 2, 3])
        with pytest.raises(ValueError):
            B2.element([1, 1])
        with pytest.raises(ValueError):
            CoxeterSystem("D", 1)

    def test_compose_examples(self):
        assert (B2.generator(1) * B2.generator(0)).window == (-2, 1)
        s3 = CoxeterSystem("A", 3)
        assert (s3.element([2, 1, 3]) * s3.element([2, 3, 1])).window == (1, 3, 2)

    def test_identity_law(self):
        u = B3.element([2, -3, 1])
        assert u * B3.identity() == u
        assert B3.identity() * u == u

    def test_inverse_examples(self):
        assert B4.element([2, -4, -3, 1]).inverse().window == (4, 1, -3, -2)
        s3 = CoxeterSystem("A", 3)
        assert s3.element([2, 3, 1]).inverse().window == (3, 1, 2)
        assert B3.identity().inverse() == B3.identity()

    @given(data=st.data(), system=systems_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_laws(self, data, system):
        u = random_element(system, data)
        v = random_element(system, data)
        w = random_element(system, data)
        assert (u * v) * w == u * (v * w)
        assert u * u.inverse() == system.identity()
        assert (u * v).inverse() == v.inverse() * u.inverse()


#: A windows 0-4, B0-B3 and D2-D4.
VALUE_SYSTEMS = ([CoxeterSystem("A", n) for n in range(5)]
                 + [CoxeterSystem("B", n) for n in range(4)]
                 + [CoxeterSystem("D", n) for n in range(2, 5)])


@st.composite
def value_elements(draw):
    """An element of one of :data:`VALUE_SYSTEMS`."""
    return draw(st.sampled_from(elements(draw(st.sampled_from(VALUE_SYSTEMS)))))


@st.composite
def value_pairs(draw):
    """Two elements; often of systems of one window size, and then often of
    one window, so that equal and unequal pairs with equal windows both
    come up."""
    u = draw(value_elements())
    same_n = [s for s in VALUE_SYSTEMS if s.n == u.system.n]
    system = draw(st.sampled_from(same_n) if draw(st.booleans()) else st.sampled_from(VALUE_SYSTEMS))
    if system.n == u.system.n and draw(st.booleans()):
        try:
            return u, system.element(u.window)
        except ValueError:
            pass
    return u, draw(st.sampled_from(elements(system)))


class TestValueSemantics:
    """Systems and Elements are compared, hashed, copied and pickled as the
    values (family, n) and (family, n, window)."""

    @given(value_pairs())
    @settings(max_examples=200, deadline=None)
    def test_equal_exactly_when_family_size_and_window_agree(self, pair):
        u, v = pair
        same = (u.system.family, u.system.n, u.window) == (v.system.family, v.system.n, v.window)
        assert (u == v) is same and (u != v) is not same
        assert (u.system == v.system) is (u.system.family == v.system.family
                                          and u.system.n == v.system.n)
        if same:
            assert hash(u) == hash(v) and len({u, v}) == 1

    @given(value_elements())
    @settings(max_examples=100, deadline=None)
    def test_equal_elements_have_equal_hashes(self, w):
        twin = CoxeterSystem(w.system.family, w.system.n).element(list(w.window))
        assert twin == w and hash(twin) == hash(w)
        assert hash(twin.system) == hash(w.system)

    @given(value_elements())
    @settings(max_examples=100, deadline=None)
    def test_trusted_element_equals_checked_element(self, w):
        assert _trusted_element(w.system, w.window) == w.system.element(w.window)
        assert type(_trusted_element(w.system, w.window)) is Element

    @given(value_elements())
    @settings(max_examples=100, deadline=None)
    def test_pickle_and_copy_round_trip(self, w):
        copies = [copy.copy(w), copy.deepcopy(w)]
        copies += [pickle.loads(pickle.dumps(w, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is Element and type(twin.system) is CoxeterSystem
            assert twin == w and hash(twin) == hash(w)
            assert twin.length() == w.length()

    @pytest.mark.parametrize("system, window", [
        (A3, (1, -2, 3)), (D3, (-1, 2, 3)), (B2, (1, 1)), (B2, (1, 2, 3)),
        (CoxeterSystem("A", 0), (1,)),
    ])
    def test_unpickling_an_invalid_trusted_element_raises(self, system, window):
        bad = _trusted_element(system, window)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            with pytest.raises(ValueError):
                pickle.loads(pickle.dumps(bad, protocol))
        with pytest.raises(ValueError):
            copy.deepcopy(bad)

    def test_system_pickles_without_its_root_table(self):
        system = CoxeterSystem("B", 3)
        system.generator(0)  # fills the cached root table
        twin = pickle.loads(pickle.dumps(system))
        assert twin == system and "_roots" not in vars(twin)
        assert twin.generator(0) == system.generator(0)

    @pytest.mark.parametrize("make, message", [
        (lambda: CoxeterSystem("D", 1), "family D requires rank >= 2"),
        (lambda: CoxeterSystem("C", 2), "unknown family 'C'"),
        (lambda: CoxeterSystem("A", -1), "window size must be nonnegative"),
        (lambda: A3.element((1, -2, 3)), "type A windows must be positive"),
        (lambda: D3.element((-1, 2, 3)), "type D windows need an even number of signs"),
        (lambda: B2.element((1, 1)), "not a signed permutation window"),
        (lambda: B2.element((1, 2, 3)), "window length 3 != 2"),
        (lambda: Element(A3, (2, 1)), "window length 2 != 3"),
    ])
    def test_constructor_errors(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_items_over_elements_of_mixed_systems(self):
        A2, B1, D2 = (CoxeterSystem("A", 2), CoxeterSystem("B", 1), CoxeterSystem("D", 2))
        order = [A2.element((1, 2)), A2.element((2, 1)), A3.identity(), B1.element((-1,)),
                 B1.identity(), B2.element((-2, 1)), B2.element((1, -2)), B2.identity(),
                 D2.element((-1, -2)), D2.identity()]
        vector = FormalVector({w: k + 1 for k, w in enumerate(reversed(order))})
        assert [w for w, _ in vector.items()] == order
        assert vector.support() == order

    def test_items_over_pair_keys_and_mixed_kinds(self):
        s0, s1 = B2.generator(0), B2.generator(1)
        e = B2.identity()
        # windows: s0 = (-1, 2) < e = (1, 2) < s1 = (2, 1)
        pairs = [(s0, e), (s0, s1), (e, s0), (e, e), (s1, s0)]
        vector = FormalVector({p: 1 for p in reversed(pairs)})
        assert [k for k, _ in vector.items()] == pairs
        # frozensets, then plain tuples, then numbers, then Elements
        mixed = [frozenset({1}), (B2.identity(), e), (3, 4), 7, s0]
        vector = FormalVector({k: 1 for k in reversed(mixed)})
        assert [k for k, _ in vector.items()] == [frozenset({1}), (3, 4), (B2.identity(), e), 7, s0]


class TestLengthAndDescents:
    def test_length_examples(self):
        assert B3.identity().length() == 0
        assert B2.element([-2, 1]).length() == 2
        assert CoxeterSystem("A", 3).element([3, 2, 1]).length() == 3

    def test_descent_examples(self):
        assert B3.element([-1, 2, 3]).descent_set() == {0}
        assert A4.element([2, 4, 3, 1]).descent_set() == {2, 3}
        assert B3.identity().descent_set() == frozenset()

    @pytest.mark.parametrize("system", SMALL)
    def test_descents_track_length(self, system):
        for w in elements(system):
            assert (not w.descent_set()) == w.is_identity()
            for s in system.generators:
                ws = w * system.generator(s)
                assert abs(ws.length() - w.length()) == 1
                assert (ws.length() < w.length()) == (s in w.descent_set())

    @pytest.mark.parametrize("system", SMALL)
    def test_reduced_words(self, system):
        for w in elements(system):
            word = w.reduced_word()
            assert len(word) == w.length()
            assert from_word(system, word) == w

    def test_reduced_word_of_b2_rotation(self):
        w = B2.element([-2, 1])
        word = w.reduced_word()
        assert len(word) == 2 and from_word(B2, word) == w


class TestRootRulesAgainstTheCayleyGraph:
    """Lengths, descents, Coxeter orders and generators are read off the
    roots; here each is checked against its definition in the group, with
    no call of ``length``."""

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_length_is_the_distance_from_the_identity(self, system):
        dist = cayley_distances(system)
        assert len(dist) == system.order()
        assert all(w.length() == d for w, d in dist.items())

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_descents_are_the_generators_that_shorten(self, system):
        dist = cayley_distances(system)
        for w, d in dist.items():
            assert w.descent_set() == {s for s in system.generators
                                       if dist[w * system.generator(s)] < d}

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_coxeter_order_is_the_order_of_the_product(self, system):
        for s in system.generators:
            for t in system.generators:
                product = power = system.generator(s) * system.generator(t)
                order = 1
                while not power.is_identity() and order <= 6:
                    power, order = power * product, order + 1
                assert system.coxeter_order(s, t) == order, (s, t)

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_generators_are_involutions(self, system):
        for s in system.generators:
            g = system.generator(s)
            assert not g.is_identity() and (g * g).is_identity()

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_root_table_bits_and_labels(self, system):
        # the mask bits and simple-root labels every layer reads are the
        # root table's own dicts, equal to the ones each caller once built
        roots = simple_roots(system)
        assert generator_bits(system) == {s: 1 << k for k, s in enumerate(system.generators)}
        assert generator_bits(system) is generator_bits(system) is system._roots.bits
        assert system._roots.alpha == roots
        assert system._roots.labels == {a: t for t, a in roots.items()}
        assert {negate(a): t for a, t in system._roots.labels.items()} \
            == {tuple(-c for c in a): t for t, a in roots.items()}

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_simple_image_is_the_conjugated_generator(self, system):
        # w(a_s) = a_t exactly when w s w^-1 = s_t and s is no descent of w
        dist = cayley_distances(system)
        for w in dist:
            for s in system.generators:
                conjugate = w * system.generator(s) * w.inverse()
                t = [t for t in system.generators if conjugate == system.generator(t)]
                expected = t[0] if t and s not in w.descent_set() else None
                assert simple_image(w, s) == expected, (w, s)

    @pytest.mark.parametrize("system,label", [
        (CoxeterSystem("A", 0), 0), (CoxeterSystem("A", 1), 0), (CoxeterSystem("B", 0), 0),
        (A4, 0), (B2, 2), (D3, 3),
    ], ids=repr)
    def test_a_label_outside_the_generators_is_refused(self, system, label):
        with pytest.raises(ValueError):
            system.generator(label)
        with pytest.raises(ValueError):
            system.coxeter_order(0 if label else 1, label)


def capped_functions() -> set[str]:
    """The names of the functions of the package decorated with
    ``_capped_cache``, read from its source."""
    from coxkit import systems

    return {node.name for path in Path(systems.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Name) and d.id == "_capped_cache"
                    for d in node.decorator_list)}


class TestEnumeration:
    @pytest.mark.parametrize("system,order", [(A4, 24), (B3, 48), (D3, 24), (D4, 192)])
    def test_orders(self, system, order):
        assert system.order() == order == len(elements(system))

    def test_degenerate_systems(self):
        assert len(elements(CoxeterSystem("A", 1))) == 1
        assert len(elements(CoxeterSystem("A", 0))) == 1
        assert len(elements(CoxeterSystem("B", 0))) == 1

    def test_cap(self):
        set_max_order(10)
        try:
            with pytest.raises(CapExceededError):
                elements(CoxeterSystem("B", 6))
        finally:
            set_max_order(None)

    def test_cap_applies_to_cached_enumerations(self):
        # a group enumerated under the default cap is refused once the cap
        # drops below its order, cached or not
        assert len(elements(B3)) == len(parabolic_elements(B3, frozenset({1, 2}))) * 8
        set_max_order(10)
        try:
            with pytest.raises(CapExceededError):
                elements(B3)
            with pytest.raises(CapExceededError):
                parabolic_elements(B3, frozenset({1, 2}))
        finally:
            set_max_order(None)
        assert len(elements(B3)) == 48

    def test_a_refused_read_makes_no_store(self):
        # the cap is checked before the group's store is made: over the
        # default cap and under a lowered one
        elements.cache_clear()
        with pytest.raises(CapExceededError):
            elements(CoxeterSystem("B", 8))
        set_max_order(10)
        try:
            with pytest.raises(CapExceededError):
                elements(B3)
            with pytest.raises(CapExceededError):
                descent_interval(B3, frozenset({99}), B3.generator_set)
        finally:
            set_max_order(None)
        assert _store.cache_info().currsize == 0

    def test_one_store_per_group(self):
        # every capped read of a group lands in its one store, and one
        # cache_clear empties every store: the values come back equal and new
        reads = (lambda: elements(B3), lambda: descent_masks(B3),
                 lambda: descent_class(D4, frozenset({1})),
                 lambda: min_coset_reps(D4, frozenset({1}), "right"))
        elements.cache_clear()
        before = [read() for read in reads]
        assert _store.cache_info().currsize == 2
        _ordered_table.cache_clear()
        assert _store.cache_info().currsize == 0
        after = [read() for read in reads]
        assert after == before
        assert not any(a is b for a, b in zip(after, before))

    def test_cap_applies_to_every_cached_read(self):
        # every read derived from an enumeration of B3 is refused once the
        # cap drops below |B3| = 48, however warm its cache, and answers as
        # before once the cap is restored
        from coxkit.descents import (_induce_counts, _weak_counts, c_matrix, h_gram_matrix,
                                     weak_descent_count)
        from coxkit.hecke import _coset_moves

        I = frozenset({1})
        reads = {
            "elements": lambda: elements(B3),
            "descent_masks": lambda: descent_masks(B3),
            "_ordered_table": lambda: _ordered_table(B3),
            "_ordered_table windows": lambda: _ordered_table(B3).windows,
            "descent_pair_counts": lambda: descent_pair_counts(B3),
            "root_sign_masks": lambda: root_sign_masks(B3),
            "_mask_runs right": lambda: _mask_runs(B3, False),
            "_mask_runs left": lambda: _mask_runs(B3, True),
            "h_gram_matrix": lambda: h_gram_matrix(B3),
            "_parabolic_flags": lambda: _parabolic_flags(B3, I),
            "parabolic_elements": lambda: parabolic_elements(B3, I),
            "descent_interval": lambda: descent_interval(B3, frozenset(), I),
            "_descent_interval": lambda: _descent_interval(B3, frozenset(), I, None, True),
            "descent_interval_left_masks":
                lambda: descent_interval_left_masks(B3, frozenset(), I, None),
            "descent_class": lambda: descent_class(B3, I),
            "descent_class within": lambda: descent_class(B3, I, B3.generator_set - {0}),
            "min_coset_reps left": lambda: min_coset_reps(B3, I, "left"),
            "min_coset_reps right": lambda: min_coset_reps(B3, I, "right"),
            "normalizer_complement_order": lambda: normalizer_complement_order(B3, I),
            "parabolic_class_size": lambda: parabolic_class_size(B3, I),
            "c_matrix": lambda: c_matrix(B3),
            "weak_descent_count": lambda: weak_descent_count(B3, I, B3.generator_set),
            "_weak_counts": lambda: _weak_counts(B3),
            "_induce_counts": lambda: _induce_counts(B3, I),
            "_coset_moves": lambda: _coset_moves(B3, I),
        }
        before = {name: read() for name, read in reads.items()}
        # every capped function of the package is read above under its own
        # name, and that read went through the group's store
        capped = capped_functions()
        assert capped - {name.split()[0] for name in reads} == set()
        assert capped - {fn.__name__ for fn, _ in _store(B3)} == set()
        set_max_order(10)
        try:
            for name, read in reads.items():
                with pytest.raises(CapExceededError):
                    read()
                    pytest.fail(f"{name} answered over the cap")
        finally:
            set_max_order(None)
        assert {name: read() for name, read in reads.items()} == before
        # the lookups hand back one cached tuple on every call
        for name in ("elements", "_ordered_table windows", "descent_masks", "_ordered_table",
                     "descent_pair_counts", "_parabolic_flags", "parabolic_elements",
                     "descent_interval", "descent_class", "min_coset_reps left",
                     "min_coset_reps right", "_mask_runs right", "_mask_runs left",
                     "_weak_counts", "_induce_counts"):
            assert reads[name]() is reads[name](), name

    def test_min_coset_reps_refusal_order(self):
        # the arguments are checked before any enumeration: a bad side and a
        # subset outside ``within`` are refused ahead of the cap, on a group
        # over the cap (|B8| > 10**6) as on a lowered cap; the cap comes next
        outside, within = frozenset({0}), frozenset({1, 2})
        B8 = CoxeterSystem("B", 8)
        set_max_order(10)
        try:
            for system in (B3, B8):
                with pytest.raises(ValueError, match="side"):
                    min_coset_reps(system, within, "middle")
                for side in ("left", "right"):
                    with pytest.raises(ValueError, match="ambient"):
                        min_coset_reps(system, outside, side, within)
                    with pytest.raises(CapExceededError):
                        min_coset_reps(system, frozenset({1}), side, within)
        finally:
            set_max_order(None)
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="ambient"):
                min_coset_reps(B8, outside, side, within)
            with pytest.raises(CapExceededError):
                min_coset_reps(B8, frozenset({1}), side, within)

    def test_cap_env_override(self, monkeypatch):
        from coxkit import systems

        monkeypatch.setenv("COXKIT_MAX_ORDER", "5")
        assert systems.max_order() == 5
        with pytest.raises(CapExceededError):
            elements(CoxeterSystem("B", 7))
        monkeypatch.delenv("COXKIT_MAX_ORDER")
        assert systems.max_order() == systems.DEFAULT_MAX_ORDER

    def test_word_cube(self):
        assert list(word_cube(2, 1)) == [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
        assert list(word_cube(0, 3)) == [()]
        assert list(word_cube(3, 0)) == [(0, 0, 0)]
        with pytest.raises(ValueError):
            word_cube(2, -1)

    def test_word_cube_cap_is_checked_before_enumerating(self):
        from coxkit.roots import lattice_points, positive_roots
        from coxkit.series import s_series
        from oracles import h_block, s_basis_by_class

        set_max_order(5 ** 3 - 1)
        try:
            with pytest.raises(CapExceededError, match=r"\(2\*2\+1\)\^3 = 125"):
                word_cube(3, 2)
            assert len(list(word_cube(3, 1))) == 27
            with pytest.raises(CapExceededError):
                lattice_points(B3, positive_roots(B3), 2)
            with pytest.raises(CapExceededError):
                s_series(B3.identity(), 2)
            with pytest.raises(CapExceededError):
                s_basis_by_class(B3, (1, 2), 2)
            with pytest.raises(CapExceededError):
                h_block("A", 3, 2)
        finally:
            set_max_order(None)

    def test_parse_window(self):
        assert parse_window(B4, "2,-4,-3,1").window == (2, -4, -3, 1)


class TestParabolic:
    def test_longest_elements(self):
        assert longest_element(A3, A3.generator_set).window == (3, 2, 1)
        assert longest_element(B2, B2.generator_set).window == (-1, -2)
        assert longest_element(B2, frozenset()).is_identity()

    @pytest.mark.parametrize("system", SMALL)
    def test_longest_element_properties(self, system):
        for I in all_subsets(system):
            w0 = longest_element(system, I)
            assert w0.descent_set() == I
            assert w0 == w0.inverse()
            assert w0.length() == max(v.length() for v in parabolic_elements(system, I))

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_decomposition_left(self, system):
        for w in elements(system):
            for I in all_subsets(system):
                coset, part = parabolic_decompose_left(w, I)
                assert coset * part == w
                assert coset.length() + part.length() == w.length()
                assert not coset.descent_set() & I
                assert in_parabolic(part, I)
                # descents inside the subset are carried by the parabolic part
                assert w.descent_set() & I == part.descent_set()

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_decomposition_right(self, system):
        for w in elements(system):
            for I in all_subsets(system):
                part, coset = parabolic_decompose_right(w, I)
                assert part * coset == w
                assert part.length() + coset.length() == w.length()
                assert not coset.left_descent_set() & I
                assert in_parabolic(part, I)

    def test_member_decomposes_trivially(self):
        I = frozenset([0, 1])
        for w in parabolic_elements(B3, I):
            coset, part = parabolic_decompose_left(w, I)
            assert coset.is_identity() and part == w

    def test_block_factorization_example(self):
        d5 = CoxeterSystem("D", 5)
        w = d5.element([2, -5, 1, -3, 4])
        part, coset = parabolic_decompose_right(w, frozenset([0, 1, 2, 4]))
        assert part.window == (-2, 1, -3, 5, 4)
        assert coset.window == (-1, -4, 2, 3, 5)
        winv = w.inverse()
        assert winv.window == (3, 1, -4, 5, -2)
        coset2, part2 = parabolic_decompose_left(winv, frozenset([0, 1, 2, 4]))
        assert coset2.window == (-1, 3, 4, -2, 5)
        assert part2.window == (2, -1, -3, 5, 4)

    @pytest.mark.parametrize("system", SMALL)
    def test_min_coset_reps(self, system):
        for I in all_subsets(system):
            left = min_coset_reps(system, I, "left")
            right = min_coset_reps(system, I, "right")
            assert len(left) == len(right) == system.order() // len(parabolic_elements(system, I))
            assert {w.inverse() for w in left} == set(right)
        assert min_coset_reps(system, system.generator_set, "left") == (system.identity(),)

    def test_b2_coset_counts(self):
        assert len(min_coset_reps(B2, frozenset([1]), "left")) == 4

    def test_two_run_reps_match_definition(self):
        # minimal reps for the block parabolic are ascending two-run windows
        reps = min_coset_reps(B2, frozenset([0]), "left")
        assert sorted(w.window for w in reps) == sorted([(1, 2), (1, -2), (2, 1), (2, -1)])


class TestDescentClasses:
    def test_empty_class_is_identity(self):
        assert descent_class(B3, frozenset()) == (B3.identity(),)

    def test_s3_class(self):
        s3 = CoxeterSystem("A", 3)
        assert sorted(w.window for w in descent_class(s3, frozenset([1]))) == [(2, 1, 3), (3, 1, 2)]

    @pytest.mark.parametrize("system", SMALL)
    def test_classes_partition(self, system):
        assert sum(len(descent_class(system, I)) for I in all_subsets(system)) == system.order()
        for I in all_subsets(system):
            assert descent_class(system, I)

    @pytest.mark.parametrize("system", (B2, B3))
    def test_weak_order_interval(self, system):
        # each class is the left weak-order interval between its extremes
        for I in all_subsets(system):
            cls = set(descent_class(system, I))
            lo, hi = longest_element(system, I), class_maximum(system, I)
            assert lo in cls and hi in cls
            # BFS upward from the minimum inside the class reaches everything
            seen = {lo}
            frontier = [lo]
            while frontier:
                w = frontier.pop()
                for s in system.generators:
                    sw = system.generator(s) * w
                    if sw.length() == w.length() + 1 and sw in cls and sw not in seen:
                        seen.add(sw)
                        frontier.append(sw)
            assert seen == cls
            # and the interval characterization by length additivity
            def below(u, w):
                return (w * u.inverse()).length() == w.length() - u.length()
            interval = {w for w in elements(system) if below(lo, w) and below(w, hi)}
            assert interval == cls


class TestCompositions:
    @pytest.mark.parametrize("system", SMALL)
    def test_bijection(self, system):
        seen = set()
        for I in all_subsets(system):
            alpha = composition_from_descents(system, I)
            assert is_valid_composition(system, alpha)
            assert descents_of_composition(alpha) == I
            seen.add(alpha)
        assert len(seen) == len(all_subsets(system))

    def test_rank_zero_index(self):
        # B0 has no generator 0, so its only index is the empty composition
        B0 = CoxeterSystem("B", 0)
        assert is_valid_composition(B0, ())
        assert not is_valid_composition(B0, (0,))

    def test_pseudo_first_part(self):
        assert composition_from_descents(B3, frozenset([0])) == (0, 3)
        assert composition_from_descents(B3, frozenset([0, 2])) == (0, 2, 1)
        assert composition_from_descents(A4, frozenset([1, 3])) == (1, 2, 1)

    def test_concat_operations(self):
        assert near_concat_compositions((2, 1), (3,)) == (2, 4)
        assert near_concat_compositions((), (3,)) is None
        assert refines((3,), (1, 2)) and not refines((1, 2), (3,))

    def test_prefix_split(self):
        assert composition_prefix_split((0, 2, 1), 1) == ((0, 1), (1, 1))
        assert composition_prefix_split((0, 2, 1), 0) == ((), (2, 1))
        assert composition_prefix_split((2, 3), 4) == ((2, 2), (1,))

    def test_shapes(self):
        assert shape_of_composition(A4, (1, 2, 1)) == (2, 1, 1)
        assert shape_of_composition(B3, (0, 1, 2)) == (0, 2, 1)


class TestConjugacyClasses:
    def test_counts(self):
        assert len(parabolic_conjugacy_classes(A4)) == 5
        assert len(parabolic_conjugacy_classes(B3)) == 7
        assert len(parabolic_conjugacy_classes(D4)) == 11

    def test_rank_zero_single_class(self):
        assert len(parabolic_conjugacy_classes(CoxeterSystem("A", 1))) == 1
        assert len(parabolic_conjugacy_classes(CoxeterSystem("B", 0))) == 1

    @pytest.mark.parametrize("system", (A4, B3) + tuple(
        s for s in ORACLE_SYSTEMS if s.family != "D" and s not in (A4, B3)))
    def test_shape_grouping(self, system):
        # A: multisets of block sizes; B: the first part, then the multiset
        # of the rest
        by_shape = {}
        for I in all_subsets(system):
            shape = shape_of_composition(system, composition_from_descents(system, I))
            by_shape.setdefault(shape, set()).add(I)
        classes = {frozenset(cls) for cls in parabolic_conjugacy_classes(system)}
        assert {frozenset(v) for v in by_shape.values()} == classes

    def test_d4_shape_grouping_differs(self):
        # the fork diagram merges subsets of different shapes into one class
        # (and keeps same-shaped leg pairs apart), so the shape invariant
        # neither refines nor coarsens the class partition here
        classes = parabolic_conjugacy_classes(D4)
        shapes_per_class = [
            {shape_of_composition(D4, composition_from_descents(D4, I)) for I in cls}
            for cls in classes
        ]
        assert any(len(shapes) > 1 for shapes in shapes_per_class)
        assert len(classes) == 11

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_d_even_blocks_split(self, n):
        # Swapping generators 0 and 1 is conjugation by a sign change of B_n.
        # It keeps the D_n-class of W_K unless K has no D part (not both 0
        # and 1) and all its blocks of positions are even: those classes split.
        system = CoxeterSystem("D", n)
        S = system.generator_set
        swap = {0: 1, 1: 0}
        class_of = {I: cls for cls in parabolic_conjugacy_classes(system) for I in cls}
        for I in all_subsets(system):
            K = S - I
            cuts = [i for i in range(2, n) if i not in K] + [n]
            if not K & {0, 1}:
                cuts.insert(0, 1)
            sizes = [b - a for a, b in zip([0] + cuts, cuts)]
            even_only = not {0, 1} <= K and all(size % 2 == 0 for size in sizes)
            swapped = frozenset(swap.get(s, s) for s in I)
            assert (swapped not in class_of[I]) == even_only, sorted(I)

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_classes_match_orbits(self, system):
        assert parabolic_conjugacy_classes(system) == orbit_conjugacy_classes(system)

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_class_size_is_orbit_size(self, system):
        for J in all_subsets(system):
            assert parabolic_class_size(system, J) == len(parabolic_conjugates(system, J))


@st.composite
def _intervals(draw):
    """(system, low, high, within) on an oracle system: low and high hold
    generators and labels outside them; within is None or holds generators
    and the outside label -1."""
    system = draw(st.sampled_from(ORACLE_SYSTEMS))
    labels = st.frozensets(st.sampled_from(system.generators + (-1, system.n + 1)))
    high = draw(labels)
    low = draw(st.frozensets(st.sampled_from(sorted(high))) if high and draw(st.booleans())
               else labels)
    within = draw(st.none() | st.frozensets(st.sampled_from(system.generators + (-1,))))
    return system, low, high, within


def assert_group_windows_match_the_oracles(system):
    """The group's windows and their order, the group's masks in its table,
    and the pair histogram counted from the generated windows equal the
    one-element-at-a-time oracles."""
    expected = elements_by_length_sort(system)
    assert [w.window for w in elements(system)] == [w.window for w in expected]
    assert _ordered_table(system).windows == tuple(w.window for w in expected)
    assert descent_masks(system) == element_descent_masks(system, expected)
    assert descent_pair_counts(system) == element_descent_pairs(system)


class TestGroupWindows:
    """The column-wise passes of ``_ordered_table`` and ``descent_masks`` against
    one ``Element`` at a time."""

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_matches_the_element_oracles(self, system):
        assert_group_windows_match_the_oracles(system)

    def test_ranks_zero_and_one_are_covered(self):
        assert {CoxeterSystem("A", 0), CoxeterSystem("A", 1), CoxeterSystem("B", 0),
                CoxeterSystem("B", 1), CoxeterSystem("D", 2)} <= set(ORACLE_SYSTEMS)

    def test_matches_the_element_oracles_at_the_caps(self):
        for system in (CoxeterSystem("A", 7), CoxeterSystem("B", 5), CoxeterSystem("D", 5)):
            assert_group_windows_match_the_oracles(system)

    def test_the_windows_and_masks_build_no_element(self, monkeypatch):
        from coxkit import systems

        def refuse(system, window):
            raise AssertionError(f"built an Element {window}")

        monkeypatch.setattr(systems, "_trusted_element", refuse)
        system = CoxeterSystem("B", 4)
        _ordered_table.cache_clear()
        assert len(_ordered_table(system).windows) == len(descent_masks(system)[0]) == 384
        assert sum(descent_pair_counts(system)) == 384

    def test_each_entry_is_built_by_its_first_reader(self, capsys):
        # the descent tables read the pair histogram alone, so they sort no
        # window and compute no length; a descent class builds the table and
        # the right runs, and only a right coset read builds the left runs
        from coxkit import cli
        from coxkit.descents import c_matrix, h_gram_matrix

        def built():
            return {(f.__name__, *args) for f, args in _store(B4)}

        elements.cache_clear()
        c_matrix(B4)
        assert built() == {("descent_pair_counts",)}
        h_gram_matrix(B4)
        assert cli.main(["table", "--type", "B", "--rank", "4", "--table", "hm"]) == 0
        assert capsys.readouterr().out
        assert built() == {("descent_pair_counts",), ("_weak_counts",)}
        tables = built()
        I, rest = frozenset({1}), B4.generator_set - {1}
        descent_class(B4, I)
        assert built() - tables == {("_ordered_table",), ("elements",), ("_mask_runs", False),
                                    ("_descent_interval", I, I, None, False)}
        tables = built()
        min_coset_reps(B4, I, "right")
        assert built() - tables == {("_mask_runs", True),
                                    ("_descent_interval", frozenset(), rest, None, True)}
        # a parabolic reads the root signs and the table it already has
        tables = built()
        parabolic_elements(B4, I)
        assert built() - tables == {("root_sign_masks",), ("_parabolic_flags", I),
                                    ("_descent_interval", frozenset(), B4.generator_set, I,
                                     False)}

    @pytest.mark.parametrize("system", [B4, D4], ids=repr)
    def test_parabolic_reads_pack_no_lane_and_build_no_window(self, system, monkeypatch):
        # once the table and the root signs are built, every parabolic is
        # read through them: no lane is packed and no window is read back
        from coxkit import systems

        def refuse(*args):
            raise AssertionError("lanes packed or windows read back for a parabolic")

        elements.cache_clear()
        _ordered_table(system), root_sign_masks(system)
        for name in ("_lanes", "_family_lanes", "_lane_windows"):
            monkeypatch.setattr(systems, name, refuse)
        for J in all_subsets(system):
            assert parabolic_elements(system, J) == parabolic_elements_by_words(system, J)


@st.composite
def lane_windows(draw):
    """A system of family A, B or D of any window size the lanes hold, a
    few of its windows (none, or repeats, allowed)."""
    family = draw(st.sampled_from("ABD"))
    n = draw(st.integers(2 if family == "D" else 0, _LANE_MAX_N))
    system = CoxeterSystem(family, n)
    windows = []
    for _ in range(draw(st.integers(0, 6))):
        perm = draw(st.permutations(range(1, n + 1)))
        signs = [1] * n if family == "A" else draw(st.lists(st.sampled_from((1, -1)),
                                                            min_size=n, max_size=n))
        if family == "D" and signs.count(-1) % 2:
            signs[-1] = -signs[-1]
        windows.append(tuple(map(operator.mul, signs, perm)))
    return system, windows


class TestLanes:
    """The lane helpers on hand-made windows, not whole groups, packed one
    tuple at a time, against one ``Element`` at a time."""

    @given(lane_windows())
    @settings(max_examples=150, deadline=None)
    @example((CoxeterSystem("A", 0), [(), ()]))
    @example((CoxeterSystem("B", 16), [tuple(range(-16, 0))]))
    @example((CoxeterSystem("D", 16), [(-16, *range(2, 16), -1), tuple(range(1, 17))]))
    def test_masks_and_lengths_match_the_element_oracles(self, case):
        system, windows = case
        bits = generator_bits(system)
        lanes = pack_windows(windows, system.n)
        elems = [system.element(w) for w in windows]
        right, left = _lane_masks(system, lanes)
        assert list(right) == [sum(bits[s] for s in w.descent_set()) for w in elems]
        assert list(left) == [sum(bits[s] for s in w.left_descent_set()) for w in elems]
        assert list(_lane_lengths(system, lanes)) == [w.length() for w in elems]
        # the inverse lanes are the lanes of the inverse windows
        assert _inverse_lanes(lanes) == pack_windows([w.inverse().window for w in elems],
                                                     system.n)

    @given(lane_windows())
    @settings(max_examples=150, deadline=None)
    @example((CoxeterSystem("A", 0), [(), ()]))
    @example((CoxeterSystem("B", 0), []))
    @example((CoxeterSystem("B", 16), [tuple(range(-16, 0))] * 2))
    def test_the_windows_read_back_off_the_lanes(self, case):
        system, windows = case
        assert _lane_windows(pack_windows(windows, system.n)) == windows

    def test_a_window_size_past_the_lanes_is_refused(self):
        with pytest.raises(ValueError, match=f"window size {_LANE_MAX_N + 1} "):
            _family_rule(CoxeterSystem("B", _LANE_MAX_N + 1))


FAMILY_SYSTEMS = ([CoxeterSystem("A", n) for n in range(8)]
                  + [CoxeterSystem("B", n) for n in range(7)]
                  + [CoxeterSystem("D", n) for n in range(2, 7)])


class TestFamilyLanes:
    """The lanes packed straight from the family rule against the window
    tuples of that rule, packed one at a time."""

    @pytest.mark.parametrize("system", FAMILY_SYSTEMS, ids=repr)
    def test_equal_the_packed_family_windows(self, system):
        windows = family_windows(system)
        assert _family_lanes(system) == pack_windows(windows, system.n)
        assert _lane_windows(_family_lanes(system)) == windows

    def test_the_root_signs_refuse_a_window_past_the_lanes_before_any_permutation(
            self, monkeypatch):
        # with the cap past 17! the order check passes A window 17; the window
        # size is refused before its permutations are generated
        def refuse(*args):
            raise AssertionError("itertools.permutations called before the lane check")

        monkeypatch.setattr(itertools, "permutations", refuse)
        set_max_order(10 ** 15)
        try:
            with pytest.raises(ValueError, match="window size 17 exceeds 16, the most"):
                root_sign_masks(CoxeterSystem("A", 17))
        finally:
            set_max_order(None)


class TestParabolicOracle:
    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_parabolic_elements_match_word_filter(self, system):
        for J in all_subsets(system):
            assert parabolic_elements(system, J) == parabolic_elements_by_words(system, J)
        # keys outside the generators are ignored, as by the word filter,
        # and a subset covering the generators gives the group's own tuple
        outside = frozenset({99}) | system.generator_set
        assert parabolic_elements(system, outside) is elements(system)

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_in_parabolic_matches_word_filter(self, system):
        for J in all_subsets(system):
            members = set(parabolic_elements_by_words(system, J))
            assert {w for w in elements(system) if in_parabolic(w, J)} == members

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_descent_interval_is_a_scan_of_the_pool(self, system):
        subsets = all_subsets(system)
        for within in (None,) + subsets:
            pool = elements(system) if within is None \
                else parabolic_elements_by_words(system, within)
            descents = [(w, w.descent_set()) for w in pool]
            for high in subsets:
                for low in (X for X in subsets if X <= high):
                    assert descent_interval(system, low, high, within) \
                        == tuple(w for w, d in descents if low <= d <= high)

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_descent_masks_are_the_descent_sets(self, system):
        # bit k of each mask is generators[k] in D(w) (right) or D(w^-1) (left)
        right, left = descent_masks(system)
        assert len(right) == len(left) == system.order()
        for w, r, l in zip(elements(system), right, left):
            for k, s in enumerate(system.generators):
                assert (r >> k & 1, l >> k & 1) \
                    == (s in w.descent_set(), s in w.left_descent_set()), (w, s)
            assert r >> system.rank == l >> system.rank == 0

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_interval_left_masks_are_its_left_descent_sets(self, system):
        subsets = all_subsets(system)
        for within in (None,) + subsets:
            for high in subsets:
                for low in (X for X in subsets if X <= high):
                    interval = descent_interval(system, low, high, within)
                    masks = descent_interval_left_masks(system, low, high, within)
                    assert len(masks) == len(interval)
                    for w, m in zip(interval, masks):
                        assert {s for k, s in enumerate(system.generators) if m >> k & 1} \
                            == w.left_descent_set(), (w, low, high, within)

    def test_interval_and_its_left_masks_share_one_positions_pass(self, monkeypatch):
        # a Norton module's basis and its left masks are read at the positions
        # of one filter pass, whether the carrier is spelled None or S
        from coxkit import hecke, systems

        elements.cache_clear()
        calls = []
        positions = systems._interval_positions
        monkeypatch.setattr(systems, "_interval_positions",
                            lambda *args: calls.append(args) or positions(*args))
        J = frozenset({1})
        P = hecke.projective_module(B3, J)
        masks = descent_interval_left_masks(B3, J, J, None)
        assert len(calls) == 1
        assert masks is descent_interval_left_masks(B3, J, J, B3.generator_set)
        assert len(masks) == P.dim

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_interval_reads_match_the_pass_over_the_group(self, system):
        # every (low, high, within) of generator subsets, a label outside
        # the generators alone and with all of them, and no within
        outside = 99
        labels = all_subsets(system) + (frozenset({outside}),
                                        system.generator_set | {outside})
        group, left_masks = elements(system), descent_masks(system)[1]
        for within in (None,) + labels:
            for high in labels:
                for low in labels:
                    kept = interval_selectors_by_mask_pass(system, low, high, within)
                    expected = tuple(itertools.compress(group, kept))
                    key = (low, high, within)
                    assert descent_interval(system, *key) == expected, key
                    assert descent_interval_left_masks(system, *key) \
                        == tuple(itertools.compress(left_masks, kept)), key
                    if low == high:
                        assert descent_class(system, low, within) == expected, key
            for I in labels:
                if within is not None and not I <= within:
                    continue
                ambient = system.generator_set if within is None else within
                for side, name in enumerate(("left", "right")):
                    reps = tuple(itertools.compress(group, interval_selectors_by_mask_pass(
                        system, frozenset(), ambient - I, within, side)))
                    assert min_coset_reps(system, I, name, within) == reps, (I, within, name)
        assert descent_interval(system, frozenset({outside}), labels[-1]) == ()

    def test_right_coset_reps_of_the_group_have_one_spelling(self):
        # a within that covers the generators is the whole group, so it is
        # stored as None: both spellings read one entry
        elements.cache_clear()
        for I in all_subsets(B3):
            assert min_coset_reps(B3, I, "right") is min_coset_reps(B3, I, "right",
                                                                   B3.generator_set)
        assert len(entries(B3, _descent_interval)) == 8

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_right_coset_reps_are_the_groups_own_elements(self, system):
        # the right representatives are read from the group's table, not
        # inverted: each is the very object that elements() holds
        group = {id(w) for w in elements(system)}
        subsets = all_subsets(system)
        for within in (None, system.generator_set) + subsets:
            for I in (X for X in subsets if within is None or X <= within):
                for z in min_coset_reps(system, I, "right", within):
                    assert id(z) in group, (z, I, within)

    def test_one_mask_table_per_group(self):
        # every pool, the group or a parabolic, labels outside the
        # generators or not, reads the group's one mask table
        elements.cache_clear()
        descent_interval(B3, frozenset(), B3.generator_set, B3.generator_set | {7})
        descent_class(B3, frozenset({1}))
        descent_interval(B3, frozenset(), frozenset({1}), frozenset({1, 7}))
        descent_class(B3, frozenset({1}), frozenset({1}))
        parabolic_elements(B3, frozenset({0, 2}))
        assert (_store.cache_info().currsize, len(entries(B3, _ordered_table))) == (1, 1)

    def test_the_group_has_one_spelling_in_the_interval_cache(self):
        # the coset representatives and the induced module's basis are one
        # interval, whether the whole group is named by None or by S
        from coxkit import hecke

        elements.cache_clear()
        min_coset_reps(B3, frozenset({1, 2}))
        hecke.induce(hecke.simple_module(B3, frozenset(), acting=frozenset({1, 2})))
        assert len(entries(B3, _descent_interval)) == 1
        # labels of high and within outside the generators are dropped
        # before the entry is keyed
        one = descent_interval(B3, frozenset(), frozenset({1}), frozenset({1, 7}))
        assert descent_interval(B3, frozenset(), frozenset({1}), frozenset({1})) is one
        assert descent_interval(B3, frozenset(), frozenset({1, 99}), frozenset({1})) is one
        assert parabolic_elements(B3, frozenset({0, 99})) is parabolic_elements(B3, frozenset({0}))
        assert len(entries(B3, _descent_interval)) == 3
        # a low holding one keeps nothing and makes no entry
        assert descent_interval(B3, frozenset({99}), B3.generator_set) == ()
        assert len(entries(B3, _descent_interval)) == 3

    def test_a_within_covering_the_generators_is_cached_as_none(self):
        # projective_multiplicities reads each descent class within the acting
        # set, which for the regular module is S: the same entries as None
        from coxkit import hecke

        elements.cache_clear()
        hecke.projective_multiplicities(hecke.regular_module(B3))
        for I in all_subsets(B3):
            assert descent_class(B3, I) is descent_class(B3, I, B3.generator_set)
        assert len(entries(B3, _descent_interval)) == 9

    @settings(max_examples=300, deadline=None)
    @given(_intervals())
    @example((CoxeterSystem("A", 0), frozenset(), frozenset(), None))
    @example((CoxeterSystem("A", 1), frozenset(), frozenset({5}), frozenset()))
    @example((CoxeterSystem("B", 1), frozenset({0}), frozenset({0}), frozenset()))
    @example((CoxeterSystem("B", 1), frozenset({0}), frozenset({0, 1, 7}), frozenset({0})))
    @example((A4, frozenset({7}), frozenset({1, 2, 3, 7}), None))
    @example((D4, frozenset(), frozenset({-1, 0, 1, 2, 3, 4}), frozenset({1, 2})))
    def test_descent_interval_matches_the_set_filter(self, interval):
        # any low, high and within, labels outside the generators included:
        # the same elements as the frozenset filter, in the same order
        assert descent_interval(*interval) == descent_interval_by_sets(*interval)

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=repr)
    def test_right_coset_reps_are_the_inverse_descent_filter(self, system):
        subsets = all_subsets(system)
        for within in (None,) + subsets:
            for I in (X for X in subsets if within is None or X <= within):
                reps = min_coset_reps(system, I, "right", within)
                assert len(set(reps)) == len(reps)
                assert set(reps) == right_coset_reps_by_inverse_descents(system, I, within)

    def test_parabolic_elements_cap(self):
        set_max_order(10)
        try:
            with pytest.raises(CapExceededError):
                parabolic_elements(CoxeterSystem("B", 6), frozenset({1}))
        finally:
            set_max_order(None)


#: A windows 0-6, B0-B5 and D2-D5.
HYPOTHESIS_SYSTEMS = ([CoxeterSystem("A", n) for n in range(7)]
                      + [CoxeterSystem("B", n) for n in range(6)]
                      + [CoxeterSystem("D", n) for n in range(2, 6)])


class TestParabolicFromRoots:
    """Membership, the positive roots of W_I and the normalizer complement,
    read off roots."""

    @pytest.mark.parametrize("system", [CoxeterSystem("A", 0), CoxeterSystem("A", 1),
                                        CoxeterSystem("B", 0), CoxeterSystem("B", 1),
                                        CoxeterSystem("D", 2)], ids=repr)
    def test_labels_outside_the_generators_are_dropped(self, system):
        empty = frozenset()
        for I, with_99 in ((empty, frozenset({99})), (empty, empty),
                           (system.generator_set, system.generator_set | {99})):
            assert longest_element(system, with_99) == longest_element(system, I)
            assert parabolic_positive_roots(system, with_99) \
                == parabolic_positive_roots(system, I)
            assert parabolic_elements(system, with_99) == parabolic_elements(system, I)
            assert [in_parabolic(w, with_99) for w in elements(system)] \
                == [in_parabolic(w, I) for w in elements(system)]
            assert descent_interval(system, empty, with_99) == descent_interval(system, empty, I)
            assert normalizer_complement_order(system, with_99) \
                == normalizer_complement_order(system, I)

    def test_labels_outside_the_generators_on_b2_and_a1(self):
        assert longest_element(B2, frozenset({1, 99})) == B2.generator(1)
        assert longest_element(CoxeterSystem("A", 1), frozenset({0})).is_identity()
        assert parabolic_positive_roots(B2, frozenset({1, 99})) == frozenset({(-1, 1)})

    def test_membership_and_normalizer_build_no_element_product(self, monkeypatch):
        systems = (A4, B3, D4)
        members = {(system, I): set(parabolic_elements_by_words(system, I))
                   for system in systems for I in all_subsets(system)}
        orders = {(system, I): normalizer_complement_order(system, I)
                  for system in systems for I in all_subsets(system)}
        for system, I in members:  # warm-up: the longest elements and the coset reps
            parabolic_positive_roots(system, I)
            min_coset_reps(system, I, "left")

        def refuse(*args):
            raise AssertionError("built an Element product or inverse")

        monkeypatch.setattr(Element, "__mul__", refuse)
        monkeypatch.setattr(Element, "inverse", refuse)
        normalizer_complement_order.cache_clear()
        for (system, I), inside in members.items():
            assert {w for w in elements(system) if in_parabolic(w, I)} == inside
            assert normalizer_complement_order(system, I) == orders[system, I]

    def test_parabolic_elements_build_no_element_product(self, monkeypatch):
        systems = (CoxeterSystem("A", 5), B4, D4)
        members = {(system, I): parabolic_elements_by_words(system, I)
                   for system in systems for I in all_subsets(system)}
        for system, I in members:  # warm-up: the longest elements
            parabolic_positive_roots(system, I)

        def refuse(*args):
            raise AssertionError("built an Element product")

        monkeypatch.setattr(Element, "__mul__", refuse)
        elements.cache_clear()
        for (system, I), inside in members.items():
            assert parabolic_elements(system, I) == inside, (system, I)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_in_parabolic_matches_the_peel(self, data):
        system = data.draw(st.sampled_from(HYPOTHESIS_SYSTEMS), label="system")
        w = elements(system)[data.draw(st.integers(0, system.order() - 1), label="index")]
        I = frozenset(data.draw(st.sets(st.sampled_from(system.generators + (99,))), label="I"))
        assert in_parabolic(w, I) == parabolic_decompose_left(w, I)[0].is_identity()
