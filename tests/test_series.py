import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxkit.linalg import NotInSpanError, express_in_basis, is_linearly_independent
from coxkit.qsym import (
    CPoly,
    complete_homogeneous,
    folded_h_block,
    fundamental_qsym,
    fundamental_qsym_b,
    fundamental_qsym_d,
    monomial_qsym,
    monomial_qsym_b,
    monomial_qsym_d,
    split_fundamental_b,
    split_fundamental_d,
    split_monomial_b,
    split_monomial_d,
    sym_h,
    sym_h_b,
    sym_h_b_block,
    sym_m,
    sym_m_b,
    x0_power,
)
from coxkit.roots import (
    all_roots,
    chamber,
    is_parset,
    is_positive_root,
    lattice_points,
    lattice_runs,
    linear_extension_set,
    negate,
    parabolic_positive_roots,
    parset_closure,
    positive_roots,
    random_parset,
    simple_roots,
)
from coxkit.series import (
    NCSeries,
    WindowError,
    f_action,
    f_series,
    h_basis,
    parset_series,
    project_absolute,
    project_positive,
    project_signed_min,
    projection,
    s_basis,
    s_series,
)
from coxkit.systems import (
    CapExceededError,
    CoxeterSystem,
    all_subsets,
    composition_from_descents,
    descent_class,
    elements,
    set_max_order,
    word_cube,
)
from coxkit.words import (
    cap,
    standardize,
    standardize_even_left,
    standardize_signed,
    unshuffle,
)
from oracles import (
    ORACLE_SYSTEMS,
    caratheodory_cone_contains,
    chamber_intersection,
    h_block,
    inner,
    s_basis_by_class,
    solved_parabolic_positive_roots,
)

A2 = CoxeterSystem("A", 2)
A3 = CoxeterSystem("A", 3)
B2 = CoxeterSystem("B", 2)
B3 = CoxeterSystem("B", 3)
D2 = CoxeterSystem("D", 2)
D3 = CoxeterSystem("D", 3)


def standardization_fibers(system, m):
    """Words of the cube [-m, m]^n grouped by their standardization: the
    oracle for the series fibers that is independent of the chambers."""
    std = {"A": standardize, "B": standardize_signed, "D": standardize_even_left}[system.family]
    fibers = {}
    for f in itertools.product(range(-m, m + 1), repeat=system.n):
        fibers.setdefault(std(f), []).append(f)
    return fibers


#: Every system of rank at most 3, rank 0 included.
SMALL_RANKS = tuple(system for system in ORACLE_SYSTEMS if system.rank <= 3)

#: A windows 0-4, B0-B4 and D2-D4.
LATTICE_SYSTEMS = tuple(CoxeterSystem("A", n) for n in range(5)) \
    + tuple(CoxeterSystem("B", n) for n in range(5)) \
    + tuple(CoxeterSystem("D", n) for n in range(2, 5))


def _reads(root):
    """The lowest and the highest coordinate a root reads."""
    read = [i for i, c in enumerate(root) if c]
    return read[0], read[-1]


@st.composite
def _root_subsets(draw):
    """A system, a window 0-3 and a set of its roots that need not be a
    parset, in one of three kinds: any roots; roots each lying wholly on one
    side of a cut coordinate, so that the set splits into blocks; or the
    positive roots of a parabolic, some of them negated.  An opposite pair
    is often added."""
    system = draw(st.sampled_from(LATTICE_SYSTEMS))
    window = draw(st.integers(0, 3))
    roots = sorted(all_roots(system))
    kind = draw(st.sampled_from(("any", "split", "parabolic")))
    if kind == "parabolic":
        chosen = sorted(parabolic_positive_roots(system, draw(st.sampled_from(all_subsets(system)))))
        flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        chosen = [negate(r) if flip else r for r, flip in zip(chosen, flips)]
    else:
        if kind == "split" and system.n > 1:
            cut = draw(st.integers(1, system.n - 1))
            roots = [r for r in roots if _reads(r)[1] < cut or _reads(r)[0] >= cut]
        chosen = draw(st.lists(st.sampled_from(roots), max_size=6)) if roots else []
    if chosen and draw(st.booleans()):
        chosen.append(negate(draw(st.sampled_from(chosen))))
    return system, window, chosen


def _cube_filter(system, parset, window):
    """Oracle: the words of the cube on the allowed side of every root, in
    lexicographic order."""
    P = list(parset)
    strict = [r for r in P if not is_positive_root(r)]
    return [f for f in word_cube(system.n, window)
            if all(inner(r, f) >= 0 for r in P) and all(inner(r, f) > 0 for r in strict)]


def _run_points(system, roots, window):
    """The points of ``lattice_runs``, expanded, once the walk is checked to
    come back factored at the last coordinate block: the leading points are
    strictly increasing and have one letter per coordinate before that
    block, and the runs are non-empty, with strictly increasing prefixes of
    the rest but one.  Rank 0 has one leading point () and no run, and its
    one point is ()."""
    roots = list(roots)
    leading, runs = lattice_runs(system, roots, window)
    assert all(lo <= hi for _, lo, hi in runs)
    assert all(a < b for a, b in zip(leading, leading[1:]))
    assert all(a[0] < b[0] for a, b in zip(runs, runs[1:]))
    if not system.n:
        assert (leading, runs) == ([()], [])
        return [()]
    k = _last_block_start(system, roots)
    assert all(len(p) == k for p in leading)
    assert all(len(q) == system.n - k - 1 for q, _, _ in runs)
    return [p + q + (v,) for p in leading for q, lo, hi in runs for v in range(lo, hi + 1)]


def _last_block_start(system, roots):
    """Oracle for where the last coordinate block starts: the highest
    coordinate k that no root reads both below and at or above, else 0."""
    spans = [_reads(r) for r in roots]
    return max((k for k in range(1, system.n) if not any(i < k <= j for i, j in spans)),
               default=0)


class TestRoots:
    @pytest.mark.parametrize("system,count", [(A3, 3), (B3, 9), (D3, 6)])
    def test_positive_root_counts(self, system, count):
        assert len(positive_roots(system)) == count

    @pytest.mark.parametrize("system", (A3, B3, D3))
    def test_descents_are_negated_simples(self, system):
        for w in elements(system):
            for s in system.generators:
                root = w.apply_to_root(simple_roots(system)[s])
                assert (root in positive_roots(system)) == (s not in w.descent_set())

    @pytest.mark.parametrize("system", (B2, D2, A2))
    def test_chamber_parsets(self, system):
        for w in elements(system):
            assert is_parset(system, chamber(w))
            assert linear_extension_set(system, chamber(w)) == [w]
        assert chamber(system.identity()) == positive_roots(system)

    def test_parset_axioms(self):
        # a positive pair whose sum is a root but missing fails closure
        e1 = (1, 0)
        e2_minus_e1 = (-1, 1)
        assert not is_parset(B2, [e1, e2_minus_e1])
        closed = parset_closure(B2, [e1, e2_minus_e1])
        assert closed is not None and is_parset(B2, closed)
        assert (0, 1) in closed and (1, 1) in closed
        # opposite pair is rejected
        assert parset_closure(B2, [e1, (-1, 0)]) is None

    def test_empty_parset(self):
        assert is_parset(B2, [])
        assert len(lattice_points(B2, [], 2)) == 25
        assert len(linear_extension_set(B2, [])) == 8

    def test_parabolic_roots(self):
        assert parabolic_positive_roots(B2, frozenset([0])) == frozenset({(1, 0)})
        assert parabolic_positive_roots(B2, frozenset([1])) == frozenset({(-1, 1)})
        assert parabolic_positive_roots(D3, frozenset()) == frozenset()
        assert parabolic_positive_roots(B3, B3.generator_set) == positive_roots(B3)

    @pytest.mark.parametrize("system", (A2, B2, D2))
    def test_lattice_decomposition_random(self, system):
        rng = random.Random(99)
        for _ in range(30):
            P = random_parset(system, rng)
            assert is_parset(system, P)
            pts = sorted(lattice_points(system, P, 4))
            union = []
            for w in linear_extension_set(system, P):
                union.extend(lattice_points(system, chamber(w), 4))
            assert pts == sorted(union)
            assert len(union) == len(set(union))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(LATTICE_SYSTEMS), st.integers(0, 2), st.integers(0, 10**6))
    def test_lattice_points_match_cube_filter(self, system, window, seed):
        P = random_parset(system, random.Random(seed))
        assert lattice_points(system, P, window) == _run_points(system, P, window) \
            == _cube_filter(system, P, window)

    @pytest.mark.parametrize("system", LATTICE_SYSTEMS, ids=lambda s: f"{s.family}{s.n}")
    @pytest.mark.parametrize("window", (0, 1, 2))
    def test_lattice_points_extreme_parsets(self, system, window):
        longest = max(elements(system), key=lambda w: w.length())
        for P in ([], positive_roots(system), chamber(longest)):
            assert lattice_points(system, P, window) == _run_points(system, P, window) \
                == _cube_filter(system, P, window)
        if window == 0:
            assert lattice_points(system, [], 0) == [(0,) * system.n]
        # chamber(longest) holds only negative roots, so every inequality is strict
        assert all(not is_positive_root(r) for r in chamber(longest))

    def test_lattice_points_non_unit_top_coefficient(self):
        # Not roots of A/B/D, but the interval bounds must still be exact
        # floor and ceiling divisions.
        for P in ([(1, 2)], [(1, -2)], [(-3, 2), (1, -2)], [(0, -2), (1, 3)]):
            for window in range(4):
                assert lattice_points(B2, P, window) == _run_points(B2, P, window) \
                    == _cube_filter(B2, P, window)
        # vectors reading two earlier coordinates
        for P in ([(1, 1, -1)], [(2, -1, 3), (-1, 1, -2)], [(1, 1, 2), (0, 1, 0), (0, -1, 1)]):
            for window in range(4):
                assert lattice_points(B3, P, window) == _run_points(B3, P, window) \
                    == _cube_filter(B3, P, window)

    @pytest.mark.parametrize("family", ("A", "B"))
    def test_lattice_points_rank_zero(self, family):
        system = CoxeterSystem(family, 0)
        for window in (2, 0):
            assert lattice_points(system, [], window) == [()] == _run_points(system, [], window) \
                == _cube_filter(system, [], window)

    def test_lattice_points_empty_ranges(self):
        # f_0 > f_1 leaves f_1 no value once f_0 = -window, one level above
        # the last in B3; 2 f_0 > f_1 in B2 puts the last level's upper bound
        # below -window - 1.  A whole block can have no point: f_0 > f_1 >= f_0
        # in the first, f_2 < 0 <= f_0 at window 0 in the last.
        for system, P in ((B3, [(1, -1, 0)]), (B3, [(1, -1, 0), (0, 1, -1)]), (B2, [(2, -1)]),
                          (B3, [(1, -1, 0), (-1, 1, 0), (0, 0, 1)]), (B3, [(1, 0, 0), (0, 0, -1)])):
            for window in range(4):
                pts = lattice_points(system, P, window)
                assert pts == _run_points(system, P, window) == _cube_filter(system, P, window)
                assert all(f[0] > -window for f in pts)
        assert lattice_points(B3, [(1, -1, 0), (-1, 1, 0), (0, 0, 1)], 2) == []
        assert lattice_points(B3, [(1, 0, 0), (0, 0, -1)], 0) == []

    @pytest.mark.parametrize("system", [s for s in ORACLE_SYSTEMS if s.rank == 1],
                             ids=lambda s: f"{s.family}{s.n}")
    def test_lattice_points_rank_one(self, system):
        roots = sorted(all_roots(system))
        for k in range(len(roots) + 1):
            for P in itertools.combinations(roots, k):
                for window in range(4):
                    assert lattice_points(system, P, window) == _cube_filter(system, P, window)

    @settings(max_examples=300, deadline=None)
    @given(_root_subsets())
    # e3 - e1 and e4 + e1 read a far coordinate: no block may start between
    @example((B3, 2, [(-1, 0, 1)]))
    @example((CoxeterSystem("D", 4), 2, [(1, 0, 0, 1), (0, -1, 1, 0)]))
    # two blocks, the leading one with no point (f_0 > f_1 >= f_0)
    @example((B3, 2, [(1, -1, 0), (-1, 1, 0), (0, 0, 1)]))
    # two blocks, a strict negative root in each
    @example((CoxeterSystem("D", 4), 1, [(-1, -1, 0, 0), (0, 0, 1, -1)]))
    # four one-coordinate blocks at window 0; rank 0
    @example((CoxeterSystem("A", 4), 0, []))
    @example((CoxeterSystem("B", 0), 3, []))
    def test_lattice_points_on_root_subsets(self, case):
        # _run_points checks that the walk comes back factored; every
        # leading point then heads a copy of the last block's points
        system, window, roots = case
        points = _run_points(system, roots, window)
        assert lattice_points(system, roots, window) == points == _cube_filter(system, roots, window)
        leading, runs = lattice_runs(system, roots, window)
        if runs:
            k = len(leading[0]) if leading else 0
            assert leading == sorted({f[:k] for f in points})

    @pytest.mark.parametrize("system", LATTICE_SYSTEMS, ids=lambda s: f"{s.family}{s.n}")
    def test_lattice_points_of_every_parabolic(self, system):
        # the h-basis input
        for I in all_subsets(system):
            roots = parabolic_positive_roots(system, I)
            for window in range(4):
                assert lattice_points(system, roots, window) == _cube_filter(system, roots, window)

    @pytest.mark.parametrize("vector", [(1, -1), (1, -1, 0, 0), ()])
    def test_lattice_points_refuse_a_vector_of_another_length(self, vector):
        with pytest.raises(ValueError, match=re.escape(f"vector {vector} has length {len(vector)}, "
                                                       "not n = 3")):
            lattice_points(B3, [(0, 1, 0), vector], 1)

    def test_parabolic_chamber_extension_set(self):
        # the extension set of a parabolic chamber is the coset of the
        # inverses of the minimal representatives
        from coxkit.systems import min_coset_reps

        for I in all_subsets(B2):
            roots_i = parabolic_positive_roots(B2, I)
            from coxkit.systems import parabolic_elements
            for u in parabolic_elements(B2, I):
                P = frozenset(u.apply_to_root(a) for a in roots_i)
                got = set(linear_extension_set(B2, P))
                expected = {u * z.inverse() for z in min_coset_reps(B2, I, "left")}
                assert got == expected


#: Systems on which the cone test is checked against the Caratheodory scan.
CONE_SYSTEMS = tuple(CoxeterSystem.of_rank("A", r) for r in range(1, 5)) \
    + tuple(CoxeterSystem("B", n) for n in range(1, 4)) \
    + tuple(CoxeterSystem("D", n) for n in range(2, 5))


def _scan_is_parset(system, roots):
    """is_parset with every cone membership decided by the scan."""
    P = frozenset(roots)
    if not P <= all_roots(system) or any(negate(r) in P for r in P):
        return False
    return not any(caratheodory_cone_contains(tuple(P), beta, system.n)
                   for beta in all_roots(system) - P)


def _scan_parset_closure(system, roots):
    """parset_closure with every cone membership decided by the scan."""
    gens = tuple(roots)
    closed = set(gens) | {beta for beta in all_roots(system)
                          if caratheodory_cone_contains(gens, beta, system.n)}
    if any(negate(r) in closed for r in closed):
        return None
    return frozenset(closed)


@st.composite
def _root_lists(draw, systems=CONE_SYSTEMS, max_size=5):
    """A system of ``systems`` and a short list of its roots: possibly
    empty, with duplicates, often with an opposite pair (a cone containing
    a line) and usually spanning less than the whole space."""
    system = draw(st.sampled_from(systems))
    roots = sorted(all_roots(system))
    gens = draw(st.lists(st.sampled_from(roots), max_size=max_size))
    if gens and draw(st.booleans()):
        gens.append(negate(draw(st.sampled_from(gens))))
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    return system, draw(st.permutations(gens))


#: Systems past the reach of the Caratheodory scan, on which the closure
#: is checked against the intersection of the chambers that contain it.
CHAMBER_SYSTEMS = (CoxeterSystem("B", 5), CoxeterSystem("D", 5), CoxeterSystem("A", 6))


def _draw_parsets_by_size(system, sizes, seed):
    """One random_parset of each size in ``sizes``, from seeded draws."""
    found = {}
    for j in range(5000):
        P = random_parset(system, random.Random(f"{seed}:{j}"))
        if len(P) in sizes:
            found.setdefault(len(P), P)
            if len(found) == len(sizes):
                return found
    raise AssertionError(f"sizes {sorted(set(sizes) - set(found))} not drawn")


class TestConeMembership:
    @settings(max_examples=200, deadline=None)
    @given(_root_lists())
    def test_closure_matches_scan(self, case):
        system, gens = case
        assert parset_closure(system, gens) == _scan_parset_closure(system, gens)

    @settings(max_examples=200, deadline=None)
    @given(_root_lists(), st.integers(0, 10**6))
    def test_is_parset_matches_scan(self, case, seed):
        # the drawn list, its closure, and the closure less one root
        system, gens = case
        candidates = [gens]
        closed = parset_closure(system, gens)
        if closed:
            candidates.append(closed)
            candidates.append(closed - {sorted(closed)[seed % len(closed)]})
        for P in candidates:
            assert is_parset(system, P) == _scan_is_parset(system, P), sorted(P)

    @settings(max_examples=150, deadline=None)
    @given(_root_lists(CHAMBER_SYSTEMS, max_size=8), st.integers(0, 10**6))
    def test_closure_is_the_chamber_intersection(self, case, seed):
        # the drawn list, its closure, and the closure less one root
        system, gens = case
        closed = parset_closure(system, gens)
        assert closed == chamber_intersection(system, gens)
        candidates = [gens]
        if closed:
            candidates += [closed, closed - {sorted(closed)[seed % len(closed)]}]
        for P in candidates:
            assert is_parset(system, P) == (chamber_intersection(system, P) == frozenset(P))

    def test_cones_with_lines_and_low_rank(self):
        e1, e2 = (1, 0, 0), (0, 1, 0)
        # a line: the cone of {e1, -e1} is the e1 axis, closed under nothing else
        assert parset_closure(B3, [e1, negate(e1)]) is None
        assert not is_parset(B3, [e1, negate(e1)])
        # rank 1 and 2 spans inside rank 3
        assert parset_closure(B3, [e1, e1]) == frozenset({e1})
        assert parset_closure(B3, [e1, e2]) == frozenset({e1, e2, (1, 1, 0)})
        assert is_parset(B3, [e1, e2, (1, 1, 0)])
        assert not is_parset(B3, [e1, e2])
        assert parset_closure(B3, []) == frozenset() and is_parset(B3, [])
        # not roots at all
        assert not is_parset(B3, [(2, 0, 0)])

    @pytest.mark.parametrize("system", (B3, CoxeterSystem("D", 4)), ids=("B3", "D4"))
    def test_every_chamber_is_closed(self, system):
        for w in elements(system):
            P = chamber(w)
            assert is_parset(system, P)
            assert parset_closure(system, P) == P

    def test_large_b4_parsets(self):
        # sizes 10-16 took seconds each with the subset scan
        B4 = CoxeterSystem("B", 4)
        parsets = _draw_parsets_by_size(B4, set(range(10, 17)), seed=8)
        start = time.perf_counter()
        for P in parsets.values():
            assert is_parset(B4, P)
            assert parset_closure(B4, P) == P
        assert time.perf_counter() - start < 5.0

    def test_closure_refuses_a_vector_that_is_no_root(self):
        for vector in ((2, 0, 0), (1, 1, 1), (1, 0), (0, 0, 0)):
            with pytest.raises(ValueError, match=re.escape(f"vector {vector} is not a root of")):
                parset_closure(B3, [(1, 0, 0), vector])
            assert not is_parset(B3, [vector])
        with pytest.raises(ValueError, match=re.escape("vector (1, 0, 0) is not a root of")):
            parset_closure(CoxeterSystem("A", 3), [(1, 0, 0)])

    def test_closure_past_the_cap_is_refused(self):
        # the chambers are read off the whole group, so the order cap holds
        set_max_order(B3.order() - 1)
        try:
            with pytest.raises(CapExceededError, match=r"\|W\| = 48 exceeds cap 47"):
                parset_closure(B3, [(1, 0, 0)])
            with pytest.raises(CapExceededError):
                is_parset(B3, [(1, 0, 0)])
        finally:
            set_max_order(None)
        assert parset_closure(B3, [(1, 0, 0)]) == frozenset({(1, 0, 0)})

    @pytest.mark.parametrize("system", (B3, CoxeterSystem("D", 4)), ids=("B3", "D4"))
    def test_parabolic_roots_match_solve(self, system):
        for I in all_subsets(system):
            assert parabolic_positive_roots(system, I) == solved_parabolic_positive_roots(system, I)

    def test_parabolic_roots_call_no_linear_algebra(self, monkeypatch):
        # the positive roots of W_I are the inversion set of w0(I): no cone
        # is solved for them, so no row space or null space is built, and
        # roots binds no name of linalg that could build one
        import coxkit.linalg
        import coxkit.roots

        def refuse(*args):
            raise AssertionError("parabolic_positive_roots called linalg")

        assert [name for name, value in vars(coxkit.roots).items()
                if value is coxkit.linalg
                or getattr(value, "__module__", None) == "coxkit.linalg"] == []
        systems = (CoxeterSystem("A", 4), B3, CoxeterSystem("D", 4))
        expected = {(system, I): solved_parabolic_positive_roots(system, I)
                    for system in systems for I in all_subsets(system)}
        monkeypatch.setattr(coxkit.linalg, "nullspace", refuse)
        monkeypatch.setattr(coxkit.linalg, "RowSpace", refuse)
        parabolic_positive_roots.cache_clear()
        for (system, I), roots in expected.items():
            assert parabolic_positive_roots(system, I) == roots


class TestSeriesBases:
    @pytest.mark.parametrize("system", (A2, B2, D2))
    def test_cube_partition(self, system):
        m = system.n + 1
        sizes = [len(s_series(w, m).terms) for w in elements(system)]
        assert sum(sizes) == (2 * m + 1) ** system.n
        assert all(sizes)

    @pytest.mark.parametrize("system", (A2, B2, D2))
    def test_f_series_two_routes(self, system):
        # f_series(w) is the chamber of w; its oracle is the fiber of w^{-1}.
        fibers = standardization_fibers(system, 3)
        for w in elements(system):
            assert f_series(w, 3) == NCSeries.from_words(system.n, 3, fibers.get(w.inverse(), ()))

    def test_s_series_is_standardization_fiber(self):
        cases = [(A2, 3), (B2, 3), (D2, 3), (A3, 2), (B3, 2), (D3, 2),
                 (CoxeterSystem("D", 4), 2)]
        for system, m in cases:
            fibers = standardization_fibers(system, m)
            for w in elements(system):
                assert sorted(s_series(w, m).terms) == sorted(fibers.get(w, []))

    def test_s_basis_checks_the_cube_before_enumerating(self, monkeypatch):
        import coxkit.series

        def refuse(*args):
            raise AssertionError("lattice_points called before the cube check")

        monkeypatch.setattr(coxkit.series, "lattice_points", refuse)
        set_max_order(5 ** 3 - 1)
        try:
            with pytest.raises(CapExceededError, match=r"\(2\*2\+1\)\^3 = 125"):
                s_basis(A3, (1, 2), 2)
        finally:
            set_max_order(None)

    @pytest.mark.parametrize("system", SMALL_RANKS, ids=repr)
    def test_bases_three_constructions(self, system):
        m = system.n + 1
        for I in all_subsets(system):
            alpha = composition_from_descents(system, I)
            assert s_basis(system, alpha, m) == s_basis_by_class(system, alpha, m)
            acc = NCSeries(system.n, m)
            for J in all_subsets(system):
                if J <= I:
                    acc = acc + s_basis(system, composition_from_descents(system, J), m)
            assert acc == h_basis(system, alpha, m)

    @pytest.mark.parametrize("system", SMALL_RANKS, ids=repr)
    def test_signed_simple_roots_match_cube_filter(self, system):
        # the signed simple roots of a descent set are not a parset
        for I in all_subsets(system):
            roots = [negate(r) if s in I else r for s, r in simple_roots(system).items()]
            for window in range(system.n + 2):
                assert lattice_points(system, roots, window) \
                    == _cube_filter(system, roots, window)

    def test_s_basis_edge_keys(self):
        for system in (CoxeterSystem("A", 0), CoxeterSystem("B", 0)):
            assert s_basis(system, (), 2) == s_basis_by_class(system, (), 2) \
                == NCSeries.from_words(0, 2, [()])
        # a leading 0 is a descent at 0, which type A does not have
        for alpha in ((0, 3), (0, 1, 2)):
            assert s_basis(A3, alpha, 4) == NCSeries(3, 4) == s_basis_by_class(A3, alpha, 4)
        set_max_order(7 ** 3 - 1)
        try:
            for system, alpha in ((A3, (1, 2)), (B3, (0, 3)), (D3, (2, 1)), (A3, (0, 3))):
                with pytest.raises(CapExceededError, match=r"\(2\*3\+1\)\^3 = 343"):
                    s_basis(system, alpha, 3)
        finally:
            set_max_order(None)

    @pytest.mark.parametrize("system", (A2, B2, D2))
    def test_chamber_basis_linearly_independent(self, system):
        m = system.n + 1
        assert is_linearly_independent([f_series(w, m) for w in elements(system)])

    @pytest.mark.parametrize("system", (A2, B2, D2, B3))
    def test_parabolic_chamber_series_is_coset_sum(self, system):
        # the generating function of a translated parabolic chamber is the
        # sum of the chamber series over the coset of minimal representatives
        from coxkit.systems import min_coset_reps, parabolic_elements

        window = 3
        for I in all_subsets(system):
            roots_i = parabolic_positive_roots(system, I)
            reps = min_coset_reps(system, I, "right")
            for u in parabolic_elements(system, I):
                P = frozenset(u.apply_to_root(a) for a in roots_i)
                lhs = parset_series(system, P, window)
                rhs = NCSeries(system.n, window)
                for z in reps:
                    rhs = rhs + f_series(u * z, window)
                assert lhs == rhs

    def test_plain_fibers_refine_signed_fibers(self):
        # every plain fiber series is the sum of the signed fiber series of
        # the signed windows standardizing onto it
        m = 3
        a2 = CoxeterSystem("A", 2)
        for w in elements(a2):
            rhs = NCSeries(2, m)
            for u in elements(B2):
                if standardize(u.window) == w:
                    rhs = rhs + s_series(u, m)
            assert s_series(w, m) == rhs

    def test_even_fibers_inside_signed_span(self):
        # each even fiber series is a sum of two signed fiber series, so the
        # even span embeds in the signed span on truncations
        m = 3
        for w in elements(D2):
            coeffs = express_in_basis(
                s_series(w, m), [s_series(u, m) for u in elements(B2)])
            assert sorted(coeffs) == [0, 0, 0, 0, 0, 0, 1, 1]

    def test_signed_fiber_refinement(self):
        # a plain fiber splits into the four signed fibers over it
        m = 3
        lhs = NCSeries(2, m)
        for f in itertools.product(range(-m, m + 1), repeat=2):
            if standardize(f).window == (1, 2):
                lhs = lhs + NCSeries(2, m, {f: 1})
        rhs = NCSeries(2, m)
        for win in [(1, 2), (-1, 2), (-2, 1), (-2, -1)]:
            rhs = rhs + s_series(B2.element(win), m)
        assert lhs == rhs

    def test_even_fiber_series_split(self):
        m = 4
        b3 = CoxeterSystem("B", 3)
        for w in elements(D3):
            shifted = b3.element(tuple(-v if abs(v) == 1 else v for v in w.window))
            assert s_series(w, m) == s_series(b3.element(w.window), m) + s_series(shifted, m)

    def test_h_block_expansion(self):
        # the 0-anchored block splits as powers of the smallest letter times
        # plain blocks, after projection
        K = 3
        for k in range(4):
            lhs = sym_h_b_block(k, K)
            rhs = CPoly()
            for i in range(k + 1):
                rhs = rhs + x0_power(i) * complete_homogeneous(k - i, K)
            assert lhs == rhs

    def test_h_block_single_letter(self):
        out = h_block("B", 1, 2)
        assert sorted(out.terms) == [(0,), (1,), (2,)]
        out_a = h_block("A", 1, 2)
        assert sorted(out_a.terms) == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_h_block_is_one_part_basis(self):
        for k in (1, 2, 3):
            system = CoxeterSystem("B", k)
            assert h_block("B", k, k + 1) == h_basis(system, (k,), k + 1)

    @pytest.mark.parametrize("system", (B2, B3))
    def test_h_basis_is_block_product(self, system):
        # the root-system route agrees with the literal word-series product
        # of a 0-anchored block and full-alphabet blocks
        m = system.n + 1
        for I in all_subsets(system):
            alpha = composition_from_descents(system, I)
            prod = h_block("B", alpha[0], m)
            for part in alpha[1:]:
                prod = prod * h_block("A", part, m)
            assert prod == h_basis(system, alpha, m)

    def test_h_basis_block_product_even_family(self):
        # same product structure in the even-signed family, when the first
        # block is large enough to carry its group
        m = 4
        for alpha in ((2, 1), (3,), (2,)):
            system = CoxeterSystem("D", sum(alpha))
            head = h_basis(CoxeterSystem("D", alpha[0]), (alpha[0],), m)
            prod = head
            for part in alpha[1:]:
                prod = prod * h_block("A", part, m)
            assert prod == h_basis(system, alpha, m)

    def test_signed_block_splits_noncommutatively(self):
        # leading-zero decomposition of the 0-anchored block: zero powers
        # times strictly-positive weakly increasing tails, as word series
        k, m = 2, 5

        def positive_block(j):
            words = (f for f in itertools.product(range(1, m + 1), repeat=j)
                     if all(f[i] <= f[i + 1] for i in range(j - 1)))
            return NCSeries.from_words(j, m, words)

        lhs = h_block("B", k, m)
        rhs = NCSeries(k, m)
        for i in range(k + 1):
            x0i = NCSeries(i, m, {(0,) * i: 1})
            tail = positive_block(k - i)
            rhs = rhs + (x0i * tail if k - i else x0i)
        assert lhs == rhs


class TestProjections:
    def test_absolute_projection(self):
        s = NCSeries(2, 3, {(-3, 2): 1})
        assert project_absolute(s).terms == {(2, 3): 1}

    def test_signed_min_projection_witness(self):
        s = NCSeries(2, 3, {(-2, 1): 1})
        assert project_signed_min(s).terms == {(-1, 2): 1}
        t = NCSeries(2, 3, {(-2,): 0} if False else {(2, -1): 1})
        assert project_signed_min(t).terms == {(-1, 2): 1}

    def test_signed_min_not_multiplicative(self):
        x = NCSeries(1, 3, {(-2,): 1})
        y = NCSeries(1, 3, {(1,): 1})
        prod = NCSeries(2, 3, {(-2, 1): 1})
        assert project_signed_min(prod) != project_signed_min(x) * project_signed_min(y)

    def test_positive_projection_on_chambers(self):
        for w in elements(A2):
            alpha = composition_from_descents(A2, w.descent_set())
            assert project_positive(f_series(w, 3)) == fundamental_qsym(alpha, 3)

    def test_absolute_projection_on_chambers(self):
        for w in elements(B3):
            alpha = composition_from_descents(B3, w.descent_set())
            assert project_absolute(f_series(w, 4)) == fundamental_qsym_b(alpha, 4)

    def test_signed_projection_on_chambers(self):
        for w in elements(D3):
            alpha = composition_from_descents(D3, w.descent_set())
            assert project_signed_min(f_series(w, 4)) == fundamental_qsym_d(alpha, 4)


class TestCommutativeBases:
    def test_monomial_single_block(self):
        assert monomial_qsym((2,), 3).terms == {(1, 1): 1, (2, 2): 1, (3, 3): 1}

    @pytest.mark.parametrize("system,M,F", [
        (B3, monomial_qsym_b, fundamental_qsym_b),
        (D3, monomial_qsym_d, fundamental_qsym_d),
        (A3, monomial_qsym, fundamental_qsym),
    ])
    def test_fundamental_is_refinement_sum(self, system, M, F):
        K = 3
        for I in all_subsets(system):
            alpha = composition_from_descents(system, I)
            acc = CPoly()
            for J in all_subsets(system):
                if I <= J:
                    acc = acc + M(composition_from_descents(system, J), K)
            assert acc == F(alpha, K)

    def test_monomial_d_piecewise(self):
        K = 3
        for system in (D2, D3):
            n = system.n
            for I in all_subsets(system):
                alpha = composition_from_descents(system, I)
                direct = monomial_qsym_d(alpha, K)
                if alpha[0] >= 2:
                    predicted = x0_power(alpha[0]) * monomial_qsym(alpha[1:], K)
                elif alpha[0] == 0 and len(alpha) > 1 and alpha[1] >= 2:
                    predicted = monomial_qsym(alpha[1:], K)
                elif alpha[0] == 1:
                    predicted = CPoly()
                    for idx in itertools.combinations(range(1, K + 1), len(alpha) - 1):
                        mono = (-idx[0],) + tuple(
                            i for i, a in zip(idx, alpha[1:]) for _ in range(a))
                        predicted = predicted + CPoly.monomial(mono)
                else:  # alpha starts (0, 1, ...)
                    predicted = CPoly()
                    for idx in itertools.combinations(range(1, K + 1), len(alpha) - 2):
                        j3 = idx[0] if idx else K + 1
                        for j2 in range(-j3 + 1, j3):
                            mono = (j2,) + tuple(
                                i for i, a in zip(idx, alpha[2:]) for _ in range(a))
                            predicted = predicted + CPoly.monomial(mono)
                assert direct == predicted, alpha

    def test_type_d_chains_are_counted_before_the_walk(self):
        # the chains -i_2 <= i_1 <= i_2 <= ... <= i_n in [-K, K], one term
        # each of F_(n), number sum_a (2a + 1) C(K - a + n - 2, n - 2): a cap
        # at that count answers, and one below it refuses, naming the count
        for n in range(2, 6):
            for K in range(7):
                count = sum((2 * a + 1) * math.comb(K - a + n - 2, n - 2) for a in range(K + 1))
                set_max_order(count)
                try:
                    assert len(fundamental_qsym_d((n,), K).terms) == count
                    set_max_order(count - 1)
                    with pytest.raises(CapExceededError, match=f"= {count} exceed cap {count - 1}"):
                        fundamental_qsym_d((n,), K)
                finally:
                    set_max_order(None)

    def test_h_well_defined_on_tail_reordering(self):
        assert sym_h_b((0, 2, 1), 4) == sym_h_b((0, 1, 2), 4)
        assert sym_h_b((1, 2, 1, 1), 4) == sym_h_b((1, 1, 1, 2), 4)

    def test_h_matches_projected_series(self):
        for system in (B2, B3):
            m = system.n + 1
            for I in all_subsets(system):
                alpha = composition_from_descents(system, I)
                assert sym_h_b(alpha, m) == project_absolute(h_basis(system, alpha, m))

    def test_monomial_b_factors(self):
        assert sym_m_b((2, 1), 3) == x0_power(2) * sym_m((1,), 3)
        assert monomial_qsym_b((2, 1), 3) == x0_power(2) * monomial_qsym((1,), 3)

    @pytest.mark.parametrize("lam", [(), (0,), (2,), (1, 1), (2, 1), (1, 0), (0, 0),
                                     (2, 1, 1), (1, 0, 1), (2, 0, 0, 1), (1, 1, 1, 1)])
    def test_monomial_symmetric_is_the_rearrangement_sum(self, lam):
        # the definition: one monomial quasisymmetric truncation per
        # distinct rearrangement of lam, windows below and above len(lam);
        # a zero part is refused at every window, as x^0 would count once
        # per index
        for K in range(5):
            if 0 in lam:
                with pytest.raises(ValueError, match="zero part"):
                    sym_m(lam, K)
                continue
            expected = CPoly()
            for alpha in set(itertools.permutations(lam)):
                expected += monomial_qsym(alpha, K)
            assert sym_m(lam, K) == expected, K

    def test_folded_block_structure(self):
        K = 3
        assert folded_h_block(1, K) == x0_power(1) + complete_homogeneous(1, K).scale(2)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([CoxeterSystem(family, n) for family in "ABD" for n in range(5)
                            if family != "D" or n >= 2]).flatmap(
        lambda system: st.tuples(st.just(system), st.sampled_from(all_subsets(system)),
                                 st.integers(0, 3))))
    def test_projected_ribbon_is_inverse_class_sum_on_every_key(self, case):
        # every valid key of size <= 4 and windows 0-3: the projection of
        # each family takes s_basis(alpha) to the fundamentals of D(w^{-1})
        # over the class, on the window's own letters
        system, I, K = case
        fund = {"A": fundamental_qsym, "B": fundamental_qsym_b,
                "D": fundamental_qsym_d}[system.family]
        rhs = CPoly()
        for w in descent_class(system, I):
            rhs = rhs + fund(composition_from_descents(system, w.inverse().descent_set()), K)
        alpha = composition_from_descents(system, I)
        assert projection(system.family)(s_basis(system, alpha, K)) == rhs

    @pytest.mark.parametrize("system", (A2, B2, D2))
    def test_commutative_ribbon_is_inverse_class_sum(self, system):
        # the projected ribbon equals the sum of fundamentals at the inverse
        # descent compositions over the class
        K = system.n + 1
        proj = projection(system.family)
        fund = {"A": fundamental_qsym, "B": fundamental_qsym_b,
                "D": fundamental_qsym_d}[system.family]
        for I in all_subsets(system):
            alpha = composition_from_descents(system, I)
            lhs = proj(s_basis(system, alpha, K))
            rhs = CPoly()
            for w in descent_class(system, I):
                beta = composition_from_descents(system, w.inverse().descent_set())
                rhs = rhs + fund(beta, K)
            assert lhs == rhs

    def test_signed_h_has_nonnegative_tensor_expansion(self):
        # every signed h-basis element is a nonnegative integer combination
        # of (power of the smallest variable) times plain h products
        from coxkit.systems import CoxeterSystem as CS

        K = 4
        system = CS("B", 3)
        partitions = {0: [()], 1: [(1,)], 2: [(2,), (1, 1)],
                      3: [(3,), (2, 1), (1, 1, 1)]}
        basis, labels = [], []
        for a in range(4):
            for mu in partitions[3 - a]:
                basis.append(x0_power(a) * sym_h(mu, K))
                labels.append((a, mu))
        assert is_linearly_independent(basis)
        for I in all_subsets(system):
            alpha = composition_from_descents(system, I)
            coeffs = express_in_basis(sym_h_b(alpha, K), basis)
            assert all(c.denominator == 1 and c >= 0 for c in coeffs), (alpha, coeffs)


class TestRationalTransition:
    def test_transition_matrix(self):
        K = 3
        basis = [sym_h_b(a, K) for a in ((2,), (1, 1), (0, 2), (0, 1, 1))]
        assert is_linearly_independent(basis)
        rows = {
            "x0sq": (x0_power(2),
                     [Fraction(8, 3), Fraction(-4, 3), Fraction(-4, 3), Fraction(1)]),
            "x0h1": (x0_power(1) * complete_homogeneous(1, K),
                     [Fraction(-4, 3), Fraction(5, 3), Fraction(2, 3), Fraction(-1)]),
            "h2": (complete_homogeneous(2, K),
                   [Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(0)]),
            "h11": (sym_h((1, 1), K),
                    [Fraction(2, 3), Fraction(-4, 3), Fraction(-1, 3), Fraction(1)]),
        }
        for target, expected in rows.values():
            assert express_in_basis(target, basis) == expected

    def test_forward_rows(self):
        K = 3
        h2 = complete_homogeneous(2, K)
        h1 = complete_homogeneous(1, K)
        h11 = h1 * h1
        assert sym_h_b((2,), K) == x0_power(2) + x0_power(1) * h1 + h2
        assert sym_h_b((1, 1), K) == x0_power(2) + (x0_power(1) * h1).scale(3) + h11.scale(2)
        assert sym_h_b((0, 2), K) == x0_power(2) + (x0_power(1) * h1).scale(2) + h2.scale(2) + h11
        assert sym_h_b((0, 1, 1), K) == x0_power(2) + (x0_power(1) * h1).scale(4) + h11.scale(4)

    def test_not_in_span_reported(self):
        with pytest.raises(NotInSpanError):
            express_in_basis(monomial_qsym((1,), 3), [x0_power(2)])

    def test_s_in_chamber_basis_is_class_indicator(self):
        m = 3
        basis = [s_series(w, m) for w in elements(B2)]
        for I in all_subsets(B2):
            alpha = composition_from_descents(B2, I)
            coeffs = express_in_basis(s_basis(B2, alpha, m), basis)
            cls = set(descent_class(B2, I))
            for w, c in zip(elements(B2), coeffs):
                assert c == (1 if w in cls else 0)


class TestActionsAndCoactions:
    def test_action_matches_product_b(self):
        u = CoxeterSystem("B", 1).element([-1])
        v = CoxeterSystem("A", 2).element([2, 1])
        labels = f_action(u, v, 4)
        assert len(labels) == 12

    def test_action_matches_product_a_and_d(self):
        f_action(CoxeterSystem("A", 1).element([1]), CoxeterSystem("A", 2).element([1, 2]), 4)
        f_action(CoxeterSystem("D", 2).element([-2, -1]), CoxeterSystem("A", 1).element([1]), 4)
        f_action(CoxeterSystem("B", 1).element([-1]), CoxeterSystem("B", 1).element([1]), 4)

    def test_window_policy_refusal(self):
        x = f_series(B2.element([1, 2]), 2)
        with pytest.raises(WindowError):
            x * x

    def test_block_coproduct_formula(self):
        # coacting on a one-block basis element gives the two-block sum
        for k in (2, 3):
            system = CoxeterSystem("B", k)
            acc = None
            for w in descent_class(system, frozenset()):
                term = cap("B", w)
                acc = term if acc is None else acc + term
            expected = None
            for i in range(k + 1):
                bi, aki = CoxeterSystem("B", i), CoxeterSystem("A", k - i)
                for wb in descent_class(bi, frozenset()):
                    for wa in descent_class(aki, frozenset()):
                        term = type(acc).basis((wb, wa), kind="pair")
                        expected = term if expected is None else expected + term
            assert acc == expected

    def test_coaction_splits_match_composition_splits_b(self):
        for w in elements(B3):
            alpha = composition_from_descents(B3, w.descent_set())
            got = sorted(
                (composition_from_descents(a.system, a.descent_set()),
                 composition_from_descents(b.system, b.descent_set()))
                for (a, b) in unshuffle("B", w).terms)
            assert got == sorted(split_fundamental_b(alpha))

    def test_coaction_splits_match_composition_splits_d(self):
        for w in elements(D3):
            alpha = composition_from_descents(D3, w.descent_set())
            got = sorted(
                (composition_from_descents(a.system, a.descent_set()),
                 composition_from_descents(b.system, b.descent_set()))
                for (a, b) in unshuffle("D", w).terms)
            assert got == sorted(split_fundamental_d(alpha))

    def test_polynomial_coaction_identity_b(self):
        # the split formula against honest double-alphabet expansion:
        # substitute two disjoint positive windows and compare coefficients
        K1, K2 = 2, 2
        for I in all_subsets(B2):
            alpha = composition_from_descents(B2, I)
            n = sum(alpha)
            # left window 0..K1 renamed, right window strictly above it
            lhs = CPoly()
            for (a, b) in split_fundamental_b(alpha):
                lhs = lhs + fundamental_qsym_b(a, K1) * _shift_vars(
                    fundamental_qsym(b, K2), K1)
            direct = fundamental_qsym_b(alpha, K1 + K2)
            assert lhs == direct

    def test_monomial_split_lists(self):
        assert split_monomial_b((0, 2, 1)) == [((0,), (2, 1)), ((0, 2), (1,)), ((0, 2, 1), ())]
        assert split_monomial_d((1, 1, 2)) == [((1, 1), (2,)), ((1, 1, 2), ())]
        assert split_monomial_d((2, 1)) == [((2,), (1,)), ((2, 1), ())]

    def test_polynomial_monomial_coaction_identity_b(self):
        # splitting the alphabet into a low window and a disjoint high window
        # factors each monomial basis element through its part splits
        K1, K2 = 2, 2
        for I in all_subsets(B2):
            alpha = composition_from_descents(B2, I)
            lhs = CPoly()
            for (a, b) in split_monomial_b(alpha):
                lhs = lhs + monomial_qsym_b(a, K1) * _shift_vars(monomial_qsym(b, K2), K1)
            assert lhs == monomial_qsym_b(alpha, K1 + K2)

    def test_monomial_split_consistency_d(self):
        # the split lists refine the fundamental splits: dropping the splits
        # below the degree-two threshold matches the monomial threshold rule
        for I in all_subsets(D3):
            alpha = composition_from_descents(D3, I)
            monomial_prefixes = {sum(a) for a, _ in split_monomial_d(alpha)}
            fundamental_prefixes = {sum(a) for a, _ in split_fundamental_d(alpha)}
            assert monomial_prefixes <= fundamental_prefixes
            assert min(monomial_prefixes) >= 2


def _shift_vars(poly: CPoly, offset: int) -> CPoly:
    return CPoly(((tuple(i + offset for i in mono), c) for mono, c in poly.terms.items()))
