from collections import Counter

import pytest

from coxkit import cli
from coxkit import groupmaps as gm
from coxkit import verify
from coxkit import words as wd
from coxkit.freemodule import FormalVector
from coxkit.systems import CoxeterSystem, parabolic_decompose_right, parabolic_elements

#: The four flavor-keyed (co)products of :mod:`coxkit.words`.
MAPS = ("shuffle", "cup", "unshuffle", "cap")


def _spy_on_maps(monkeypatch):
    """Replace every (co)product with a wrapper that counts its argument
    tuples, (flavor, operands...); returns the counts and the (map,
    arguments, result) of every call."""
    counts = {name: Counter() for name in MAPS}
    calls = []
    for name in MAPS:
        real = getattr(wd, name)

        def spy(*args, _real=real, _name=name):
            counts[_name][args] += 1
            vec = _real(*args)
            calls.append((_real, args, vec))
            return vec

        monkeypatch.setattr(wd, name, spy)
    return counts, calls


class TestShufflesSuiteMemo:
    def test_each_product_evaluated_once_per_run(self, monkeypatch):
        counts, calls = _spy_on_maps(monkeypatch)
        assert all(check.passed for check in verify.suite_shuffles())
        assert all(counts.values())
        for name, counter in counts.items():
            assert set(counter.values()) <= {1}, name
        # Every returned vector is still what a fresh evaluation gives, so
        # no check merged anything into a shared vector.
        for real, args, vec in calls:
            assert vec == real(*args)

    def test_memo_dies_with_the_run(self, monkeypatch):
        counts, calls = _spy_on_maps(monkeypatch)
        verify.suite_shuffles()
        verify.suite_shuffles()
        assert calls
        for name, counter in counts.items():
            assert set(counter.values()) <= {2}, name

    def test_each_group_read_once_per_run(self, monkeypatch):
        reads = Counter()
        real = verify.elements

        def spy(system):
            reads[system] += 1
            return real(system)

        monkeypatch.setattr(verify, "elements", spy)
        for runs in (1, 2):
            assert all(check.passed for check in verify.suite_shuffles())
            assert set(reads.values()) == {runs}
        assert {(s.family, s.n) for s in reads} \
            == {("A", n) for n in range(5)} | {("B", n) for n in range(5)} | {("D", n) for n in (2, 3)}

    def test_a_dropped_cup_term_is_caught(self, monkeypatch):
        real = wd.cup
        target = None

        def broken(flavor, u, v):
            nonlocal target
            vec = real(flavor, u, v)
            if flavor == "B" and (u.window, v.window) == ((-1,), (2, 1)):
                target = min(vec.terms, key=lambda w: w.window)
                return FormalVector(kind="element")._with_terms(
                    {w: c for w, c in vec.terms.items() if w != target})
            return vec

        monkeypatch.setattr(wd, "cup", broken)
        failed = {check.name for check in verify.suite_shuffles() if not check.passed}
        assert target is not None
        assert failed == {"signed products agree with coset-rep maps",
                          "signed module associativity",
                          "inversion swaps the two signed products"}

    def test_a_swapped_even_signed_product_is_caught(self, monkeypatch):
        # the B and D coset-map checks share one loop: the D pass still
        # tells the cup product from the shuffle product
        real = wd.cup
        monkeypatch.setattr(wd, "cup", lambda flavor, u, v:
                            (wd.shuffle if flavor == "D" else real)(flavor, u, v))
        failed = {check.name for check in verify.suite_shuffles() if not check.passed}
        assert failed == {"even-signed products agree with coset-rep maps"}


BLOCK, DUALITY = ("signed coproduct components match block restriction",
                  "product/coproduct duality on all triples")


def _shuffles_failures() -> set[str]:
    return {check.name for check in verify.suite_shuffles() if not check.passed}


class TestShufflesSuiteMutations:
    """Broken maps make the shuffles suite report the checks they break,
    through ``verify`` and the command line alike: a FAIL and exit 1."""

    def _fails_with(self, capsys, expected: set[str]) -> None:
        assert _shuffles_failures() == expected
        assert cli.main(["verify", "--suite", "shuffles"]) == 1
        out = capsys.readouterr().out
        assert all(f"FAIL {name}" in out for name in expected)

    def test_a_restriction_to_the_coset_part_fails(self, monkeypatch, capsys):
        # the coset part is no block element: its tail is no type A window
        monkeypatch.setattr(gm, "restrict_right", lambda system, subset, x: x.map_keys(
            lambda w: parabolic_decompose_right(w, subset)[1], kind=gm.ELEMENT))
        self._fails_with(capsys, {BLOCK})

    @pytest.mark.parametrize("terms", (0, 2))
    def test_a_restriction_of_other_than_one_term_fails(self, monkeypatch, capsys, terms):
        real = gm.restrict_left

        def broken(system, subset, x):
            vec = real(system, subset, x)
            return vec.scale(0) if terms == 0 else vec + gm.element_vector(system.identity())

        monkeypatch.setattr(gm, "restrict_left", broken)
        self._fails_with(capsys, {BLOCK})

    @pytest.mark.parametrize("change", ("doubled", "dropped"))
    def test_one_wrong_shuffle_coefficient_fails_the_duality(self, monkeypatch, capsys, change):
        real = wd.shuffle

        def broken(flavor, u, v):
            vec = real(flavor, u, v)
            if flavor == "B" and (u.window, v.window) == ((-1,), (2, 1)):
                terms = dict(vec.terms)
                target = min(terms, key=lambda w: w.window)
                if change == "doubled":
                    terms[target] = 2
                else:
                    del terms[target]
                return FormalVector(kind="element")._with_terms(terms)
            return vec

        monkeypatch.setattr(wd, "shuffle", broken)
        self._fails_with(capsys, {DUALITY, "signed products agree with coset-rep maps",
                                  "inversion swaps the two signed products"})

    def test_one_wrong_cap_piece_key_fails_the_duality(self, monkeypatch, capsys):
        # the degree-1 piece of cap(2,-3,1) names the other signed letter
        real, b1 = wd.cap, CoxeterSystem("B", 1)

        def broken(flavor, w):
            vec = real(flavor, w)
            if flavor == "B" and w.window == (2, -3, 1):
                terms = dict(vec.terms)
                (a, b), = (key for key in terms if key[0].system.n == 1)
                del terms[(a, b)]
                terms[(b1.element([-a.window[0]]), b)] = 1
                return FormalVector(kind="pair")._with_terms(terms)
            return vec

        monkeypatch.setattr(wd, "cap", broken)
        self._fails_with(capsys, {DUALITY, BLOCK, "signed comodule coassociativity"})

    def test_a_cap_term_outside_the_size_pair_fails_the_duality(self, monkeypatch, capsys):
        # an extra degree-1 term (B1[1], A1[1]) in cap(-1) pairs a letter too
        # many with w: no (u, v, w) probe over B1 x A0 x B1 could see it, the
        # two tables do
        real = wd.cap
        extra = (CoxeterSystem("B", 1).element([1]), CoxeterSystem("A", 1).element([1]))

        def broken(flavor, w):
            vec = real(flavor, w)
            if flavor == "B" and w.window == (-1,):
                return vec + FormalVector.basis(extra, kind="pair")
            return vec

        monkeypatch.setattr(wd, "cap", broken)
        self._fails_with(capsys, {DUALITY, "signed comodule coassociativity"})


class TestSeriesSuiteCoaction:
    COACTION = "D: coaction splits match composition splits"

    @pytest.mark.parametrize("change", [{"prefix": wd.standardize_even_right},
                                        {"first_split": 3},
                                        {"suffix": wd.standardize_signed}],
                             ids=["prefix", "first_split", "suffix"])
    def test_a_broken_d_unshuffle_row_fails_the_check(self, monkeypatch, change):
        # the check reads the library's D unshuffle, not a copy of its rule
        assert {c.name: c.passed for c in verify.suite_series("D")}[self.COACTION]
        monkeypatch.setitem(wd.FLAVORS, "D", wd.FLAVORS["D"]._replace(**change))
        assert not {c.name: c.passed for c in verify.suite_series("D")}[self.COACTION]


B3 = CoxeterSystem("B", 3)
#: The subset and the element the mutations below corrupt.
I0, W0 = frozenset({1, 2}), (-3, 2, 1)


def _corrupt_restriction(monkeypatch, name: str, slot: int) -> None:
    """Make the groupmaps factorization ``name`` give the identity as the
    parabolic part (at ``slot``) of W0 at I0, so one restriction entry is wrong."""
    real = getattr(gm, name)

    def broken(w, subset):
        parts = list(real(w, subset))
        if (w.window, subset) == (W0, I0):
            parts[slot] = w.system.identity()
        return tuple(parts)

    monkeypatch.setattr(gm, name, broken)


def _drop_coset_rep(monkeypatch, side: str) -> None:
    """Drop the last minimal coset representative of I0 on ``side`` from the
    inductions over the whole group."""
    real = gm.min_coset_reps

    def broken(system, subset, s="left", within=None):
        reps = real(system, subset, s, within)
        return reps[:-1] if (subset, s, within) == (I0, side, None) else reps

    monkeypatch.setattr(gm, "min_coset_reps", broken)


def _dropped_rep_failures(name: str) -> list[str]:
    """The composition-law failures of a dropped representative: every chain
    into I0 from below, and I0 <= S, at each element of the smaller parabolic."""
    chains = [(frozenset(), I0), (frozenset({1}), I0), (frozenset({2}), I0),
              (I0, B3.generator_set)]
    return [f"{name} {sorted(I)} <= {sorted(J)} at {u}"
            for I, J in chains for u in parabolic_elements(B3, I)]


COMPOSITION, INVERSION, SQUARES, ADJUNCTION = (
    "composition laws along chains", "inversion intertwines the two sides",
    "descent-level squares commute", "coset-rep adjunctions on all basis pairs")

#: Per mutation: the diagrams checks and the duality checks it fails, and its
#: composition-law failures.
MUTATIONS = {
    "restrict_left entry": (
        lambda mp: _corrupt_restriction(mp, "parabolic_decompose_left", 1),
        {COMPOSITION, INVERSION}, {ADJUNCTION},
        lambda: ["restrict_left [2] <= [1, 2] at B3[-3,2,1]"]),
    "restrict_right entry": (
        lambda mp: _corrupt_restriction(mp, "parabolic_decompose_right", 0),
        {COMPOSITION, INVERSION, SQUARES}, {ADJUNCTION},
        lambda: ["restrict_right [1] <= [1, 2] at B3[-3,2,1]",
                 "restrict_right [2] <= [1, 2] at B3[-3,2,1]"]),
    "induce_left rep dropped": (
        lambda mp: _drop_coset_rep(mp, "left"),
        {COMPOSITION, INVERSION, SQUARES}, {ADJUNCTION},
        lambda: _dropped_rep_failures("induce_left")),
    "induce_right rep dropped": (
        lambda mp: _drop_coset_rep(mp, "right"),
        {COMPOSITION, INVERSION, SQUARES}, {ADJUNCTION},
        lambda: _dropped_rep_failures("induce_right")),
}


class TestGroupMapTables:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_a_corrupted_map_fails_the_same_checks(self, monkeypatch, mutation):
        corrupt, diagrams, duality, failures = MUTATIONS[mutation]
        corrupt(monkeypatch)
        assert {c.name for c in verify.suite_diagrams("B", 3) if not c.passed} == diagrams
        assert {c.name for c in verify.suite_duality("B", 3) if not c.passed} == duality
        assert verify.composition_law_failures(B3) == failures()

    def test_diagrams_evaluates_each_restriction_once_per_basis_vector(self, monkeypatch):
        # the tables feed each restriction |W| 2^r basis vectors; the
        # descent-level squares also send every class sum through
        # restrict_right once per subset, |W| 2^r terms more
        terms = Counter()
        for name in ("restrict_left", "restrict_right"):
            real = getattr(gm, name)

            def spy(system, subset, x, _real=real, _name=name):
                terms[_name] += len(x)
                return _real(system, subset, x)

            monkeypatch.setattr(gm, name, spy)
        assert all(c.passed for c in verify.suite_diagrams("B", 3))
        bound = B3.order() * 2 ** B3.rank
        assert terms["restrict_left"] <= bound
        assert terms["restrict_right"] <= 2 * bound
