from collections import Counter

from coxkit import verify
from coxkit import words as wd
from coxkit.freemodule import FormalVector

#: Every (co)product of :mod:`coxkit.words`, by name.
MAPS = sorted(f.__name__ for f in (*wd.PRODUCTS.values(), *wd.COPRODUCTS.values()))


def _spy_on_maps(monkeypatch):
    """Replace every (co)product with a wrapper that counts its argument
    tuples; returns the counts and the (map, arguments, result) of every
    call."""
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
        assert calls
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

    def test_a_dropped_cup_term_is_caught(self, monkeypatch):
        real = wd.cup_b
        target = None

        def broken(u, v):
            nonlocal target
            vec = real(u, v)
            if (u.window, v.window) == ((-1,), (2, 1)):
                target = min(vec.terms, key=lambda w: w.window)
                return FormalVector(kind="element")._with_terms(
                    {w: c for w, c in vec.terms.items() if w != target})
            return vec

        monkeypatch.setattr(wd, "cup_b", broken)
        failed = {check.name for check in verify.suite_shuffles() if not check.passed}
        assert target is not None
        assert failed == {"signed products agree with coset-rep maps",
                          "signed module associativity",
                          "inversion swaps the two signed products"}
