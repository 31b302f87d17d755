"""Acceptance suite: twelve exact criteria, one test per criterion.

Every comparison is exact integer or rational arithmetic (tolerance
zero).  Each test prints a single PASS line when it completes; run with
``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import random
import time
from fractions import Fraction

from coxkit import descents as dsc
from coxkit import groupmaps as gm
from coxkit import hecke as hk
from coxkit import linalg
from coxkit import qsym
from coxkit import roots as rt
from coxkit import series as sr
from coxkit import verify as vf
from coxkit import words as wd
from coxkit.freemodule import FormalVector
from coxkit.systems import (
    CoxeterSystem,
    all_subsets,
    class_maximum,
    composition_from_descents,
    descent_class,
    elements,
    longest_element,
    min_coset_reps,
    parabolic_elements,
)

from oracles import (
    collect_by_descents,
    double_coset_count,
    expected_mixed_projective_dim,
    s_basis_by_class,
)

A3 = CoxeterSystem("A", 4)   # rank 3
B2 = CoxeterSystem("B", 2)
B3 = CoxeterSystem("B", 3)
D3 = CoxeterSystem("D", 3)
D4 = CoxeterSystem("D", 4)


def _report(number: int, text: str) -> None:
    print(f"criterion {number:02d} ({text}): PASS")


def test_criterion_01_composition_laws():
    start = time.time()
    for system in (A3, B3, D4):
        assert vf.composition_law_failures(system) == [], system
    elapsed = time.time() - start
    assert elapsed < 10, f"composition laws took {elapsed:.1f}s"
    _report(1, "composition laws along chains, A3/B3/D4")


def test_criterion_02_duality_and_full_diagram():
    system = B3
    for I in all_subsets(system):
        for u in parabolic_elements(system, I):
            mu_u = gm.induce_left(system, I, gm.element_vector(u))
            mub_u = gm.induce_right(system, I, gm.element_vector(u))
            for w in elements(system):
                yw = gm.element_vector(w)
                assert mu_u.pairing(yw) == gm.element_vector(u).pairing(
                    gm.restrict_left(system, I, yw))
                assert gm.restrict_right(system, I, yw).pairing(gm.element_vector(u)) \
                    == yw.pairing(mub_u)
    for system in (B3, D4):
        for I in all_subsets(system):
            for J in (X for X in all_subsets(system) if X <= I):
                lhs = gm.induce_left(system, I,
                                     dsc.embed_sigma(system, dsc.sigma_basis(J), within=I))
                rhs = dsc.embed_sigma(system, dsc.sigma_induce(system, I, dsc.sigma_basis(J)))
                assert lhs == rhs
            for u in parabolic_elements(system, I):
                xu = gm.element_vector(u)
                assert gm.invert_vector(gm.induce_left(system, I, xu)) \
                    == gm.induce_right(system, I, gm.invert_vector(xu))
                assert gm.descent_projection(system, gm.induce_right(system, I, xu)) \
                    == dsc.sigma_star_induce(system, I, dsc.sigma_star_basis(u.descent_set()))
            for K in all_subsets(system):
                lhs = gm.restrict_right(system, I, dsc.embed_sigma(system, dsc.sigma_basis(K)))
                rhs = dsc.embed_sigma(system, dsc.sigma_restrict(system, I, dsc.sigma_basis(K)),
                                      within=I)
                assert lhs == rhs
            for w in elements(system):
                xw = gm.element_vector(w)
                assert gm.invert_vector(gm.restrict_right(system, I, xw)) \
                    == gm.restrict_left(system, I, gm.invert_vector(xw))
                assert gm.descent_projection(system, gm.restrict_left(system, I, xw)) \
                    == dsc.sigma_star_restrict(system, I, dsc.sigma_star_basis(w.descent_set()))
    _report(2, "adjunctions on B3 and diagram squares on B3/D4")


def test_criterion_03_descent_algebra_formulas():
    for system in (A3, B3, D4):
        for I in all_subsets(system):
            for J in (X for X in all_subsets(system) if X <= I):
                closed = dsc.sigma_induce(system, I, dsc.sigma_basis(J))
                oracle = collect_by_descents(
                    system,
                    gm.induce_left(system, I, dsc.embed_sigma(system, dsc.sigma_basis(J), within=I)))
                assert closed.terms == oracle.terms
            for K in all_subsets(system):
                closed = dsc.sigma_restrict(system, I, dsc.sigma_basis(K))
                oracle = collect_by_descents(
                    system,
                    gm.restrict_right(system, I, dsc.embed_sigma(system, dsc.sigma_basis(K))),
                    within=I)
                assert closed.terms == oracle.terms
    for I in all_subsets(B3):
        WI = parabolic_elements(B3, I)
        for z in min_coset_reps(B3, I, "right"):
            for K in all_subsets(B3):
                actual = {u for u in WI if (u * z).descent_set() == K}
                bounds = dsc.class_rep_bounds(z, I, K)
                if bounds is not None:
                    low, high = bounds
                    predicted = {u for u in WI if low <= u.descent_set() <= high}
                else:
                    predicted = set()
                assert actual == predicted
    _report(3, "closed formulas vs brute force, interval criterion")


def test_criterion_04_worked_examples():
    checks = vf.suite_paper_examples()
    failed = [c for c in checks if not c.passed]
    assert not failed, failed
    assert len(checks) >= 26
    _report(4, f"all {len(checks)} recorded worked examples")


def test_criterion_05_weak_order_interval():
    system = B3
    for I in all_subsets(system):
        cls = set(descent_class(system, I))
        lo, hi = longest_element(system, I), class_maximum(system, I)
        assert lo in cls and hi in cls
        seen, frontier = {lo}, [lo]
        while frontier:
            w = frontier.pop()
            for s in system.generators:
                sw = system.generator(s) * w
                if sw.length() == w.length() + 1 and sw in cls and sw not in seen:
                    seen.add(sw)
                    frontier.append(sw)
        assert seen == cls

        def below(u, w):
            return (w * u.inverse()).length() == w.length() - u.length()

        assert cls == {w for w in elements(system) if below(lo, w) and below(w, hi)}
    _report(5, "descent classes are weak-order intervals in B3")


def test_criterion_06_lattice_point_decomposition():
    window = 4
    for system in (A3, B3, D3):
        rng = random.Random(1234 + system.n + ord(system.family))
        for _ in range(50):
            P = rt.random_parset(system, rng)
            assert rt.is_parset(system, P)
            pts = sorted(rt.lattice_points(system, P, window))
            union = []
            for w in rt.linear_extension_set(system, P):
                union.extend(sr.s_series(w.inverse(), window).terms)
            assert len(union) == len(set(union))
            assert pts == sorted(union)
    _report(6, "50 random partial root systems per family, window 4")


def test_criterion_07_series_identities():
    for system in (B3, D3):
        m = 4
        for I in all_subsets(system):
            alpha = composition_from_descents(system, I)
            assert sr.s_basis(system, alpha, m) == s_basis_by_class(system, alpha, m)
    b3 = CoxeterSystem("B", 3)
    for w in elements(D3):
        shifted = b3.element(tuple(-v if abs(v) == 1 else v for v in w.window))
        assert sr.s_series(w, 4) == sr.s_series(b3.element(w.window), 4) \
            + sr.s_series(shifted, 4)
    for family in ("B", "D"):
        for n in (2, 3):
            system = CoxeterSystem(family, n)
            K = n + 1
            proj = sr.projection(family)
            for I in all_subsets(system):
                alpha = composition_from_descents(system, I)
                assert proj(sr.s_basis(system, alpha, K)) \
                    == proj(s_basis_by_class(system, alpha, K))
    for system in (CoxeterSystem("A", 3), B3, D3):
        m = system.n + 1
        for I in all_subsets(system):
            alpha = composition_from_descents(system, I)
            acc = sr.NCSeries(system.n, m)
            for J in all_subsets(system):
                if J <= I:
                    acc = acc + sr.s_basis(system, composition_from_descents(system, J), m)
            assert acc == sr.h_basis(system, alpha, m)
    _report(7, "ribbon/complete series identities at window n+1")


def test_criterion_08_rational_transition():
    K = 3
    basis = [qsym.sym_h_b(a, K) for a in ((2,), (1, 1), (0, 2), (0, 1, 1))]
    rows = [
        (qsym.x0_power(2),
         [Fraction(8, 3), Fraction(-4, 3), Fraction(-4, 3), Fraction(1)]),
        (qsym.complete_homogeneous(2, K),
         [Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(0)]),
        (qsym.x0_power(1) * qsym.complete_homogeneous(1, K),
         [Fraction(-4, 3), Fraction(5, 3), Fraction(2, 3), Fraction(-1)]),
        (qsym.sym_h((1, 1), K),
         [Fraction(2, 3), Fraction(-4, 3), Fraction(-1, 3), Fraction(1)]),
    ]
    for target, expected in rows:
        assert linalg.express_in_basis(target, basis) == expected
    _report(8, "degree-two transition rows recovered exactly")


def test_criterion_09_class_bases():
    for system in (A3, B3):
        vecs = {I: dsc.h_in_monomial_coordinates(system, I) for I in all_subsets(system)}
        for I in all_subsets(system):
            for J in all_subsets(system):
                same = dsc.conjugacy_class_of(system, I) == dsc.conjugacy_class_of(system, J)
                assert (vecs[I] == vecs[J]) == same
        labels = [dsc.class_label(c) for c in dsc.parabolic_conjugacy_classes(system)]
        hs = dsc.h_class_basis(system)
        ms = dsc.m_class_basis(system)
        gram = {(a, b): dsc.weak_descent_count(system, a, b) for a in labels for b in labels}
        basis = [hs[l] for l in labels]
        for j, mu in enumerate(labels):
            coeffs = linalg.express_in_basis(ms[mu], basis)
            for i, lam in enumerate(labels):
                assert sum(c * gram[(lam, nu)] for c, nu in zip(coeffs, labels)) \
                    == (1 if i == j else 0)
        S = system.generator_set
        for I in all_subsets(system):
            for J in all_subsets(system):
                assert dsc.weak_descent_count(system, I, J) \
                    == double_coset_count(system, S - I, S - J)
    _report(9, "class bases: equality pattern, duality, double cosets")


def test_criterion_10_hecke_structure():
    start = time.time()
    for system in (A3, B3, D4):
        reg = hk.regular_module(system)
        reg.validate()
        assert reg.dim == system.order()
        assert sum(len(descent_class(system, I)) for I in all_subsets(system)) \
            == system.order()
    system, I = B3, frozenset([1, 2])
    for J in (X for X in all_subsets(system) if X <= I):
        ind = hk.induce(hk.simple_module(system, J, acting=I))
        assert hk.composition_factors(ind) \
            == dsc.sigma_star_induce(system, I, dsc.sigma_star_basis(J))
    S = system.generator_set
    for J in (I,):
        for I2 in (X for X in all_subsets(system) if X <= J):
            ind = hk.induce(hk.projective_module(system, I2, carrier=J))
            mixed = hk.mixed_projective_module(system, I2, J)
            expected = FormalVector({I2 | K: 1 for K in all_subsets(system) if K <= S - J},
                                    kind="k0")
            assert hk.projective_multiplicities(ind) == expected
            assert hk.projective_multiplicities(mixed) == expected
            assert ind.dim == mixed.dim == expected_mixed_projective_dim(system, I2, J)
    for K in all_subsets(system):
        res = hk.restrict(hk.projective_module(system, K), I)
        assert hk.projective_multiplicities(res) \
            == dsc.sigma_restrict(system, I, dsc.sigma_basis(K))
    for family in ("A", "B", "D"):
        for n in (2, 3):
            sysn = CoxeterSystem(family, n)
            Kw = n + 1
            proj = sr.projection(family)
            for I3 in all_subsets(sysn):
                alpha = composition_from_descents(sysn, I3)
                P = hk.projective_module(sysn, I3)
                assert hk.characteristic_polynomial(sysn, hk.composition_factors(P), Kw) \
                    == proj(sr.s_basis(sysn, alpha, Kw))
    elapsed = time.time() - start
    assert elapsed < 60, f"representation checks took {elapsed:.1f}s"
    _report(10, "module relations, induction/restriction patterns, characteristics")


def test_criterion_11_sign_shifted_hopf_checks():
    triples = [(a, b, c) for a in range(4) for b in range(4 - a) for c in range(4 - a - b)]
    for ma, mb, mc in triples:
        for u in elements(CoxeterSystem("B", ma)):
            for v in elements(CoxeterSystem("B", mb)):
                for r in elements(CoxeterSystem("B", mc)):
                    lhs = wd.shuffle("BB", u, v).map_to_vectors(
                        lambda w: wd.shuffle("BB", w, r), kind="element")
                    rhs = wd.shuffle("BB", v, r).map_to_vectors(
                        lambda x: wd.shuffle("BB", u, x), kind="element")
                    assert lhs == rhs
    for total in (2, 3):
        for w in elements(CoxeterSystem("B", total)):
            left = FormalVector(kind="triple")
            for (a, b), c in wd.unshuffle("BB", w).terms.items():
                for (a1, a2), c2 in wd.unshuffle("BB", a).terms.items():
                    left = left + FormalVector.basis((a1, a2, b), c * c2, kind="triple")
            right = FormalVector(kind="triple")
            for (a, b), c in wd.unshuffle("BB", w).terms.items():
                for (b1, b2), c2 in wd.unshuffle("BB", b).terms.items():
                    right = right + FormalVector.basis((a, b1, b2), c * c2, kind="triple")
            assert left == right
    for total in (2, 3):
        for m in range(total + 1):
            for u in elements(CoxeterSystem("B", m)):
                for v in elements(CoxeterSystem("B", total - m)):
                    lhs = FormalVector(kind="pair")
                    for w, c in wd.shuffle("BB", u, v).terms.items():
                        lhs = lhs + wd.unshuffle("BB", w).scale(c)
                    rhs = FormalVector(kind="pair")
                    for (a1, a2), c1 in wd.unshuffle("BB", u).terms.items():
                        for (b1, b2), c2 in wd.unshuffle("BB", v).terms.items():
                            for x1, cx1 in wd.shuffle("BB", a1, b1).terms.items():
                                for x2, cx2 in wd.shuffle("BB", a2, b2).terms.items():
                                    rhs = rhs + FormalVector.basis(
                                        (x1, x2), c1 * c2 * cx1 * cx2, kind="pair")
                    assert lhs == rhs
                    assert gm.invert_vector(wd.shuffle("BB", u, v)) \
                        == wd.cup("BB", u.inverse(), v.inverse())
    # the mixed signed-with-plain pair must FAIL the compatibility law
    b1 = CoxeterSystem("B", 1).element([1])
    a1 = CoxeterSystem("A", 1).element([1])
    lhs = FormalVector(kind="pair")
    for w, c in wd.shuffle("B", b1, a1).terms.items():
        lhs = lhs + wd.unshuffle("B", w).scale(c)
    rhs = FormalVector(kind="pair")
    for (x1, x2), c1 in wd.unshuffle("B", b1).terms.items():
        for (y1, y2), c2 in wd.unshuffle("A", a1).terms.items():
            for z1, cz1 in wd.shuffle("B", x1, y1).terms.items():
                for z2, cz2 in wd.shuffle("A", x2, y2).terms.items():
                    rhs = rhs + FormalVector.basis((z1, z2), c1 * c2 * cz1 * cz2, kind="pair")
    assert lhs != rhs
    _report(11, "sign-shifted Hopf laws and the negative witness")


def test_criterion_12_bilinear_form():
    for system in (A3, B2, B3):
        subs = list(all_subsets(system))
        mat = dsc.c_matrix(system)
        for i in range(len(subs)):
            for j in range(len(subs)):
                assert mat[i][j] == mat[j][i]
        # nondegeneracy of the form on the spanned subspace: the Gram rank
        # equals the span dimension (the index set is a redundant spanning
        # family whenever classes merge, so the full determinant can vanish)
        vecs = [dsc.sym_to_sigma_star(system, dsc.sym_basis(I)) for I in subs]
        keys = sorted({k for v in vecs for k in v.terms}, key=repr)
        span_dim = linalg.matrix_rank([[v.terms.get(k, 0) for k in keys] for v in vecs])
        assert linalg.matrix_rank(mat) == span_dim
        labels, gram = dsc.h_gram_matrix(system)
        assert linalg.determinant(gram) != 0
    assert linalg.determinant(dsc.c_matrix(B2)) != 0
    _report(12, "pair-count form symmetric and nondegenerate on the span")
