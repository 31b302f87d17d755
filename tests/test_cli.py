import argparse
import contextlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxkit import hecke as hk
from coxkit.cli import (COMMANDS, SERIES_KINDS, _is_negative_window, _parse_table,
                        _protect_negative_windows, build_parser, main)
from coxkit.series import h_basis, s_basis
from coxkit.systems import CoxeterSystem, is_valid_composition, set_max_order
from coxkit.words import COPRODUCTS, PRODUCTS
from oracles import dense_matrix, series_output


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


class TestElement:
    def test_length(self, capsys):
        status, out, _ = run(capsys, "element", "--type", "B", "--rank", "2",
                             "--op", "length", "-2,1")
        assert status == 0 and out.strip() == "2"

    def test_inverse_json(self, capsys):
        status, out, _ = run(capsys, "element", "--type", "B", "--rank", "4",
                             "--op", "inverse", "--format", "json", "2,-4,-3,1")
        assert status == 0
        assert json.loads(out) == {"op": "inverse", "value": [4, 1, -3, -2]}

    def test_descents(self, capsys):
        status, out, _ = run(capsys, "element", "--type", "A", "--rank", "3",
                             "--op", "descents", "2,4,3,1")
        assert status == 0 and out.strip() == "2,3"

    def test_compose(self, capsys):
        status, out, _ = run(capsys, "element", "--type", "B", "--rank", "2",
                             "--op", "compose", "2,1", "--right", "-1,2")
        assert status == 0 and out.strip() == "-2,1"

    def test_reduced_word_roundtrip(self, capsys):
        status, out, _ = run(capsys, "element", "--type", "D", "--rank", "3",
                             "--op", "reduced-word", "-2,-1,3")
        assert status == 0 and out.strip() == "0"

    def test_parenthesized_window(self, capsys):
        # the same window parser as product and coproduct
        status, out, _ = run(capsys, "element", "--type", "A", "--rank", "1",
                             "--op", "length", "(2,1)")
        assert status == 0 and out.strip() == "1"
        status, out, _ = run(capsys, "element", "--type", "B", "--rank", "2",
                             "--op", "compose", "(2,1)", "--right", "(-1,2)")
        assert status == 0 and out.strip() == "-2,1"

    def test_bad_window_is_parse_error(self, capsys):
        status, _, err = run(capsys, "element", "--type", "B", "--rank", "2",
                             "--op", "length", "1,1")
        assert status == 2 and "error" in err

    def test_cap_exceeded(self, capsys):
        status, _, err = run(capsys, "element", "--type", "B", "--rank", "9",
                             "--op", "length", "1,2,3,4,5,6,7,8,9")
        assert status == 3
        status, out, _ = run(capsys, "element", "--type", "B", "--rank", "6",
                             "--op", "length", "--max-window", "6", "1,2,3,4,5,6")
        assert status == 0 and out.strip() == "0"

    def test_max_window_zero_is_a_cap(self, capsys):
        status, out, err = run(capsys, "element", "--type", "B", "--rank", "2",
                               "--op", "length", "--max-window", "0", "1,2")
        assert status == 3 and out == ""
        assert "exceeds the B cap 0" in err


class TestProducts:
    def test_shuffle_term_count(self, capsys):
        status, out, _ = run(capsys, "product", "--family", "shuffleA",
                             "--left", "2,1", "--right", "1,2")
        assert status == 0
        assert "# 6 terms" in out

    def test_shuffle_json_schema(self, capsys):
        status, out, _ = run(capsys, "product", "--family", "shuffleB",
                             "--left", "-1", "--right", "2,1", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert data["system"] == {"family": "B", "rank": 3}
        assert data["basis"] == "element"
        assert len(data["terms"]) == 12
        assert all(t["coeff"] == 1 for t in data["terms"])

    def test_empty_operand(self, capsys):
        status, out, _ = run(capsys, "product", "--family", "shuffleA",
                             "--left", "2,1", "--right", "")
        assert status == 0 and "# 1 terms" in out

    def test_determinism(self, capsys):
        args = ("product", "--family", "cupB", "--left", "-1", "--right", "2,1",
                "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestCoproducts:
    def test_unshuffle(self, capsys):
        status, out, _ = run(capsys, "coproduct", "--family", "shuffleB",
                             "--arg", "2,-4,-3,1")
        assert status == 0 and "# 5 terms" in out

    def test_split_component(self, capsys):
        status, out, _ = run(capsys, "coproduct", "--family", "cupD",
                             "--arg", "2,-4,-3,1", "--split", "2", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert data["terms"] == [{"coeff": 1, "key": [[2, 1], [1, 2]]}]


class TestSeries:
    def test_series_json(self, capsys):
        status, out, _ = run(capsys, "series", "--kind", "sB", "--key", "(0,2,1)",
                             "--window", "4", "--out", "json")
        assert status == 0
        data = json.loads(out)
        assert data["degree"] == 3 and data["window"] == 4
        assert all(len(t["word"]) == 3 for t in data["terms"])

    def test_series_matches_library(self, capsys):
        status, out, _ = run(capsys, "series", "--kind", "sB", "--key", "(0,2,1)",
                             "--window", "4", "--format", "json")
        data = json.loads(out)
        lib = s_basis(CoxeterSystem("B", 3), (0, 2, 1), 4)
        assert {tuple(t["word"]) for t in data["terms"]} == set(lib.terms)

    def test_bad_kind(self, capsys):
        status, _, err = run(capsys, "series", "--kind", "sX", "--key", "(1)",
                             "--window", "3")
        assert status == 2

    def test_negative_key_part_is_named(self, capsys):
        # refused before a system of negative size is built
        status, out, err = run(capsys, "series", "--kind", "sA", "--key", "(-1)", "--window", "2")
        assert (status, out, err) == (2, "", "error: index (-1,) has a negative part\n")

    def test_word_cube_over_cap_exits_3(self):
        # 13^8 words: refused up front instead of enumerated.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("COXKIT_MAX_ORDER", None)
        proc = subprocess.run(
            [sys.executable, "-m", "coxkit.cli", "series", "--kind", "sA",
             "--key", "(8)", "--window", "6"],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 3
        assert "word cube" in proc.stderr and "815730721" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_small_cube_of_a_large_group_is_not_refused(self, capsys, monkeypatch):
        # 3^10 words although |S_10| = 3628800 is over the cap; the cube
        # alone decides the refusal.
        monkeypatch.delenv("COXKIT_MAX_ORDER", raising=False)
        status, out, _ = run(capsys, "series", "--kind", "sA", "--key", "(10)",
                             "--window", "1")
        assert status == 0
        assert out.splitlines()[-1] == "# 66 words"
        status, _, err = run(capsys, "series", "--kind", "sA", "--key", "(10)",
                             "--window", "2")
        assert status == 3
        assert "(2*2+1)^10 = 9765625" in err

    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        from coxkit import series

        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(series, "basis_roots", broken)
        status, _, err = run(capsys, "series", "--kind", "sA", "--key", "(1,2)",
                             "--window", "2")
        assert status == 4
        assert err == "error: internal error: RuntimeError: boom\n"
        assert "Traceback" not in err


#: The series tasks of the benchmark: (kind, key, window).
BENCH_SERIES = (("sA", (1, 2, 2), 5), ("hA", (1, 1, 3), 5), ("sB", (0, 2, 2), 5),
                ("hB", (1, 2, 2), 4), ("sD", (2, 2), 4), ("hD", (1, 1, 3), 5))


def _valid_keys(family, size):
    """Every valid (pseudo-)composition of ``size`` for the family."""
    system = CoxeterSystem(family, size)
    candidates = (t for parts in range(size + 2)
                  for t in itertools.product(range(size + 1), repeat=parts))
    return [t for t in candidates if is_valid_composition(system, t)]


class TestSeriesOutput:
    """The CLI prints each word sum exactly as the line-by-line formatter
    in ``oracles.series_output`` does."""

    @pytest.mark.parametrize("kind", SERIES_KINDS)
    def test_matches_line_by_line_formatter(self, capsys, kind):
        family = kind[-1]
        builder = s_basis if kind.startswith("s") else h_basis
        cases = [(alpha, window) for size in range(2 if family == "D" else 0, 5)
                 for alpha in _valid_keys(family, size) for window in range(4)]
        cases += [(alpha, window) for k, alpha, window in BENCH_SERIES if k == kind]
        for alpha, window in cases:
            x = builder(CoxeterSystem(family, sum(alpha)), alpha, window)
            for fmt in ("text", "json"):
                status, out, _ = run(capsys, "series", "--kind", kind, "--key", f"({','.join(map(str, alpha))})",
                                     "--window", str(window), "--format", fmt)
                assert status == 0 and out == series_output(x, fmt), (alpha, window, fmt)

    def test_empty_word_sum_keeps_its_count_line(self, capsys):
        # (1,1) has a strict descent, which no word of window 0 can take.
        status, out, _ = run(capsys, "series", "--kind", "sA", "--key", "(1,1)", "--window", "0")
        assert status == 0 and out == "# 0 words\n"
        status, out, _ = run(capsys, "series", "--kind", "sA", "--key", "(1,1)", "--window", "0",
                             "--format", "json")
        assert json.loads(out) == {"degree": 2, "window": 0, "terms": []}

    def test_empty_key(self, capsys):
        status, out, _ = run(capsys, "series", "--kind", "sB", "--key", "()", "--window", "0")
        assert status == 0 and out == "1\t\n# 1 words\n"


class TestSeriesFactoredText:
    def test_multi_block_key_builds_no_full_length_prefix(self, capsys, monkeypatch):
        # The roots of hA (1,1,3) split into the blocks {0}, {1} and {2,3,4}:
        # the printer reads the leading points and the last block's runs as
        # the walk returns them, and no tuple of n - 1 = 4 letters is built.
        import coxkit.roots
        real, walks = coxkit.roots.lattice_runs, []

        def spy(*args):
            walks.append(real(*args))
            return walks[-1]

        def int_tuples(x):
            if isinstance(x, (tuple, list)):
                if isinstance(x, tuple) and all(isinstance(v, int) for v in x):
                    yield x
                else:
                    for item in x:
                        yield from int_tuples(item)

        monkeypatch.setattr(coxkit.roots, "lattice_runs", spy)
        status, out, _ = run(capsys, "series", "--kind", "hA", "--key", "(1,1,3)", "--window", "2")
        assert status == 0 and len(walks) == 1
        assert max(map(len, int_tuples(walks))) == 2
        x = h_basis(CoxeterSystem("A", 5), (1, 1, 3), 2)
        assert out == series_output(x, "text") and out.endswith(f"# {len(x)} words\n")


class TestExpand:
    def test_transition_row(self, capsys):
        status, out, _ = run(capsys, "expand", "--target", "x0:2", "--basis",
                             "hB:(2);hB:(1,1);hB:(0,2);hB:(0,1,1)", "--window", "3")
        assert status == 0
        assert [line.split(": ")[1] for line in out.strip().splitlines()] \
            == ["8/3", "-4/3", "-4/3", "1"]

    def test_not_in_span(self, capsys):
        status, out, _ = run(capsys, "expand", "--target", "h:(1)", "--basis", "x0:2",
                             "--window", "3")
        assert status == 1 and "not in span" in out

    def test_zero_target_in_a_zero_basis(self, capsys):
        # at window 0 every operand is the zero polynomial: each basis
        # token still gets its coefficient line
        status, out, _ = run(capsys, "expand", "--target", "m:(1,1)", "--basis",
                             "p:(1,1);p:(2)", "--window", "0")
        assert status == 0
        assert out.strip().splitlines() == ["p:(1,1): 0", "p:(2): 0"]

    @pytest.mark.parametrize("target", ["F:(1,0)", "F:(0,0)", "FB:(0)", "FB:(2,0,0)",
                                        "h:(-1,2)", "hB:(-1,2)", "M:(-1,2)", "x0:-1"])
    def test_malformed_index_is_a_bad_argument(self, capsys, target):
        # zero parts where the family allows none, negative parts and
        # negative powers are refused, not crashed on
        status, _, err = run(capsys, "expand", "--target", target, "--basis", "h:(1)")
        assert status == 2 and err.startswith("error: ") and "internal" not in err

    @pytest.mark.parametrize("target,basis,window", [
        ("m:(1,0)", "m:(1)", "3"), ("m:(1,0)", "m:(1)", "2"), ("m:(0)", "h:(0)", "1"),
        ("m:(0)", "h:(0)", "4"), ("p:(2,0)", "p:(2)", "3"), ("mB:(1,0)", "mB:(1)", "3")])
    def test_zero_part_of_a_partition_is_refused(self, capsys, target, basis, window):
        # x^0 = 1 would be counted once per index, so the answer would
        # depend on the window: the zero part is named, at every window
        status, out, err = run(capsys, "expand", "--target", target, "--basis", basis,
                               "--window", window)
        assert status == 2 and out == ""
        assert err.startswith("error: ") and "zero part" in err and "internal" not in err

    @pytest.mark.parametrize("target,basis,answer", [
        ("h:(2,0)", "h:(2)", "1"), ("hB:(0,2)", "hB:(0,2)", "1"), ("mB:(0,1)", "mB:(0,1)", "1")])
    def test_zero_parts_the_families_allow(self, capsys, target, basis, answer):
        # h:(0) is the constant 1, and a leading zero of a signed-family
        # index is the paper's pseudo-composition
        status, out, _ = run(capsys, "expand", "--target", target, "--basis", basis,
                             "--window", "3")
        assert status == 0 and out == f"{basis}: {answer}\n"

    @pytest.mark.parametrize("target,basis", [("h:(2000)", "h:(2000)"),
                                              ("F:(3000)", "M:(3000)")])
    def test_long_index_chains(self, capsys, target, basis):
        # one weakly increasing chain of 2000 or 3000 letters over a
        # one-letter window: walked without recursion
        status, out, _ = run(capsys, "expand", "--target", target, "--basis", basis,
                             "--window", "1")
        assert status == 0 and out == f"{basis}: 1\n"

    def test_chains_over_the_cap_exit_3(self, capsys):
        # h:(1) at window w walks the w one-letter chains, h:(2) at window 3
        # the C(4, 2) = 6 chains i <= j in [1, 3]: both are counted up front
        set_max_order(10)
        try:
            at_cap = run(capsys, "expand", "--target", "h:(1)", "--basis", "h:(1)",
                         "--window", "10")
            over = run(capsys, "expand", "--target", "h:(1)", "--basis", "h:(1)",
                       "--window", "11")
            fd_over = run(capsys, "expand", "--target", "FD:(2,1)", "--basis", "h:(1)",
                          "--window", "10")
        finally:
            set_max_order(None)
        assert at_cap == (0, "h:(1): 1\n", "")
        assert over == (3, "", "error: weak chains C(11, 1) = 11 exceed cap 10\n")
        assert fd_over == (3, "", "error: weak chains C(12, 2) = 66 exceed cap 10\n")

    def test_type_d_chains_over_the_cap_exit_3(self, capsys):
        # MD:(2) and FD:(2) at window K walk (K + 1)^2 chains i_1 <= i_2 with
        # |i_1| <= i_2 <= K over only K + 1 tails: the chains are counted
        # before the walk
        set_max_order(10)
        try:
            answered = [run(capsys, "expand", "--target", t, "--basis", t, "--window", "2")
                        for t in ("MD:(2)", "FD:(2)")]
            over = [run(capsys, "expand", "--target", t, "--basis", t, "--window", "3")
                    for t in ("MD:(2)", "FD:(2)")]
        finally:
            set_max_order(None)
        assert answered == [(0, "MD:(2): 1\n", ""), (0, "FD:(2): 1\n", "")]
        assert over == [(3, "", "error: degree-2 type D chains in [-3, 3] = 16 exceed cap 10\n")] * 2

    def test_x0_power_over_the_cap_exits_3(self, capsys):
        set_max_order(50)
        try:
            at_cap = run(capsys, "expand", "--target", "x0:50", "--basis", "x0:50")
            over = run(capsys, "expand", "--target", "x0:51", "--basis", "x0:1")
        finally:
            set_max_order(None)
        assert at_cap == (0, "x0:50: 1\n", "")
        assert over[0] == 3 and over[2] == "error: x0 power 51 exceeds cap 50\n"

    @pytest.mark.parametrize("target,cap,at_cap,refusal", [
        ("M:(1,1)", 10, "5", "index sets C(6, 2) = 15 monomials exceed cap 10"),
        ("m:(1,1,2)", 12, "4", "3 rearrangements x C(5, 3) = 30 monomials exceed cap 12"),
        ("p:(1,1)", 9, "3", "polynomial product 4 x 4 = 16 term pairs exceed cap 9")])
    def test_supports_over_the_cap_exit_3(self, capsys, monkeypatch, target, cap, at_cap,
                                          refusal):
        # M counts its index sets, m its rearrangements (a multinomial,
        # never listed) times those, and a product its term pairs, each
        # before any is built; one window more than at_cap is over the cap
        from coxkit import qsym

        set_max_order(cap)
        try:
            answered = run(capsys, "expand", "--target", target, "--basis", target,
                           "--window", at_cap)
            monkeypatch.setattr(qsym, "_rearrangements", None)
            over = run(capsys, "expand", "--target", target, "--basis", target,
                       "--window", str(int(at_cap) + 1))
        finally:
            set_max_order(None)
        assert answered == (0, f"{target}: 1\n", "")
        assert over == (3, "", f"error: {refusal}\n")


class TestTable:
    def test_c_table_json(self, capsys):
        status, out, _ = run(capsys, "table", "--type", "A", "--rank", "2",
                             "--table", "c", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert data["labels"] == [[3], [1, 2], [2, 1], [1, 1, 1]]
        assert data["rows"] == [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]

    def test_hm_table(self, capsys):
        status, out, _ = run(capsys, "table", "--type", "B", "--rank", "2",
                             "--table", "hm", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert len(data["rows"]) == 4

    @pytest.mark.parametrize("family,rank", [("A", r) for r in range(6)]
                             + [("B", r) for r in range(5)] + [("D", r) for r in range(2, 5)]
                             + [("A", 6), ("B", 5), ("D", 5)])
    def test_hm_table_is_the_identity(self, capsys, family, rank):
        # h and m are dual bases under the weak-descent-count form
        status, out, _ = run(capsys, "table", "--type", family, "--rank", str(rank),
                             "--table", "hm", "--format", "json")
        assert status == 0
        rows = json.loads(out)["rows"]
        assert rows == [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]

    @pytest.mark.parametrize("value", ["abc", "1e6", "-1"])
    def test_a_malformed_cap_variable_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("COXKIT_MAX_ORDER", value)
        assert run(capsys, "table", "--type", "A", "--rank", "1", "--table", "c") \
            == (2, "", f"error: COXKIT_MAX_ORDER={value!r} is not a nonnegative integer\n")

    def test_an_empty_cap_variable_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COXKIT_MAX_ORDER", "")
        assert run(capsys, "table", "--type", "A", "--rank", "1", "--table", "c")[0] == 0

    @pytest.mark.parametrize("table", ("hm", "hgram"))
    def test_the_cap_is_checked_before_the_conjugacy_moves(self, capsys, monkeypatch, table):
        # the parabolic conjugacy classes of A rank 6 take one longest_element
        # per subset, 2^6 of them; |W| = 7! is refused before the first
        from coxkit import systems

        def refuse(*args):
            raise AssertionError("longest_element called before the cap check")

        monkeypatch.setattr(systems, "longest_element", refuse)
        systems.parabolic_conjugacy_classes.cache_clear()
        set_max_order(100)
        try:
            refused = run(capsys, "table", "--type", "A", "--rank", "6", "--table", table)
        finally:
            set_max_order(None)
        assert refused == (3, "", "error: |W| = 5040 exceeds cap 100\n")

    def test_table_c_and_is_parset_build_no_window(self, capsys, monkeypatch):
        # the pair histogram and the root signs read lanes packed straight
        # from the family rule; only the group's sorted table reads windows
        # back off them
        from coxkit import roots, systems

        B4 = CoxeterSystem("B", 4)
        argv = ("table", "--type", "B", "--rank", "4", "--table", "c")
        expected = run(capsys, *argv)

        def refuse(system):
            raise AssertionError("a window tuple was built")

        monkeypatch.setattr(systems, "_lane_windows", refuse)
        systems._store.cache_clear()
        assert run(capsys, *argv) == expected
        assert roots.is_parset(B4, systems.positive_roots(B4))
        assert roots.parset_closure(B4, [(1, 0, 0, 0), (-1, 0, 0, 0)]) is None

    def test_the_lane_limit_is_checked_before_any_window(self, capsys, monkeypatch):
        # with the cap past 17! the order check passes A rank 16; the window
        # size is refused before its 17! windows are generated
        def refuse(*args):
            raise AssertionError("itertools.permutations called before the lane check")

        monkeypatch.setenv("COXKIT_MAX_ORDER", str(10 ** 15))
        monkeypatch.setattr(itertools, "permutations", refuse)
        assert run(capsys, "table", "--type", "A", "--rank", "16", "--max-window", "17",
                   "--table", "c") \
            == (2, "", "error: window size 17 exceeds 16, the most 16-bit lanes hold\n")


class TestHecke:
    def test_induce_factors(self, capsys):
        status, out, _ = run(capsys, "hecke", "--type", "B", "--rank", "3",
                             "--op", "induce", "--subset", "1,2",
                             "--module", "C:1", "--report", "factors", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert sum(t["mult"] for t in data["factors"]) == 8

    def test_regular_dim(self, capsys):
        status, out, _ = run(capsys, "hecke", "--type", "B", "--rank", "2",
                             "--module", "regular", "--report", "dim")
        assert status == 0 and out.strip() == "8"

    def test_restrict_multiplicities(self, capsys):
        status, out, _ = run(capsys, "hecke", "--type", "B", "--rank", "2",
                             "--op", "restrict", "--subset", "1",
                             "--module", "P:0,1", "--report", "multiplicities",
                             "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert all(t["mult"] >= 1 for t in data["multiplicities"])

    @pytest.mark.parametrize("rank,expected", [(0, ["1\tC(1,)"]), (1, ["1\tC(2,)", "1\tC(1, 1)"])])
    def test_low_rank_regular_factors(self, capsys, rank, expected):
        status, out, _ = run(capsys, "hecke", "--type", "A", "--rank", str(rank),
                             "--module", "regular", "--report", "factors")
        assert status == 0 and out.splitlines() == expected

    def test_induce_from_no_generators(self, capsys):
        status, out, _ = run(capsys, "hecke", "--type", "B", "--rank", "2",
                             "--op", "induce", "--subset", "", "--module", "C:",
                             "--report", "dim")
        assert status == 0 and out.strip() == "8"

    @pytest.mark.parametrize("argv,expected", [
        ("--type D --rank 2 --module regular",
         '{"dim": 4, "matrices": {"0": [[0, 0, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], '
         '[0, 0, 1, -1]], "1": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, -1, 0], [0, 1, 0, -1]]}}'),
        ("--type A --rank 2 --op induce --subset 1 --module P:1",
         '{"dim": 3, "matrices": {"1": [[-1, 0, 0], [0, 0, 0], [0, 1, -1]], '
         '"2": [[0, 0, 0], [1, -1, 0], [0, 0, -1]]}}'),
        ("--type A --rank 0 --module regular", '{"dim": 1, "matrices": {}}'),
    ])
    def test_matrices_report(self, capsys, argv, expected):
        # the dense rendering of the column maps, row i and column j of
        # X_s holding the coefficient of b_i in X_s b_j
        status, out, err = run(capsys, "hecke", *argv.split(), "--report", "matrices")
        assert (status, out, err) == (0, expected + "\n", "")

    @pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4)])
    @pytest.mark.parametrize("spec,build", [
        ("--module regular", lambda system: hk.regular_module(system)),
        ("--op induce --subset 1,2 --module C:1", lambda system: hk.induce(
            hk.simple_module(system, frozenset({1}), acting=frozenset({1, 2})))),
        ("--subset= --module regular", lambda system: hk.regular_module(system, frozenset())),
    ], ids=("regular", "induced", "empty acting set"))
    def test_matrices_report_is_the_dense_rendering(self, capsys, family, rank, spec, build):
        # the report is written one row at a time from the sparse columns,
        # byte for byte the JSON of the dense matrices, in both formats
        module = build(CoxeterSystem.of_rank(family, rank))
        dense = json.dumps({"dim": module.dim, "matrices": {
            str(s): dense_matrix(module, s) for s in sorted(module.mats)}}, sort_keys=True)
        for fmt in ("text", "json"):
            status, out, err = run(capsys, "hecke", "--type", family, "--rank", str(rank),
                                   *spec.split(), "--report", "matrices", "--format", fmt)
            assert (status, out, err) == (0, dense + "\n", "")

    def test_label_outside_acting_set(self, capsys):
        status, _, err = run(capsys, "hecke", "--type", "B", "--rank", "3",
                             "--op", "induce", "--subset", "1,2", "--module", "C:0",
                             "--report", "factors")
        assert status == 2 and "acting set" in err


class TestParser:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_subparser_help_is_the_full_help(self, command, capsys):
        # main builds only the invoked command's subparser; its help, and
        # the usage line of an error, read as from the full parser
        full = build_parser()
        sub = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction))
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out == sub.choices[command].format_help()
        with pytest.raises(SystemExit):
            full.parse_args([command, "--no-such-option"])
        full_err = capsys.readouterr().err
        assert main([command, "--no-such-option"]) == 2
        assert capsys.readouterr().err == full_err

    def test_unknown_or_no_command_builds_every_subparser(self, capsys):
        for argv in ([], ["--help"], ["bogus"]):
            sub = next(a for a in build_parser(argv[0] if argv else None)._actions
                       if isinstance(a, argparse._SubParsersAction))
            assert list(sub.choices) == list(COMMANDS)
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == build_parser().format_help()


class TestRefusedChoices:
    @pytest.mark.parametrize("argv", [
        ("element", "--type", "A", "--rank", "2", "--op", "bogus", "1,2,3"),
        ("product", "--family", "bogus", "--left", "1", "--right", "1"),
        ("coproduct", "--family", "bogus", "--arg", "1"),
        ("table", "--type", "A", "--rank", "2", "--table", "bogus"),
        ("hecke", "--type", "A", "--rank", "2", "--module", "regular", "--op", "bogus"),
        ("hecke", "--type", "A", "--rank", "2", "--module", "regular", "--report", "bogus"),
        ("series", "--kind", "bogus", "--key", "(1)", "--window", "1"),
        ("verify", "--suite", "bogus"),
    ], ids=lambda argv: f"{argv[0]} {argv[argv.index('bogus') - 1]}")
    def test_exit_2_before_any_handler(self, capsys, argv):
        status, out, err = run(capsys, *argv)
        assert status == 2 and out == ""
        assert "invalid choice" in err and "'bogus'" in err

    @pytest.mark.parametrize("argv, option", [
        ("hecke --type B --rank 2 --module=--", "--module"),
        ("product --family shuffleB --left=-- --right 1", "--left"),
        ("expand --target=-- --basis F:(1) --window 2", "--target"),
        ("table --type=-- --rank 2 --table c", "--type"),
        ("table --type A --rank 2 --table c --out=--", "--format/--out"),
    ], ids=lambda v: v.split()[0] if " " in v else v)
    def test_a_double_dash_value_is_refused_by_name(self, capsys, argv, option):
        # argparse stores [] for '--name=--', which no choice or type sees
        status, out, err = run(capsys, *argv.split())
        assert (status, out, err) == (2, "", f"error: argument {option}: expected one argument\n")


#: The choices that ``--family`` and ``--suite`` name in a refusal, spelled
#: out: they are read from ``words`` and ``verify``, which the parser imports
#: only when it builds those subcommands.
FAMILY_CHOICES = ("'cupA', 'cupB', 'cupBB', 'cupD', "
                  "'shuffleA', 'shuffleB', 'shuffleBB', 'shuffleD'")
SUITE_CHOICES = "'diagrams', 'duality', 'hecke', 'paper-examples', 'series', 'shuffles', 'all'"


class TestLazyChoices:
    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]], ids=str)
    def test_every_subcommand_is_listed(self, capsys, argv):
        status, out, err = run(capsys, *argv)
        assert status == (0 if argv == ["--help"] else 2)
        text = out + err
        assert "{" + ",".join(COMMANDS) + "}" in text
        if argv == ["--help"]:
            for name, (help_text, *_) in COMMANDS.items():
                assert re.search(rf"^    {name} +{help_text}$", out, re.M), name

    @pytest.mark.parametrize("argv, choices", [
        (("product", "--family", "bogus", "--left", "1", "--right", "1"), FAMILY_CHOICES),
        (("coproduct", "--family", "bogus", "--arg", "1"), FAMILY_CHOICES),
        (("verify", "--suite", "bogus"), SUITE_CHOICES),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else "")
    def test_refusal_names_the_same_choices(self, capsys, argv, choices):
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        option = argv[1].lstrip("-")
        assert err.endswith(f"argument --{option}: invalid choice: 'bogus' "
                            f"(choose from {choices})\n")


#: The coxkit modules a fresh interpreter holds after ``import coxkit.cli``,
#: and those each command adds when ``cli.main`` runs it.
IMPORTED_WITH_CLI = {"coxkit", "coxkit.cli", "coxkit.freemodule", "coxkit.systems"}
COMMAND_MODULES = {
    ("element", "--type", "B", "--rank", "3", "--op", "length", "2,-3,1"): set(),
    ("product", "--family", "shuffleB", "--left", "-1", "--right", "1"): {"coxkit.words"},
    ("coproduct", "--family", "cupA", "--arg", "2,1"): {"coxkit.words"},
    ("table", "--type", "B", "--rank", "3", "--table", "c"): {"coxkit.descents"},
    ("table", "--type", "B", "--rank", "3", "--table", "hm"):
        {"coxkit.descents", "coxkit.linalg"},
    ("hecke", "--type", "B", "--rank", "3", "--module", "regular"):
        {"coxkit.hecke", "coxkit.linalg", "coxkit.qsym"},
    ("expand", "--target", "h:(1,1)", "--basis", "M:(2);M:(1,1)", "--window", "2"):
        {"coxkit.linalg", "coxkit.qsym"},
}


def fresh_interpreter_modules(code: str, packages: tuple[str, ...] = ("coxkit",)
                              ) -> tuple[int, list[str]]:
    """Run ``code`` in a new interpreter on this checkout's sources and
    return the status it printed last and the modules of ``packages`` (by
    top-level name) it then held."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = (f"import sys\n{code}\n"
             f"print(status, *sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, *modules = proc.stdout.splitlines()[-1].split()
    return int(status), modules


@pytest.mark.parametrize("argv", [
    ("series", "--kind", "hA", "--key", "(1,1,3)", "--window", "5"),
    ("hecke", "--type", "D", "--rank", "4", "--module", "regular", "--report", "matrices"),
    ("table", "--type", "A", "--rank", "6", "--table", "hm"),
    ("verify", "--suite", "shuffles"),
], ids=lambda argv: argv[0])
def test_a_closed_stdout_is_not_an_error(argv):
    # the reader takes one byte and closes the pipe: the command ends with
    # its own status and reports nothing (the series and matrices outputs
    # are larger than a pipe's buffer, so their writes meet the closed pipe)
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen([sys.executable, "-m", "coxkit.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(1)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "shuffles"),
    ("hecke", "--type", "B", "--rank", "3", "--module", "regular", "--report", "multiplicities"),
    ("coproduct", "--family", "cupD", "--arg", "2,-4,-3,1"),
], ids=lambda argv: argv[0])
def test_output_does_not_depend_on_the_hash_seed(argv):
    # an Element's hash includes its family's string hash, which each
    # interpreter randomizes; no output order may follow it
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = [subprocess.run([sys.executable, "-m", "coxkit.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                              capture_output=True, timeout=60, check=True).stdout
               for seed in ("0", "1")]
    assert outputs[0] and outputs[0] == outputs[1]


class TestImportSets:
    def test_importing_the_cli_loads_the_group_layer_alone(self):
        assert fresh_interpreter_modules("import coxkit.cli\nstatus = 0") \
            == (0, sorted(IMPORTED_WITH_CLI))

    @pytest.mark.parametrize("argv", list(COMMAND_MODULES), ids=" ".join)
    def test_each_command_loads_the_modules_it_uses(self, argv):
        code = f"from coxkit import cli\nstatus = cli.main({list(argv)!r})"
        assert fresh_interpreter_modules(code) \
            == (0, sorted(IMPORTED_WITH_CLI | COMMAND_MODULES[argv]))

    @pytest.mark.parametrize("argv, status", [
        ((), 2), (("--help",), 0), (("-h",), 0), (("bogus",), 2), (("bogus", "--x"), 2),
    ], ids=lambda v: " ".join(v) or "bare" if isinstance(v, tuple) else str(v))
    def test_naming_no_command_loads_no_command_module(self, argv, status):
        # the help, a bare call and an unknown command list every subcommand
        # without building their arguments, so nothing past the CLI loads
        code = f"from coxkit import cli\nstatus = cli.main({list(argv)!r})"
        assert fresh_interpreter_modules(code) == (status, sorted(IMPORTED_WITH_CLI))

    def test_verify_loads_every_module_and_passes(self):
        code = ("from coxkit import cli\n"
                "status = cli.main(['verify', '--suite', 'shuffles'])")
        src = Path(__file__).resolve().parent.parent / "src" / "coxkit"
        assert fresh_interpreter_modules(code) \
            == (0, sorted({"coxkit"} | {f"coxkit.{p.stem}" for p in src.glob("*.py")
                                        if p.stem != "__init__"}))


#: The standard-library packages that the CLI imports only where it uses them.
LAZY_STDLIB = ("argparse", "gettext", "json", "_json")


class TestStdlibImports:
    @pytest.mark.parametrize("code, status, loaded", [
        ("import coxkit.cli\nstatus = 0", 0, []),
        ("from coxkit import cli\n"
         "status = cli.main(['table', '--type', 'B', '--rank', '3', '--table', 'c'])", 0, []),
        ("from coxkit import cli\n"
         "status = cli.main(['table', '--type', 'B', '--rank', '3', '--table', 'c', "
         "'--format', 'json'])", 0, ["_json", "json", "json.decoder", "json.encoder",
                                     "json.scanner"]),
        ("from coxkit import cli\nstatus = cli.main(['--help'])", 0, ["argparse", "gettext"]),
        ("from coxkit import cli\nstatus = cli.main(['table', '--help'])", 0,
         ["argparse", "gettext"]),
    ], ids=["import", "table text", "table json", "help", "table help"])
    def test_argparse_and_json_load_only_when_used(self, code, status, loaded):
        # a well-formed command is parsed by the option table, and only the
        # JSON format loads json
        assert fresh_interpreter_modules(code, LAZY_STDLIB) == (status, loaded)


class TestNegativeIntegerOptions:
    CASES = [
        (("table", "--type", "A", "--table", "c"), "--rank"),
        (("table", "--type", "A", "--rank", "2", "--table", "c"), "--max-window"),
        (("series", "--kind", "sA", "--key", "(1)"), "--window"),
        (("expand", "--target", "x0:2", "--basis", "hB:(2)"), "--window"),
        (("coproduct", "--family", "shuffleB", "--arg", "2,1"), "--split"),
        (("verify", "--suite", "hecke", "--type", "A"), "--rank"),
    ]

    @pytest.mark.parametrize("fused", [False, True], ids=["separate", "fused"])
    @pytest.mark.parametrize("argv,option", CASES, ids=lambda c: " ".join(c) if isinstance(c, tuple) else c)
    def test_refused_by_name(self, capsys, argv, option, fused):
        value = [f"{option}=-1"] if fused else [option, "-1"]
        status, out, err = run(capsys, *argv, *value)
        assert status == 2 and out == ""
        assert f"argument {option}" in err and "nonnegative" in err
        assert "Traceback" not in err

    def test_zero_is_accepted(self, capsys):
        status, out, _ = run(capsys, "series", "--kind", "sA", "--key", "()", "--window=0")
        assert status == 0 and out.splitlines()[-1] == "# 1 words"


class TestNegativeWindowPredicate:
    #: The pattern that ``_is_negative_window`` replaces, kept as its oracle.
    WINDOW = re.compile(r"-\d+(,-?\d+)*")

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["", "-", "--"]),
                              st.text(alphabet="019\u0661\u06f3\U0001d7d8\u00b2a \n-", max_size=3))
                    .map("".join), min_size=1, max_size=4).map(",".join))
    @example("--1")
    @example("-1,--2")
    @example("-1,")
    @example("-1,,2")
    @example("-\u0661,-\u0662")
    @example("-1,-2,3")
    @example("-")
    def test_accepts_what_the_pattern_accepts(self, tok):
        # empty parts, doubled signs, trailing commas, and decimal digits of
        # other scripts (Arabic-Indic, Extended Arabic-Indic, mathematical
        # bold), next to a superscript two that is no decimal digit
        assert _is_negative_window(tok) == bool(self.WINDOW.fullmatch(tok))


class TestVerify:
    def test_paper_examples_suite(self, capsys):
        status, out, _ = run(capsys, "verify", "--suite", "paper-examples",
                             "--type", "A", "--rank", "3", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["suites"]["paper-examples"]["failed"] == 0

    def test_duality_suite_json_sorted(self, capsys):
        status, out, _ = run(capsys, "verify", "--suite", "duality", "--type", "B",
                             "--rank", "2", "--format", "json")
        assert status == 0
        names = [c["name"] for c in json.loads(out)["suites"]["duality"]["checks"]]
        assert names == sorted(names)

    @pytest.mark.parametrize("suite,names", [
        ("diagrams", ["composition laws along chains", "descent-level squares commute",
                      "inversion intertwines the two sides", "sym-level squares commute"]),
        ("duality", ["coset-rep adjunctions on all basis pairs", "descent-level adjunction",
                     "pair-count form nondegenerate on the span", "pair-count form symmetric"]),
    ])
    def test_group_map_suites_at_rank_4(self, capsys, suite, names):
        status, out, err = run(capsys, "verify", "--suite", suite, "--type", "D", "--rank", "4")
        assert status == 0 and err == ""
        assert out.splitlines() == [f"[{suite}] 4/4 checks passed"] + [f"  ok  {n}" for n in names]

    @pytest.mark.parametrize("family,rank", [("A", 0), ("A", 1), ("B", 0), ("B", 1)])
    def test_low_rank_hecke_suite(self, capsys, family, rank):
        status, out, err = run(capsys, "verify", "--suite", "hecke", "--type", family,
                               "--rank", str(rank))
        assert status == 0 and "8/8 checks passed" in out and err == ""

    def test_rank_over_the_window_cap(self, capsys):
        status, out, err = run(capsys, "verify", "--suite", "paper-examples", "--type", "A",
                               "--rank", "7")
        assert status == 3 and out == ""
        assert "window size 8 exceeds the A cap 7" in err

    def test_unknown_suite(self, capsys):
        status, _, err = run(capsys, "verify", "--suite", "nope")
        assert status == 2

    def test_non_projective_restriction_is_a_failed_check(self, capsys, monkeypatch):
        from coxkit import hecke, verify

        def refuse(module):
            raise hecke.NonProjectiveError("projective dims sum to 0, module dim is 1")

        monkeypatch.setattr(hecke, "projective_multiplicities", refuse)
        checks = {c.name: c for c in verify.run_suite("hecke", "A", 3)}
        check = checks["restricted projectives match interval formula"]
        assert not check.passed
        assert check.detail == "projective dims sum to 0, module dim is 1"
        status, out, err = run(capsys, "verify", "--suite", "hecke", "--type", "A",
                               "--rank", "2")
        assert status == 1 and err == ""
        assert "FAIL restricted projectives match interval formula -- projective dims" in out


def _signed_permutation(k):
    signs = st.one_of(st.just([1] * k),
                      st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    return st.tuples(st.permutations(range(1, k + 1)), signs) \
        .map(lambda ps: [p * s for p, s in zip(*ps)])


def _window_text(max_len, size=None):
    """Window arguments: permutations and signed permutations (of ``size``
    entries if given), random integer lists, parenthesized lists and
    malformed text."""
    sizes = st.just(size) if size is not None else st.integers(0, max_len)
    perms = sizes.flatmap(_signed_permutation)
    lists = st.one_of(perms, perms, st.lists(st.integers(-7, 7), max_size=max_len))
    return st.one_of(
        lists.map(lambda w: ",".join(map(str, w))),
        lists.map(lambda w: ",".join(map(str, w))),
        lists.map(lambda w: "(" + ",".join(map(str, w)) + ")"),
        st.sampled_from(["", " ", "1,,2", "a", "1;2", "-", "(", "1,2)", "1.0", "--", "0x1",
                         "99999999999999999999"]),
    )


_COUNT = st.one_of(st.integers(-2, 9).map(str), st.sampled_from(["", "x", "1.5", "-0"]))

# Generator subsets at ranks 0-3: 0-3 covers every family's generators and
# some out of range; the sampled texts are out of range or malformed.
_SUBSET = st.one_of(
    st.lists(st.sampled_from("0123"), unique=True, max_size=4).map(",".join),
    st.sampled_from(["", " ", "9", "-1", "1,,2", "a", "0;1", "1,1", "0.5"]),
)


# Series keys and expansion indices: small (pseudo-)compositions of every
# family's shape, and keys that are negative, oversized or malformed.
_KEY = st.one_of(
    st.lists(st.integers(0, 2), max_size=3).map(lambda k: "(" + ",".join(map(str, k)) + ")"),
    st.lists(st.integers(0, 2), max_size=3).map(lambda k: ",".join(map(str, k))),
    st.sampled_from(["", "(", "()", "(-1,2)", "(1,,1)", "(a)", "(9,9)", "(0,0,0)", "1.5"]),
)

# Polynomial tokens for ``expand``: every kind with a small index, x0
# powers, and malformed or unknown tokens.
_POLY_TOKEN = st.one_of(
    st.tuples(st.sampled_from(["M", "F", "MB", "FB", "MD", "FD", "h", "m", "p", "hB", "mB",
                               "sA", "sB", "sD"]), _KEY).map(":".join),
    st.integers(-1, 3).map(lambda k: f"x0:{k}"),
    st.sampled_from(["", ":", "x0", "x0:", "x0:a", "q:(1)", "h", "h(1)", "sC:(1)", ";", " M:(1) "]),
)

# The shuffles suite ignores --type and --rank and is the slowest, so it is
# drawn half as often as the others.
_SUITE = st.sampled_from(["diagrams", "duality", "hecke", "paper-examples", "series"] * 2
                         + ["shuffles", "bogus", ""])


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["element", "product", "coproduct", "table", "hecke",
                                    "series", "expand", "verify"]))
    argv = [command]
    if command == "table":
        # Ranks 0-4 of every family (D below rank 2 is refused), and bad values.
        argv += ["--type", draw(st.sampled_from(["A", "B", "D"] * 3 + ["C", ""])),
                 "--rank", draw(st.sampled_from([str(r) for r in range(5)] * 3
                                                + ["-1", "x", "", "9"])),
                 "--table", draw(st.sampled_from(["c", "hm", "hgram"] * 3 + ["bogus"]))]
    elif command == "hecke":
        # Ranks 0-3 of every family, every op and report, and bad values.
        module = st.one_of(
            st.just("regular"),
            st.tuples(st.sampled_from("CP"), _SUBSET).map(":".join),
            st.sampled_from(["", "C", "P:", "Q:1", "regular:", "C:0:1", " regular ", "P:(1)"]),
        )
        argv += ["--type", draw(st.sampled_from(["A", "B", "D"] * 3 + ["C"])),
                 "--rank", draw(st.sampled_from([str(r) for r in range(4)] * 3 + ["-1", "x"])),
                 "--op", draw(st.sampled_from(["none", "induce", "restrict"] * 2 + ["bogus"])),
                 "--report", draw(st.sampled_from(
                     ["factors", "multiplicities", "dim", "matrices"] * 2 + ["bogus"])),
                 "--module", draw(module)]
        if draw(st.booleans()):
            argv += ["--subset", draw(_SUBSET)]
    elif command == "element":
        # Mostly well-formed, so that the element operations run too.
        family = draw(st.sampled_from(["A", "B", "D"] * 3 + ["C", ""]))
        n = draw(st.integers(1, 8))
        rank = str(n - 1 if family == "A" else n)
        argv += ["--type", family,
                 "--rank", draw(st.sampled_from([rank] * 6 + ["-1", "x", "", "9"])),
                 "--op", draw(st.sampled_from(["length", "descents", "inverse",
                                               "reduced-word", "compose"] * 2 + ["bogus"])),
                 draw(_window_text(8, n))]
        if draw(st.booleans()):
            argv += ["--right", draw(_window_text(8, n))]
    elif command == "series":
        # Every kind and a bad one, small keys, windows 0-2 and bad windows.
        argv += ["--kind", draw(st.sampled_from(["sA", "hA", "sB", "hB", "sD", "hD"] * 2
                                                + ["sC", ""])),
                 "--key", draw(_KEY),
                 "--window", draw(st.sampled_from(["0", "1", "2"] * 3 + ["-1", "x"]))]
    elif command == "expand":
        # A target and a basis of at most three tokens, at windows 0-2.
        argv += ["--target", draw(_POLY_TOKEN),
                 "--basis", ";".join(draw(st.lists(_POLY_TOKEN, max_size=3)))]
        if draw(st.booleans()):
            argv += ["--window", draw(st.sampled_from(["0", "1", "2"] * 2 + ["-1", "x"]))]
    elif command == "verify":
        # Each suite at ranks 0-3 of every family, bogus suites, --rank
        # without --type.
        argv += ["--suite", draw(_SUITE)]
        if draw(st.sampled_from([True] * 4 + [False])):
            argv += ["--type", draw(st.sampled_from(["A", "B", "D"] * 3 + ["C"]))]
        if draw(st.sampled_from([True] * 4 + [False])):
            argv += ["--rank", draw(st.sampled_from([str(r) for r in range(4)] * 2 + ["-1", "x"]))]
    elif command == "product":
        argv += ["--family", draw(st.sampled_from(sorted(PRODUCTS) + ["shuffleC", ""])),
                 "--left", draw(_window_text(3)), "--right", draw(_window_text(3))]
    else:
        argv += ["--family", draw(st.sampled_from(sorted(COPRODUCTS) + ["cupC"])),
                 "--arg", draw(_window_text(5))]
        if draw(st.booleans()):
            argv += ["--split", draw(_COUNT)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json"] * 2 + ["xml"]))]
    if draw(st.sampled_from([False] * 9 + [True])):
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_cli_argv())
    def test_every_exit_is_documented(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([("A", 0), ("A", 3), ("B", 1), ("B", 3), ("D", 2), ("D", 3)])
           .flatmap(lambda fr: st.tuples(st.just(fr), _signed_permutation(fr[1] + (fr[0] == "A")))),
           st.sampled_from(["length", "descents", "inverse", "reduced-word"]))
    def test_parenthesized_element_window(self, case, op):
        # a window reads the same with and without parentheses
        (family, rank), window = case
        outputs = []
        for text in (",".join(map(str, window)), "(" + ",".join(map(str, window)) + ")"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(["element", "--type", family, "--rank", str(rank), "--op", op, text])
            outputs.append((status, out.getvalue(), err.getvalue()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 2)


def _units(tokens):
    """``tokens`` grouped into units: an option with the token after it, or
    one token."""
    units, i = [], 0
    while i < len(tokens):
        take = 2 if tokens[i].startswith("--") and i + 1 < len(tokens) else 1
        units.append(tokens[i:i + take])
        i += take
    return units


@st.composite
def _perturbed_argv(draw):
    """A ``_cli_argv()`` argv, its options perhaps shuffled, one repeated or
    dropped, some fused into '--name=value', abbreviated or given an empty
    value, and a '-h' or '--' perhaps inserted."""
    command, *rest = draw(_cli_argv())
    units = _units(rest)
    if draw(st.booleans()):
        units = draw(st.permutations(units))
    if units and draw(st.booleans()):
        units.append(draw(st.sampled_from(units)))
    if units and draw(st.booleans()):
        del units[draw(st.integers(0, len(units) - 1))]
    units = [list(unit) for unit in units]
    for unit in units:
        how = draw(st.sampled_from(["keep"] * 4 + ["fuse", "abbreviate", "empty"]))
        if unit[0].startswith("--") and len(unit) == 2:
            if how == "fuse":
                unit[:] = [f"{unit[0]}={unit[1]}"]
            elif how == "abbreviate" and len(unit[0]) > 3:
                unit[0] = unit[0][:draw(st.integers(3, len(unit[0]) - 1))]
            elif how == "empty":
                unit[1] = ""
    argv = [command] + [tok for unit in units for tok in unit]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["-h", "--"])))
    return argv


class TestTableParser:
    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(_cli_argv(), _perturbed_argv()))
    def test_a_parsed_argv_reads_as_argparse_reads_it(self, argv):
        # whenever the option table parses an argv, argparse accepts it and
        # gives the same namespace: every type, choice, requirement and default
        protected = _protect_negative_windows(argv)
        args = _parse_table(protected)
        if args is not None:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    expected = vars(build_parser(protected[0]).parse_args(protected))
                except SystemExit:
                    expected = "refused"
            assert vars(args) == expected, protected

    @pytest.mark.parametrize("argv", [
        "hecke --type B --rank 2 --module regular --rep dim",
        "table --type A --rank 2 --table c --help",
        "table -h",
        "table --type A --rank 2",
        "table --type A --rank x --table c",
        "table --type A --rank 2 --table bogus",
        "table --type A --rank 2 --table",
        "table --type A --rank 2 --table c --bogus 1",
        "table --type A --rank=-1 --table c",
        "hecke --type B --rank 2 --module -x",
        "hecke --type B --rank 2 --module=--",
        "element --type A --rank 2 --op length 1,2,3 3,2,1",
        "element --type A --rank 2 1,2,3 -- --op length",
        "series --kind sA --key (1) --window 1 extra",
        "--help",
        "",
        "bogus --type A",
    ], ids=lambda argv: argv or "bare")
    def test_unusual_forms_are_left_to_argparse(self, argv):
        assert _parse_table(_protect_negative_windows(argv.split())) is None

    @pytest.mark.parametrize("argv, attributes", [
        ("element --type=B --rank 2 --op length -2,1",
         {"format": "text", "type": "B", "rank": 2, "max_window": None, "op": "length",
          "window": "-2,1", "right": None}),
        ("element --type B --rank 2 --op compose 2,1 --right -1,2 --out json",
         {"format": "json", "type": "B", "rank": 2, "max_window": None, "op": "compose",
          "window": "2,1", "right": "-1,2"}),
        ("verify --suite hecke --type A --type B",
         {"format": "text", "suite": "hecke", "type": "B", "rank": None}),
        ("hecke --subset= --module regular --type D --rank 2 --max-window 9",
         {"format": "text", "type": "D", "rank": 2, "max_window": 9, "op": "none",
          "subset": "", "module": "regular", "report": "factors"}),
    ])
    def test_well_formed_forms_are_parsed(self, argv, attributes):
        # '=' forms, a protected negative window, repeats (the last one
        # counts), any order, and the defaults of every option not given
        args = _parse_table(_protect_negative_windows(argv.split()))
        command = argv.split()[0]
        assert vars(args) == {"command": command, "fn": COMMANDS[command][1], **attributes}


def readme_commands():
    """The ``coxkit`` lines of the README's command-line block, backslash
    continuations joined, each with its trailing comment."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("coxkit "):
            command, _, comment = line.partition(" #")
            argv = shlex.split(command)[1:]
            commands.append(pytest.param(argv, comment.strip(), id=" ".join(argv)))
    return commands


class TestReadme:
    @pytest.mark.parametrize("argv,comment", readme_commands())
    def test_command_line_example(self, capsys, monkeypatch, argv, comment):
        monkeypatch.delenv("COXKIT_MAX_ORDER", raising=False)
        status, out, err = run(capsys, *argv)
        assert status == 0, err
        if comment.startswith("-> "):
            assert out.strip() == comment[3:]
        terms = re.fullmatch(r"(\d+) terms", comment)
        if terms:
            assert out.splitlines()[-1] == f"# {terms[1]} terms"

    @pytest.mark.parametrize("argv,comment", readme_commands())
    def test_command_line_example_takes_the_table_path(self, argv, comment):
        # argparse is left to help, errors and unusual forms
        assert _parse_table(_protect_negative_windows(argv)) is not None

    def test_the_block_has_examples(self):
        comments = [param.values[1] for param in readme_commands()]
        assert len(comments) >= 10
        assert any(comment.startswith("-> ") for comment in comments)
        assert any(re.fullmatch(r"\d+ terms", comment) for comment in comments)
