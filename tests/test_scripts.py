"""Smoke tests of the experiment scripts, run as the README shows them."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def test_fiber_census():
    proc = _run("scripts/fiber_census.py", "2", "3")
    assert proc.returncode == 0, proc.stderr
    totals = [line.strip() for line in proc.stdout.splitlines() if "total" in line]
    assert totals == ["total 49 (ok)"] * 3


def test_descent_tables():
    proc = _run("scripts/descent_tables.py", "B", "2")
    assert proc.returncode == 0, proc.stderr
    headers = [line for line in proc.stdout.splitlines() if line.startswith("==")]
    assert headers == [f"== {table} table for B rank 2 ==" for table in ("c", "hgram", "hm")]


def test_descent_tables_exits_with_the_worst_status():
    proc = _run("scripts/descent_tables.py", "Q", "2")
    assert proc.returncode == 2


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts/bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(workload, parent, change, metric="task_tail_s"):
    """Canned rows: one parent and one change run per seed 1, 2, ..."""
    return [{"workload": workload, "seed": seed, "side": side, "correct": True,
             "failed": 0, "metrics": {metric: value}}
            for seed, pair in enumerate(zip(parent, change), start=1)
            for side, value in zip(("parent", "change"), pair)]


def test_bench_pairs_summarizes_canned_rows():
    bp = _bench_pairs()
    assert bp.parse_seeds("1-3,7") == [1, 2, 3, 7]
    parent = [33.0, 32.0, 34.0, 31.0, 33.0, 35.0, 32.0, 33.0, 34.0, 33.0]
    change = [25.0, 24.0, 26.0, 25.0, 24.0, 25.0, 33.0, 25.0, 26.0, 24.0]
    rows = _rows("tables-cold", parent, change)
    # a run with no partner on the other side is left out of the pairs
    rows.append({"workload": "tables-cold", "seed": 11, "side": "parent", "correct": False,
                 "failed": 3, "metrics": {"task_tail_s": 99.0}})
    summary = bp.summarize(rows, {"task_tail_s": "lower", "tasks_per_s": "higher"})
    entry = summary["tables-cold"]
    assert (entry["pairs"], entry["correct"], entry["failed"], entry["parent_failed"]) \
        == (10, True, 0, 0)
    assert "tasks_per_s" not in entry
    stats = entry["task_tail_s"]
    assert (stats["parent_median"], stats["change_median"]) == (33.0, 25.0)
    assert stats["parent_quartiles"] == [32.25, 33.75]
    assert stats["change_better_pairs"] == 9
    assert stats["parent_runs"] == parent and stats["change_runs"] == change
    claim = bp.claimed_gain(summary, "tables-cold", "task_tail_s", {"task_tail_s": "lower"})
    assert claim["met"] and claim["pairs"] == 10 and claim["parent_quartile_distance"] == 1.5
    # eight wins of ten, or a gap inside the parent's spread, is no gain
    assert not bp.claimed_gain(bp.summarize(_rows("w", parent, change[:8] + [40.0, 40.0]),
                                            {"task_tail_s": "lower"}),
                               "w", "task_tail_s", {"task_tail_s": "lower"})["met"]
    close = [p - 0.5 for p in parent]
    assert not bp.claimed_gain(bp.summarize(_rows("w", parent, close), {"task_tail_s": "lower"}),
                               "w", "task_tail_s", {"task_tail_s": "lower"})["met"]
    # for a higher-is-better metric the larger median wins
    up = bp.summarize(_rows("w", parent, [p + 5 for p in parent], "tasks_per_s"),
                      {"tasks_per_s": "higher"})
    assert bp.claimed_gain(up, "w", "tasks_per_s", {"tasks_per_s": "higher"})["met"]



def test_bench_pairs_compiles_both_checkouts_before_any_run(tmp_path, monkeypatch, capsys):
    bp = _bench_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "task_tail_s", "better": "lower"}]}')
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append((Path(cwd), argv[1:]))
        line = '{"correct": true, "failed": 0, "metrics": {"task_tail_s": {"value": 1.0}}}'
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    assert bp.main([str(parent), str(change), "--workload", "w", "--seeds", "1-2"]) == 0
    compile_argv = ["-m", "compileall", "-q", "src", "perfbench"]
    assert calls[:2] == [(parent, compile_argv), (change, compile_argv)]
    runs = calls[2:]
    assert len(runs) == 4 and all(argv[0] == "perfbench/run.py" for _, argv in runs)
    out = json.loads(capsys.readouterr().out)
    assert out["compiled"] == {"parent": ["src", "perfbench"], "change": ["src", "perfbench"]}
    assert out["summary"]["w"]["pairs"] == 2


def test_bench_reach_counts_each_task_of_one_workload():
    before = sorted((ROOT / "perfbench").rglob("*"))
    proc = _run("scripts/bench_reach.py", "cli.main", "descents.c_matrix", "words.shuffle",
                "--workload", "tables-cold")
    assert proc.returncode == 0, proc.stderr
    tasks = json.loads(proc.stdout)["tables-cold"]
    assert len(tasks) == 9
    # each task is one command; only the c tables build c_matrix, and no
    # table multiplies words
    assert all(calls == {"cli.main": 1, "descents.c_matrix": int(name.endswith(" c")),
                         "words.shuffle": 0} for name, calls in tasks.items())
    assert sorted((ROOT / "perfbench").rglob("*")) == before


def test_lattice_timing():
    before = sorted((ROOT / "perfbench").rglob("*"))
    proc = _run("scripts/lattice_timing.py", "--repeat", "1", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["repeat"], out["seed"]) == (1, 2)
    shapes = out["shapes"]
    assert {"hA (1,1,3) w5", "sA (1,2,2) w5", "chambers D4 w5", "parsets B4 9"} <= set(shapes)
    assert all(entry["best_ms"] > 0 for entry in shapes.values())
    # every word of the cube lies in exactly one chamber
    assert shapes["chambers D4 w5"]["points"] == shapes["chambers A4 w5"]["points"] == 11 ** 4
    assert sorted((ROOT / "perfbench").rglob("*")) == before


def test_check_timing():
    from coxkit.verify import run_suite

    proc = _run("scripts/check_timing.py", "shuffles", "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["suite"], out["type"], out["rank"], out["repeat"]) == ("shuffles", None, None, 2)
    assert [c["name"] for c in out["checks"]] == [c.name for c in run_suite("shuffles")]
    assert all(c["passed"] and c["best_s"] >= 0 for c in out["checks"])
    steps = sum(c["best_s"] for c in out["checks"]) + out["after_last_s"]
    assert abs(out["sum_s"] - steps) < 1e-5
    proc = _run("scripts/check_timing.py", "hecke", "--type", "B", "--rank", "2", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    assert [c["name"] for c in json.loads(proc.stdout)["checks"]] \
        == [c.name for c in run_suite("hecke", "B", 2)]
    assert _run("scripts/check_timing.py", "shuffles", "--rank", "3").returncode == 2
