"""Smoke tests of the experiment scripts, run as the README shows them."""

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
