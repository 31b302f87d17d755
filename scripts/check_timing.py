#!/usr/bin/env python3
"""Time each check of one ``verify`` suite in process.

Usage::

    python3 scripts/check_timing.py SUITE [--type F --rank N] [--repeat 5]

The suite runs ``--repeat`` times in one interpreter, as ``coxkit verify
--suite SUITE`` runs it (``--type`` and ``--rank`` as there).  A check's
time is the time from the previous check's construction (or from the start
of the run) to its own, so the work a suite does before a check is charged
to that check; ``after_last_s`` is the rest of the run.  Each figure is the
best over the repeats, taken position by position.  The first run fills the
group stores and caches that later runs read, so with ``--repeat`` 2 or
more the figures are warm-cache times.  The output is JSON, with the checks
in the order the suite makes them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxkit import verify  # noqa: E402
from coxkit.systems import FAMILIES, CoxeterSystem  # noqa: E402


def timed_run(suite: str, family: Optional[str], n: Optional[int]) -> tuple[list, list[float]]:
    """One run of the suite: its checks, and the seconds from the start to
    the first check's construction, between successive checks, and from the
    last check to the end."""
    made, stamps = [], [time.perf_counter()]
    original = verify.Check

    def stamped(*args, **kwargs):
        made.append(original(*args, **kwargs))
        stamps.append(time.perf_counter())
        return made[-1]

    verify.Check = stamped
    try:
        checks = verify.run_suite(suite, family, n)
    finally:
        verify.Check = original
    stamps.append(time.perf_counter())
    if list(map(id, checks)) != list(map(id, made)):
        raise RuntimeError(f"suite {suite} reports other checks than it makes")
    return checks, [b - a for a, b in zip(stamps, stamps[1:])]


def check_times(suite: str, family: Optional[str], n: Optional[int], repeat: int) -> dict:
    checks, best = timed_run(suite, family, n)
    names = [(c.name, c.passed) for c in checks]
    for _ in range(repeat - 1):
        checks, steps = timed_run(suite, family, n)
        if [(c.name, c.passed) for c in checks] != names:
            raise RuntimeError(f"suite {suite} made other checks on a later run")
        best = list(map(min, best, steps))
    return {
        "checks": [{"name": name, "passed": passed, "best_s": round(s, 6)}
                   for (name, passed), s in zip(names, best)],
        "after_last_s": round(best[-1], 6),
        "sum_s": round(sum(best), 6),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", choices=sorted(verify.SUITES))
    parser.add_argument("--type", choices=FAMILIES, default=None)
    parser.add_argument("--rank", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.rank is not None and args.type is None:
        parser.error("--rank needs --type")
    n = None if args.rank is None else CoxeterSystem.of_rank(args.type, args.rank).n
    out = {"suite": args.suite, "type": args.type, "rank": args.rank, "repeat": args.repeat,
           **check_times(args.suite, args.type, n, args.repeat)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
