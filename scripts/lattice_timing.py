#!/usr/bin/env python3
"""Time ``roots.lattice_points`` in process on fixed shapes.

Usage::

    python3 scripts/lattice_timing.py [--repeat 7] [--seed 1]

The shapes are the root sets of four ``series`` commands (the parabolic
positive roots of ``hA (1,1,3)``, ``hD (1,1,3)`` and ``hB (1,2,2)``, and
the signed simple roots of ``sA (1,2,2)``), the chamber of every element of
D4 and of A4, and the parsets that each parset task of the benchmark's
series-cold workload draws from ``--seed``.  The inputs are built before
the timer; each shape's time is the best of ``--repeat`` runs of all its
``lattice_points`` calls.  The benchmark's ``perfbench/workloads.py`` is
only read (through ``bench_reach.load_workloads``).  The output is JSON:
per shape, the best time in milliseconds and the number of points.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_reach import load_workloads  # noqa: E402
from coxkit.roots import chamber, lattice_points, negate, random_parset  # noqa: E402
from coxkit.systems import (CoxeterSystem, descents_of_composition, elements,  # noqa: E402
                            parabolic_positive_roots, simple_roots)


def h_shape(family: str, alpha: tuple[int, ...], window: int) -> list:
    """The ``lattice_points`` call of ``series --kind h<family> --key alpha``."""
    system = CoxeterSystem(family, sum(alpha))
    subset = system.generator_set - descents_of_composition(alpha)
    return [(system, parabolic_positive_roots(system, subset), window)]


def s_shape(family: str, alpha: tuple[int, ...], window: int) -> list:
    """The ``lattice_points`` call of ``series --kind s<family> --key alpha``."""
    system = CoxeterSystem(family, sum(alpha))
    subset = descents_of_composition(alpha)
    return [(system, [negate(r) if s in subset else r for s, r in simple_roots(system).items()],
             window)]


def chamber_shape(family: str, n: int, window: int) -> list:
    """One call per element w: the chamber of w, as in ``series.s_series``."""
    system = CoxeterSystem(family, n)
    return [(system, chamber(w), window) for w in elements(system)]


def parset_shapes(seed: int) -> dict[str, list]:
    """The parsets that each series-cold parset task draws from ``seed``."""
    wl = load_workloads()
    shapes = {}
    for task in wl.COLD_WORKLOADS["series-cold"]:
        if isinstance(task, wl.ParsetTask):
            system = CoxeterSystem(task.family, task.n)
            shapes[task.name] = [(system, random_parset(system, random.Random(key)), task.window)
                                 for key in task.prepare(seed)["keys"]]
    return shapes


def shapes(seed: int) -> dict[str, list]:
    return {
        "hA (1,1,3) w5": h_shape("A", (1, 1, 3), 5),
        "hD (1,1,3) w5": h_shape("D", (1, 1, 3), 5),
        "hB (1,2,2) w4": h_shape("B", (1, 2, 2), 4),
        "sA (1,2,2) w5": s_shape("A", (1, 2, 2), 5),
        "chambers D4 w5": chamber_shape("D", 4, 5),
        "chambers A4 w5": chamber_shape("A", 4, 5),
        **parset_shapes(seed),
    }


def best_ms(calls: list, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for args in calls:
            lattice_points(*args)
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    out = {name: {"best_ms": round(best_ms(calls, args.repeat), 3),
                  "points": sum(len(lattice_points(*call)) for call in calls)}
           for name, calls in shapes(args.seed).items()}
    print(json.dumps({"repeat": args.repeat, "seed": args.seed, "shapes": out}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
