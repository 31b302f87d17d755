#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarize it.

Usage::

    python3 scripts/bench_pairs.py PARENT CHANGE --workload tables-cold \\
        [--workload hecke-cold ...] --seeds 1-10 [--claim tables-cold:task_tail_s]

Before the first pair, ``python -m compileall -q`` compiles ``src`` and
``perfbench`` of both checkouts, so both sides run with the same bytecode
state whatever earlier runs left behind.  Then, for each seed and for each
workload in turn, ``perfbench/run.py --trace 0`` runs once in each checkout,
with the benchmark's own run length: the parent first on odd seeds, the
change first on even ones.  Each run's last stdout
line (correctness, failures and end-to-end metrics) is kept as one row.

The summary, printed as JSON, gives per workload and per end-to-end metric
of the change's ``BENCHMARK.json`` each side's median, quartiles
(``statistics.quantiles(runs, n=4, method='inclusive')``) and runs, and the
number of pairs (seeds) in which the change is strictly better, and
``compiled`` names the directories compiled in each checkout.  A
``--claim WORKLOAD:METRIC`` adds ``claimed_gain``: it is met when the change
wins at least nine tenths of the pairs and its median is better than the
parent's by more than the distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

SIDES = ("parent", "change")
COMPILED = ("src", "perfbench")


def parse_seeds(text: str) -> list[int]:
    """Seeds from "1-10", "3" or "1,4,7"."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def directions(checkout: Path) -> dict[str, str]:
    """Each end-to-end metric of the checkout's benchmark: "lower" or
    "higher" is better."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def compile_checkout(checkout: Path) -> None:
    """Write the bytecode of the checkout's :data:`COMPILED` directories."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", *COMPILED],
                   cwd=checkout, check=True)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its last stdout line, as a dict."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    return json.loads(lines[-1])


def run_pairs(parent: Path, change: Path, workloads: list[str], seeds: list[int]
              ) -> list[dict]:
    """The rows of every run, the parent first on odd seeds."""
    rows = []
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(parent if side == "parent" else change, workload, seed)
                rows.append({"workload": workload, "seed": seed, "side": side,
                             "correct": result["correct"], "failed": result["failed"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"# {workload} seed {seed} {side}: correct {result['correct']}",
                      file=sys.stderr)
    return rows


def quartiles(runs: list[float]) -> list[float]:
    if len(runs) < 2:
        return [runs[0], runs[0]]
    q = statistics.quantiles(runs, n=4, method="inclusive")
    return [q[0], q[2]]


def is_better(better: str, change: float, parent: float) -> bool:
    return change < parent if better == "lower" else change > parent


def summarize(rows: list[dict], better: dict[str, str]) -> dict:
    """Per workload, over the seeds with a run on both sides: the pair
    count, correctness and failures, and per metric of ``better`` the
    medians, quartiles, change/parent ratio, runs in seed order and the
    number of pairs the change wins."""
    summary = {}
    for workload in dict.fromkeys(row["workload"] for row in rows):
        by_seed: dict[int, dict[str, dict]] = {}
        for row in rows:
            if row["workload"] == workload:
                by_seed.setdefault(row["seed"], {})[row["side"]] = row
        pairs = [by_seed[seed] for seed in sorted(by_seed) if len(by_seed[seed]) == 2]
        entry = {"pairs": len(pairs),
                 "correct": all(pair[side]["correct"] for pair in pairs for side in SIDES),
                 "failed": sum(pair["change"]["failed"] for pair in pairs),
                 "parent_failed": sum(pair["parent"]["failed"] for pair in pairs)}
        for metric, direction in better.items():
            if not pairs or any(metric not in pair[side]["metrics"]
                                for pair in pairs for side in SIDES):
                continue
            runs = {side: [pair[side]["metrics"][metric] for pair in pairs] for side in SIDES}
            medians = {side: statistics.median(runs[side]) for side in SIDES}
            entry[metric] = {
                "parent_median": medians["parent"],
                "change_median": medians["change"],
                "parent_quartiles": quartiles(runs["parent"]),
                "change_quartiles": quartiles(runs["change"]),
                "change_over_parent": (medians["change"] / medians["parent"]
                                       if medians["parent"] else None),
                "change_better_pairs": sum(is_better(direction, c, p) for p, c
                                           in zip(runs["parent"], runs["change"])),
                "parent_runs": runs["parent"],
                "change_runs": runs["change"],
            }
        summary[workload] = entry
    return summary


def claimed_gain(summary: dict, workload: str, metric: str, better: dict[str, str]) -> dict:
    """The claim on ``metric`` of ``workload``: met when the change wins at
    least nine tenths of the pairs and its median beats the parent's by more
    than the parent's quartile distance."""
    entry = summary[workload]
    stats = entry[metric]
    low, high = stats["parent_quartiles"]
    gain = stats["parent_median"] - stats["change_median"]
    if better[metric] == "higher":
        gain = -gain
    return {"workload": workload, "metric": metric,
            "parent_median": stats["parent_median"], "change_median": stats["change_median"],
            "change_better_pairs": stats["change_better_pairs"], "pairs": entry["pairs"],
            "parent_quartile_distance": high - low,
            "met": (entry["pairs"] > 0 and stats["change_better_pairs"] >= 0.9 * entry["pairs"]
                    and gain > high - low)}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--claim", help="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        compile_checkout(checkout)
    rows = run_pairs(args.parent, args.change, args.workload, args.seeds)
    better = directions(args.change)
    out = {"compiled": {side: list(COMPILED) for side in SIDES},
           "summary": summarize(rows, better)}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        out["claimed_gain"] = claimed_gain(out["summary"], workload, metric, better)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
