#!/usr/bin/env python3
"""Count the calls each benchmark task makes to the named coxkit functions.

Usage::

    python3 scripts/bench_reach.py words.shuffle descents.sigma_star_induce cli.main \\
        [--workload series-cold ...] [--seed 1]

Each FUNCTION is ``module.name`` or ``module.Class.name`` of ``coxkit``;
a cached function is counted by the function it wraps, so only the calls
that miss its cache count.  The benchmark's ``perfbench/workloads.py`` is
only read: it is loaded with bytecode writing off, so nothing is written
under ``perfbench/``.  Each task of the cold workloads runs as the
benchmark runs it, alone in a freshly forked child (a parset task first
draws its inputs there from ``--seed``, uncounted), and kernel-warm runs
``warm_up()`` and then :data:`WARM_BATCHES` batches drawn from ``--seed``
in one more child.  The counted part runs under a ``sys.setprofile`` hook
that counts every Python call of each named function; a generator counts
each time it resumes.  The output is JSON: per workload, per task, the
count of each function.  The exit status is 1 if a task did not finish.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
import json
import random
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))

#: kernel-warm batches run after its set-up: one chunk of the benchmark's stream.
WARM_BATCHES = 512
#: Seconds a child may take, the profile hook's cost included.
TIMEOUT_S = 600.0


def load_workloads():
    """``perfbench/workloads.py`` as a module, with no bytecode written."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))  # for its ``import harness``
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return module


def code_of(name: str):
    """The code object that runs when the coxkit function ``name`` is called."""
    module, _, path = name.removeprefix("coxkit.").partition(".")
    obj = importlib.import_module(f"coxkit.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return inspect.unwrap(getattr(obj, "fget", obj)).__code__  # a property counts its getter


def counted(run, codes: dict) -> dict:
    """Run ``run()`` under a profile hook; the calls of each code in ``codes``
    (code -> name), by name."""
    calls = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {"calls": calls}


def reach(wl, workloads: list[str], names: list[str], seed: int) -> dict:
    """Per workload of the loaded ``wl`` and per task, the child's result:
    the counts, or why it failed."""
    codes = {code_of(name): name for name in names}
    out = {}
    for workload in workloads:
        if workload == "kernel-warm":
            def run():
                pools = wl.warm_up()
                rng = random.Random(seed)
                for _ in range(WARM_BATCHES):
                    wl.run_batch(wl.draw_batch(rng, pools))

            jobs = {f"warm_up + {WARM_BATCHES} batches": lambda: counted(run, codes)}
        else:
            jobs = {}
            for task in wl.COLD_WORKLOADS[workload]:
                def job(task=task):
                    inputs = task.prepare(seed) if isinstance(task, wl.ParsetTask) else None
                    return counted(lambda: task.run(None, inputs), codes)

                jobs[task.name] = job
        out[workload] = {}
        for task, job in jobs.items():
            result = wl.harness.run_in_child(job, TIMEOUT_S)
            out[workload][task] = (result["calls"] if result["status"] == "ok"
                                   else {"status": result["status"], "detail": result.get("detail")})
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("function", nargs="+")
    wl = load_workloads()
    workloads = [*wl.COLD_WORKLOADS, "kernel-warm"]
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    out = reach(wl, args.workload or workloads, args.function, args.seed)
    print(json.dumps(out, indent=1))
    return int(any("status" in counts for tasks in out.values() for counts in tasks.values()))


if __name__ == "__main__":
    sys.exit(main())
