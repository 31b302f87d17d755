"""Run one workload of the coxkit benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --record-reference

Workloads: tables-cold, hecke-cold, series-cold (fixed task lists, each
task in a freshly forked child) and kernel-warm (one warm library session
answering a seeded query stream).  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass.  Every output is checked.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the run record and the trace spans go to ``.perfbench_out/``.
``--workload all`` runs the four workloads one after another, each in its
own process, and ends with a table of all their metrics.
``--record-reference`` re-records the reference outputs of the fixed CLI
tasks from the current sources.

End-to-end times are in seconds at a reference machine speed: each timed
sample is scaled by the machine's speed as seen by a fixed piece of work
timed during it and just before and after it (see ``harness.Speed``); the
raw times are kept in the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("tables-cold", "hecke-cold", "series-cold", "kernel-warm")

#: No task starts later than this after the run began, so the run ends in time.
RUN_LIMIT_S = 150.0
TASK_TIMEOUT_S = 60.0
#: Interpreter starts timed for setup_s (after one untimed start).
SETUP_SPAWNS = 9
#: kernel-warm set-ups timed for setup_s: forked ones, then the session's own.
WARM_FORKED_SETUPS = 2
#: kernel-warm's query stream must leave this many samples beyond p99.
TAIL_SAMPLES = 10

STARTED = time.monotonic()


def interpreter_setup(module: str, speed: harness.Speed) -> list[float]:
    """Seconds, at reference speed, from starting ``python3`` to having
    imported ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import time, {module}; print(time.monotonic())"

    def spawn() -> float:
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        return float(done.stdout.split()[-1]) - start

    spawn()
    speed.mark()
    return [spawn() * speed.scale() for _ in range(SETUP_SPAWNS)]


def _timeout() -> float:
    return min(TASK_TIMEOUT_S, RUN_LIMIT_S - (time.monotonic() - STARTED))


def _execute(task, tracer, caches, inputs) -> dict:
    before = tracing.cache_snapshot(caches)
    result = task.run(tracer, inputs)
    result["caches"] = tracing.cache_delta(before, tracing.cache_snapshot(caches))
    return result


def run_task(task, inputs, reference, caches, speed, tracer=None) -> dict:
    """One task in its own child, checked on return, then a speed probe.
    The stdout is dropped once checked, so the parent, whose memory every
    child starts from, does not grow from task to task."""
    if task.name in inputs and inputs[task.name]["status"] != "ok":
        result = inputs[task.name]
    elif _timeout() <= 0:
        result = {"status": "timeout", "detail": "run time limit reached before the task"}
    else:
        result = harness.run_in_child(
            lambda: _execute(task, tracer, caches, inputs.get(task.name)), _timeout())
    ref = reference.get(task.name)
    failure = wl.check_task(task, result, ref)
    known = wl.is_known_defect(task, failure, result, ref)
    result.pop("stdout", None)
    return {"task": task, "result": result, "failure": failure, "known": known,
            "scale": speed.scale(result.get("ticks", ()))}


def _seconds(run) -> float:
    return run["result"]["seconds"] * run["scale"]


def _ok(runs):
    return [r for r in runs if r["result"]["status"] == "ok"]


def cold_metrics(runs) -> tuple[dict, dict]:
    """Metrics over per-task medians, so that a task repeated more often
    does not weigh more and a short slow spell moves no statistic."""
    per_task: dict[str, list[float]] = {}
    for r in _ok(runs):
        per_task.setdefault(r["task"].name, []).append(_seconds(r))
    medians = {name: harness.median(values) for name, values in per_task.items()}
    slowest = max(medians, key=medians.get)
    listed = {r["task"].name for r in runs}
    failed = {r["task"].name for r in runs if r["failure"]}
    runs_done = sum(len(values) for values in per_task.values())
    metrics = {
        "tasks_per_s": len(medians) / sum(medians.values()),
        "task_p50_s": harness.median(medians.values()),
        "task_tail_s": medians[slowest],
        "peak_rss_mb": max(r["result"]["maxrss_kb"] for r in _ok(runs)) / 1024,
        "ok_frac": 1 - len(failed) / len(listed),
    }
    basis = {
        "tasks_per_s": f"{len(medians)} tasks / {sum(medians.values()):.3f} s, the sum of "
                       f"per-task medians over {runs_done} completed runs",
        "task_p50_s": f"median of {len(medians)} per-task medians ({runs_done} runs)",
        "task_tail_s": f"task_max_s: the slowest task, '{slowest}', median of its "
                       f"{len(per_task[slowest])} run(s)",
        "peak_rss_mb": "largest peak resident memory of a task child",
        "ok_frac": f"1 - failed_frac; failed_frac = {len(failed)}/{len(listed)} tasks "
                   f"with a failed run ({sum(1 for r in runs if r['failure'])}/{len(runs)} runs)",
    }
    return metrics, basis


def run_cold(name: str, seed: int, seconds: float, trace: bool, record: dict,
             speed: harness.Speed) -> tuple[dict, dict]:
    """``wl.passes(name, seconds)`` passes over the list, each in an order
    shuffled by the seed, or with ``trace`` one pass and then a traced one.
    The number of passes does not depend on how fast the machine happens to
    be, so every run of a workload makes the same task runs and the same
    failures."""
    tasks = list(wl.COLD_WORKLOADS[name])
    rng = random.Random(seed)
    reference = wl.load_reference(tasks)
    caches = tracing.find_caches(tracing.coxkit_modules())
    setup = interpreter_setup("coxkit.cli", speed)
    inputs = {task.name: harness.run_in_child(lambda: task.prepare(seed), _timeout())
              for task in tasks if isinstance(task, wl.ParsetTask)}
    record["setup_samples_s"] = setup
    record["inputs"] = inputs

    speed.mark()
    runs, pass_walls = [], []
    for _ in range(1 if trace else wl.passes(name, seconds)):
        rng.shuffle(tasks)
        start = time.monotonic()
        runs += [run_task(task, inputs, reference, caches, speed) for task in tasks]
        pass_walls.append(time.monotonic() - start)
    record["pass_walls_s"] = pass_walls
    first = runs[:len(tasks)]
    metrics, basis = cold_metrics(runs)
    metrics["setup_s"] = harness.median(setup)
    basis["setup_s"] = f"median of {len(setup)} interpreter starts importing coxkit.cli"

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced = [run_task(task, inputs, reference, caches, speed, tracer) for task in tasks]
        tracer.uninstall()
        runs += traced
        total, spans, cache_totals, lines = None, [], {}, 0
        for r in _ok(traced):
            result = r["result"]
            spans += [[r["task"].name, i] + s for i, s in enumerate(result["trace"]["spans"])]
            total = tracing.merge(total, result["trace"])
            for cache, (hits, misses) in result["caches"].items():
                old = cache_totals.get(cache, [0, 0])
                cache_totals[cache] = [old[0] + hits, old[1] + misses]
            lines += result["lines"]
        overhead = sum(map(_seconds, _ok(traced))) / sum(map(_seconds, _ok(first)))
        traced_wall = sum(r["result"]["seconds"] for r in _ok(traced))
        metrics = layer_metrics(total, cache_totals, caches, lines, traced_wall, overhead)
        record["trace"] = total
        write_spans(name, seed, spans)
    return metrics, {"basis": basis, "runs": runs}


def layer_metrics(total, cache_totals, caches, lines, traced_wall, overhead) -> dict:
    metrics = tracing.layer_metrics(total, cache_totals, {n: l for l, n, _ in caches}, lines)
    metrics["trace_overhead"] = overhead
    metrics["traced_wall_s"] = traced_wall
    metrics["bench.self_s"] = traced_wall - sum(total["self_ns"].values()) / 1e9
    return metrics


def write_spans(name: str, seed: int, spans: list) -> None:
    """One JSON array per span after a header line naming the fields."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{name}-seed{seed}.spans.jsonl", "w") as out:
        out.write(json.dumps(["task", "id", "layer", "name", "parent", "start_ns", "end_ns"]) + "\n")
        for span in spans:
            out.write(json.dumps(span) + "\n")


def _timed_warm_up() -> tuple[list, dict]:
    with harness.ticking() as ticks:
        start = time.perf_counter()
        pools = wl.warm_up()
        seconds = time.perf_counter() - start - sum(ticks)
    return pools, {"seconds": seconds, "ticks": ticks}


def run_warm(seed: int, seconds: float, trace: bool, record: dict,
             speed: harness.Speed) -> tuple[dict, dict]:
    caches = tracing.find_caches(tracing.coxkit_modules())
    spawn = interpreter_setup("coxkit", speed)
    warm = []
    for _ in range(WARM_FORKED_SETUPS):
        result = harness.run_in_child(lambda: _timed_warm_up()[1], _timeout())
        if result["status"] != "ok":
            raise RuntimeError(f"kernel-warm set-up failed: {result.get('detail')}")
        warm.append(result["seconds"] * speed.scale(result["ticks"]))
    pools, result = _timed_warm_up()
    warm.append(result["seconds"] * speed.scale(result["ticks"]))
    record["setup_samples_s"] = {"interpreter_and_import": spawn, "warm_up": warm}

    stream = wl.run_stream(pools, random.Random(seed), speed,
                           seconds=seconds / 2 if trace else seconds)
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        before = tracing.cache_snapshot(caches)
        traced = wl.run_stream(pools, random.Random(seed), speed,
                               count=len(stream["samples"]), tracer=tracer)
        cache_totals = tracing.cache_delta(before, tracing.cache_snapshot(caches))
        tracer.uninstall()
    samples = stream["samples"]
    n = len(samples)
    if harness.samples_beyond(n, 99) < TAIL_SAMPLES:
        raise RuntimeError(f"{n} batches leave fewer than {TAIL_SAMPLES} beyond p99")
    failed = stream["failed"] + (traced["failed"] if trace else 0)
    attempted = n * (2 if trace else 1)
    metrics = {
        "setup_s": harness.median(spawn) + harness.median(warm),
        "tasks_per_s": n / stream["timed"],
        "task_p50_s": harness.median(samples),
        "task_tail_s": harness.percentile(samples, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - failed / attempted,
    }
    basis = {
        "setup_s": f"median of {len(spawn)} interpreter starts importing coxkit + median of "
                   f"{len(warm)} warm-ups",
        "tasks_per_s": f"{n} batches / {stream['timed']:.3f} s timed",
        "task_p50_s": f"median of {n} batch times",
        "task_tail_s": (f"task_p99_s: nearest-rank p99 of {n} batch times, "
                        f"{harness.samples_beyond(n, 99)} beyond it"),
        "peak_rss_mb": "peak resident memory of the session",
        "ok_frac": f"1 - failed_frac; failed_frac = {failed}/{attempted} batches",
    }
    record["first_failure"] = stream["first_failure"] or (traced["first_failure"] if trace else None)
    runs = {"attempted": attempted, "failed": failed, "known": 0}
    if trace:
        metrics = layer_metrics(traced["trace"], cache_totals, caches, 0, traced["raw_timed"],
                                traced["timed"] / stream["timed"])
        record["trace"] = {key: value for key, value in traced["trace"].items() if key != "spans"}
        write_spans("kernel-warm", seed,
                    [["query stream", i] + span for i, span in enumerate(traced["trace"]["spans"])])
    return metrics, {"basis": basis, "warm": runs}


def record_reference() -> int:
    """Run every fixed CLI task once and store its exit code and stdout."""
    results = {}
    for task in wl.all_cli_tasks():
        result = harness.run_in_child(lambda: task.run(None, None), TASK_TIMEOUT_S * 5)
        if result["status"] != "ok":
            print(f"error: {task.name}: {result['status']}", file=sys.stderr)
            return 1
        results[task.name] = result
        print(f"{result['seconds']:8.3f} s  exit {result['exit']}  {task.name}")
    wl.write_reference(results)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of their metrics."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':30s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        print(f"{name:30s}" + "".join(f"{results[w]['metrics'][name]['value']:14.6g}"
                                      for w in WORKLOADS))
    print(f"{'failed/attempted':30s}" + "".join(
        f"{str(results[w]['failed']) + '/' + str(results[w]['attempted']):>14s}" for w in WORKLOADS))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "coxkit" / "__init__.py").is_file():
        print(f"error: no coxkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    trace = bool(args.trace)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": trace, "machine": harness.machine_info(ROOT)}
    speed = harness.Speed()
    if args.workload == "kernel-warm":
        metrics, detail = run_warm(args.seed, args.seconds, trace, record, speed)
        attempted, failed, known = (detail["warm"][k] for k in ("attempted", "failed", "known"))
    else:
        metrics, detail = run_cold(args.workload, args.seed, args.seconds, trace, record, speed)
        runs = detail["runs"]
        attempted = len(runs)
        failed = sum(1 for r in runs if r["failure"])
        known = sum(1 for r in runs if r["known"])
        record["tasks"] = [{"task": r["task"].name, "status": r["result"]["status"],
                            "seconds": r["result"].get("seconds"), "scale": r["scale"],
                            "ticks": len(r["result"].get("ticks", ())),
                            "exit": r["result"].get("exit"), "failure": r["failure"],
                            "maxrss_kb": r["result"].get("maxrss_kb")}
                           for r in runs]
        for task in dict.fromkeys(r["task"] for r in runs):
            mine = [r for r in runs if r["task"] is task]
            times = [_seconds(r) for r in _ok(mine)]
            failure = next((r for r in mine if r["failure"]), None)
            mark = "ok   " if not failure else ("KNOWN" if failure["known"] else "FAIL ")
            print(f"{mark} {len(mine):3d} runs  median "
                  f"{harness.median(times) if times else float('nan'):8.3f} s  {task.name}"
                  + (f"  -- {failure['failure']}" if failure else ""))
    correct = failed == known
    record.update(basis=detail["basis"], attempted=attempted, failed=failed,
                  known_defects=dict(wl.KNOWN_DEFECTS) if known else {},
                  correct=correct, metrics=metrics, probes_s=speed.probes)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    m = record["machine"]
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: python {m['python']}, "
          f"nproc {m['nproc']}, {m['cpu_model']}, commit {m['commit']}")
    print(f"# times are seconds at the reference speed: each sample x the mean of "
          f"{harness.TICK_REFERENCE_S} s / t over the ticks t during it and the probes around "
          f"it; median probe {harness.median(speed.probes):.6f} s over {len(speed.probes)} probes")
    units = {}
    for name, value in metrics.items():
        unit = _unit(name)
        units[name] = unit
        print(f"{name:30s} {value:14.6g} {unit:6s} {detail['basis'].get(name, '')}")
    print(f"failed {failed} of {attempted} runs"
          + (f", {known} of them the known defect in {', '.join(wl.KNOWN_DEFECTS)}" if known else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def _unit(name: str) -> str:
    if name == "tasks_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("ok_frac", "trace_overhead") or name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
