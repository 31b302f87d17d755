"""Tests of the benchmark itself: failure accounting, statistics, tracing.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

PRODUCT = next(t for t in wl.SERIES_COLD if t.name == "product shuffleB")


def _raise():
    raise ZeroDivisionError("task blew up")


def _sleep():
    time.sleep(30)
    return {}


# -- failure accounting --------------------------------------------------------------


def test_correct_output_passes_and_corrupted_output_fails():
    reference = wl.load_reference([PRODUCT])[PRODUCT.name]
    result = harness.run_in_child(lambda: PRODUCT.run(None, None), 30)
    assert result["status"] == "ok"
    assert wl.check_task(PRODUCT, result, reference) is None
    corrupted = dict(result, stdout=result["stdout"].replace("1\t", "2\t", 1))
    assert "stdout differs" in wl.check_task(PRODUCT, corrupted, reference)
    wrong_exit = dict(result, exit=3)
    assert "exit 3" in wl.check_task(PRODUCT, wrong_exit, reference)


def test_raised_exception_fails():
    result = harness.run_in_child(_raise, 30)
    assert result["status"] == "raised"
    assert "ZeroDivisionError" in result["detail"]
    assert wl.check_task(PRODUCT, result, None).startswith("raised")


def test_timeout_fails_and_the_child_is_reaped():
    start = time.monotonic()
    result = harness.run_in_child(_sleep, 0.5)
    assert time.monotonic() - start < 10
    assert result["status"] == "timeout"
    assert wl.check_task(PRODUCT, result, None).startswith("timeout")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_state_does_not_leak_between_tasks():
    from coxkit import systems

    system = systems.CoxeterSystem("B", 2)
    before = systems.elements.cache_info().currsize
    harness.run_in_child(lambda: {"n": len(systems.elements(system))}, 30)
    assert systems.elements.cache_info().currsize == before


def test_verify_failure_counts_and_only_the_known_defect_is_excused():
    task = next(t for t in wl.HECKE_COLD if t.name == "verify hecke A3")
    reference = wl.load_reference([task])[task.name]
    result = {"status": "ok", "exit": 1, "stdout": reference["stdout"]}
    failure = wl.check_task(task, result, reference)
    assert failure and "verify check failed" in failure
    assert wl.is_known_defect(task, failure, result, reference)
    other = next(t for t in wl.HECKE_COLD if t.name == "verify hecke B3")
    other_ref = wl.load_reference([other])[other.name]
    bad = {"status": "ok", "exit": 1, "stdout": other_ref["stdout"]}
    assert not wl.is_known_defect(other, wl.check_task(other, bad, other_ref), bad, other_ref)
    second_fail = {"status": "ok", "exit": 1, "stdout": reference["stdout"].replace(
        "  ok  regular dimension", "  FAIL regular dimension -- failed")}
    assert second_fail["stdout"] != reference["stdout"]
    failure = wl.check_task(task, second_fail, reference)
    assert failure and not wl.is_known_defect(task, failure, second_fail, reference)
    other_detail = {"status": "ok", "exit": 1,
                    "stdout": reference["stdout"].replace("-- failed", "-- got 1, want 2")}
    failure = wl.check_task(task, other_detail, reference)
    assert failure and not wl.is_known_defect(task, failure, other_detail, reference)
    dropped = {"status": "ok", "exit": 0,
               "stdout": "\n".join(other_ref["stdout"].splitlines()[:-1]) + "\n"}
    assert "other checks" in wl.check_task(other, dropped, other_ref)


def test_a_cold_run_makes_the_same_task_runs_at_any_machine_speed(monkeypatch):
    import run

    def fake_run_task(task, inputs, reference, caches, speed, tracer=None):
        time.sleep(delay)
        failure = "exit 1: a verify check failed" if task.name in wl.KNOWN_DEFECTS else None
        return {"task": task, "result": {"status": "ok", "seconds": delay + 0.1, "maxrss_kb": 1},
                "failure": failure, "known": failure is not None, "scale": 1.0}

    monkeypatch.setattr(run, "interpreter_setup", lambda module, speed: [0.1])
    monkeypatch.setattr(run, "run_task", fake_run_task)
    monkeypatch.setattr(harness, "probe", lambda: 0.001)
    counts = []
    for delay in (0.0, 0.005):
        _, detail = run.run_cold("hecke-cold", 1, 25, False, {}, harness.Speed())
        runs = detail["runs"]
        counts.append((len(runs), sum(1 for r in runs if r["failure"])))
    passes = wl.passes("hecke-cold", 25)
    assert counts == [(passes * len(wl.HECKE_COLD), passes)] * 2


def test_verify_check_names():
    text = "[hecke] 1/2 checks passed\n  ok  dims match\n  FAIL chars -- got 1, want 2\n"
    assert wl.verify_check_names(text) == ["[hecke]", "dims match", "chars"]


def _tiny_pools():
    from coxkit import systems

    system = systems.CoxeterSystem("B", 2)
    return [(system, systems.elements(system), systems.all_subsets(system))]


def test_warm_stream_counts_raised_and_wrong_batches(monkeypatch):
    pools = _tiny_pools()
    clean = wl.run_stream(pools, random.Random(0), harness.Speed(), count=40)
    assert len(clean["samples"]) == 40 and clean["failed"] == 0

    calls = iter(range(1000))
    real = wl.run_batch

    def flaky(batch):
        i = next(calls)
        if i % 10 == 3:
            raise RuntimeError("boom")
        out = real(batch)
        return (out[0], out[1], out[2] + 1) + out[3:] if i % 10 == 7 else out

    monkeypatch.setattr(wl, "run_batch", flaky)
    broken = wl.run_stream(pools, random.Random(0), harness.Speed(), count=40)
    assert broken["failed"] == 8
    assert broken["first_failure"].startswith("raised RuntimeError")


@pytest.mark.parametrize("corrupt", [
    lambda t: t + t[:1],      # a duplicated element
    lambda t: t[:-1],         # an element missing
    lambda t: t[:1] * len(t),  # right length and first element, wrong rest
])
def test_warm_lookups_are_checked_in_full(monkeypatch, corrupt):
    pools = _tiny_pools()
    real = wl.run_batch

    def wrong_class(batch):
        out = real(batch)
        return out[:8] + (corrupt(out[8]),) + out[9:]

    def wrong_reps(batch):
        out = real(batch)
        return out[:9] + (corrupt(out[9]),)

    for bad in (wrong_class, wrong_reps):
        monkeypatch.setattr(wl, "run_batch", bad)
        broken = wl.run_stream(pools, random.Random(0), harness.Speed(), count=40)
        what = "descent class" if bad is wrong_class else "coset representatives"
        assert broken["failed"] > 0 and broken["first_failure"].startswith(what)


def test_parset_inputs_follow_the_seed_and_the_size_profile():
    from coxkit import roots
    from coxkit.systems import CoxeterSystem

    task = wl.ParsetTask("parsets B2", "B", 2, window=2, sizes=(0, 1, 2), decompose=True)
    first = harness.run_in_child(lambda: task.prepare(5), 30)
    again = harness.run_in_child(lambda: task.prepare(5), 30)
    other = harness.run_in_child(lambda: task.prepare(6), 30)
    assert first["keys"] == again["keys"] != other["keys"]
    system = CoxeterSystem("B", 2)
    sizes = sorted(len(roots.random_parset(system, random.Random(k))) for k in first["keys"])
    assert sizes == [0, 1, 2]
    result = harness.run_in_child(lambda: task.run(None, first), 30)
    assert result["status"] == "ok" and result["check"] is None


# -- statistics ---------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(1).shuffle(values)
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 99) == 7.0
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 3, 2]) == 2.5


def test_tail_rule_leaves_ten_samples_beyond():
    assert harness.samples_beyond(1000, 99) == 10
    assert harness.samples_beyond(999, 99) == 9
    assert harness.samples_beyond(10_000, 99) == 100
    assert harness.samples_beyond(100, 99) == 1


def test_speed_scales_each_sample_by_the_ticks_in_it_and_the_probes_around_it(monkeypatch):
    readings = iter([0.02, 0.02, 0.01, 0.04])
    monkeypatch.setattr(harness, "probe", lambda: next(readings))
    speed = harness.Speed()
    speed.mark()
    ref = harness.TICK_REFERENCE_S
    assert speed.scale() == pytest.approx(ref / 0.02)
    assert speed.scale() == pytest.approx((ref / 0.02 + ref / 0.01) / 2)
    assert speed.scale([0.04, 0.05]) == pytest.approx(
        (ref / 0.04 + ref / 0.05 + ref / 0.01 + ref / 0.04) / 4)
    assert speed.probes == [0.02, 0.02, 0.01, 0.04]


def test_ticks_sample_the_block_and_their_time_is_returned():
    handler = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with harness.ticking() as ticks:
        while time.perf_counter() - start < 0.3:
            pass
    assert 5 <= len(ticks) <= 16 and all(0 < t < 0.3 for t in ticks)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with harness.ticking(enabled=False) as ticks:
        time.sleep(0.1)
    assert ticks == []


# -- tracing ---------------------------------------------------------------------------


def test_tracer_accounts_for_wall_time_and_uninstalls():
    from coxkit import cli, systems, words

    original_elements = systems.elements
    original_product = words.PRODUCTS["shuffleB"]
    caches = tracing.find_caches(tracing.coxkit_modules())
    assert "coxkit.systems.elements" in {name for _, name, _ in caches}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert words.PRODUCTS["shuffleB"] is not original_product
        assert cli.elements is systems.elements is not original_elements
        tracer.start()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(PRODUCT.argv))
            cli.main(["table", "--type", "B", "--rank", "2", "--table", "c"])
        wall = time.perf_counter() - start
        record = tracer.stop()
    finally:
        tracer.uninstall()
    assert systems.elements is original_elements
    assert words.PRODUCTS["shuffleB"] is original_product
    self_s = sum(record["self_ns"].values()) / 1e9
    assert 0.9 * wall <= self_s <= wall
    assert record["calls"]["cli"] >= 2
    assert record["calls"]["words"] >= 1 and record["counters"]["words.terms_out"] > 0
    assert record["calls"]["kernel"] > 0 and record["counters"]["kernel.elements_made"] > 0
    assert record["spans"] and all(span[4] >= span[3] for span in record["spans"])
