"""Process plumbing, statistics and machine information for the benchmark."""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import select
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path


def run_in_child(fn, timeout_s: float) -> dict:
    """Run ``fn()`` in a forked child and return the dict it returns.

    The child starts from the parent's state, so every task sees the
    program exactly as freshly imported, whatever caches it keeps.  The
    result carries ``status``: ``ok``, ``raised`` (with the traceback),
    ``timeout`` (the child was killed) or ``crashed`` (it died without
    answering).  ``maxrss_kb`` is the child's own peak resident memory.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            result = {"status": "ok", **fn()}
        except BaseException:
            result = {"status": "raised", "detail": traceback.format_exc()}
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(result).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout_s
    timed_out = False
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                timed_out = True
                break
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if timed_out:
        return {"status": "timeout", "detail": f"killed after {timeout_s:.1f} s"}
    if not chunks:
        return {"status": "crashed", "detail": "the child exited without a result"}
    return json.loads(b"".join(chunks))


#: Seconds one ``tick()`` takes on the machine the benchmark was defined on
#: (2 vCPUs, Intel Xeon, Python 3.11.7) when nothing else slows it down.
TICK_REFERENCE_S = 0.00035
#: Wall seconds between two ticks while a task runs.
TICK_INTERVAL_S = 0.02


def tick() -> float:
    """Seconds one run of a fixed piece of dict and integer work takes.

    The work does not touch coxkit, so no change to the program moves it.
    Its only container is one dict of ints, which the garbage collector
    does not track, so running it inside a task does not move that task's
    garbage collections.  Dict work follows coxkit's slowdowns under load
    more closely than pure arithmetic does.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(1500):
        key = (i % 97) * 10000 + (i % 89) * 100 + i % 83
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def probe() -> float:
    """Median seconds of nine ticks."""
    return median(tick() for _ in range(9))


@contextlib.contextmanager
def ticking(enabled: bool = True):
    """Run ``tick()`` from a timer signal every TICK_INTERVAL_S of wall time
    while the block runs, and yield the list of tick times.

    The ticks sample the machine's speed evenly over the block, so they see
    slow spells inside a task that probes around it miss.  Their time is
    part of the block's wall time and is to be subtracted from it.
    """
    ticks: list[float] = []
    if not enabled:
        yield ticks
        return
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(tick()))
    signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
    try:
        yield ticks
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Speed:
    """The machine's speed during each timed sample.

    On a shared machine the speed changes by tens of percent from one
    second to the next when other guests load its cores, and CPU time
    follows wall time, so no clock hides it.  A probe is timed before the
    first sample and after every sample; ``scale(ticks)`` returns the
    factor that turns the sample just taken into seconds at the reference
    speed: the mean speed, relative to TICK_REFERENCE_S, of the ticks taken
    during the sample and of the probes on its two sides.
    """

    def __init__(self):
        self.probes: list[float] = []

    def mark(self) -> None:
        self.probes.append(probe())

    def scale(self, ticks=()) -> float:
        self.mark()
        times = [*ticks, self.probes[-2], self.probes[-1]]
        return sum(TICK_REFERENCE_S / t for t in times) / len(times)


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def _rank(n: int, p: float) -> int:
    # Rounded first so that, say, 99.9% of 10000 is 9990 and not 9991.
    return max(1, math.ceil(round(p / 100 * n, 9)))


def machine_info(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(root),
    }


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()
