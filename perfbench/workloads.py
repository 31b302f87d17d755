"""The benchmark's tasks, their reference outputs and their correctness checks.

Three cold workloads run fixed task lists, each task in a freshly forked
child, as a CLI user would meet them.  Every task takes well under two
seconds, so that a run repeats each one several times: on a shared
machine, single runs of multi-second tasks vary too much to compare.

* ``tables-cold``: ``coxkit table`` for hm/hgram/c tables.  The work is in
  whole-group enumeration and parabolic conjugacy (systems) and in the
  descent-algebra tables (descents, freemodule, linalg).
* ``hecke-cold``: ``coxkit hecke`` reports and the hecke verify suite on
  modules of dimension up to 48, built inside regular modules of up to
  384 (hecke, linalg).
* ``series-cold``: series, products, coproducts, expansions, the series,
  shuffles and paper-examples verify suites, and seeded partial root
  system pipelines (words, series, roots, qsym, cli formatting).

``kernel-warm`` is one long-lived library session: its set-up builds the
whole-group tables of A6, B5 and D5 once, then a seeded stream of small
element queries runs against warm caches (kernel, warm L1 lookups).
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import random
import re
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import harness

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


@dataclass(frozen=True)
class CliTask:
    """One ``coxkit`` command, checked against its recorded output."""

    name: str
    argv: tuple[str, ...]

    @property
    def is_verify(self) -> bool:
        return self.argv[0] == "verify"

    def run(self, tracer, inputs) -> dict:
        from coxkit import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                harness.ticking(enabled=not tracer) as ticks:
            if tracer:
                tracer.start()
            start = time.perf_counter()
            code = cli.main(list(self.argv))
            seconds = time.perf_counter() - start - sum(ticks)
            trace = tracer.stop() if tracer else None
        stdout = out.getvalue()
        return {"seconds": seconds, "ticks": ticks, "exit": code, "stdout": stdout,
                "lines": stdout.count("\n"), "trace": trace}


#: Draws a parset task may make to find one parset of each size it lists.
MAX_DRAWS = 5000


@dataclass(frozen=True)
class ParsetTask:
    """Seeded ``random_parset`` -> ``is_parset`` -> ``lattice_points`` runs.

    Checking a valid parset costs almost only a function of its size, and
    sizes are heavy-tailed, so the seed picks which parsets are drawn but
    the task keeps exactly one of each size in ``sizes``.  The seed then
    changes the inputs and not the amount of work.
    """

    name: str
    family: str
    n: int
    window: int
    sizes: tuple[int, ...]
    decompose: bool = False

    def _key(self, seed: int, j: int) -> str:
        return f"{seed}:{self.name}:{j}"

    def prepare(self, seed: int) -> dict:
        """Draw keys until every size in ``sizes`` has been drawn once."""
        from coxkit import roots
        from coxkit.systems import CoxeterSystem

        system = CoxeterSystem(self.family, self.n)
        wanted = set(self.sizes)
        keys = []
        for j in range(MAX_DRAWS):
            size = len(roots.random_parset(system, random.Random(self._key(seed, j))))
            if size in wanted:
                wanted.remove(size)
                keys.append(self._key(seed, j))
                if not wanted:
                    return {"keys": keys}
        raise RuntimeError(f"{self.name}: sizes {sorted(wanted)} not drawn in {MAX_DRAWS} draws")

    def run(self, tracer, inputs) -> dict:
        from coxkit import roots
        from coxkit.systems import CoxeterSystem

        system = CoxeterSystem(self.family, self.n)
        results = []
        with harness.ticking(enabled=not tracer) as ticks:
            if tracer:
                tracer.start()
            start = time.perf_counter()
            for key in inputs["keys"]:
                parset = roots.random_parset(system, random.Random(key))
                valid = roots.is_parset(system, parset)
                points = roots.lattice_points(system, parset, self.window)
                results.append((parset, valid, points))
            seconds = time.perf_counter() - start - sum(ticks)
            trace = tracer.stop() if tracer else None
        return {"seconds": seconds, "ticks": ticks, "exit": 0, "lines": 0, "trace": trace,
                "check": self.check(system, results)}

    def check(self, system, results) -> str | None:
        """Every drawn parset is valid; on request, its lattice points are
        the disjoint union of the chambers of its linear extensions."""
        from coxkit import roots, series

        for parset, valid, points in results:
            if not valid:
                return f"is_parset is false for {sorted(parset)}"
            if self.decompose:
                union = []
                for w in roots.linear_extension_set(system, parset):
                    union.extend(series.s_series(w.inverse(), self.window).terms)
                if len(union) != len(set(union)) or sorted(points) != sorted(union):
                    return f"lattice points of {sorted(parset)} differ from its chambers"
        return None


TABLES_COLD = tuple(
    CliTask(f"table {family}{rank} {table}",
            _argv(f"table --type {family} --rank {rank} --table {table}"))
    for family, rank, table in (
        ("B", 3, "hm"), ("D", 4, "hm"), ("A", 4, "hm"),
        ("B", 3, "hgram"), ("D", 4, "hgram"), ("A", 4, "hgram"),
        ("A", 5, "c"), ("B", 5, "c"), ("D", 5, "c"),
    )
)

HECKE_COLD = tuple(CliTask(name, _argv(argv)) for name, argv in (
    ("hecke D3 regular factors", "hecke --type D --rank 3 --module regular --report factors"),
    ("hecke B3 regular multiplicities",
     "hecke --type B --rank 3 --module regular --report multiplicities"),
    ("hecke A3 regular factors", "hecke --type A --rank 3 --module regular --report factors"),
    ("hecke D4 P:1,2 dim", "hecke --type D --rank 4 --module P:1,2 --report dim"),
    ("hecke D4 restrict 0,1,2 P:1,2 multiplicities",
     "hecke --type D --rank 4 --op restrict --subset 0,1,2 --module P:1,2 --report multiplicities"),
    ("hecke B4 induce 1,2,3 C:2 factors",
     "hecke --type B --rank 4 --op induce --subset 1,2,3 --module C:2"),
    ("hecke D4 induce 0,1,2 P:1 factors",
     "hecke --type D --rank 4 --op induce --subset 0,1,2 --module P:1"),
    ("verify hecke A3", "verify --suite hecke --type A --rank 3"),
    ("verify hecke B3", "verify --suite hecke --type B --rank 3"),
    ("verify hecke D3", "verify --suite hecke --type D --rank 3"),
))

SERIES_COLD = tuple(CliTask(name, _argv(argv)) for name, argv in (
    ("series sA (1,2,2) w5", "series --kind sA --key (1,2,2) --window 5"),
    ("series hA (1,1,3) w5", "series --kind hA --key (1,1,3) --window 5"),
    ("series sB (0,2,2) w5", "series --kind sB --key (0,2,2) --window 5"),
    ("series hB (1,2,2) w4", "series --kind hB --key (1,2,2) --window 4"),
    ("series sD (2,2) w4", "series --kind sD --key (2,2) --window 4"),
    ("series hD (1,1,3) w5", "series --kind hD --key (1,1,3) --window 5"),
    ("product shuffleB", "product --family shuffleB --left 2,-1 --right 1,3,2"),
    ("product cupD", "product --family cupD --left 2,-1,-3 --right 2,1"),
    ("coproduct shuffleB", "coproduct --family shuffleB --arg 2,-4,-3,1"),
    ("coproduct cupD", "coproduct --family cupD --arg 2,-4,-3,1"),
    ("expand x0:2 in hB", "expand --target x0:2 --basis hB:(2);hB:(1,1);hB:(0,2);hB:(0,1,1)"
     " --window 3"),
    ("verify series", "verify --suite series"),
    ("verify shuffles", "verify --suite shuffles"),
    ("verify paper-examples", "verify --suite paper-examples"),
)) + (
    # Sizes 0-9 are every size that more than 1% of random_parset draws
    # produce on these systems (over 1000 draws each).  The rarer, larger
    # parsets (sizes 10-16, 4% of B4 draws) are left out: checking one takes
    # 2-9 s, which a run could not repeat.  The D4 and B4 draws are split
    # so that no task takes much over a second.
    ParsetTask("parsets B3 0-9", "B", 3, window=4, sizes=tuple(range(10)), decompose=True),
    ParsetTask("parsets D4 0-7", "D", 4, window=3, sizes=tuple(range(8))),
    ParsetTask("parsets D4 8-9", "D", 4, window=3, sizes=(8, 9)),
    ParsetTask("parsets B4 0-7", "B", 4, window=3, sizes=tuple(range(8))),
    ParsetTask("parsets B4 8", "B", 4, window=3, sizes=(8,)),
    ParsetTask("parsets B4 9", "B", 4, window=3, sizes=(9,)),
)

COLD_WORKLOADS = {
    "tables-cold": TABLES_COLD,
    "hecke-cold": HECKE_COLD,
    "series-cold": SERIES_COLD,
}

#: Wall seconds one untraced pass over each list takes, checks and speed
#: probes included, on the machine the benchmark was defined on.
PASS_S = {
    "tables-cold": 5.4,
    "hecke-cold": 5.1,
    "series-cold": 11.4,
}


def passes(workload: str, seconds: float) -> int:
    """Passes over the list that fit in ``seconds`` at the speed of
    PASS_S: a fixed number for given ``seconds``, whatever the machine's
    speed during the run."""
    return max(1, int(seconds // PASS_S[workload]))


#: Tasks whose failure is a known defect of the program at the commit that
#: defined the benchmark.  They still count in ``failed``; a failure of the
#: described kind does not make the run's outputs incorrect.
KNOWN_DEFECTS = {
    "verify hecke A3": "the 'projective characteristic' check of verify.suite_hecke "
                       "compares fundamental_qsym on K = 3 letters with "
                       "project_positive, which relabels onto 2K+1 letters",
}


# -- reference outputs ---------------------------------------------------------


def slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


def load_reference(tasks) -> dict[str, dict]:
    """Recorded exit code and stdout of every CLI task."""
    codes = json.loads((REFERENCE_DIR / "exit_codes.json").read_text())
    out = {}
    for task in tasks:
        if isinstance(task, CliTask):
            path = REFERENCE_DIR / f"{slug(task.name)}.out.gz"
            out[task.name] = {"exit": codes[task.name],
                              "stdout": gzip.decompress(path.read_bytes()).decode()}
    return out


def write_reference(results: dict[str, dict]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    codes = {}
    for name, result in sorted(results.items()):
        codes[name] = result["exit"]
        data = gzip.compress(result["stdout"].encode(), mtime=0)
        (REFERENCE_DIR / f"{slug(name)}.out.gz").write_bytes(data)
    (REFERENCE_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


def verify_check_names(stdout: str) -> list[str]:
    """Names of the checks listed in ``coxkit verify`` text output."""
    names = []
    for line in stdout.splitlines():
        match = re.match(r"  (?:ok |FAIL) (.*?)(?: -- .*)?$", line)
        if match:
            names.append(match.group(1))
        elif line.startswith("["):
            names.append(line.split("]", 1)[0] + "]")
    return names


def check_task(task, result: dict, reference: dict | None) -> str | None:
    """Why a finished task failed, or None when its output is right.

    A task fails if it raised, timed out or died, if a verify suite did not
    exit 0 (its identities are theorems) or listed other checks than the
    reference, if any other command's exit code or stdout differs from the
    reference, or if a seeded task's identity check failed.
    """
    if result["status"] != "ok":
        return f"{result['status']}: {result.get('detail', '').strip().splitlines()[-1:]}"
    if isinstance(task, ParsetTask):
        return result["check"]
    if task.is_verify:
        if result["exit"] != 0:
            return f"exit {result['exit']}: a verify check failed"
        if verify_check_names(result["stdout"]) != verify_check_names(reference["stdout"]):
            return "verify lists other checks than the reference"
        return None
    if result["exit"] != reference["exit"]:
        return f"exit {result['exit']}, reference {reference['exit']}"
    if result["stdout"] != reference["stdout"]:
        got, want = result["stdout"].splitlines(), reference["stdout"].splitlines()
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return f"stdout differs from the reference at line {line + 1}"
    return None


def verify_failures(stdout: str) -> list[str]:
    """The FAIL lines, name and detail, of ``coxkit verify`` text output."""
    return [line.strip() for line in stdout.splitlines() if line.startswith("  FAIL ")]


def is_known_defect(task, failure: str | None, result: dict, reference: dict | None) -> bool:
    """A verify failure of a task in KNOWN_DEFECTS that lists the same
    checks as the reference and fails exactly the checks it fails, with
    the same details."""
    return (failure is not None and task.name in KNOWN_DEFECTS and result["status"] == "ok"
            and result["exit"] == 1
            and verify_check_names(result["stdout"]) == verify_check_names(reference["stdout"])
            and verify_failures(result["stdout"]) == verify_failures(reference["stdout"]))


# -- kernel-warm -------------------------------------------------------------------

WARM_SYSTEMS = (("A", 7), ("B", 5), ("D", 5))

#: Batches timed back to back between two speed probes; their outputs are
#: checked afterwards, untimed.
CHUNK = 512


def warm_up() -> list[tuple]:
    """Build the whole-group tables the query stream reads: every element,
    and the coset representatives and descent class of every subset."""
    from coxkit import systems

    pools = []
    for family, n in WARM_SYSTEMS:
        system = systems.CoxeterSystem(family, n)
        group = systems.elements(system)
        subsets = systems.all_subsets(system)
        for subset in subsets:
            systems.min_coset_reps(system, subset)
            systems.descent_class(system, subset)
        pools.append((system, group, subsets))
    return pools


def draw_batch(rng: random.Random, pools) -> tuple:
    system, group, subsets = pools[rng.randrange(len(pools))]
    return (system, group[rng.randrange(len(group))], group[rng.randrange(len(group))],
            subsets[rng.randrange(len(subsets))], subsets[rng.randrange(len(subsets))])


def run_batch(batch) -> tuple:
    """One query batch: products, inverses, lengths, descents, a reduced
    word, both parabolic decompositions and two warm L1 lookups."""
    from coxkit import systems

    system, u, v, left, right = batch
    descents = u.descent_set()
    return (u * v, u.inverse(), u.length(), descents, u.left_descent_set(),
            u.reduced_word(), systems.parabolic_decompose_left(u, left),
            systems.parabolic_decompose_right(u, right),
            systems.descent_class(system, descents), systems.min_coset_reps(system, left))


class LookupOracle:
    """Full checks of the warm L1 lookups of the query stream.

    The first time a lookup answers for a subset, every element of the
    answer is checked and their number is compared with a count over the
    whole group; afterwards the lookup must return an equal tuple.
    """

    def __init__(self, pools):
        self.descent_counts = {system: Counter(w.descent_set() for w in group)
                               for system, group, _ in pools}
        self.checked: dict[tuple, tuple | None] = {}

    def check(self, kind: str, system, subset: frozenset, answer: tuple) -> bool:
        key = (kind, system, subset)
        if key not in self.checked:
            self.checked[key] = answer if self._check_all(kind, system, subset, answer) else None
        known = self.checked[key]
        return known is not None and (answer is known or answer == known)

    def _check_all(self, kind: str, system, subset: frozenset, answer: tuple) -> bool:
        counts = self.descent_counts[system]
        if kind == "descent_class":
            want = counts[subset]
            right = all(w.descent_set() == subset for w in answer)
        else:  # min_coset_reps: no descent in the subset
            want = sum(n for descents, n in counts.items() if not descents & subset)
            right = all(not w.descent_set() & subset for w in answer)
        return right and len(answer) == len(set(answer)) == want


def check_batch(batch, out, oracle: LookupOracle) -> str | None:
    """Identities every batch output must satisfy, whatever the seed."""
    system, u, v, left, right = batch
    product, inverse, length, descents, left_descents, word, (rep, part), \
        (rpart, rrep), dclass, reps = out
    if not (u * inverse).is_identity():
        return f"{u} * inverse is not the identity"
    if length != len(word):
        return f"length {length} of {u} != reduced word length {len(word)}"
    if (product.length() - length - v.length()) % 2:
        return f"length parity of {u} * {v}"
    if left_descents != inverse.descent_set():
        return f"left descents of {u}"
    if rep * part != u or rep.length() + part.length() != length or rep.descent_set() & left:
        return f"parabolic_decompose_left({u}, {sorted(left)})"
    if rpart * rrep != u or rpart.length() + rrep.length() != length \
            or rrep.left_descent_set() & right:
        return f"parabolic_decompose_right({u}, {sorted(right)})"
    if not oracle.check("descent_class", system, descents, dclass):
        return f"descent class of {sorted(descents)}"
    if not oracle.check("min_coset_reps", system, left, reps):
        return f"coset representatives of {sorted(left)}"
    return None


def run_stream(pools, rng: random.Random, speed, seconds: float | None = None,
               count: int | None = None, tracer=None) -> dict:
    """Run batches for ``seconds`` (or exactly ``count`` batches).

    Returns the per-batch times and the timed wall (the sum of the chunks'
    walls, checks excluded), both at the reference speed of ``speed``, the
    raw timed wall, the number of failed batches and the first failure.
    """
    samples: list[float] = []
    timed = raw_timed = 0.0
    failed = 0
    first_failure = None
    oracle = LookupOracle(pools)
    stop_at = time.monotonic() + seconds if seconds is not None else None
    if tracer:
        tracer.start()
        tracer.off = True
    speed.mark()
    while (count is None and time.monotonic() < stop_at) or (count is not None and len(samples) < count):
        size = CHUNK if count is None else min(CHUNK, count - len(samples))
        batches = [draw_batch(rng, pools) for _ in range(size)]
        outputs, times = [], []
        if tracer:
            tracer.off = False
        chunk_start = time.perf_counter()
        for batch in batches:
            start = time.perf_counter()
            try:
                outputs.append(run_batch(batch))
            except Exception as exc:  # a raising batch is a failed task
                outputs.append(exc)
            times.append(time.perf_counter() - start)
        wall = time.perf_counter() - chunk_start
        if tracer:
            tracer.off = True
        scale = speed.scale()
        samples += [t * scale for t in times]
        timed += wall * scale
        raw_timed += wall
        for batch, out in zip(batches, outputs):
            failure = (f"raised {out!r}" if isinstance(out, Exception)
                       else check_batch(batch, out, oracle))
            if failure:
                failed += 1
                first_failure = first_failure or failure
    trace = tracer.stop() if tracer else None
    return {"samples": samples, "timed": timed, "raw_timed": raw_timed, "failed": failed,
            "first_failure": first_failure, "trace": trace}


def all_cli_tasks():
    return [task for tasks in COLD_WORKLOADS.values() for task in tasks
            if isinstance(task, CliTask)]
