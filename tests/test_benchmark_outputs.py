"""The benchmark's fixed CLI tasks, run in process against the outputs it
recorded: a changed output or a renamed verify check fails here, and not
only as a lower ``ok_frac`` of a benchmark run.  ``perfbench/workloads.py``
is only read: it is loaded with bytecode writing off, so nothing is added
to the benchmark's directory."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from coxkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
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


workloads = _load_workloads()
TASKS = workloads.all_cli_tasks()
REFERENCE = workloads.load_reference(TASKS)


@pytest.mark.parametrize("task", TASKS, ids=lambda task: task.name)
def test_cli_task_matches_its_reference(task):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(task.argv))
    result = {"status": "ok", "exit": code, "stdout": out.getvalue()}
    assert workloads.check_task(task, result, REFERENCE[task.name]) is None

