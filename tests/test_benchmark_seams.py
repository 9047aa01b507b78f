"""The benchmark harness in ``rwbench/`` against the current library.

``rwbench/run.py`` wraps library functions by name when it traces
(``--trace 1``) and captures others for its output checks, so a change to
a name, a signature or a return shape that it reads breaks the benchmark
without breaking any other test.  Each workload runs here in process at toy
size, untraced and traced, and must pass every check it makes.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "rwbench"


@pytest.fixture(scope="module")
def run_module():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH_DIR))
    return run


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["eval-pa50k-h4", "swarm-pa10k-h128", "crawl-plc100k"])
def test_workload_runs_clean_at_toy_size(run_module, workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run_module, "OUT_DIR", tmp_path)
    result = run_module.bench(workload, 1, 0.0, trace, toy=True)
    errors = [e for r in result["reps"] for e in r["errors"]]
    assert result["correct"] and result["failed"] == 0, errors
    assert result["attempted"] > run_module.MIN_REPS
