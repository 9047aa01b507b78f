#!/usr/bin/env python3
"""Self-test of the benchmark at toy graph sizes; takes about half a minute.

Run from the root of a checkout:

    python3 rwbench/selftest.py

It checks that every workload prints every metric that ``BENCHMARK.json``
declares, by name and with its declared unit, in both modes; that the exact
counters repeat across two invocations with the same seed; and that a
perturbed output or a wrong reference digest is caught and raises
``failed_frac``.  Exits 0 on success, 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SelfTestFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def invoke(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    require(proc.returncode == 0, f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_printed(lines: list[str], result: dict, declared: list[dict], where: str) -> None:
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys {set(result)}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{where}: {result}")
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == expected, f"{where}: metrics/units {got} differ from BENCHMARK.json {expected}")
    table = {line.split()[0]: line.split() for line in lines[:-1] if line.split()}
    for name, unit in {**expected, "failed_frac": "frac"}.items():
        require(name in table and table[name][2] == unit, f"{where}: {name} [{unit}] not printed")
        if name != "failed_frac":
            require(isinstance(result["metrics"][name]["value"], (int, float)), f"{where}: {name} not a number")


def main() -> int:
    try:
        for workload in WORKLOADS:
            lines, result = invoke(workload, 0)
            check_printed(lines, result, SPEC["end_to_end"], f"{workload} --trace 0")
            lines, first = invoke(workload, 1)
            check_printed(lines, first, SPEC["per_layer"], f"{workload} --trace 1")
            _, second = invoke(workload, 1)
            for name, m in first["metrics"].items():
                if m["unit"] in ("count", "bytes"):
                    require(
                        second["metrics"][name]["value"] == m["value"],
                        f"{workload}: {name} differs between two invocations with one seed",
                    )
            require(first["metrics"]["walker.steps"]["value"] > 0, f"{workload}: no walker steps counted")

        for workload in ("eval-pa50k-h4", "crawl-plc100k"):
            res = run.bench(workload, 3, 0.0, 0, toy=True, perturb_reps=frozenset({2}))
            require(
                res["failed"] == 1 and not res["correct"] and res["failed"] / res["attempted"] > 0,
                f"{workload}: a perturbed repetition was not counted as failed",
            )
        res = run.bench("swarm-pa10k-h128", 3, 0.0, 0, toy=True, reference="0" * 64)
        require(res["failed"] == 1 and not res["correct"], "a wrong reference digest was not caught")
    except SelfTestFailure as exc:
        print(f"selftest: FAILED: {exc}")
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
