#!/usr/bin/env python3
"""Fixed-seed benchmark of the rwtopo package.

Run from the root of a checkout:

    python3 rwbench/run.py --workload eval-pa50k-h4 --seed 1 --seconds 30 --trace 0

One invocation runs one workload (see ``workloads.py``) in a closed loop: a
single process, ``workers=1``, each repetition starting only after the
previous one returns.  Set-up (build or load the graph, keep its giant
component) runs several times and its median is ``setup_s``.  Repetition 0
is untimed: it warms caches and carries the output checks (deque-BFS oracle,
covered-edge recount, reference digest, worker-count check).  The timed
repetitions then run for ``--seconds``; each must reproduce repetition 0's
output digest, and a repetition that raises or fails a check counts as
failed.  ``failed``/``attempted`` in the result line is ``failed_frac``.

End-to-end metrics (times at the reference host speed defined by
``calibrate`` below):

* ``setup_s``: median time to build or load the graph and extract its
  giant component.
* ``eval_runs_per_s``: Monte-Carlo runs per second of the timed
  repetitions, ``emit_reports`` included (``run_experiment`` runs; on
  ``crawl`` the coverage plus the crossing runs).
* ``crawl_steps_per_s``: walker steps per second of the timed repetitions;
  exact step counts (runs x h x budget, or runs x budget per entry point on
  ``crawl``).
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed loop.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates traced
and untraced repetitions and prints the per-layer metrics derived from the
traced ones (see ``tracing.py``).  Either way the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` and a full
record, with spans when traced, is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

if not (ROOT / "src" / "rwtopo" / "__init__.py").is_file():
    sys.exit(f"rwbench: no package source at {ROOT / 'src' / 'rwtopo'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracing import NullTracer, Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPS = 5
# Timed repetitions run for --seconds but never fewer than this (with
# --trace 1, half of them traced).
MIN_REPS = 4
CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")

# On a shared host the speed of the same single-threaded code drifts by tens
# of percent within seconds, so raw wall times of one run are not comparable
# with another's.  A fixed calibration kernel that mixes the package's kinds
# of work (numpy sorting and gathering on ~1e5-element arrays, random reads
# from an array larger than L2 as in CSR traversal, and an interpreter loop
# over numpy scalars as in the walk loop) is timed before every set-up and
# every repetition, and once after each.  A time t is reported at the host
# speed where the kernel takes CAL_REFERENCE_S: t * CAL_REFERENCE_S / mean of
# the kernel times around it (those just before and after one set-up; all
# of them for the timed repetitions taken together).  Raw values and kernel
# times are kept in the record.
CAL_REFERENCE_S = 0.1
_cal_rng = np.random.default_rng(12345)
CAL_VALUES = _cal_rng.integers(0, 1 << 20, 100_000)
CAL_INDEX = _cal_rng.integers(0, 100_000, 100_000)
CAL_TABLE = _cal_rng.integers(0, 1 << 20, 1 << 20)  # 8 MiB
CAL_TABLE_INDEX = _cal_rng.integers(0, 1 << 20, 200_000)


def calibrate() -> float:
    """Seconds taken by the fixed calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.unique(CAL_VALUES[CAL_INDEX])
        CAL_TABLE[CAL_TABLE_INDEX].sum()
    acc = 0
    for i in range(40_000):
        acc += int(CAL_VALUES[CAL_INDEX[i]]) & 7
    return time.perf_counter() - t0


def at_reference_speed(t: float, cal: list[float]) -> float:
    """Time ``t`` scaled to the reference host speed, from the kernel times around it."""
    return t * CAL_REFERENCE_S / statistics.mean(cal)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cache_sizes() -> dict:
    """Per-level cache sizes in bytes of CPU 0, read-only from sysfs."""
    sizes = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[label] = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    return sizes


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_reference(name: str, seed: int, toy: bool) -> str | None:
    """Output digest recorded for the default seed, if this is that run."""
    if toy or seed != DEFAULT_SEED:
        return None
    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    return ref["digests"].get(name)


def bench(name, seed, seconds, trace, toy=False, perturb_reps=frozenset(), reference=None) -> dict:
    """Run one workload; return the result line's fields plus the full record."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    wl = make_workload(name, seed, OUT_DIR, toy)
    wl.prepare()

    setups, setup_cal, g = [], [], None
    for _ in range(SETUP_REPS):
        g = None  # drop the previous graph so set-ups do not stack up in RSS
        setup_cal.append(calibrate())
        t0 = time.perf_counter()
        g, layers = wl.setup(time.perf_counter)
        setups.append((time.perf_counter() - t0, layers))
    setup_cal.append(calibrate())
    setup_rss = rss_mb()

    null = NullTracer()
    tracer = Tracer()
    reps = []  # one dict per attempted repetition
    rep0 = {"rep": 0, "traced": False, "timed": False, "errors": []}
    reps.append(rep0)
    check = None
    try:
        out, check = wl.checked_phase(g, null)
        baseline = wl.digest(out)
        if reference is not None and baseline != reference:
            rep0["errors"].append(f"digest {baseline} differs from the reference {reference}")
    except Exception:
        rep0["errors"].append(traceback.format_exc())
        baseline = None

    untraced_s = []
    t_start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - t_start < seconds:
        rep += 1
        cal_before = calibrate()
        traced = bool(trace) and rep % 2 == 0
        info = {"rep": rep, "traced": traced, "timed": True, "errors": []}
        reps.append(info)
        try:
            if traced:
                tracer.start_rep(rep)
                with instrument(tracer):
                    t0 = time.perf_counter()
                    out = wl.phase(g, tracer, perturb=rep in perturb_reps)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = wl.phase(g, null, perturb=rep in perturb_reps)
                dt = time.perf_counter() - t0
            info["seconds"] = dt
            info["calibration_s"] = [cal_before, calibrate()]
            info["runs"], info["steps"] = wl.work(g, out)
            info["digest"] = wl.digest(out)
            if info["digest"] != baseline:
                info["errors"].append("output digest differs from repetition 0")
            if not traced:
                untraced_s.append(dt)
        except Exception:
            info["errors"].append(traceback.format_exc())
    peak_rss = rss_mb()

    if check is not None:
        try:
            rep0["errors"] += check() + wl.worker_check(g)
        except Exception:
            rep0["errors"].append(traceback.format_exc())

    if trace:
        layers, notes = layer_metrics(tracer, untraced_s)
        by_rep = {r["rep"]: r for r in reps}
        for r, message in tracer.failures:
            by_rep[r]["errors"].append(message)
        metrics = {
            "graph.load_edge_list.s": (_median_layer(setups, "graph.load_edge_list.s"), "s"),
            "generators.build.s": (_median_layer(setups, "generators.build.s"), "s"),
            "graph.giant_component.s": (_median_layer(setups, "graph.giant_component.s"), "s"),
            "process.setup_rss_mb": (setup_rss, "MB"),
            **layers,
        }
    else:
        # Throughputs are total work over the total time of the timed
        # repetitions that passed their checks.
        ok_timed = [r for r in reps if r["timed"] and not r["errors"]]
        busy_s = at_reference_speed(
            sum(r["seconds"] for r in ok_timed), [c for r in ok_timed for c in r["calibration_s"]]
        ) if ok_timed else math.inf
        setup_s = [at_reference_speed(s, cal) for (s, _), cal in zip(setups, zip(setup_cal, setup_cal[1:]))]
        notes = {
            "setup_rss_mb": setup_rss,
            "setup_calibration_s": setup_cal,
            "raw_setup_s": statistics.median(s for s, _ in setups),
            "raw_busy_s": sum(r["seconds"] for r in ok_timed),
        }
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "eval_runs_per_s": (sum(r["runs"] for r in ok_timed) / busy_s, "1/s"),
            "crawl_steps_per_s": (sum(r["steps"] for r in ok_timed) / busy_s, "1/s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }

    failed = sum(1 for r in reps if r["errors"])
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "toy": toy,
        "seconds": seconds,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_caches_bytes": cache_sizes(),
        "loop": "closed: one process, workers=1, each repetition starts after the previous one returns",
        "workload_shape": wl.record(g),
        "csr_working_set_bytes_computed": int(g.indptr.nbytes + g.adj.nbytes + g.adj_edge_ids.nbytes),
        "setup_repetitions": SETUP_REPS,
        "repetitions": len(reps),
        "reference_digest": reference,
    }
    l3 = record["cpu_caches_bytes"].get("L3")
    record["csr_fits_l3"] = None if l3 is None else record["csr_working_set_bytes_computed"] <= l3
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
        "notes": notes,
        "setups": setups,
        "reps": reps,
        "spans": [
            [s.name, s.start - t_start, s.end - t_start, s.parent, s.run_id, s.rep, s.replay]
            for s in tracer.spans
        ],
    }


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _median_layer(setups, key) -> float:
    return _median_or_zero(layers[key] for _, layers in setups if key in layers)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy graph sizes, for the self-test")
    args = ap.parse_args(argv)

    reference = load_reference(args.workload, args.seed, args.toy)
    res = bench(args.workload, args.seed, args.seconds, args.trace, toy=args.toy, reference=reference)

    suffix = "_toy" if args.toy else ""
    path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")

    notes = res["notes"]
    remarks = {}
    if "experiments.run.samples" in notes:
        remarks["experiments.run.ms_tail"] = (
            f"p{notes['experiments.run.ms_tail_percentile']:.4g} of {notes['experiments.run.samples']} runs"
        )
    for name, m in res["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']} {remarks.get(name, '')}".rstrip())
    print(f"{'failed_frac':40s} {res['failed'] / res['attempted']:>16.6g} frac "
          f"{res['failed']} of {res['attempted']} repetitions")
    for r in res["reps"]:
        for error in r["errors"]:
            print(f"repetition {r['rep']} failed: {error}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
