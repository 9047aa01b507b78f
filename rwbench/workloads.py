"""The three benchmark workloads, their set-up, timed phase and output checks.

Why these three: each ROADMAP optimisation does most of its work in one of
them and little or none in another.

* ``eval-pa50k-h4`` is BFS-bound: the README evaluation at 10x size, where
  true-distance ``bfs_distances`` and the union ``routing_tree`` dominate.
  Its set-up is the edge-list parser.
* ``swarm-pa10k-h128`` is protocol-bound: 128 walkers making short walks, so
  ``run_rwsp``'s meeting detection and hop accounting dominate, and the
  per-walker dense state moves peak memory.
* ``crawl-plc100k`` is walker-bound: the C1/C3 coverage and crossing
  recipe at 10x size, with long single walks and no BFS or protocol.

Every repetition of a workload repeats the same deterministic experiment,
so its output digest must be identical across repetitions.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from collections import Counter, deque
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import rwtopo
import rwtopo.experiments as ex
from rwtopo import (
    ExperimentConfig,
    coverage_validation,
    crossing_rate,
    emit_reports,
    from_spec,
    giant_component,
    load_edge_list,
    run_experiment,
)
from rwtopo.generators import PowerLawParams, configuration_model, power_law_degrees
from rwtopo.graph import UNREACHABLE

from tracing import patched

# True-distance BFS calls of the checked repetition recomputed by the oracle.
ORACLE_SOURCES = 8
# Coverage walks of the checked repetition whose covered edges are recounted.
ORACLE_WALKS = 3
TAUS = tuple(k / 100 for k in range(1, 11))
# Child-process script: argv = package parent directory, spec, seed, path.
_WRITE_EDGE_LIST = """
import sys
sys.path.insert(0, sys.argv[1])
from rwtopo import from_spec, write_edge_list
write_edge_list(from_spec(sys.argv[2], int(sys.argv[3])), sys.argv[4])
"""


def derived_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        if path.name == "timing.json":  # the one nondeterministic report
            continue
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def deque_bfs(indptr: list[int], adj: list[int], source: int) -> list[int]:
    """Plain-queue hop distances, independent of the package's frontier BFS."""
    dist = [UNREACHABLE] * (len(indptr) - 1)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[indptr[u] : indptr[u + 1]]:
            if dist[v] == UNREACHABLE:
                dist[v] = du
                queue.append(v)
    return dist


class ExperimentWorkload:
    """``run_experiment`` followed by ``emit_reports`` (csv) on one graph."""

    def __init__(self, name, seed, out_dir: Path, *, n, h, beta, runs, load_from_file, worker_check_runs=0):
        self.name = name
        self.n = n
        self.h = h
        self.beta = beta
        self.runs = runs
        self.load_from_file = load_from_file
        self.worker_check_runs = worker_check_runs
        self.graph_seed = derived_seed(seed, 1)
        self.exp_seed = derived_seed(seed, 2)
        self.out_dir = out_dir
        self.report_dir = out_dir / f"reports-{name}"
        self.edge_file = out_dir / f"{name}.edges"

    @property
    def spec(self) -> str:
        return f"pa:n={self.n},m0=3"

    def cfg(self, **overrides) -> ExperimentConfig:
        cfg = ExperimentConfig(seed=self.exp_seed, h=self.h, beta=self.beta, runs=self.runs)
        return replace(cfg, **overrides)

    def prepare(self) -> None:
        """Untimed one-off work before set-up: write the edge-list file.

        A child process writes it, so that building the graph it describes
        does not count in this process's peak RSS.
        """
        if self.load_from_file:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            subprocess.run(
                [sys.executable, "-c", _WRITE_EDGE_LIST, str(Path(rwtopo.__file__).parent.parent), self.spec,
                 str(self.graph_seed), str(self.edge_file)],
                check=True, timeout=120,
            )

    def setup(self, clock):
        """Build or load the graph and keep its giant component."""
        t0 = clock()
        if self.load_from_file:
            g = load_edge_list(self.edge_file)
            layer = "graph.load_edge_list.s"
        else:
            g = from_spec(self.spec, self.graph_seed)
            layer = "generators.build.s"
        t1 = clock()
        g, _ = giant_component(g)
        t2 = clock()
        return g, {layer: t1 - t0, "graph.giant_component.s": t2 - t1}

    def phase(self, g, tracer, perturb=False):
        with tracer.span("bench.phase"):
            with tracer.span("experiments.run_experiment"):
                result = run_experiment(g, self.cfg())
            if perturb:  # self-test only: corrupt one stretch count
                result.stretch.counts[0, 0] += 1
            with tracer.span("experiments.emit_reports"):
                written = emit_reports(result, "csv", self.report_dir)
        tracer.count("experiments.pairs", result.summary["total_pairs"])
        tracer.count("experiments.inf_pairs", result.summary["total_pairs"] - result.summary["finite_pairs"])
        return result, written

    def digest(self, out) -> str:
        return digest_files(out[1])

    def work(self, g, out) -> tuple[int, int]:
        """(Monte-Carlo runs, walker steps) done by one repetition."""
        return self.runs, self.runs * self.h * out[0].budget

    def record(self, g) -> dict:
        return {"n": g.n, "m": g.m, "budget": self.cfg().budget(g.n), "h": self.h, "runs": self.runs}

    def checked_phase(self, g, tracer):
        """One repetition with its true distances captured.

        Returns the outputs and a function that checks them; the check runs
        after the timed repetitions so its memory does not count in peak RSS.
        """
        starts_of_runs: list[list[int]] = []
        true_of_runs: list[list[np.ndarray]] = []
        full: list[tuple[int, np.ndarray]] = []

        run_rwsp, bfs_distances = ex.run_rwsp, ex.bfs_distances

        def capture_run_rwsp(graph, starts, budget, seed):
            starts_of_runs.append(list(starts))
            true_of_runs.append([])
            return run_rwsp(graph, starts, budget, seed)

        def capture_bfs(graph, source, edge_mask=None):
            dist = bfs_distances(graph, source, edge_mask)
            true_of_runs[-1].append(dist[starts_of_runs[-1]])
            if len(full) < ORACLE_SOURCES:
                full.append((source, dist.copy()))
            return dist

        with patched(ex, "run_rwsp", capture_run_rwsp), patched(ex, "bfs_distances", capture_bfs):
            out = self.phase(g, tracer)
        return out, lambda: self._check(g, out, starts_of_runs, true_of_runs, full)

    def _check(self, g, out, starts_of_runs, true_of_runs, full) -> list[str]:
        failures = []
        expected = Counter()
        for starts, dists in zip(starts_of_runs, true_of_runs):
            if len(dists) != len(starts):
                failures.append(f"{len(dists)} true-distance searches for {len(starts)} walkers")
            for i, d in enumerate(dists):
                for j, dt in enumerate(d.tolist()):
                    if j != i:
                        expected["INF" if dt == UNREACHABLE else str(dt)] += 1
        stretch = out[0].stretch
        recorded = Counter(
            {label: int(k) for label, k in zip(stretch.labels, stretch.marginal_true_histogram) if k}
        )
        if recorded != expected:
            failures.append("true-distance histogram differs from the captured distances")
        indptr, adj = g.indptr.tolist(), g.adj.tolist()
        for source, dist in full:
            if deque_bfs(indptr, adj, source) != dist.tolist():
                failures.append(f"bfs_distances from {source} differs from the deque oracle")
        return failures

    def worker_check(self, g) -> list[str]:
        """Reports at workers=2 must equal those at workers=1 (small run count)."""
        if not self.worker_check_runs:
            return []
        cfg = self.cfg(runs=self.worker_check_runs)
        serial = run_experiment(g, cfg)
        pooled = run_experiment(g, replace(cfg, workers=2))
        # metadata.json echoes the config, whose worker count differs by design.
        pooled = replace(pooled, config=cfg)
        a = digest_files(emit_reports(serial, "csv", self.out_dir / f"workers1-{self.name}"))
        b = digest_files(emit_reports(pooled, "csv", self.out_dir / f"workers2-{self.name}"))
        return [] if a == b else ["reports at workers=2 differ from workers=1"]


class CrawlWorkload:
    """``coverage_validation`` then ``crossing_rate`` on a power-law graph."""

    def __init__(self, name, seed, out_dir: Path, *, n, runs):
        self.name = name
        self.n = n
        self.runs = runs
        self.graph_seed = derived_seed(seed, 1)
        self.exp_seed = derived_seed(seed, 2)
        self.out_dir = out_dir

    def cfg(self) -> ExperimentConfig:
        return ExperimentConfig(seed=self.exp_seed, h=2, beta=0.025, runs=self.runs)

    def prepare(self) -> None:
        pass

    def setup(self, clock):
        t0 = clock()
        params = PowerLawParams(alpha=2.5, k_min=2, n=self.n)
        g = configuration_model(power_law_degrees(params, self.graph_seed), self.graph_seed)
        t1 = clock()
        g, _ = giant_component(g)
        t2 = clock()
        return g, {"generators.build.s": t1 - t0, "graph.giant_component.s": t2 - t1}

    def steps_at(self, g) -> list[int]:
        return [int(round(t * g.n)) for t in TAUS]

    def phase(self, g, tracer, perturb=False):
        cfg = self.cfg()
        with tracer.span("bench.phase"):
            with tracer.span("experiments.coverage_validation"):
                rows = coverage_validation(g, cfg, TAUS)
            with tracer.span("experiments.crossing_rate"):
                crossing = crossing_rate(g, cfg, c=1.0, delta=math.ceil(g.n / 100))
        if perturb:  # self-test only: corrupt one coverage value
            rows[0] = replace(rows[0], empirical_mean=rows[0].empirical_mean + 1.0)
        return rows, crossing

    def digest(self, out) -> str:
        rows, crossing = out
        payload = {"coverage": [asdict(r) for r in rows], "crossing": asdict(crossing)}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def work(self, g, out) -> tuple[int, int]:
        """(Monte-Carlo runs, walker steps) done by one repetition."""
        coverage_steps = self.runs * max(1, max(self.steps_at(g)))
        return 2 * self.runs, coverage_steps + self.runs * 2 * out[1].budget

    def record(self, g) -> dict:
        return {
            "n": g.n,
            "m": g.m,
            "budget": {"coverage": max(self.steps_at(g)), "crossing": self.cfg().budget(g.n)},
            "h": 2,
            "runs": {"coverage": self.runs, "crossing": self.runs},
        }

    def checked_phase(self, g, tracer):
        """One repetition with its coverage walks captured, and their check."""
        steps_at = self.steps_at(g)
        traces = []
        counts_at: list[list[int]] = []

        run_walk = ex.run_walk

        def capture_run_walk(graph, start, budget, seed, walker_id=0):
            trace, bc = run_walk(graph, start, budget, seed, walker_id)
            if len(counts_at) < self.runs:  # coverage_validation's walks come first
                counts_at.append([int(trace.edge_count_per_step[t - 1]) for t in steps_at])
                if len(traces) < ORACLE_WALKS:
                    traces.append(trace)
            return trace, bc

        with patched(ex, "run_walk", capture_run_walk):
            out = self.phase(g, tracer)
        return out, lambda: self._check(g, out, traces, counts_at)

    def _check(self, g, out, traces, counts_at) -> list[str]:
        failures = []
        steps_at = self.steps_at(g)
        indptr, eids = g.indptr.tolist(), g.adj_edge_ids.tolist()
        for w, trace in enumerate(traces):
            seen, covered, per_step = set(), set(), []
            for v in trace.steps.tolist():
                if v not in seen:
                    seen.add(v)
                    covered.update(eids[indptr[v] : indptr[v + 1]])
                per_step.append(len(covered))
            mask = np.zeros(g.m, dtype=bool)
            mask[list(covered)] = True
            if (
                per_step != trace.edge_count_per_step.tolist()
                or not np.array_equal(mask, trace.covered_edges)
                or len(covered) != trace.covered_edge_count
            ):
                failures.append(f"covered edges of coverage walk {w} differ from the recount")
        rows = out[0]
        means = np.asarray(counts_at, dtype=np.float64).mean(axis=0) / (2.0 * g.m)
        for row, mean in zip(rows, means):
            if not math.isclose(row.empirical_mean, mean, rel_tol=1e-12):
                failures.append(f"coverage mean at tau={row.tau} differs from the walks' edge counts")
        return failures

    def worker_check(self, g) -> list[str]:
        return []


def make_workload(name: str, seed: int, out_dir: Path, toy: bool):
    """The named workload at full size, or at toy size for the self-test."""
    if name == "eval-pa50k-h4":
        return ExperimentWorkload(
            name, seed, out_dir, n=2000 if toy else 50_000, h=4, beta=0.025,
            runs=4 if toy else 16, load_from_file=True, worker_check_runs=4,
        )
    if name == "swarm-pa10k-h128":
        return ExperimentWorkload(
            name, seed, out_dir, n=1000 if toy else 10_000, h=16 if toy else 128, beta=0.05,
            runs=1, load_from_file=False,
        )
    if name == "crawl-plc100k":
        return CrawlWorkload(name, seed, out_dir, n=3000 if toy else 100_000, runs=4 if toy else 32)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("eval-pa50k-h4", "swarm-pa10k-h128", "crawl-plc100k")
