"""Span recorder, layer instrumentation and the per-layer metrics derived from it.

Spans are recorded on the benchmark's side of each layer boundary.  The
instrumented names are the module attributes of ``rwtopo.experiments``
(the functions it imported from ``graph``, ``rwsp`` and ``walker``, plus
``StretchMatrix.from_pairs`` and the per-run helper).  They are replaced for
the duration of one traced repetition and restored afterwards, so the
package source is never edited and untraced repetitions run the original
functions.

``run_rwsp`` calls ``run_walk`` from inside the package, where no span can
reach it.  The traced run therefore replays every walker with
``run_walk(g, start, budget, walker_seed(seed, i))`` right after the protocol
returns, checks that the replayed steps equal the protocol's trace, and
takes the protocol's own time as ``run_rwsp`` minus those replayed walks.
Replay spans are flagged so that the time they add is removed from every
enclosing span.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

import rwtopo.experiments as ex
from rwtopo.graph import UNREACHABLE
from rwtopo.walker import run_walk, walker_seed

# Span that encloses one repetition's timed work.
PHASE = "bench.phase"
WALK = "walker.run_walk"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run_id: int | None
    rep: int
    replay: bool = False

    @property
    def dur(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stand-in used by untraced repetitions: records nothing."""

    def span(self, name, parent=None, replay=False):
        return nullcontext()

    def count(self, key, value=1):
        pass


class Tracer:
    """In-memory spans and exact per-repetition counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.failures: list[tuple[int, str]] = []  # (repetition, message)
        self._stack: list[int] = []
        self.rep = -1
        self.run_id: int | None = None

    def start_rep(self, rep: int) -> None:
        self.rep = rep
        self.counts[rep] = Counter()

    @contextmanager
    def span(self, name: str, parent: int | None = None, replay: bool = False):
        """Record the ``with`` body as a span; the parent defaults to the open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.run_id, self.rep, replay))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def fail(self, message: str) -> None:
        self.failures.append((self.rep, message))

    def count(self, key: str, value=1) -> None:
        self.counts[self.rep][key] += value


@contextmanager
def patched(owner, name: str, replacement):
    """Replace attribute ``name`` of a module or class for the ``with`` body."""
    original = vars(owner)[name]
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def count_walk(tracer, trace, bc) -> None:
    """Exact counters of one finished walk."""
    tracer.count("walker.run_walk.calls")
    tracer.count("walker.steps", int(trace.budget))
    tracer.count("walker.unique_nodes", trace.unique_nodes)
    tracer.count("walker.covered_edges", trace.covered_edge_count)
    arrays = {
        id(a): a.nbytes
        for a in (
            trace.steps,
            trace.visited,
            trace.covered_edges,
            trace.edge_count_per_step,
            trace.node_count_per_step,
            bc.predecessor,
            bc.visited,  # the same array as trace.visited, counted once
        )
    }
    tracer.count("walker.trace_bytes", sum(arrays.values()))


def instrument(tracer: Tracer) -> ExitStack:
    """Install span-recording wrappers around every layer call of ``experiments``."""
    bfs_distances = ex.bfs_distances
    routing_tree = ex.routing_tree
    run_rwsp = ex.run_rwsp
    direct_run_walk = ex.run_walk
    giant_component = ex.giant_component
    one_run = ex._one_run_records
    from_pairs = ex.StretchMatrix.from_pairs

    def traced_bfs_distances(g, source, edge_mask=None):
        with tracer.span("graph.bfs_distances"):
            dist = bfs_distances(g, source, edge_mask)
        tracer.count("graph.bfs_distances.calls")
        tracer.count("graph.bfs_distances.arcs", int(g.degrees[dist != UNREACHABLE].sum()))
        tracer.count("graph.bfs_distances.levels", int(dist.max()))
        return dist

    def traced_routing_tree(union, root):
        with tracer.span("rwsp.routing_tree"):
            tree = routing_tree(union, root)
        tracer.count("rwsp.routing_tree.calls")
        tracer.count("rwsp.routing_tree.arcs", int(union.graph.degrees[tree.depth != UNREACHABLE].sum()))
        tracer.count("rwsp.union_edges", int(np.count_nonzero(union.edge_mask)))
        return tree

    def traced_run_rwsp(g, starts, budget, seed):
        with tracer.span("rwsp.run_rwsp") as sid:
            run = run_rwsp(g, starts, budget, seed)
        tracer.count("rwsp.run_rwsp.calls")
        tracer.count("rwsp.meetings", sum(len(m) for m in run.meetings))
        tracer.count("rwsp.direct_pairs", sum(len(p) for p in run.direct_peers) // 2)
        tracer.count("rwsp.largest_group", max(len(s.known_peers) + 1 for s in run.states))
        tracer.count("rwsp.advertise_hops", sum(run.pair_advertise_hops.values()))
        tracer.count("rwsp.transfer_hops", sum(run.pair_transfer_hops.values()))
        for i, start in enumerate(run.starts):
            with tracer.span(WALK, parent=sid, replay=True):
                trace, bc = run_walk(g, start, budget, walker_seed(seed, i), walker_id=i)
            if not np.array_equal(trace.steps, run.states[i].trace.steps):
                tracer.fail(f"replayed walker {i} of seed {seed} differs from the protocol trace")
            count_walk(tracer, trace, bc)
        return run

    def traced_run_walk(g, start, budget, seed, walker_id=0):
        # experiments seeds every walk with (seed, run index[, walker]).
        tracer.run_id = int(seed[1])
        with tracer.span(WALK):
            trace, bc = direct_run_walk(g, start, budget, seed, walker_id)
        tracer.run_id = None
        count_walk(tracer, trace, bc)
        return trace, bc

    def traced_giant_component(g):
        with tracer.span("experiments.start_pool"):
            return giant_component(g)

    def traced_one_run(g, cfg, budget, members, run_index):
        tracer.run_id = run_index
        try:
            with tracer.span("experiments.run"):
                return one_run(g, cfg, budget, members, run_index)
        finally:
            tracer.run_id = None

    def traced_from_pairs(pairs):
        with tracer.span("experiments.from_pairs"):
            return from_pairs(pairs)

    stack = ExitStack()
    for owner, name, wrapper in (
        (ex, "bfs_distances", traced_bfs_distances),
        (ex, "routing_tree", traced_routing_tree),
        (ex, "run_rwsp", traced_run_rwsp),
        (ex, "run_walk", traced_run_walk),
        (ex, "giant_component", traced_giant_component),
        (ex, "_one_run_records", traced_one_run),
        (ex.StretchMatrix, "from_pairs", staticmethod(traced_from_pairs)),
    ):
        stack.enter_context(patched(owner, name, wrapper))
    return stack


# -- per-layer metrics -------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, untraced_rep_s: list[float]) -> tuple[dict, dict]:
    """Per-layer values from the traced repetitions, plus notes for the record.

    Times are pooled over all traced repetitions; counts are per repetition
    and must be identical in every traced repetition.
    """
    spans = tracer.spans
    hidden = [0.0] * len(spans)
    for s in spans:
        if s.replay:
            a = s.parent
            while a is not None:
                p = spans[a]
                if p.start <= s.start and s.end <= p.end:
                    hidden[a] += s.dur
                a = p.parent

    def eff(i: int) -> float:
        return spans[i].dur - hidden[i]

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name: str) -> float:
        return sum(eff(i) for i in by_name[name])

    def per_rep_sum(name: str) -> list[float]:
        sums: dict[int, float] = defaultdict(float)
        for i in by_name[PHASE]:
            sums[spans[i].rep] = 0.0
        for i in by_name[name]:
            sums[spans[i].rep] += eff(i)
        return list(sums.values())

    phase = total(PHASE)
    replay_children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.replay:
            replay_children[s.parent] += s.dur
    rwsp_self = [spans[i].dur - replay_children[i] for i in by_name["rwsp.run_rwsp"]]
    walk_s = sum(spans[i].dur for i in by_name[WALK])

    run_samples = [eff(i) for i in by_name["experiments.run"]]
    if not run_samples:  # crawl: one run is the walks sharing an entry point and run index
        grouped: dict[tuple, float] = defaultdict(float)
        for i in by_name[WALK]:
            grouped[(spans[i].parent, spans[i].run_id)] += spans[i].dur
        run_samples = list(grouped.values())
    run_tail, run_tail_pct = tail(run_samples) if run_samples else (0.0, 0.0)

    reps = sorted(tracer.counts)
    counts = tracer.counts[reps[0]] if reps else Counter()
    for rep in reps[1:]:
        if tracer.counts[rep] != counts:
            tracer.failures.append((rep, f"counters differ from repetition {reps[0]}"))

    def c(key: str) -> int:
        return int(counts[key])

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    bfs_ms = [spans[i].dur * 1e3 for i in by_name["graph.bfs_distances"]]
    traced_rep_s = [eff(i) for i in by_name[PHASE]]
    m = {
        "graph.bfs_distances.calls": (c("graph.bfs_distances.calls"), "count"),
        "graph.bfs_distances.ms_p50": (_median(bfs_ms), "ms"),
        "graph.bfs_distances.share": (ratio(total("graph.bfs_distances"), phase), "frac"),
        "graph.bfs_distances.arcs": (c("graph.bfs_distances.arcs"), "count"),
        "graph.bfs_distances.arcs_per_us": (
            ratio(c("graph.bfs_distances.arcs") * len(reps), sum(bfs_ms) * 1e3),
            "1/us",
        ),
        "graph.bfs_distances.levels_mean": (
            ratio(c("graph.bfs_distances.levels"), c("graph.bfs_distances.calls")),
            "levels",
        ),
        "rwsp.routing_tree.calls": (c("rwsp.routing_tree.calls"), "count"),
        "rwsp.routing_tree.ms_p50": (_median(spans[i].dur * 1e3 for i in by_name["rwsp.routing_tree"]), "ms"),
        "rwsp.routing_tree.share": (ratio(total("rwsp.routing_tree"), phase), "frac"),
        "rwsp.routing_tree.arcs": (c("rwsp.routing_tree.arcs"), "count"),
        "rwsp.union_edges": (c("rwsp.union_edges"), "count"),
        "rwsp.union_edges_mean": (ratio(c("rwsp.union_edges"), c("rwsp.routing_tree.calls")), "edges"),
        "walker.run_walk.calls": (c("walker.run_walk.calls"), "count"),
        "walker.run_walk.us_per_step": (ratio(walk_s * 1e6, c("walker.steps") * len(reps)), "us"),
        "walker.run_walk.share": (ratio(walk_s, phase), "frac"),
        "walker.steps": (c("walker.steps"), "count"),
        "walker.unique_nodes": (c("walker.unique_nodes"), "count"),
        "walker.new_node_ratio": (ratio(c("walker.unique_nodes"), c("walker.steps")), "frac"),
        "walker.covered_edges": (c("walker.covered_edges"), "count"),
        "walker.trace_bytes_per_walk": (ratio(c("walker.trace_bytes"), c("walker.run_walk.calls")), "bytes"),
        "rwsp.run_rwsp.calls": (c("rwsp.run_rwsp.calls"), "count"),
        "rwsp.run_rwsp.self_ms_p50": (_median(s * 1e3 for s in rwsp_self), "ms"),
        "rwsp.run_rwsp.share": (ratio(sum(rwsp_self), phase), "frac"),
        "rwsp.meetings": (c("rwsp.meetings"), "count"),
        "rwsp.direct_pairs": (c("rwsp.direct_pairs"), "count"),
        "rwsp.largest_group_mean": (ratio(c("rwsp.largest_group"), c("rwsp.run_rwsp.calls")), "walkers"),
        "rwsp.advertise_hops": (c("rwsp.advertise_hops"), "count"),
        "rwsp.transfer_hops": (c("rwsp.transfer_hops"), "count"),
        "experiments.start_pool.s": (_median(per_rep_sum("experiments.start_pool")), "s"),
        "experiments.run.ms_p50": (_median(run_samples) * 1e3, "ms"),
        "experiments.run.ms_tail": (run_tail * 1e3, "ms"),
        "experiments.pairs": (c("experiments.pairs"), "count"),
        "experiments.inf_pairs": (c("experiments.inf_pairs"), "count"),
        "experiments.from_pairs.ms": (_median(spans[i].dur * 1e3 for i in by_name["experiments.from_pairs"]), "ms"),
        "experiments.emit_reports.ms": (
            _median(spans[i].dur * 1e3 for i in by_name["experiments.emit_reports"]),
            "ms",
        ),
        "experiments.coverage_validation.s": (_median(per_rep_sum("experiments.coverage_validation")), "s"),
        "experiments.crossing_rate.s": (_median(per_rep_sum("experiments.crossing_rate")), "s"),
        "trace.overhead_frac": (
            ratio(_median(traced_rep_s), _median(untraced_rep_s)) - 1.0 if untraced_rep_s else 0.0,
            "frac",
        ),
    }
    notes = {
        "experiments.run.samples": len(run_samples),
        "experiments.run.ms_tail_percentile": run_tail_pct,
        "traced_repetitions": len(reps),
        "replay_s": sum(replay_children.values()),
        "phase_s_excluding_replay": phase,
    }
    return m, notes
