"""Budgeted simple random walks with breadcrumb trails.

A walk of budget ``B`` is the node sequence ``X(1..B)`` with ``X(1)`` the
start node and each subsequent entry a uniformly random neighbor of the
previous one.  The walker stores only that sequence; everything else is
derived from its first-visit table (the index of each node's first
appearance):

* its visited set (``X`` without repeats),
* the covered-edge set: every edge incident to a visited node (neighbor
  lists are readable at no extra cost, so covering a node covers all its
  edges), first covered at the earliest first visit of either endpoint, and
* a breadcrumb per node, installed at the first visit only and pointing to
  the node the walker arrived from.  Breadcrumb chains therefore form a tree
  rooted at the start, and retracing them can never loop.

Budgets count sequence entries (``len(steps) == B``), so a budget-1 walk is
just the start node.

A trace caches two budget-sized tables, the first-visit table and the
per-step covered-edge counts, and builds every other view on access.  The
edge counts sort nothing: a transient node-indexed table takes each node's
first visit with ``np.minimum.at``.  A first visit adds the node's
degree, and an edge between two visited nodes, counted at both ends, is
taken off at the later one; the graph's degree-oriented arc table
(:func:`rwtopo.graph.oriented_arcs`) yields each such edge once, in a few
arcs a node even at the hubs.  One ``bincount`` and one ``cumsum`` give
the count after every step.  The visited mask is written from the steps.

:func:`run_walks` is the one walk kernel: it draws each lane's moves from
that lane's own seed and picks its stepping from the lane count, a loop over
plain ints, written into a preallocated row, for a few lanes and one array
operation per move for all lanes from ``_LOCKSTEP_LANES`` on.  The stepping
never changes the steps, and :func:`run_walk` is its one-lane case.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import floor

import numpy as np

from .graph import Graph, _arc_positions, _bool_mask, _node_ids, _one_int, _one_node, _read_only, oriented_arcs


def _as_seed_tuple(seed) -> tuple[int, ...]:
    """A master seed, a non-negative integer or a sequence of them, as a
    tuple of plain ints.  Any other entry raises ValueError: a bool, a float
    or a string would otherwise be read as 0 or 1, truncated or split into
    digits, and a negative entry fails inside numpy.  Entries may exceed int64."""
    try:
        entries = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
        seeds = tuple(operator.index(s) for s in entries)
        if min(seeds, default=0) >= 0 and not any(isinstance(s, bool) for s in entries):
            return seeds
    except TypeError:  # not iterable, or an entry that is not an integer
        pass
    raise ValueError(f"seed must be a non-negative integer or a sequence of them, got {seed!r}")


def walker_seed(seed, walker_id: int) -> tuple[int, ...]:
    """Derive walker ``walker_id``'s private RNG seed from a master seed.

    The derivation depends only on (master seed, walker id), so walks produce
    identical traces whether they are run serially or in parallel.
    """
    return _as_seed_tuple(seed) + (_one_int(walker_id, "walker id", lo=0),)


def _mask(size: int, ids: np.ndarray) -> np.ndarray:
    """Dense boolean membership mask of ``ids`` over ``0..size-1``."""
    mask = np.zeros(size, dtype=bool)
    mask[ids] = True
    return mask


def _covered_edge_mask(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Dense mask of the edges of ``g`` with an endpoint in ``nodes``: what a
    walker that visited ``nodes`` read off their neighbor lists."""
    return _mask(g.m, g.adj_edge_ids[g.arcs(nodes)[0]])


@dataclass(frozen=True)
class WalkTrace:
    """One finished walk: its step sequence and the views derived from it.

    Only ``steps`` is stored; ``start`` and ``budget`` are its first entry
    and its length.  ``first_visits`` and ``edge_count_per_step`` (at most
    ``budget`` entries each) are cached read-only on first use; every other
    view is built on access, including ``node_count_per_step`` and the
    dense ``visited`` and ``covered_edges`` masks indexed by node id / edge
    id.  ``edge_count_per_step[t-1]`` and ``node_count_per_step[t-1]`` give
    the covered-edge and visited-node counts after step ``t``, which is what
    coverage-curve measurements read.  ``edge_count_per_step`` needs one
    transient node-indexed first-visit table, filled by ``np.minimum.at``,
    and no sort: it sums the degrees of the first-visited nodes and takes
    off each edge between two of them once, found in the graph's oriented
    arc table.  ``covered_edge_count`` is its last entry.  ``visited`` is
    written from ``steps`` directly, and only ``first_visits`` sorts.
    """

    walker_id: int
    steps: np.ndarray
    graph: Graph

    @property
    def start(self) -> int:
        return int(self.steps[0])

    @property
    def budget(self) -> int:
        return int(self.steps.size)

    @cached_property
    def first_visits(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, index): visited node ids ascending, and the 0-based step
        index of each one's first visit."""
        return _read_only(*np.unique(self.steps, return_index=True))

    @property
    def node_count_per_step(self) -> np.ndarray:
        return np.cumsum(np.bincount(self.first_visits[1], minlength=self.budget))

    @cached_property
    def edge_count_per_step(self) -> np.ndarray:
        g, budget = self.graph, self.budget
        t = np.arange(budget)
        # Each node's first visit, ``budget`` for nodes never visited, and
        # the steps that are first visits, ascending.
        at = np.full(g.n, budget, dtype=np.int64)
        np.minimum.at(at, self.steps, t)
        first = np.flatnonzero(at[self.steps] == t)
        nodes = self.steps[first]
        # A first visit covers the node's degree in edges.  An edge between
        # two visited nodes is in both ends' degrees, and the oriented table
        # holds it once, at one of them: it is taken off at the later first
        # visit.  An edge to an unvisited node lands in the spare last bin.
        indptr, adj = oriented_arcs(g)
        arc_idx, counts = _arc_positions(indptr, nodes)
        later = np.maximum(at[adj[arc_idx]], np.repeat(first, counts))
        gain = np.zeros(budget + 1, dtype=np.int64)
        gain[first] = g.indptr[nodes + 1] - g.indptr[nodes]
        gain -= np.bincount(later, minlength=budget + 1)
        return _read_only(np.cumsum(gain[:budget]))[0]

    @property
    def unique_nodes(self) -> int:
        return int(self.first_visits[0].size)

    @property
    def covered_edge_count(self) -> int:
        return int(self.edge_count_per_step[-1])

    @property
    def visited(self) -> np.ndarray:
        """Dense node membership mask (built on access)."""
        return _mask(self.graph.n, self.steps)

    @property
    def covered_edges(self) -> np.ndarray:
        """Dense edge membership mask (built on access)."""
        return _covered_edge_mask(self.graph, self.first_visits[0])


@dataclass(frozen=True)
class BreadcrumbTable:
    """First-visit predecessors of one walk, derived from its trace."""

    trace: WalkTrace

    @property
    def visited(self) -> np.ndarray:
        return self.trace.visited

    @property
    def predecessor(self) -> np.ndarray:
        """Dense node-indexed breadcrumbs (built on access): the node visited
        just before each node's first visit, -1 for the start and unvisited
        nodes."""
        nodes, first = self.trace.first_visits
        pred = np.full(self.trace.graph.n, -1, dtype=np.int64)
        pred[nodes] = np.where(first > 0, self.trace.steps[first - 1], -1)
        return pred


def run_walk(g: Graph, start: int, budget: int, seed, walker_id: int = 0):
    """Run one budgeted simple random walk: the one-lane :func:`run_walks`.

    The walk makes ``budget - 1`` moves from ``start``, which needs a
    neighbor, drawn from ``seed`` (an int or a sequence of ints); identical
    inputs reproduce the trace exactly.  ``walker_id`` is only recorded on
    the trace.  Returns ``(WalkTrace, BreadcrumbTable)``.
    """
    trace = WalkTrace(walker_id=walker_id, steps=run_walks(g, [start], budget, [seed])[0], graph=g)
    return trace, BreadcrumbTable(trace)


def _start_nodes(g: Graph, starts) -> np.ndarray:
    """``starts`` as int64 node ids of ``g`` (see :func:`rwtopo.graph._node_ids`);
    ValueError unless each has a neighbor to walk to."""
    starts = _node_ids(starts, g.n, "start nodes")
    isolated = starts[g.indptr[starts + 1] == g.indptr[starts]]
    if isolated.size:
        raise ValueError(f"start node {isolated[0]} is isolated")
    return starts


# Lane count from which one array step for all lanes beats walking them one by one.
_LOCKSTEP_LANES = 16
# Uniforms a lane walked one by one draws per call, so its transient floats
# and ints stay small next to its 8-byte steps.
_DRAW_CHUNK = 4096


def run_walks(g: Graph, starts, budget: int, seeds) -> np.ndarray:
    """Run one budgeted simple random walk per lane.

    Lane ``r`` starts at ``starts[r]`` (starts may repeat) and draws its
    ``budget - 1`` uniforms from ``seeds[r]``; each move goes from ``cur`` to
    ``adj[indptr[cur] + floor(u * deg)]``.  Row ``r`` of the returned
    ``(len(starts), budget)`` int64 array is lane ``r``'s steps.

    The pick needs no clamp to ``deg - 1``.  A uniform is at most
    ``1 - 2**-53``, and for every ``deg`` below ``2**53`` the exact product
    ``deg - deg * 2**-53`` lies more than half a unit in the last place
    below ``deg`` (exactly on the largest double below it when ``deg`` is a
    power of two).  So round-to-nearest, which is monotone, keeps every
    ``u * deg`` below ``deg`` and its floor at most ``deg - 1``.

    Fewer than ``_LOCKSTEP_LANES`` lanes are walked one by one over plain
    ints: a move reads ``lo = indptr[cur]`` and ``indptr[cur + 1]`` once
    each and goes to ``adj[lo + floor(u * (indptr[cur + 1] - lo))]``, the
    same rule.  The uniforms are drawn ``_DRAW_CHUNK`` at a time, and each
    chunk's steps are copied into the lane's preallocated int64 row, so a
    lane holds about 8 bytes a step.
    More lanes step in lockstep, one array operation per move for all lanes,
    whose fixed cost of several numpy calls a move pays off from about that
    many lanes.  Lockstep draws all uniforms up front, so its memory is
    about three times ``len(starts) * budget * 8`` bytes.
    """
    starts = _start_nodes(g, starts).tolist()
    budget = _one_int(budget, "budget", lo=1)
    seeds = list(seeds)
    if len(seeds) != len(starts):
        raise ValueError(f"{len(starts)} starts but {len(seeds)} seeds")

    if len(starts) < _LOCKSTEP_LANES:
        # memoryviews index to plain ints, which the loop handles much
        # faster than numpy scalars.
        indptr, adj = memoryview(g.indptr), memoryview(g.adj)
        steps = np.empty((len(starts), budget), dtype=np.int64)
        steps[:, 0] = starts
        for row, cur, seed in zip(steps, starts, seeds):
            rng = np.random.default_rng(_as_seed_tuple(seed))
            # Chunked draws concatenate to the same stream as one draw.
            for t0 in range(1, budget, _DRAW_CHUNK):
                chunk = []
                append = chunk.append
                for u in rng.random(min(_DRAW_CHUNK, budget - t0)).tolist():
                    lo = indptr[cur]
                    cur = adj[lo + floor(u * (indptr[cur + 1] - lo))]
                    append(cur)
                row[t0 : t0 + len(chunk)] = chunk
        return steps

    drawn = np.empty((len(starts), budget - 1))
    for row, seed in zip(drawn, seeds):
        np.random.default_rng(_as_seed_tuple(seed)).random(out=row)
    uniform = np.ascontiguousarray(drawn.T)  # one row per move
    del drawn
    indptr, adj, deg = g.indptr, g.adj, g.degrees
    steps = np.empty((budget, len(starts)), dtype=np.int64)
    steps[0] = starts
    for t in range(1, budget):
        cur = steps[t - 1]
        d = deg[cur]
        pick = (uniform[t - 1] * d).astype(np.int64)
        pick += indptr[cur]
        np.take(adj, pick, out=steps[t])
    return np.ascontiguousarray(steps.T)


def retrace_to_start(trace: WalkTrace, node: int) -> list[int]:
    """Follow the walk's breadcrumbs from ``node`` back to its start.

    A node's breadcrumb is the step before its first visit, read off the
    trace's first-visit table.  The result is a loop-free path (consecutive
    entries graph-adjacent) beginning at ``node`` and ending at the start;
    retracing from the start itself yields the single-node path.
    """
    node = _one_node(node, trace.graph.n, "node")
    nodes, first = trace.first_visits
    k = int(np.searchsorted(nodes, node))
    if k == nodes.size or nodes[k] != node:
        raise ValueError(f"node {node} was not visited by this walker")
    path = [node]
    while first[k]:
        path.append(int(trace.steps[first[k] - 1]))
        k = int(np.searchsorted(nodes, path[-1]))
    return path


def naive_route(trace_i: WalkTrace, trace_j: WalkTrace):
    """Breadcrumb-retracing route between two walkers' start nodes.

    If the visited sets are disjoint there is no meeting and the result is
    None.  Otherwise the route runs from walker i's start out to the first
    node of i's sequence (in walk order) that walker j also visited, then
    follows j's breadcrumbs down to j's start.  Both halves are breadcrumb
    paths, so the route is valid in the graph but typically far from
    shortest: it inherits the walks' wandering.  Traces of two different
    graphs raise ValueError.
    """
    if trace_i.graph is not trace_j.graph:
        raise ValueError("naive_route needs two traces of one graph")
    hits = np.isin(trace_i.steps, trace_j.first_visits[0])
    if not hits.any():
        return None
    meet = int(trace_i.steps[int(np.argmax(hits))])
    out = retrace_to_start(trace_i, meet)[::-1]
    back = retrace_to_start(trace_j, meet)
    return out + back[1:]


def crossing_time(trace_j: WalkTrace, visited_i: np.ndarray):
    """First (1-based) step at which ``trace_j`` enters ``visited_i``.

    ``visited_i`` is a node membership mask, e.g. another walker's final
    visited set.  Returns None when the walk never enters the set.  Any other
    mask than a bool array of shape ``(n,)`` raises ValueError.
    """
    hits = _bool_mask(visited_i, trace_j.graph.n, "visited_i")[trace_j.steps]
    if not hits.any():
        return None
    return int(np.argmax(hits)) + 1
