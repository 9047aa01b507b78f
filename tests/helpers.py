"""Small deterministic graphs and assertions shared across test modules."""

from __future__ import annotations

from collections import deque

import numpy as np

from rwtopo import Graph, naive_route, score_pairs
from rwtopo.graph import _read_only


def triangle() -> Graph:
    return Graph(3, [[0, 1], [1, 2], [2, 0]])


def star(leaves: int = 4) -> Graph:
    return Graph(leaves + 1, [[0, i] for i in range(1, leaves + 1)])


def path_graph(k: int) -> Graph:
    return Graph(k, [[i, i + 1] for i in range(k - 1)])


def cycle(k: int) -> Graph:
    return Graph(k, [[i, (i + 1) % k] for i in range(k)])


def complete(k: int) -> Graph:
    return Graph(k, [[i, j] for i in range(k) for j in range(i + 1, k)])


def two_triangles() -> Graph:
    return Graph(6, [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])


def assert_valid_path(g: Graph, path) -> None:
    assert len(path) >= 1
    for a, b in zip(path, path[1:]):
        assert g.has_edge(int(a), int(b)), f"{a}-{b} is not an edge"


def degree_multiset(g: Graph) -> list[int]:
    return sorted(int(d) for d in g.degrees)


def discovered_lengths(run) -> dict:
    """(i, j) -> discovered route length for every ordered walker pair of ``run``."""
    _, discovered = score_pairs(run)
    return {(i, j): int(discovered[i, j]) for i in range(run.h) for j in range(run.h) if i != j}


def naive_length(run, i: int, j: int):
    """Hops of the breadcrumb route between walkers i and j, None if they never met."""
    route = naive_route(run.states[i].trace, run.states[j].trace)
    return None if route is None else len(route) - 1


def sorted_edge_counts(trace) -> np.ndarray:
    """The sorted kernel that ``WalkTrace.edge_count_per_step`` replaced: first
    visits from ``np.unique``, then one ``bincount`` of the counted arcs."""
    nodes, first = np.unique(trace.steps, return_index=True)
    arc_idx, counts = trace.graph.arcs(nodes)
    near = np.repeat(first, counts)
    # An edge is first covered at the earlier first visit of its two
    # endpoints, so exactly one of its arcs counts: the one leaving that
    # endpoint.  Unvisited far ends read as visited after the last step.
    at = np.full(trace.graph.n, trace.budget, dtype=np.int64)
    at[nodes] = first
    later = at[trace.graph.adj[arc_idx]] > near
    return _read_only(np.cumsum(np.bincount(near[later], minlength=trace.budget)))[0]


def adjacency_lists(n: int, edges) -> list[list[int]]:
    """Each node's neighbors over the undirected ``edges``, as Python lists."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in np.asarray(edges).reshape(-1, 2).tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def queue_bfs(nbrs: list[list[int]], source: int) -> np.ndarray:
    """Hop distances from ``source`` over :func:`adjacency_lists` by a plain
    FIFO search, -1 (UNREACHABLE) where no path exists."""
    dist = [-1] * len(nbrs)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return np.array(dist, dtype=np.int64)
