"""Multi-walker short-path discovery (RWSP).

``h`` walkers crawl the graph in lockstep rounds: every walker takes step
``t`` before any takes ``t+1``, and a walker stepping onto a node that
carries another walker's breadcrumb learns of that walker (and advertises
itself back along the breadcrumb trail).  When the budgets are spent,
walkers ship their discovered subgraphs to every known peer through the
contact nodes where they met; peer knowledge is then closed transitively so
that every walker in a meeting-connected group ends up holding the same
union topology G*, on which it routes via a breadth-first shortest-path
tree.

Same-round collisions are resolved in walker-id order: if two walkers reach
a fresh node in the same round, the lower id registers first and only the
higher id sees a breadcrumb.  All scheduling is deterministic given
(graph, starts, budget, seed).

The simulation replays only first visits, in (round, walker id) order.  That
is exact: a walker revisiting a node meets nobody new there, because whoever
registered the node between its two visits already found it at the
registration.  So every first meeting of a pair lands on the later walker's
first visit of the meeting node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, bfs_distances, component_labels
from .walker import WalkTrace, run_walk, walker_seed


@dataclass(frozen=True)
class MeetingEvent:
    """Walker ``finder`` stepping onto breadcrumbs of the ``found`` walkers.

    Only previously unknown peers are reported: re-treading territory of an
    already-known walker produces no event (and no repeat advertisement).
    """

    t: int
    finder: int
    found: frozenset[int]
    at: int


@dataclass(frozen=True)
class WalkerState:
    """End-of-protocol bookkeeping of one walker (its id and start are on ``trace``)."""

    known_peers: frozenset[int]
    contact_points: frozenset[int]
    trace: WalkTrace


@dataclass(frozen=True)
class UnionSubgraph:
    """The merged discovered topology G* of one meeting-connected group.

    Only the group's walk traces are stored, and every member of the group
    holds this same object.  ``node_mask``/``edge_mask`` (the union of the
    walks' visited nodes and covered edges) are built on access, like
    :attr:`WalkTrace.visited`.  Covered edges may lead to unvisited
    endpoints; those are legitimate route hops because a walker read them
    off a visited node's neighbor list.
    """

    traces: tuple[WalkTrace, ...]

    @property
    def graph(self) -> Graph:
        return self.traces[0].graph

    @property
    def node_mask(self) -> np.ndarray:
        mask = np.zeros(self.graph.n, dtype=bool)
        for tr in self.traces:
            mask[tr.visited_nodes()] = True
        return mask

    @property
    def edge_mask(self) -> np.ndarray:
        mask = np.zeros(self.graph.m, dtype=bool)
        for tr in self.traces:
            mask[tr.covered_edge_ids()] = True
        return mask


@dataclass(frozen=True)
class RoutingTree:
    """Breadth-first depths of a union subgraph from ``root``: the G* hop
    distance of every node, UNREACHABLE where G* has no route."""

    root: int
    depth: np.ndarray


@dataclass(frozen=True)
class ProtocolRun:
    """Everything produced by one run_rwsp invocation.

    Message hops are kept per ordered pair ``(i, j)``.
    ``pair_advertise_hops`` pays for walker i's "I found your breadcrumb"
    notification to j at meeting time, traced back along j's breadcrumbs;
    ``pair_transfer_hops`` for delivering i's discovered subgraph to the
    directly met peer j (start -> contact node -> peer start, both halves
    along breadcrumb paths).  A walker's totals are the sums of its
    ``(i, .)`` entries.
    """

    graph: Graph
    budget: int
    starts: list[int]
    states: list[WalkerState]
    unions: list[UnionSubgraph]
    meetings: list[list[MeetingEvent]]
    direct_peers: list[frozenset[int]]
    pair_advertise_hops: dict[tuple[int, int], int]
    pair_transfer_hops: dict[tuple[int, int], int]

    @property
    def h(self) -> int:
        return len(self.starts)


def run_rwsp(g: Graph, starts, budget: int, seed) -> ProtocolRun:
    """Simulate the full discovery protocol for ``h`` walkers.

    Walker ``i`` draws its private RNG stream from ``(seed, i)``, so the
    trajectories equal standalone :func:`rwtopo.walker.run_walk` calls with
    the same derived seeds, and the whole run is reproducible.

    Parameters
    ----------
    g : Graph
    starts : sequence of distinct node ids, each with degree >= 1
    budget : steps per walker (sequence length)
    seed : master seed (int or sequence of int)
    """
    starts = [int(s) for s in starts]
    h = len(starts)
    if h < 2:
        raise ValueError("need at least two walkers")
    if len(set(starts)) != h:
        raise ValueError("start nodes must be distinct")

    traces = [run_walk(g, s, budget, walker_seed(seed, i), walker_id=i)[0] for i, s in enumerate(starts)]

    # First visits of all walkers as (step index, walker, node), replayed in
    # (round, walker id) order.
    index = np.concatenate([tr.first_visits[1] for tr in traces])
    walker = np.repeat(np.arange(h), [tr.unique_nodes for tr in traces])
    node = np.concatenate([tr.visited_nodes() for tr in traces])
    order = np.lexsort((walker, index))
    events = zip(index[order].tolist(), walker[order].tolist(), node[order].tolist())

    steps = [tr.steps.tolist() for tr in traces]
    depth: list[dict[int, int]] = [{} for _ in range(h)]  # node -> breadcrumb hops to start
    registry: dict[int, list[int]] = {}  # node -> walkers with a breadcrumb there
    known: list[set[int]] = [set() for _ in range(h)]
    contacts: list[dict[int, int]] = [{} for _ in range(h)]  # node -> round learned
    meetings: list[list[MeetingEvent]] = [[] for _ in range(h)]
    pair_adv: dict[tuple[int, int], int] = {}
    for k, i, v in events:
        depth[i][v] = depth[i][steps[i][k - 1]] + 1 if k else 0
        here = registry.setdefault(v, [])
        new = sorted(j for j in here if j not in known[i])  # hop dicts fill in peer-id order
        here.append(i)
        if not new:
            continue
        t = k + 1
        meetings[i].append(MeetingEvent(t=t, finder=i, found=frozenset(new), at=v))
        known[i].update(new)
        contacts[i].setdefault(v, t)
        for j in new:
            pair_adv[(i, j)] = depth[j][v]
            known[j].add(i)
            contacts[j].setdefault(v, t)

    direct_peers = [frozenset(known[i]) for i in range(h)]

    # Subgraph hand-off to every directly met peer, routed start -> contact
    # node (sender's breadcrumbs) -> peer start (receiver's breadcrumbs).
    # The contact is the earliest learned one the peer has visited; a
    # reception is recorded after all meeting contacts, so it is never chosen.
    pair_tr: dict[tuple[int, int], int] = {}
    for i in range(h):
        for j in sorted(direct_peers[i]):
            contact = next(v for v in contacts[i] if v in depth[j])
            pair_tr[(i, j)] = depth[i][contact] + depth[j][contact]
            contacts[j].setdefault(contact, budget + 1)

    # Transitive closure of peer knowledge: meeting-connected groups share
    # everything, so indirectly linked walkers also exchange subgraphs.
    labels = component_labels(Graph(h, [(i, j) for i in range(h) for j in direct_peers[i]]))[0].tolist()
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)

    unions = {label: UnionSubgraph(tuple(traces[i] for i in members)) for label, members in groups.items()}
    states = [
        WalkerState(
            known_peers=frozenset(groups[labels[i]]) - {i},
            contact_points=frozenset(contacts[i]),
            trace=traces[i],
        )
        for i in range(h)
    ]

    return ProtocolRun(
        graph=g,
        budget=budget,
        starts=starts,
        states=states,
        unions=[unions[label] for label in labels],
        meetings=meetings,
        direct_peers=direct_peers,
        pair_advertise_hops=pair_adv,
        pair_transfer_hops=pair_tr,
    )


def routing_tree(union: UnionSubgraph, root: int) -> RoutingTree:
    """Breadth-first search of G* from ``root``, a node some walk of the group visited.

    The graph is unweighted, so the depths are the hop-minimal route
    lengths on the discovered topology.
    """
    if not 0 <= root < union.graph.n or not union.node_mask[root]:
        raise ValueError(f"root {root} is not part of the union subgraph")
    return RoutingTree(root=int(root), depth=bfs_distances(union.graph, root, union.edge_mask))
