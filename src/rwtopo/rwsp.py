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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import Graph, UNREACHABLE, bfs_distances, bfs_parents, component_labels
from .walker import BreadcrumbTable, WalkTrace, run_walk, walker_seed


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
class MessagingCost:
    """Hop budget spent by one walker on protocol messages.

    ``advertise_hops`` pay for the "I found your breadcrumb" notifications it
    sent at meeting time; ``transfer_hops`` pay for delivering its discovered
    subgraph to each directly met peer (start -> contact node -> peer start,
    both halves along breadcrumb paths).
    """

    advertise_hops: int
    transfer_hops: int


@dataclass(frozen=True)
class WalkerState:
    """End-of-protocol bookkeeping of one walker."""

    walker_id: int
    start: int
    known_peers: frozenset[int]
    contact_points: frozenset[int]
    trace: WalkTrace
    breadcrumbs: BreadcrumbTable


@dataclass(frozen=True)
class UnionSubgraph:
    """The merged discovered topology G*(i) a walker routes on.

    ``edge_mask``/``node_mask`` select the union of covered edges and visited
    nodes over the owner's whole meeting-connected group.  Covered edges may
    lead to unvisited endpoints; those are legitimate route hops because the
    walker read them off a visited node's neighbor list.
    """

    owner: int
    graph: Graph
    node_mask: np.ndarray
    edge_mask: np.ndarray


@dataclass(frozen=True)
class RoutingTree:
    """Breadth-first shortest-path tree of a union subgraph.

    Only the depths are searched for; ``parent`` is derived from them on
    first access (each node's smallest-id union neighbour one level closer
    to the root).
    """

    root: int
    depth: np.ndarray
    union: UnionSubgraph

    @cached_property
    def parent(self) -> np.ndarray:
        return bfs_parents(self.union.graph, self.depth, self.union.edge_mask)

    def path_from_root(self, node: int) -> list[int]:
        if self.depth[node] == UNREACHABLE:
            raise ValueError(f"node {node} not reachable in the routing tree")
        path = [int(node)]
        while path[-1] != self.root:
            path.append(int(self.parent[path[-1]]))
        return path[::-1]


@dataclass(frozen=True)
class ProtocolRun:
    """Everything produced by one run_rwsp invocation."""

    graph: Graph
    budget: int
    starts: list[int]
    states: list[WalkerState]
    unions: list[UnionSubgraph]
    meetings: list[list[MeetingEvent]]
    costs: list[MessagingCost]
    direct_peers: list[frozenset[int]]
    pair_advertise_hops: dict = field(default_factory=dict)
    pair_transfer_hops: dict = field(default_factory=dict)

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

    walks = [run_walk(g, s, budget, walker_seed(seed, i), walker_id=i) for i, s in enumerate(starts)]
    traces = [tr for tr, _ in walks]

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
    advertise = [0] * h
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
            advertise[i] += depth[j][v]
            known[j].add(i)
            contacts[j].setdefault(v, t)

    direct_peers = [frozenset(known[i]) for i in range(h)]

    # Subgraph hand-off to every directly met peer, routed start -> contact
    # node (sender's breadcrumbs) -> peer start (receiver's breadcrumbs).
    # The contact is the earliest learned one the peer has visited; a
    # reception is recorded after all meeting contacts, so it is never chosen.
    pair_tr: dict[tuple[int, int], int] = {}
    transfer = [0] * h
    for i in range(h):
        for j in sorted(direct_peers[i]):
            contact = next(v for v in contacts[i] if v in depth[j])
            pair_tr[(i, j)] = depth[i][contact] + depth[j][contact]
            transfer[i] += pair_tr[(i, j)]
            contacts[j].setdefault(contact, budget + 1)

    # Transitive closure of peer knowledge: meeting-connected groups share
    # everything, so indirectly linked walkers also exchange subgraphs.
    labels = component_labels(Graph(h, [(i, j) for i in range(h) for j in direct_peers[i]]))[0].tolist()
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)

    masks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for label, members in groups.items():
        nm = np.zeros(g.n, dtype=bool)
        em = np.zeros(g.m, dtype=bool)
        for i in members:
            nm[traces[i].visited_nodes()] = True
            em[traces[i].covered_edge_ids()] = True
        masks[label] = (nm, em)

    states = [
        WalkerState(
            walker_id=i,
            start=starts[i],
            known_peers=frozenset(groups[labels[i]]) - {i},
            contact_points=frozenset(contacts[i]),
            trace=traces[i],
            breadcrumbs=walks[i][1],
        )
        for i in range(h)
    ]
    unions = [UnionSubgraph(i, g, *masks[label]) for i, label in enumerate(labels)]
    costs = [MessagingCost(advertise_hops=a, transfer_hops=t) for a, t in zip(advertise, transfer)]

    return ProtocolRun(
        graph=g,
        budget=budget,
        starts=starts,
        states=states,
        unions=unions,
        meetings=meetings,
        costs=costs,
        direct_peers=direct_peers,
        pair_advertise_hops=pair_adv,
        pair_transfer_hops=pair_tr,
    )


def routing_tree(union: UnionSubgraph, root: int) -> RoutingTree:
    """Breadth-first shortest-path tree of G*(i) rooted at ``root``.

    The graph is unweighted, so the breadth-first tree realizes hop-minimal
    routes on the discovered topology; depth equals the G* hop distance for
    every reachable node.
    """
    if not 0 <= root < union.graph.n or not union.node_mask[root]:
        raise ValueError(f"root {root} is not part of the union subgraph")
    return RoutingTree(root=int(root), depth=bfs_distances(union.graph, root, union.edge_mask), union=union)
