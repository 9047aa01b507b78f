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

The h walks run as h lanes of the one walk kernel,
:func:`rwtopo.walker.run_walks`, which picks its stepping from the lane
count, and a :class:`ProtocolRun` stores only their steps; everything else
is derived from them when first read.  Only first visits matter: a walker
revisiting a node meets nobody new there, because whoever registered the
node between its two visits already found it at the registration.  Then:

* Two walkers meet exactly when their walks share a node, so the groups
  that pool their subgraphs into one G* are the components of the links
  between consecutive visitors of a node in the first-visit table, one
  sort of the steps' ``node * h + walker`` codes.  Routing on G* needs
  nothing else, and the table is never dated.
* The protocol accounting (meeting events, direct peers, contact points and
  hop counts) replays the schedule round by round, walkers in id order
  within a round.  A first visit leaves a breadcrumb one hop deeper than
  the node it came from and meets every walker registered at the node that
  the visitor does not know yet.
* A walker's contacts are its meeting nodes, earliest meeting first.  The
  subgraph hand-off from i to a directly met j goes through i's earliest
  contact that j visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import Graph, _components, _int64s, _read_only, _run_starts, bfs_distances
from .walker import WalkTrace, _covered_edge_mask, run_walks, walker_seed

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

    A union is the group's ``members`` (walker ids, ascending) and the
    ``nodes`` their walks visited (ascending, read-only), both read off the
    run's first-visit table, and every member holds this same object.  A
    walker reads the whole neighbor list of each node it visits, so G* is
    ``nodes`` and every edge incident to one of them, the union of the
    walks' covered edges.  Scoring's pair-distance search reads ``nodes``
    as the group's visited set.  ``edge_mask``, the dense mask that
    :func:`routing_tree` reads, is built from ``nodes`` on each access by
    the rule of :attr:`WalkTrace.covered_edges`, so a union keeps nothing
    m-sized.
    Covered edges may lead to unvisited endpoints; those are
    legitimate route hops because a walker read them off a visited node's
    neighbor list.
    """

    graph: Graph
    members: tuple[int, ...]
    nodes: np.ndarray

    @property
    def edge_mask(self) -> np.ndarray:
        return _covered_edge_mask(self.graph, self.nodes)


@dataclass(frozen=True)
class RoutingTree:
    """Breadth-first depths of a union subgraph from ``root``: the G* hop
    distance of every node, UNREACHABLE where G* has no route."""

    root: int
    depth: np.ndarray


class _Accounting(NamedTuple):
    """A run's protocol accounting, built together on first read."""

    states: list[WalkerState]
    meetings: list[list[MeetingEvent]]
    direct_peers: list[frozenset[int]]
    pair_advertise_hops: dict[tuple[int, int], int]
    pair_transfer_hops: dict[tuple[int, int], int]


@dataclass(frozen=True)
class ProtocolRun:
    """One run_rwsp invocation: the graph and the h walks, row i of ``steps``
    being walker i's step sequence.

    Only those two are stored.  ``h``, ``budget`` and ``starts`` are read off
    ``steps``, and every other field is derived from it on first read and
    cached.  ``unions`` needs only the first-visit table.  ``states``,
    ``meetings``, ``direct_peers`` and the two hop dicts are the protocol
    accounting: :func:`_replay` steps the walks round by round, all five at
    once, the first time any of them is read.

    Message hops are kept per ordered pair ``(i, j)``.
    ``pair_advertise_hops`` pays for walker i's "I found your breadcrumb"
    notification to j at meeting time, traced back along j's breadcrumbs;
    ``pair_transfer_hops`` for delivering i's discovered subgraph to the
    directly met peer j (start -> contact node -> peer start, both halves
    along breadcrumb paths).  A walker's totals are the sums of its
    ``(i, .)`` entries.
    """

    graph: Graph
    steps: np.ndarray

    @property
    def h(self) -> int:
        return self.steps.shape[0]

    @property
    def budget(self) -> int:
        return self.steps.shape[1]

    @property
    def starts(self) -> list[int]:
        return self.steps[:, 0].tolist()

    @property
    def states(self) -> list[WalkerState]:
        return self._accounting.states

    @property
    def meetings(self) -> list[list[MeetingEvent]]:
        return self._accounting.meetings

    @property
    def direct_peers(self) -> list[frozenset[int]]:
        return self._accounting.direct_peers

    @property
    def pair_advertise_hops(self) -> dict[tuple[int, int], int]:
        return self._accounting.pair_advertise_hops

    @property
    def pair_transfer_hops(self) -> dict[tuple[int, int], int]:
        return self._accounting.pair_transfer_hops

    @cached_property
    def _traces(self) -> list[WalkTrace]:
        return [WalkTrace(walker_id=i, steps=row, graph=self.graph) for i, row in enumerate(self.steps)]

    @cached_property
    def unions(self) -> list[UnionSubgraph]:
        """Each walker's group G*, one object per group.

        Walkers whose walks share a node meet, so a group is a component of
        the links between consecutive visitors of a node in the first-visit
        table, and its nodes are the distinct nodes of its members' entries.
        """
        h, n = self.h, self.graph.n
        # The first-visit table: one entry per (node, walker) a walk visited,
        # sorted by node * h + walker, so a node's visitors are consecutive.
        codes = np.sort(self.steps * h + np.arange(h)[:, None], axis=None)
        codes = codes[_run_starts(codes)]
        visit_node, walker = np.divmod(codes, h)
        link = np.flatnonzero(visit_node[1:] == visit_node[:-1])
        labels, sizes = _components(np.arange(h), walker[link], walker[link + 1])
        members = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
        # Within a group the codes already ascend, which a stable sort exploits.
        code = np.sort(labels[walker] * n + visit_node, kind="stable")
        group, node = np.divmod(code[_run_starts(code)], n)
        nodes = np.split(_read_only(node)[0], np.cumsum(np.bincount(group))[:-1])
        unions = [UnionSubgraph(self.graph, tuple(m.tolist()), x) for m, x in zip(members, nodes)]
        return [unions[label] for label in labels.tolist()]

    @cached_property
    def _accounting(self) -> _Accounting:
        return _replay(self)


def _replay(run: ProtocolRun) -> _Accounting:
    """The protocol accounting of ``run``, replayed round by round with
    walkers in id order within a round; revisits are skipped."""
    h = run.h
    depth: list[dict[int, int]] = [{} for _ in range(h)]  # node -> breadcrumb hops to start
    registry: dict[int, set[int]] = {}  # node -> walkers with a breadcrumb there
    known: list[set[int]] = [set() for _ in range(h)]
    contacts: list[dict[int, None]] = [{} for _ in range(h)]  # meeting nodes, earliest first
    meetings: list[list[MeetingEvent]] = [[] for _ in range(h)]
    pair_adv: dict[tuple[int, int], int] = {}
    prev: list[int] = []
    for t, here in enumerate(run.steps.T.tolist(), start=1):
        for i, v in enumerate(here):
            if v in depth[i]:
                continue
            depth[i][v] = depth[i][prev[i]] + 1 if prev else 0
            visitors = registry.setdefault(v, set())
            new = sorted(visitors - known[i])
            visitors.add(i)
            if not new:
                continue
            meetings[i].append(MeetingEvent(t=t, finder=i, found=frozenset(new), at=v))
            contacts[i][v] = None
            for j in new:
                known[i].add(j)
                known[j].add(i)
                contacts[j][v] = None
                pair_adv[(i, j)] = depth[j][v]
        prev = here

    # Subgraph hand-off to every directly met peer, routed start -> contact
    # node (sender's breadcrumbs) -> peer start (receiver's breadcrumbs)
    # through the sender's earliest contact the peer visited; their own
    # meeting node always qualifies.
    pair_tr: dict[tuple[int, int], int] = {}
    for i in range(h):
        for j in sorted(known[i]):
            via = next(v for v in contacts[i] if v in depth[j])
            pair_tr[(i, j)] = depth[i][via] + depth[j][via]
            contacts[j][via] = None

    states = [  # known peers: the rest of the walker's group
        WalkerState(frozenset(u.members) - {i}, frozenset(contacts[i]), run._traces[i])
        for i, u in enumerate(run.unions)
    ]
    return _Accounting(
        states=states,
        meetings=meetings,
        direct_peers=[frozenset(k) for k in known],
        pair_advertise_hops=pair_adv,
        pair_transfer_hops=pair_tr,
    )


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
    starts = _int64s(starts, "start nodes").tolist()
    h = len(starts)
    if h < 2:
        raise ValueError("need at least two walkers")
    if len(set(starts)) != h:
        raise ValueError("start nodes must be distinct")
    return ProtocolRun(graph=g, steps=run_walks(g, starts, budget, [walker_seed(seed, i) for i in range(h)]))


def routing_tree(union: UnionSubgraph, root: int) -> RoutingTree:
    """Breadth-first search of G* from ``root``, a node some walk of the group visited.

    The graph is unweighted, so the depths are the hop-minimal route
    lengths on the discovered topology.
    """
    if root not in union.nodes:
        raise ValueError(f"root {root} is not part of the union subgraph")
    return RoutingTree(root=int(root), depth=bfs_distances(union.graph, root, union.edge_mask))
