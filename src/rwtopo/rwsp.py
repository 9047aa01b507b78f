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

The simulation computes this schedule from tables instead of stepping it.
The h walks run as h lanes of the one walk kernel,
:func:`rwtopo.walker.run_walks`, which picks its stepping from the lane
count, and a :class:`ProtocolRun` stores only their steps; everything else
is derived from them when first read.  Only first visits matter: a walker
revisiting a node meets nobody new there, because whoever registered the
node between its two visits already found it at the registration.  One
table lists every (node, walker) first visit, sorted by node, by one sort of
the steps' ``node * h + walker`` codes; the accounting alone dates the
visits.  Then:

* Two walkers meet exactly when their walks share a node, so the groups
  that pool their subgraphs into one G* are the components of the links
  between consecutive visitors of a node in that table.  Routing on G*
  needs nothing else.
* The protocol accounting (meeting events, direct peers, contact points and
  hop counts) replays the schedule.  Each first visit gets the key
  ``round * h + walker``, so keys order visits as the rounds register them,
  same-round ties going to the lower id.  Walkers a and b first meet with
  key ``K = min over the nodes v both visited of max(key_a(v), key_b(v))``:
  the pair's first meeting is the first registration that finds the
  other's breadcrumb.  ``K`` names the finder (``K mod h``) and the round
  (``K div h``), so the meeting node is the finder's step in that round.
  The peers found under one key form one :class:`MeetingEvent`.
* A breadcrumb depth (hops back to the start) is one more than the depth
  of the node the first visit came from, found by pointer jumping.
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

# Meeting key of a pair that never met.
_NEVER = np.iinfo(np.int64).max


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


class _FirstVisits:
    """The first-visit table of h walks (one row of ``steps`` per walker).

    One entry per (node, walker) a walk visited, sorted by ``node * h +
    walker`` (``codes``), so a node's visitors are consecutive and in walker
    order.  Only ``codes``, ``node`` and ``walker`` are built eagerly.  The
    accounting alone reads ``rnd`` and ``key``, the entry's first-visit
    round and replay order ``rnd * h + walker``, and ``depth``, its
    breadcrumb hops back to the walker's start, all built on first use.
    """

    def __init__(self, steps: np.ndarray):
        self.h, self.steps = steps.shape[0], steps
        codes = np.sort(self._codes(), axis=None)
        self.codes = codes[_run_starts(codes)]
        self.node, self.walker = np.divmod(self.codes, self.h)

    def _codes(self) -> np.ndarray:
        return self.steps * self.h + np.arange(self.h)[:, None]

    @cached_property
    def rnd(self) -> np.ndarray:
        first = np.unique(self._codes(), return_index=True)[1]
        return first - self.walker * self.steps.shape[1]

    @cached_property
    def key(self) -> np.ndarray:
        return self.rnd * self.h + self.walker

    def _find(self, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pos, hit): where entry (``v[k]``, ``w[k]``) is, and whether it is."""
        code = v * self.h + w
        pos = np.minimum(np.searchsorted(self.codes, code), self.codes.size - 1)
        return pos, self.codes[pos] == code

    @cached_property
    def depth(self) -> np.ndarray:
        # Each entry's breadcrumb is the entry of the step before its first
        # visit (a start's is its own).  Pointer jumping: after k rounds every
        # entry points 2**k back (or at its start) and holds the hops skipped.
        parent = self._find(self.walker, self.steps[self.walker, np.maximum(self.rnd - 1, 0)])[0]
        depth = (self.rnd > 0).astype(np.int64)
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                return depth
            depth += depth[parent]
            parent = hop

    def lookup(self, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(visited, depth): whether walker ``w[k]`` visited node ``v[k]``,
        and its breadcrumb depth there for the visited ones."""
        pos, hit = self._find(w, v)
        return hit, self.depth[pos[hit]]

    def first_meetings(self) -> np.ndarray:
        """h x h first-meeting keys: entry ``[a, b]`` (a < b) is the least,
        over the nodes both visited, of the later of their two keys there;
        _NEVER where they share no node and in every other cell."""
        h, walker, key = self.h, self.walker, self.key
        meet = np.full(h * h, _NEVER, dtype=np.int64)
        rank = np.arange(self.codes.size)  # an entry's place among its node's visitors
        rank -= np.maximum.accumulate(np.where(_run_starts(self.node), rank, 0))
        later = np.flatnonzero(rank)
        r = 1
        while later.size:  # every pair of visitors r entries apart
            earlier = later - r
            np.minimum.at(meet, walker[earlier] * h + walker[later], np.maximum(key[earlier], key[later]))
            r += 1
            later = later[rank[later] >= r]
        return meet.reshape(h, h)


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
    accounting: they replay the meeting schedule (first-meeting keys,
    breadcrumb depths, the hand-off sweep), all at once, the first time any
    of them is read.

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
    def _visits(self) -> _FirstVisits:
        return _FirstVisits(self.steps)

    @cached_property
    def unions(self) -> list[UnionSubgraph]:
        """Each walker's group G*, one object per group.

        Walkers whose walks share a node meet, so a group is a component of
        the links between consecutive visitors of a node in the first-visit
        table, and its nodes are the distinct nodes of its members' entries.
        """
        v, n = self._visits, self.graph.n
        link = np.flatnonzero(v.node[1:] == v.node[:-1])
        labels, sizes = _components(self.h, v.walker[link], v.walker[link + 1])
        members = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
        # Within a group the codes already ascend, which a stable sort exploits.
        code = np.sort(labels[v.walker] * n + v.node, kind="stable")
        group, node = np.divmod(code[_run_starts(code)], n)
        nodes = np.split(_read_only(node)[0], np.cumsum(np.bincount(group))[:-1])
        unions = [UnionSubgraph(self.graph, tuple(m.tolist()), x) for m, x in zip(members, nodes)]
        return [unions[label] for label in labels.tolist()]

    @cached_property
    def _accounting(self) -> _Accounting:
        g, steps, h, visits = self.graph, self.steps, self.h, self._visits

        # Meeting events in replay order: by key, then found walker, which is
        # also the order of pair_advertise_hops.
        meet = visits.first_meetings()
        met = meet != _NEVER
        a, b = np.nonzero(met)
        order = np.lexsort((a + b, meet[a, b]))
        a, b = a[order], b[order]
        met_key = meet[a, b]
        rnd, finder = np.divmod(met_key, h)
        found = a + b - finder
        at = steps[finder, rnd]
        meetings: list[list[MeetingEvent]] = [[] for _ in range(h)]
        cuts = np.flatnonzero(np.diff(met_key, prepend=-1, append=-1)).tolist()
        finder_l, found_l, at_l, t_l = finder.tolist(), found.tolist(), at.tolist(), (rnd + 1).tolist()
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            f = finder_l[lo]
            meetings[f].append(MeetingEvent(t=t_l[lo], finder=f, found=frozenset(found_l[lo:hi]), at=at_l[lo]))

        # Both walkers' breadcrumb depths at each meeting node; the found
        # walker's is the advertisement's.
        own = np.concatenate([finder, found])
        contact = np.concatenate([at, at])
        _, contact_depth = visits.lookup(own, contact)
        pair_adv = dict(zip(zip(finder_l, found_l), contact_depth[finder.size :].tolist()))

        # Each walker's contacts: its meeting nodes, earliest meeting first and
        # each node once.
        order = np.lexsort((np.concatenate([met_key, met_key]), own))
        own, contact, contact_depth = own[order], contact[order], contact_depth[order]
        _, keep = np.unique(own * g.n + contact, return_index=True)
        keep.sort()
        own, contact, contact_depth = own[keep], contact[keep], contact_depth[keep]

        # Subgraph hand-off to every directly met peer, routed start -> contact
        # node (sender's breadcrumbs) -> peer start (receiver's breadcrumbs),
        # with i-major pairs (i, j).  Sweep each i's contacts in order until j
        # visited one; their own meeting node always qualifies.
        direct = met | met.T
        ti, tj = np.nonzero(direct)
        via = np.empty(ti.size, dtype=np.int64)
        hops = np.empty(ti.size, dtype=np.int64)
        pending = np.arange(ti.size)
        c = np.searchsorted(own, ti)  # each i's earliest contact
        while pending.size:
            hit, j_depth = visits.lookup(tj[pending], contact[c])
            done = pending[hit]
            via[done] = contact[c[hit]]
            hops[done] = contact_depth[c[hit]] + j_depth
            pending, c = pending[~hit], c[~hit] + 1

        contacts: list[set[int]] = [set() for _ in range(h)]
        for i, v in zip(own.tolist() + tj.tolist(), contact.tolist() + via.tolist()):
            contacts[i].add(v)  # tj[k] receives ti[k]'s subgraph at via[k]
        states = [  # known peers: the rest of the walker's group
            WalkerState(frozenset(u.members) - {i}, frozenset(contacts[i]), self._traces[i])
            for i, u in enumerate(self.unions)
        ]
        return _Accounting(
            states=states,
            meetings=meetings,
            direct_peers=[frozenset(np.flatnonzero(row).tolist()) for row in direct],
            pair_advertise_hops=pair_adv,
            pair_transfer_hops=dict(zip(zip(ti.tolist(), tj.tolist()), hops.tolist())),
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
