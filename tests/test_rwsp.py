import dataclasses
import tracemalloc
import types

import numpy as np
import pytest

from rwtopo import (
    Graph,
    UNREACHABLE,
    grid_2d,
    preferential_attachment,
    run_rwsp,
    run_walk,
    walker_seed,
)
from rwtopo.graph import bfs_distances, component_labels
from rwtopo.walker import retrace_to_start
from rwtopo import rwsp
from rwtopo.rwsp import MeetingEvent, ProtocolRun, UnionSubgraph, WalkerState, routing_tree
from helpers import (
    cycle,
    discovered_lengths,
    naive_length,
    path_graph,
    star,
    triangle,
    two_triangles,
)


class TestStarMeeting:
    def test_leaf_walkers_meet_at_the_hub(self):
        g = star(4)
        run = run_rwsp(g, [1, 2], 3, seed=42)
        assert sorted(run.states[0].known_peers) == [1]
        assert sorted(run.states[1].known_peers) == [0]
        assert 0 in run.states[0].contact_points
        assert 0 in run.states[1].contact_points
        # the whole star is discovered by either walker alone
        assert run.unions[0].edge_mask.all()
        assert discovered_lengths(run)[(0, 1)] == 2
        assert naive_length(run, 0, 1) == 2

    def test_meeting_event_bookkeeping(self):
        g = path_graph(3)  # 0-1-2, walkers from both ends meet at node 1
        run = run_rwsp(g, [0, 2], 2, seed=0)
        assert run.meetings[0] == []
        (event,) = run.meetings[1]
        assert event.t == 2 and event.at == 1
        assert event.finder == 1 and event.found == frozenset({0})
        # advertisement traced one hop back along walker 0's breadcrumbs
        assert run.pair_advertise_hops == {(1, 0): 1}
        # each hand-off routes start -> contact -> peer start
        assert run.pair_transfer_hops == {(0, 1): 2, (1, 0): 2}

    def test_no_costs_without_meetings(self):
        run = run_rwsp(two_triangles(), [0, 3], 6, seed=3)
        assert run.pair_advertise_hops == {} and run.pair_transfer_hops == {}


class TestDisconnected:
    def test_walkers_keep_their_own_triangles(self):
        run = run_rwsp(two_triangles(), [0, 3], 4, seed=7)
        assert run.states[0].known_peers == frozenset()
        assert run.states[1].known_peers == frozenset()
        assert discovered_lengths(run)[(0, 1)] == UNREACHABLE
        assert int(run.unions[0].edge_mask.sum()) == 3
        assert int(run.unions[1].edge_mask.sum()) == 3
        assert not (run.unions[0].edge_mask & run.unions[1].edge_mask).any()


class TestRoutingTree:
    def test_triangle_depths(self):
        run = run_rwsp(triangle(), [0, 1], 3, seed=1)
        tree = routing_tree(run.unions[0], 0)
        assert tree.depth.tolist() == [0, 1, 1]

    def test_depths_match_independent_bfs_on_materialized_subgraph(self):
        g = preferential_attachment(30, 2, seed=6)
        run = run_rwsp(g, [0, 7, 13], 12, seed=11)
        for i in range(3):
            union = run.unions[i]
            tree = routing_tree(union, run.starts[i])
            materialized = Graph(g.n, g.edges[union.edge_mask])
            assert (tree.depth == bfs_distances(materialized, run.starts[i])).all()

    def test_root_must_be_in_the_union(self):
        run = run_rwsp(two_triangles(), [0, 3], 4, seed=7)
        with pytest.raises(ValueError):
            routing_tree(run.unions[0], 4)


class TestPathLengths:
    def test_discovered_never_beats_true_distance(self):
        for seed in range(30):
            g = preferential_attachment(60, 2, seed=(8, seed))
            rng = np.random.default_rng((9, seed))
            starts = [int(x) for x in rng.choice(60, size=3, replace=False)]
            run = run_rwsp(g, starts, 20, seed=(10, seed))
            found = discovered_lengths(run)
            for i in range(3):
                true = bfs_distances(g, starts[i])
                for j in range(3):
                    if i == j:
                        continue
                    d = found[(i, j)]
                    if d != UNREACHABLE:
                        assert d >= int(true[starts[j]])

    def test_symmetry_for_mutually_known_pairs(self):
        for seed in range(15):
            g = preferential_attachment(50, 2, seed=(12, seed))
            run = run_rwsp(g, [0, 10, 20, 30], 25, seed=(13, seed))
            found = discovered_lengths(run)
            for i in range(4):
                for j in run.states[i].known_peers:
                    assert i in run.states[j].known_peers
                    assert found[(i, j)] == found[(j, i)]

    def test_union_subgraphs_identical_within_a_group(self):
        g = preferential_attachment(50, 2, seed=77)
        run = run_rwsp(g, [0, 10, 20], 30, seed=78)
        for i in range(3):
            for j in run.states[i].known_peers:
                assert (run.unions[i].edge_mask == run.unions[j].edge_mask).all()
                assert np.array_equal(run.unions[i].nodes, run.unions[j].nodes)

    def test_union_edges_are_incident_to_group_visits(self):
        g = preferential_attachment(40, 2, seed=5)
        run = run_rwsp(g, [0, 11], 15, seed=6)
        group_visited = set(run.unions[0].nodes.tolist())
        for eid in np.flatnonzero(run.unions[0].edge_mask):
            u, v = g.edges[eid].tolist()
            assert u in group_visited or v in group_visited

    def test_self_pair_rejected(self):
        run = run_rwsp(triangle(), [0, 1, 2], 2, seed=0)
        assert sorted(discovered_lengths(run)) == [(i, j) for i in range(3) for j in range(3) if i != j]


class TestNaiveVsRwsp:
    def test_star_is_optimal_for_both(self):
        run = run_rwsp(star(4), [1, 2], 2, seed=9)
        assert (naive_length(run, 0, 1), discovered_lengths(run)[(0, 1)]) == (2, 2)

    def test_discovered_route_never_longer_than_naive(self):
        for seed in range(40):
            g = preferential_attachment(50, 2, seed=(31, seed))
            run = run_rwsp(g, [0, 25], 20, seed=(32, seed))
            if 1 in run.direct_peers[0]:
                assert discovered_lengths(run)[(0, 1)] <= naive_length(run, 0, 1)

    def test_cycle_walks_expose_the_naive_drawback(self):
        # wandering walks install detours the union-topology BFS avoids
        g = cycle(20)
        strictly_better = 0
        met = 0
        for seed in range(100):
            rng = np.random.default_rng((55, seed))
            starts = [int(x) for x in rng.choice(20, size=2, replace=False)]
            run = run_rwsp(g, starts, 32, seed=(55, seed))
            if 1 not in run.direct_peers[0]:
                continue
            met += 1
            naive_len, rwsp_len = naive_length(run, 0, 1), discovered_lengths(run)[(0, 1)]
            assert rwsp_len <= naive_len
            if naive_len > rwsp_len:
                strictly_better += 1
        assert met > 50
        assert strictly_better >= 1

    def test_requires_a_direct_meeting(self):
        run = run_rwsp(two_triangles(), [0, 3], 4, seed=7)
        assert naive_length(run, 0, 1) is None


class TestProtocolDeterminismAndScheduling:
    def test_identical_seeds_reproduce_everything(self):
        g = preferential_attachment(80, 2, seed=1)
        a = run_rwsp(g, [0, 20, 40, 60], 30, seed=(5, 5))
        b = run_rwsp(g, [0, 20, 40, 60], 30, seed=(5, 5))
        for i in range(4):
            assert (a.states[i].trace.steps == b.states[i].trace.steps).all()
            assert a.states[i].known_peers == b.states[i].known_peers
            assert a.states[i].contact_points == b.states[i].contact_points
            assert (a.unions[i].edge_mask == b.unions[i].edge_mask).all()
        assert a.pair_advertise_hops == b.pair_advertise_hops
        assert a.pair_transfer_hops == b.pair_transfer_hops

    def test_walker_trajectories_match_standalone_walks(self):
        g = preferential_attachment(60, 2, seed=2)
        run = run_rwsp(g, [0, 15, 30], 20, seed=(44, 3))
        for i in range(3):
            solo, _ = run_walk(g, run.starts[i], 20, walker_seed((44, 3), i))
            assert (run.states[i].trace.steps == solo.steps).all()

    def test_same_round_collision_resolved_by_walker_id(self):
        # both walkers step onto the middle node in the same round: the
        # lower id registers first, so only the higher id reports a meeting
        g = path_graph(3)
        run = run_rwsp(g, [0, 2], 2, seed=1)
        assert run.meetings[0] == []
        assert len(run.meetings[1]) == 1
        assert run.meetings[1][0].found == frozenset({0})

    def test_meeting_events_are_consistent_with_first_visits(self):
        g = preferential_attachment(40, 2, seed=14)
        run = run_rwsp(g, [0, 10, 20, 30], 18, seed=15)
        first_visit = []
        for i in range(4):
            fv = {}
            for t, v in enumerate(run.states[i].trace.steps.tolist(), start=1):
                fv.setdefault(v, t)
            first_visit.append(fv)
        for i in range(4):
            for event in run.meetings[i]:
                assert i not in event.found
                for j in event.found:
                    tj = first_visit[j].get(event.at)
                    assert tj is not None
                    assert tj < event.t or (tj == event.t and j < i)

    def test_transitive_closure_links_meeting_chains(self):
        # seed picked so walkers 0 and 2 never share a node but both meet 1
        g = path_graph(9)
        run = run_rwsp(g, [0, 4, 8], 4, seed=140)
        s0 = run.states[0].trace.visited
        s2 = run.states[2].trace.visited
        assert not (s0 & s2).any()
        assert 2 not in run.direct_peers[0]
        assert 2 in run.states[0].known_peers
        assert 0 in run.states[2].known_peers
        assert (run.unions[0].edge_mask == run.unions[2].edge_mask).all()

    def test_validation_errors(self):
        g = triangle()
        with pytest.raises(ValueError, match="two walkers"):
            run_rwsp(g, [0], 3, seed=1)
        with pytest.raises(ValueError, match="distinct"):
            run_rwsp(g, [0, 0], 3, seed=1)
        isolated = Graph(4, [[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="isolated"):
            run_rwsp(isolated, [0, 3], 3, seed=1)

    def test_non_integral_starts_are_rejected(self):
        # [0.5, 1.7] used to run from [0, 1].
        with pytest.raises(ValueError, match="start nodes must be integral, got 0.5"):
            run_rwsp(triangle(), [0.5, 1.7], 3, seed=1)
        assert run_rwsp(triangle(), np.array([0.0, 2.0]), 3, seed=1).starts == [0, 2]


def test_generous_budget_makes_every_pair_mutually_known():
    g = preferential_attachment(50, 2, seed=9)
    budget = 25  # half the node count
    fully_linked = 0
    for seed in range(100):
        rng = np.random.default_rng((123, seed))
        starts = [int(x) for x in rng.choice(50, size=4, replace=False)]
        run = run_rwsp(g, starts, budget, seed=(123, seed))
        if all(len(st.known_peers) == 3 for st in run.states):
            fully_linked += 1
    assert fully_linked >= 95


def test_retained_state_scales_with_the_walks_not_the_graph():
    # 32 adjacent start pairs on a 160k-node grid: a few short walks, mostly
    # in groups of one or two.  Each group's union is one object shared by
    # its members and holds only their ids and visited nodes, never n- or
    # m-sized masks.
    g = grid_2d(400, 400)
    left = 2 * np.random.default_rng(66).choice(g.n // 2, size=32, replace=False)
    starts = np.stack([left, left + 1], axis=1).ravel().tolist()
    run_rwsp(g, starts, 10, seed=67)  # warm-up
    tracemalloc.start()
    try:
        run = run_rwsp(g, starts, 10, seed=67)
        # The unions, the cached accounting and its first-visit table.
        run.unions, run.states, run.meetings, run.direct_peers, run.pair_advertise_hops, run.pair_transfer_hops
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2**20
    assert any(state.known_peers for state in run.states)
    for i, state in enumerate(run.states):
        for j in state.known_peers:
            assert run.unions[i] is run.unions[j]


def test_a_run_stores_only_its_walks():
    assert [f.name for f in dataclasses.fields(ProtocolRun)] == ["graph", "steps"]


def reference_protocol(g: Graph, starts, budget: int, seed) -> dict:
    """Brute-force RWSP: a per-step scan of all walkers against a dense h x n
    first-visit matrix, with hops counted by retracing breadcrumbs."""
    h = len(starts)
    traces = [run_walk(g, starts[i], budget, walker_seed(seed, i), walker_id=i)[0] for i in range(h)]
    first_visit = np.zeros((h, g.n), dtype=np.int64)
    for i in range(h):
        for t, v in reversed(list(enumerate(traces[i].steps.tolist(), start=1))):
            first_visit[i, v] = t

    known = [set() for _ in range(h)]
    contacts = [{} for _ in range(h)]
    meetings = [[] for _ in range(h)]
    pair_adv = {}
    ties = 0
    for t in range(1, budget + 1):
        for i in range(h):
            v = int(traces[i].steps[t - 1])
            new = [
                j
                for j in range(h)
                if j != i
                and j not in known[i]
                and first_visit[j, v]
                and (first_visit[j, v] < t or (first_visit[j, v] == t and j < i))
            ]
            if not new:
                continue
            ties += sum(1 for j in new if first_visit[j, v] == t)
            meetings[i].append((t, i, frozenset(new), v))
            known[i].update(new)
            contacts[i].setdefault(v, t)
            for j in new:
                pair_adv[(i, j)] = pair_adv.get((i, j), 0) + len(retrace_to_start(traces[j], v)) - 1
                known[j].add(i)
                contacts[j].setdefault(v, t)

    pair_tr = {}
    receptions = []
    for i in range(h):
        for j in sorted(known[i]):
            contact = next(v for v in contacts[i] if traces[j].visited[v])
            pair_tr[(i, j)] = (len(retrace_to_start(traces[i], contact)) - 1) + (
                len(retrace_to_start(traces[j], contact)) - 1
            )
            receptions.append((j, contact))
    for j, v in receptions:
        contacts[j].setdefault(v, budget + 1)

    groups = []
    for i in range(h):
        group, todo = {i}, [i]
        while todo:
            for j in known[todo.pop()] - group:
                group.add(j)
                todo.append(j)
        groups.append(group)
    node_masks = [np.any([traces[j].visited for j in grp], axis=0) for grp in groups]
    edge_masks = [np.any([traces[j].covered_edges for j in grp], axis=0) for grp in groups]
    return {
        "meetings": meetings,
        "direct_peers": [frozenset(k) for k in known],
        "known_peers": [frozenset(grp - {i}) for i, grp in enumerate(groups)],
        "contact_points": [frozenset(c) for c in contacts],
        "pair_advertise_hops": pair_adv,
        "pair_transfer_hops": pair_tr,
        "node_masks": node_masks,
        "edge_masks": edge_masks,
        "ties": ties,
    }


def _oracle_instances():
    yield path_graph(3), [0, 2], 2, 1  # both walkers reach node 1 in round 2
    # The only node two walks share is the last step of one of them: walker
    # 0's (0,1,2,3,4 against 7,6,5,4,5), then walker 1's (0,1,2,3,2 against
    # 7,6,5,4,3).
    yield path_graph(10), [0, 7], 5, (70, 7)
    yield path_graph(10), [0, 7], 5, (70, 57)
    # Walkers 0 and 2 share no node, but both share one with walker 1.
    yield path_graph(9), [0, 4, 8], 4, 140
    # Walks of 4 moves from starts 10 apart on a cycle share no node at all.
    yield cycle(30), [0, 10, 20], 5, 71
    for k in range(6):
        g = preferential_attachment(300, 2 + k % 2, seed=(61, k))
        rng = np.random.default_rng((62, k))
        h = (2, 4, 8, 16, 24, 32)[k]
        yield g, [int(s) for s in rng.choice(g.n, size=h, replace=False)], 40 + 10 * k, (63, k)
    for k in range(4):
        g = grid_2d(12, 14)
        rng = np.random.default_rng((64, k))
        h = (3, 6, 12, 20)[k]
        yield g, [int(s) for s in rng.choice(g.n, size=h, replace=False)], 30 + 15 * k, (65, k)


def test_first_visit_replay_matches_the_per_step_scan():
    ties = 0
    for g, starts, budget, seed in _oracle_instances():
        ref = reference_protocol(g, starts, budget, seed)
        run = run_rwsp(g, starts, budget, seed)
        ties += ref["ties"]
        assert [[(e.t, e.finder, e.found, e.at) for e in m] for m in run.meetings] == ref["meetings"]
        assert run.direct_peers == ref["direct_peers"]
        assert [st.known_peers for st in run.states] == ref["known_peers"]
        assert [st.contact_points for st in run.states] == ref["contact_points"]
        assert run.pair_advertise_hops == ref["pair_advertise_hops"]
        assert run.pair_transfer_hops == ref["pair_transfer_hops"]
        for i, union in enumerate(run.unions):
            assert np.array_equal(union.nodes, np.flatnonzero(ref["node_masks"][i]))
            assert (union.edge_mask == ref["edge_masks"][i]).all()
    assert ties >= 20  # same-round, lower-id-first collisions are exercised


def loop_protocol(g: Graph, starts, budget: int, seed) -> types.SimpleNamespace:
    """RWSP as a Python event loop: first visits of all walkers replayed one
    at a time in (round, walker id) order against a node -> walkers
    registry, with breadcrumb depths filled in as the walks advance.  Groups
    follow the meeting rule (components of the direct-peer links), and the
    result carries every field ProtocolRun derives, stored."""
    starts = [int(s) for s in starts]
    h = len(starts)
    traces = [run_walk(g, s, budget, walker_seed(seed, i), walker_id=i)[0] for i, s in enumerate(starts)]

    index = np.concatenate([tr.first_visits[1] for tr in traces])
    walker = np.repeat(np.arange(h), [tr.unique_nodes for tr in traces])
    node = np.concatenate([tr.first_visits[0] for tr in traces])
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
    pair_tr: dict[tuple[int, int], int] = {}
    for i in range(h):
        for j in sorted(direct_peers[i]):
            contact = next(v for v in contacts[i] if v in depth[j])
            pair_tr[(i, j)] = depth[i][contact] + depth[j][contact]
            contacts[j].setdefault(contact, budget + 1)

    labels = component_labels(Graph(h, [(i, j) for i in range(h) for j in direct_peers[i]]))[0].tolist()
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    unions = {
        label: UnionSubgraph(g, tuple(members), np.unique(np.concatenate([traces[i].steps for i in members])))
        for label, members in groups.items()
    }
    states = [
        WalkerState(known_peers=frozenset(groups[labels[i]]) - {i}, contact_points=frozenset(contacts[i]), trace=traces[i])
        for i in range(h)
    ]
    return types.SimpleNamespace(
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


def assert_same_protocol_run(run: ProtocolRun, ref: ProtocolRun) -> None:
    assert run.graph is ref.graph and run.budget == ref.budget and run.starts == ref.starts
    assert run.meetings == ref.meetings
    assert run.direct_peers == ref.direct_peers
    assert list(run.pair_advertise_hops.items()) == list(ref.pair_advertise_hops.items())
    assert list(run.pair_transfer_hops.items()) == list(ref.pair_transfer_hops.items())
    for state, expected in zip(run.states, ref.states, strict=True):
        assert state.known_peers == expected.known_peers
        assert state.contact_points == expected.contact_points
        trace, other = state.trace, expected.trace
        assert (trace.walker_id, trace.start, trace.budget, trace.graph) == (
            other.walker_id, other.start, other.budget, other.graph
        )
        assert trace.steps.dtype == other.steps.dtype and np.array_equal(trace.steps, other.steps)
    for union, expected in zip(run.unions, ref.unions, strict=True):
        assert union.graph is expected.graph and union.members == expected.members
        assert union.nodes.dtype == expected.nodes.dtype and np.array_equal(union.nodes, expected.nodes)
        # G* from the run's table equals the OR of its members' own views.
        traces = [run.states[i].trace for i in union.members]
        visited = np.any([tr.visited for tr in traces], axis=0)
        covered = np.any([tr.covered_edges for tr in traces], axis=0)
        assert np.array_equal(union.nodes, np.flatnonzero(visited))
        assert np.array_equal(union.edge_mask, covered)

    def shared(r):  # which walkers hold the same union object
        return [[u is v for v in r.unions] for u in r.unions]

    assert shared(run) == shared(ref)


def test_table_replay_matches_the_event_loop():
    for g, starts, budget, seed in _oracle_instances():
        assert_same_protocol_run(run_rwsp(g, starts, budget, seed), loop_protocol(g, starts, budget, seed))


def test_table_replay_matches_the_event_loop_on_a_128_walker_swarm():
    g = preferential_attachment(10_000, 3, seed=91)
    starts = np.random.default_rng(92).choice(g.n, size=128, replace=False).tolist()
    run = run_rwsp(g, starts, 500, seed=(93, 0))
    assert len(run.states[0].known_peers) == 127  # one group, hubs visited by many walkers
    assert_same_protocol_run(run, loop_protocol(g, starts, 500, (93, 0)))


def test_the_accounting_is_replayed_once_per_run(monkeypatch):
    calls, replay = [], rwsp._replay

    def counted(run):
        calls.append(run)
        return replay(run)

    monkeypatch.setattr(rwsp, "_replay", counted)
    run = run_rwsp(preferential_attachment(300, 2, seed=4), [0, 5, 9, 40], 30, seed=6)
    for _ in range(2):
        run.states, run.meetings, run.direct_peers, run.pair_advertise_hops, run.pair_transfer_hops
    run.states
    assert len(calls) == 1 and calls[0] is run


def test_a_prefix_of_the_walks_replays_as_the_shorter_run():
    g = preferential_attachment(2000, 2, seed=31)
    starts = np.random.default_rng(32).choice(g.n, size=12, replace=False).tolist()
    full = run_rwsp(g, starts, 400, seed=33)
    for budget in (1, 2, 57, 200, 400):
        assert_same_protocol_run(ProtocolRun(g, full.steps[:, :budget]), run_rwsp(g, starts, budget, seed=33))
