import itertools
import tracemalloc
from fractions import Fraction
from math import floor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwtopo import (
    Graph,
    PowerLawParams,
    configuration_model,
    crossing_time,
    grid_2d,
    naive_route,
    power_law_degrees,
    preferential_attachment,
    run_walk,
    walker_seed,
)
from rwtopo.graph import bfs_distances, oriented_arcs
from rwtopo.walker import retrace_to_start, run_walks
from helpers import (
    assert_valid_path,
    brute_covered_edges,
    cycle,
    path_graph,
    sorted_edge_counts,
    star,
    triangle,
    two_triangles,
)


def exact_walk_distribution(g: Graph, start: int, budget: int):
    """Enumerate every equally likely walk realization of the given budget.

    Only valid on regular graphs (every node the same degree), where each
    choice sequence has identical probability.
    """
    degs = set(int(d) for d in g.degrees)
    assert len(degs) == 1, "enumeration oracle requires a regular graph"
    deg = degs.pop()
    outcomes = []
    for choices in itertools.product(range(deg), repeat=budget - 1):
        seq = [start]
        for c in choices:
            seq.append(int(g.neighbors(seq[-1])[c]))
        outcomes.append(seq)
    return outcomes


class TestRunWalk:
    def test_forced_moves_on_an_edge(self):
        g = path_graph(2)
        trace, _ = run_walk(g, 0, 3, seed=1)
        assert trace.steps.tolist() == [0, 1, 0]
        assert trace.first_visits[0].tolist() == [0, 1]
        assert trace.covered_edge_count == 1

    def test_leaf_start_forces_the_hub(self):
        g = star(4)
        trace, _ = run_walk(g, 1, 2, seed=99)
        assert trace.steps[1] == 0
        assert trace.covered_edge_count == 4

    def test_budget_one_is_just_the_start(self):
        trace, _ = run_walk(triangle(), 2, 1, seed=0)
        assert trace.steps.tolist() == [2]
        assert trace.covered_edge_count == 2

    def test_consecutive_steps_are_adjacent(self):
        g = cycle(9)
        for seed in range(10):
            trace, _ = run_walk(g, 0, 30, seed=seed)
            assert_valid_path(g, trace.steps.tolist())

    def test_determinism(self):
        g = cycle(12)
        a, _ = run_walk(g, 3, 40, seed=(7, 1))
        b, _ = run_walk(g, 3, 40, seed=(7, 1))
        assert (a.steps == b.steps).all()

    def test_covered_edges_equal_brute_force_union(self):
        for g in (triangle(), star(5), cycle(8), two_triangles()):
            for seed in range(8):
                trace, _ = run_walk(g, 0, 12, seed=seed)
                expected = brute_covered_edges(g, trace.first_visits[0])
                assert set(np.flatnonzero(trace.covered_edges).tolist()) == expected
                assert trace.covered_edge_count == len(expected)

    def test_per_step_counters_are_monotone_and_consistent(self):
        g = cycle(15)
        trace, _ = run_walk(g, 4, 30, seed=5)
        e = trace.edge_count_per_step
        s = trace.node_count_per_step
        assert (np.diff(e) >= 0).all() and (np.diff(s) >= 0).all()
        assert e[-1] == trace.covered_edge_count
        assert s[-1] == trace.unique_nodes

    def test_every_traversed_edge_is_covered(self):
        g = Graph(7, [[0, 1], [1, 2], [2, 3], [3, 0], [2, 4], [4, 5], [5, 6], [6, 2]])
        for seed in range(10):
            trace, _ = run_walk(g, 0, 15, seed=seed)
            for a, b in zip(trace.steps, trace.steps[1:]):
                slot = np.flatnonzero(g.neighbors(int(a)) == int(b))[0]
                eid = int(g.adj_edge_ids[g.indptr[int(a)] + slot])
                assert trace.covered_edges[eid]

    def test_triangle_coverage_matches_exhaustive_enumeration(self):
        # on the triangle every realization covers 2 edges at budget 1 and
        # all 3 once a second node is reached, so the expectation is exact
        g = triangle()
        for budget in range(1, 7):
            outcomes = exact_walk_distribution(g, 0, budget)
            expected = Fraction(0)
            per_outcome = []
            for seq in outcomes:
                covered = len(brute_covered_edges(g, set(seq)))
                per_outcome.append(covered)
                expected += Fraction(covered, len(outcomes))
            assert expected == (2 if budget == 1 else 3)
            for seed in range(6):
                trace, _ = run_walk(g, 0, budget, seed=seed)
                assert trace.covered_edge_count == (2 if budget == 1 else 3)
                assert trace.covered_edge_count in per_outcome

    def test_path4_mean_coverage_matches_enumeration(self):
        # 4-cycle is regular: enumerate the exact expected coverage at B=4,
        # then check the engine's empirical mean over many seeded walks
        g = cycle(4)
        outcomes = exact_walk_distribution(g, 0, 4)
        exact = float(
            sum(len(brute_covered_edges(g, set(seq))) for seq in outcomes)
            / len(outcomes)
        )
        sample = [
            run_walk(g, 0, 4, seed=s)[0].covered_edge_count for s in range(2000)
        ]
        assert abs(np.mean(sample) - exact) < 0.08

    def test_short_walk_memory_scales_with_budget_not_graph(self):
        # Reading the per-step tables must cache nothing n-sized on the trace.
        g = grid_2d(400, 400)
        # warm-up: first-call allocations of numpy/RNG
        run_walk(g, 0, 10, seed=1)[0].edge_count_per_step
        tracemalloc.start()
        try:
            walk = run_walk(g, 0, 10, seed=2)
            trace = walk[0]
            trace.edge_count_per_step, trace.covered_edge_count, trace.node_count_per_step
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walk[0].budget == 10
        assert retained < 64 * 1024

    def test_errors(self):
        lonely = Graph(2, [[0, 1]])
        with pytest.raises(ValueError):
            run_walk(lonely, 0, 0, seed=1)
        isolated = Graph(3, [[0, 1]])
        with pytest.raises(ValueError, match="isolated"):
            run_walk(isolated, 2, 3, seed=1)
        with pytest.raises(ValueError):
            run_walk(lonely, 9, 3, seed=1)


class TestRetrace:
    def test_start_retraces_to_itself(self):
        trace, _ = run_walk(triangle(), 1, 5, seed=3)
        assert retrace_to_start(trace, 1) == [1]

    def test_star_hub_retraces_to_leaf_start(self):
        trace, _ = run_walk(star(4), 2, 2, seed=0)
        assert retrace_to_start(trace, 0) == [0, 2]

    def test_paths_are_simple_adjacent_and_bounded(self):
        g = Graph(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [1, 4]])
        for seed in range(60):
            trace, _ = run_walk(g, 0, 10, seed=seed)
            for v in trace.first_visits[0]:
                path = retrace_to_start(trace, int(v))
                assert len(set(path)) == len(path)
                assert path[0] == v and path[-1] == 0
                assert len(path) - 1 <= trace.unique_nodes - 1
                assert_valid_path(g, path)

    def test_unvisited_node_rejected(self):
        trace, _ = run_walk(star(4), 1, 2, seed=0)
        unvisited = [v for v in range(5) if not trace.visited[v]][0]
        with pytest.raises(ValueError, match="not visited"):
            retrace_to_start(trace, unvisited)


class TestNaiveRoute:
    def test_shared_start_gives_zero_length_route(self):
        g = triangle()
        ti, _ = run_walk(g, 0, 4, seed=1)
        tj, _ = run_walk(g, 0, 4, seed=2)
        assert naive_route(ti, tj) == [0]

    def test_star_leaves_route_through_hub(self):
        g = star(4)
        ti, _ = run_walk(g, 1, 2, seed=1)
        tj, _ = run_walk(g, 2, 2, seed=2)
        assert naive_route(ti, tj) == [1, 0, 2]

    def test_disjoint_components_have_no_route(self):
        g = two_triangles()
        ti, _ = run_walk(g, 0, 5, seed=1)
        tj, _ = run_walk(g, 3, 5, seed=2)
        assert naive_route(ti, tj) is None

    def test_traces_of_two_graphs_are_refused(self):
        # Node ids of one graph name other nodes in another: this pair's
        # "route" began 0-168, which is no edge of the first graph.
        ti, _ = run_walk(preferential_attachment(300, 2, seed=4), 0, 60, seed=1)
        tj, _ = run_walk(preferential_attachment(300, 2, seed=5), 5, 60, seed=2)
        with pytest.raises(ValueError, match="two traces of one graph"):
            naive_route(ti, tj)

    def test_route_is_valid_and_never_beats_true_distance(self):
        g = cycle(10)
        oracle = {s: bfs_distances(g, s) for s in range(10)}
        found = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            u, v = [int(x) for x in rng.choice(10, size=2, replace=False)]
            ti, _ = run_walk(g, u, 6, seed=(seed, 0))
            tj, _ = run_walk(g, v, 6, seed=(seed, 1))
            route = naive_route(ti, tj)
            if route is None:
                continue
            found += 1
            assert route[0] == u and route[-1] == v
            assert_valid_path(g, route)
            assert len(route) - 1 >= int(oracle[u][v])
        assert found > 20


class TestCrossingTime:
    def test_start_inside_the_set_crosses_immediately(self):
        g = triangle()
        ti, _ = run_walk(g, 0, 3, seed=1)
        tj, _ = run_walk(g, 0, 3, seed=2)
        assert crossing_time(tj, ti.visited) == 1

    def test_disjoint_components_never_cross(self):
        g = two_triangles()
        ti, _ = run_walk(g, 0, 10, seed=1)
        tj, _ = run_walk(g, 3, 10, seed=2)
        assert crossing_time(tj, ti.visited) is None

    def test_first_entry_index_is_exact(self):
        g = path_graph(5)
        visited = np.array([False, False, True, True, True])
        tj, _ = run_walk(g, 0, 5, seed=4)
        t = crossing_time(tj, visited)
        assert t is not None
        assert visited[tj.steps[t - 1]]
        assert not visited[tj.steps[: t - 1]].any()

    @pytest.mark.parametrize(
        "mask", [np.arange(50), np.array([3, 7]), np.ones(50, dtype=np.int8), np.ones(49, dtype=bool)],
        ids=["all node ids", "two node ids", "int8 ones", "short bool"],
    )
    def test_a_mask_that_is_not_bool_of_shape_n_is_rejected(self, mask):
        # Any int array was gathered from: all 50 node ids gave crossing
        # time 4 (the first step off node 0), where every node's mask gives
        # 1, and [3, 7] raised IndexError.
        g = preferential_attachment(50, 2, seed=1)
        tj, _ = run_walk(g, 0, 20, seed=3)
        with pytest.raises(ValueError, match=r"^visited_i must be a bool array of shape \(50,\), got "):
            crossing_time(tj, mask)
        assert crossing_time(tj, np.ones(50, dtype=bool)) == 1


def reference_walk(adjacency: list[list[int]], start: int, budget: int, seed) -> list[int]:
    """Independent walk over sorted neighbor lists, drawing run_walk's uniforms."""
    seed = (seed,) if isinstance(seed, int) else seed
    steps = [start]
    for u in np.random.default_rng(seed).random(budget - 1).tolist():
        nbrs = adjacency[steps[-1]]
        steps.append(nbrs[min(int(u * len(nbrs)), len(nbrs) - 1)])
    return steps


def sorted_adjacency(g: Graph) -> list[list[int]]:
    """Neighbor lists rebuilt from the edge list, each sorted ascending."""
    adjacency = [set() for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adjacency[u].add(v)
        adjacency[v].add(u)
    return [sorted(nbrs) for nbrs in adjacency]


# (start, seed) of four 5000-step walks on preferential_attachment(2000, 3, seed=5)
HUB_WALKS = [(0, 1), (1999, 2), (17, (3, 4)), (500, walker_seed((8, 9), 5))]


def test_run_walk_equals_a_reference_walk_through_hubs():
    g = preferential_attachment(2000, 3, seed=5)
    adjacency = sorted_adjacency(g)
    for start, seed in HUB_WALKS:
        trace, _ = run_walk(g, start, 5000, seed)
        assert g.degrees[trace.steps].max() > 100  # the walk crosses hub rows
        assert trace.steps.tolist() == reference_walk(adjacency, start, 5000, seed)


def oracle_walks(case: str) -> list:
    if case == "pa2000-hubs":
        g = preferential_attachment(2000, 3, seed=5)
        return [run_walk(g, start, 5000, seed)[0] for start, seed in HUB_WALKS]
    if case == "plconfig20k":
        g = configuration_model(power_law_degrees(PowerLawParams(alpha=2.5, k_min=2, n=20_000), 3), 3)
        return [run_walk(g, int(np.argmax(g.degrees)), 20_000, 11)[0]]
    if case == "star":
        # Every other step returns to the hub, so almost every step revisits.
        return [run_walk(star(40), start, 3000, 4)[0] for start in (0, 7)]
    return [run_walk(path_graph(60), start, 4000, 5)[0] for start in (0, 31)]


@pytest.mark.parametrize("case", ["pa2000-hubs", "plconfig20k", "star", "path"])
def test_edge_counts_equal_the_sorted_kernel(case):
    for trace in oracle_walks(case):
        counts = trace.edge_count_per_step
        assert counts.dtype == np.int64 and not counts.flags.writeable
        assert counts.tolist() == sorted_edge_counts(trace).tolist()
        mask = np.zeros(trace.graph.n, dtype=bool)
        mask[trace.first_visits[0]] = True
        assert np.array_equal(trace.visited, mask)
        if case == "star":
            assert trace.unique_nodes < trace.budget // 20


def test_a_long_walk_holds_eight_bytes_per_step():
    # The uniforms are drawn a chunk at a time and each chunk's steps are
    # copied into the int64 row, so the peak is the row plus a fixed slack.
    g = grid_2d(300, 300)
    run_walk(g, 0, 1000, seed=1)  # warm-up: first-call allocations of numpy/RNG
    budget = 200_000
    tracemalloc.start()
    try:
        trace, _ = run_walk(g, 0, budget, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.steps.nbytes == 8 * budget
    assert peak < 8 * budget + 512 * 1024


def test_a_graph_keeps_its_oriented_table_and_a_count_keeps_nothing_graph_sized():
    g = grid_2d(400, 400)
    run_walk(grid_2d(3, 3), 0, 10, seed=1)[0].edge_count_per_step  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        run_walk(g, 0, 10, seed=1)[0].edge_count_per_step  # builds the table
        built, _ = tracemalloc.get_traced_memory()
        trace, _ = run_walk(g, 0, 10, seed=2)
        trace.edge_count_per_step, trace.covered_edge_count
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = 8 * (g.n + 1 + g.m)
    assert g._oriented is not None and sum(a.nbytes for a in oriented_arcs(g)) == table
    assert table <= built < table + 64 * 1024
    assert retained - built < 64 * 1024


def test_the_largest_uniform_times_a_degree_floors_to_the_last_neighbor():
    # run_walks moves to neighbor floor(u * deg) with no clamp to deg - 1.
    # numpy's uniforms are k * 2**-53 for k < 2**53, so the largest is:
    u = 1.0 - 2.0**-53
    assert u == np.nextafter(1.0, 0.0) and u < 1.0
    top = 2**25
    for lo in range(1, top + 1, 2**20):  # every degree 1..2**25, in 8 MB chunks
        d = np.arange(lo, min(lo + 2**20, top + 1), dtype=np.int64)
        assert np.array_equal((u * d).astype(np.int64), d - 1)  # the lockstep pick
    for d in [top + 1, 2**31 - 1, 2**31, 2**32 + 3, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]:
        assert floor(u * d) == d - 1  # the pick over plain ints
        assert int((u * np.array([d])).astype(np.int64)[0]) == d - 1


def test_walker_seed_streams_are_stable_and_distinct():
    assert walker_seed(5, 0) == (5, 0)
    assert walker_seed((5, 1), 2) == (5, 1, 2)
    g = cycle(20)
    a, _ = run_walk(g, 0, 50, seed=walker_seed(9, 0))
    b, _ = run_walk(g, 0, 50, seed=walker_seed(9, 1))
    assert (a.steps != b.steps).any()


@pytest.mark.parametrize("seed", [(1.5, 2), 1.5, 2.0, -1, (3, -2), "12", None, True, (2, True), np.True_], ids=repr)
def test_seeds_with_a_non_integral_or_negative_entry_are_rejected(seed):
    # (1.5, 2) walked as (1, 2), "12" as (1, 2), True as 1, and -1 failed
    # inside numpy.
    with pytest.raises(ValueError, match="^seed must be a non-negative integer or a sequence of them, got "):
        walker_seed(seed, 0)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        run_walk(cycle(5), 0, 10, seed)


@pytest.mark.parametrize("walker_id", [1.5, "3", -2, None, True, np.True_, 2**70], ids=repr)
def test_walker_ids_that_are_non_integral_or_negative_are_rejected(walker_id):
    # 1.5 derived (1, 1), "3" derived (1, 3), True derived (1, 1), and -2
    # failed inside numpy.
    refused = "^walker id (must be integral, got |must be at least 0$|out of range of int64$)"
    with pytest.raises(ValueError, match=refused):
        walker_seed(1, walker_id)
    assert walker_seed(1, np.float64(1.0)) == (1, 1)


def test_seeds_beyond_int64_are_kept_whole():
    assert walker_seed(2**70, 3) == (2**70, 3)
    assert walker_seed(1, np.int32(4)) == (1, 4)
    assert walker_seed((np.int64(4), 2**64), 0) == (4, 2**64, 0)
    a, _ = run_walk(cycle(20), 0, 50, seed=walker_seed(2**70, 0))
    b, _ = run_walk(cycle(20), 0, 50, seed=walker_seed(2**70 + 1, 0))
    assert (a.steps != b.steps).any()


@st.composite
def lockstep_cases(draw):
    """A graph with degree-1 nodes, k lanes from repeatable non-isolated
    starts, a budget (1 and 2 included) and int or tuple seeds."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a random tree (every leaf has degree 1) plus a few chords
    tree = np.stack([np.arange(1, n), rng.integers(0, np.arange(1, n))], axis=1)
    chords = rng.integers(0, n, size=(draw(st.integers(0, 3)), 2))
    g = Graph(n + draw(st.integers(0, 2)), np.concatenate([tree, chords]))  # extra nodes stay isolated
    k = draw(st.sampled_from([1, 2, 15, 16, 65]))  # both sides of _LOCKSTEP_LANES
    starts = rng.choice(n, size=k, replace=True).tolist()
    budget = draw(st.sampled_from([1, 2]) | st.integers(3, 40))
    base = draw(st.integers(0, 2**16) | st.tuples(st.integers(0, 99), st.integers(0, 99)))
    seeds = [walker_seed(base, lane) if lane % 3 else lane + 7 for lane in range(k)]
    return g, starts, budget, seeds


@settings(max_examples=80, deadline=None)
@given(lockstep_cases())
def test_run_walks_rows_equal_reference_walks(case):
    g, starts, budget, seeds = case
    steps = run_walks(g, starts, budget, seeds)
    assert steps.dtype == np.int64 and steps.flags.c_contiguous
    assert steps.shape == (len(starts), budget)
    adjacency = sorted_adjacency(g)
    for row, start, seed in zip(steps.tolist(), starts, seeds):
        assert row == reference_walk(adjacency, start, budget, seed)


@settings(max_examples=80, deadline=None)
@given(lockstep_cases())
def test_edge_counts_match_a_recount_after_every_step(case):
    g, starts, budget, seeds = case
    for start, seed in list(zip(starts, seeds))[:2]:
        trace, _ = run_walk(g, start, budget, seed)
        steps = trace.steps.tolist()
        recount = [len(brute_covered_edges(g, steps[: t + 1])) for t in range(budget)]
        assert trace.edge_count_per_step.tolist() == recount
        assert not trace.edge_count_per_step.flags.writeable
        covered = brute_covered_edges(g, steps)
        assert set(np.flatnonzero(trace.covered_edges).tolist()) == covered
        assert trace.covered_edge_count == len(covered)


@pytest.mark.parametrize("lanes", [1, 4, 15, 16, 40])
def test_a_shorter_budget_walks_a_prefix_of_the_longer_walk(lanes):
    # Both sides of _LOCKSTEP_LANES, and budgets on both sides of a _DRAW_CHUNK boundary.
    g = preferential_attachment(500, 2, seed=21)
    starts = np.random.default_rng(22).choice(g.n, size=lanes).tolist()
    seeds = [walker_seed(23, lane) for lane in range(lanes)]
    full = run_walks(g, starts, 9000, seeds)
    for budget in (1, 4096, 4097, 8193):
        assert np.array_equal(run_walks(g, starts, budget, seeds), full[:, :budget])


def test_run_walks_rejects_what_run_walk_rejects():
    g = Graph(4, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="isolated"):
        run_walks(g, [0, 3], 3, [1, 2])
    with pytest.raises(ValueError, match="out of range"):
        run_walks(g, [0, 4], 3, [1, 2])
    with pytest.raises(ValueError, match="out of range"):
        run_walks(g, [0, 2**70], 3, [1, 2])  # beyond int64
    with pytest.raises(ValueError, match="budget"):
        run_walks(g, [0, 1], 0, [1, 2])
    with pytest.raises(ValueError, match="2 starts but 1 seeds"):
        run_walks(g, [0, 1], 3, [1])


def test_walks_reject_non_integral_starts_and_budgets():
    # Each was truncated (node 1, budget 3) or failed late with a TypeError.
    g = Graph(4, [[0, 1], [1, 2], [2, 3]])
    with pytest.raises(ValueError, match="start nodes must be integral, got 1.5"):
        run_walk(g, 1.5, 3, 1)
    with pytest.raises(ValueError, match="start nodes must be integral, got 1.5"):
        run_walks(g, [0, 1.5], 3, [1, 2])
    with pytest.raises(ValueError, match="budget must be integral, got 3.5"):
        run_walks(g, [0, 1], 3.5, [1, 2])
    trace, _ = run_walk(g, np.int64(1), 3.0, 1)
    assert type(trace.start) is int and trace.budget == 3
