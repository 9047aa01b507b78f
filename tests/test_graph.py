import gc
import io
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwtopo import (
    UNREACHABLE,
    EdgeListParseError,
    ExperimentConfig,
    Graph,
    degree_moments,
    giant_component,
    grid_2d,
    load_edge_list,
    preferential_attachment,
    stats_report,
    write_edge_list,
)
from rwtopo import graph as graph_module
from rwtopo.graph import DegreeMoments, bfs_distances, component_labels, oriented_arcs, pair_distances
from rwtopo.walker import retrace_to_start, run_walk, run_walks
from helpers import adjacency_lists, degree_multiset, masked, path_graph, queue_bfs, star, triangle, two_triangles


class TestLoadEdgeList:
    def test_triangle(self):
        g = load_edge_list(b"0 1\n1 2\n2 0\n")
        assert (g.n, g.m) == (3, 3)

    def test_duplicates_reverse_and_self_loops_dropped(self):
        g = load_edge_list(b"0 1\n0 1\n1 0\n1 1\n")
        assert (g.n, g.m) == (2, 1)

    def test_star(self):
        g = load_edge_list(b"0 1\n0 2\n0 3\n0 4\n")
        assert (g.n, g.m) == (5, 4)
        assert g.degree(0) == 4

    def test_comments_blank_lines_and_crlf(self):
        g = load_edge_list(b"# header\r\n\r\n0 1\r\n# mid\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_remap_preserves_first_appearance_order(self):
        g = load_edge_list(b"7 3\n3 20\n")
        assert g.original_ids.tolist() == [7, 3, 20]
        assert (g.n, g.m) == (3, 2)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        plain = "7 3\n3 20\n"
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + plain.encode())
        want = load_edge_list(plain.encode())
        for source in (b"\xef\xbb\xbf" + plain.encode(), path, str(path), io.StringIO("\ufeff" + plain),
                       io.BytesIO(b"\xef\xbb\xbf" + plain.encode())):
            got = load_edge_list(source)
            for name in ("n", "m", "edges", "indptr", "adj", "adj_edge_ids", "original_ids"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (source, name)

    @pytest.mark.parametrize("data, line", [(b"\xef\xbb\xbf\xef\xbb\xbf1 2\n", 1), (b"1 2\n\xef\xbb\xbf2 3\n", 2),
                                            (b"1 \xef\xbb\xbf2\n", 1)])
    def test_byte_order_mark_elsewhere_is_an_error_on_its_line(self, data, line):
        with pytest.raises(EdgeListParseError, match=f"line {line}: non-integer node id"):
            load_edge_list(data)

    def test_original_ids_default_to_dense_ids(self):
        g = Graph(4, [[0, 1], [2, 3]])
        assert g.original_ids.dtype == np.int64 and g.original_ids.tolist() == [0, 1, 2, 3]

    def test_malformed_token_reports_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(b"0 1\n1 x\n")

    def test_wrong_arity_reports_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            load_edge_list(b"0 1 2\n")

    def test_empty_input_is_an_error(self):
        with pytest.raises(EdgeListParseError, match="empty"):
            load_edge_list(b"# nothing here\n")

    def test_accepts_file_objects_and_paths(self, tmp_path):
        g = load_edge_list(io.BytesIO(b"0 1\n"))
        assert g.m == 1
        p = tmp_path / "e.txt"
        p.write_text("0 1\n2 0\n")
        assert load_edge_list(p).m == 2

    def test_round_trip_preserves_degree_structure(self, tmp_path):
        text = b"5 9\n9 2\n2 5\n2 7\n7 11\n11 5\n"
        g = load_edge_list(text)
        buf = io.StringIO()
        write_edge_list(g, buf)
        g2 = load_edge_list(buf.getvalue().encode())
        assert (g2.n, g2.m) == (g.n, g.m)
        assert degree_multiset(g2) == degree_multiset(g)


class TestGraphStructure:
    def test_adjacency_is_symmetric_and_sorted(self):
        g = load_edge_list(b"0 2\n0 1\n2 1\n2 3\n")
        for u in range(g.n):
            nbrs = g.neighbors(u)
            assert list(nbrs) == sorted(nbrs)
            for v in nbrs:
                assert u in g.neighbors(v)

    def test_degree_sum_is_twice_edge_count(self):
        g = load_edge_list(b"0 1\n1 2\n2 3\n3 0\n0 2\n")
        assert int(g.degrees.sum()) == 2 * g.m

    def test_has_edge(self):
        g = triangle()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 0)

    @pytest.mark.parametrize("v", [-1, 4, 1.5, "1", None, True, np.True_], ids=repr)
    @pytest.mark.parametrize(
        "query",
        [Graph.degree, Graph.neighbors, lambda g, v: g.has_edge(v, 0), lambda g, v: g.has_edge(0, v)],
        ids=["degree", "neighbors", "has_edge(v, 0)", "has_edge(0, v)"],
    )
    def test_node_ids_outside_the_graph_or_not_integral_are_rejected(self, query, v):
        # On this path degree(-1) read -6, neighbors(-1) [] and has_edge(-1, 0)
        # False; degree(4) and degree(1.5) raised IndexError, and degree(True)
        # read node 1.
        g = path_graph(4)
        with pytest.raises(ValueError, match="^node id (must be integral|out of range 0..3), got "):
            query(g, v)
        assert g.degree(np.int64(3)) == 1 and g.has_edge(np.int32(2), 3) and g.degree(np.float64(2.0)) == 2

    def test_edge_ids_partition_incident_sets(self):
        g = star(4)
        arcs, counts = graph_module._arc_positions(g.indptr, np.arange(g.n))
        incident = np.split(g.adj_edge_ids[arcs], np.cumsum(counts)[:-1])
        assert sorted(incident[0].tolist()) == [0, 1, 2, 3]
        for leaf in range(1, 5):
            assert incident[leaf].size == 1

    @pytest.mark.parametrize(
        "n, edges, original_ids, message",
        [
            (3, [[0, 1.7]], None, "edge endpoints must be integral, got 1.7"),
            (2.5, [[0, 1]], None, "n must be integral, got 2.5"),
            (2, [[0, 1]], [10.5, 11], "original_ids must be integral, got 10.5"),
            (3, [[0, np.nan]], None, "edge endpoints must be integral, got nan"),
            # Read as the edges 0-1, 2-3 and 4-5, and as numpy's "cannot reshape".
            (6, [[0, 1, 2], [3, 4, 5]], None, r"edge endpoints must be an array of shape \(k, 2\), got shape \(2, 3\)"),
            (3, [0, 1, 2], None, r"edge endpoints must be an array of shape \(k, 2\), got shape \(3,\)"),
            # Each raised numpy's own error, naming no argument.
            (3, [[0, 1], [2]], None, "edge endpoints must be a rectangular array of numbers"),
            (3, [[0, "x"]], None, r"edge endpoints must be integral, got \[\['0', 'x'\]\]"),
        ],
    )
    def test_non_integral_values_are_rejected_not_truncated(self, n, edges, original_ids, message):
        with pytest.raises(ValueError, match=message):
            Graph(n, edges, original_ids=original_ids)

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2)), np.empty(0, dtype=np.int64)], ids=repr)
    def test_an_empty_edge_array_builds_an_edgeless_graph(self, edges):
        g = Graph(3, edges)
        assert (g.n, g.m) == (3, 0) and g.indptr.tolist() == [0, 0, 0, 0]
        assert g.edges.shape == (0, 2) and g.edges.dtype == g.adj.dtype == g.adj_edge_ids.dtype == np.int64

    def test_whole_floats_are_accepted_and_integer_input_is_not_copied(self):
        assert Graph(3.0, [[0.0, 1.0], [1.0, 2.0]]).edges.tolist() == [[0, 1], [1, 2]]
        edges, original_ids = np.array([[0, 1], [1, 2]]), np.array([7, 5, 6])
        g = Graph(3, edges, original_ids=original_ids)
        assert g.original_ids is original_ids
        assert graph_module._int64s(edges, "edges") is edges

    def test_bool_node_ids_are_rejected_not_read_as_0_and_1(self):
        # Each was read as the node ids 1, 0, 1, ...
        g = Graph(6, [[i, (i + 1) % 6] for i in range(6)])
        flags = np.array([True, False, True])
        entry_points = [
            ("node ids", lambda: pair_distances(g, flags)),
            ("visited node ids", lambda: pair_distances(g, [0, 2], [flags, [2]])),
            ("source", lambda: bfs_distances(g, np.True_)),
            ("start nodes", lambda: run_walks(g, np.array([True]), 3, [1])),
            ("node", lambda: retrace_to_start(run_walk(g, 0, 4, 1)[0], True)),
            ("fixed_starts", lambda: ExperimentConfig(seed=1, h=2, fixed_starts=np.array([True, False]))),
        ]
        for what, call in entry_points:
            with pytest.raises(ValueError, match=f"^{what} must be integral, got bool$"):
                call()


class TestStorage:
    def test_a_built_graph_holds_only_its_csr_and_labels(self):
        g = Graph(5, [[0, 1], [1, 2], [3, 4], [2, 0]], original_ids=[9, 8, 7, 6, 5])
        held = [r for r in gc.get_referents(g) if isinstance(r, np.ndarray)]
        assert sorted(map(id, held)) == sorted(map(id, (g.indptr, g.adj, g.original_ids)))
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2], [3, 4]]
        assert g.edges is not g.edges  # derived on every read, never kept
        assert len([r for r in gc.get_referents(g) if isinstance(r, np.ndarray)]) == 3

    def test_edge_ids_are_built_on_first_read_and_kept_read_only(self):
        g = Graph(5, [[0, 1], [1, 2], [3, 4], [2, 0]])
        ids = g.adj_edge_ids
        assert any(r is ids for r in gc.get_referents(g))
        assert g.adj_edge_ids is ids and not ids.flags.writeable
        assert ids.tolist() == [0, 1, 0, 2, 1, 2, 3, 3]
        with pytest.raises(ValueError):
            ids[0] = 1

    def test_a_build_peaks_below_five_times_the_csr(self):
        pa = preferential_attachment(50_000, 3, seed=1)
        edges = pa.edges[:, ::-1].copy()  # every pair given high end first
        csr_bytes = (pa.n + 1 + 2 * pa.m) * 8
        Graph(pa.n, edges)  # warm up outside the trace
        tracemalloc.start()
        try:
            Graph(pa.n, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * csr_bytes, f"build peaked at {peak / csr_bytes:.2f} times the CSR's bytes"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=40
    )
)
def test_construction_invariants_hold_for_arbitrary_edge_lists(pairs):
    g = Graph(15, np.array(pairs))
    assert int(g.degrees.sum()) == 2 * g.m
    assert (g.edges[:, 0] != g.edges[:, 1]).all()
    for u in range(g.n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


class TestDegreeMoments:
    def test_triangle_is_two_regular(self):
        mom = degree_moments(triangle())
        assert (mom.mean_degree, mom.second_moment, mom.q) == (2.0, 4.0, 1.0)

    def test_star_moments_by_hand(self):
        # degrees {4,1,1,1,1}: <k> = 8/5, <k^2> = 20/5, q = (4-1.6)/1.6
        mom = degree_moments(star(4))
        assert mom.mean_degree == pytest.approx(1.6)
        assert mom.second_moment == pytest.approx(4.0)
        assert mom.q == pytest.approx(1.5)

    def test_mean_degree_times_n_is_exactly_2m(self):
        for g in (triangle(), star(7), two_triangles()):
            assert degree_moments(g).mean_degree * g.n == pytest.approx(2 * g.m)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError):
            degree_moments(Graph(3, []))

    def test_jensen_violation_rejected(self):
        with pytest.raises(ValueError):
            DegreeMoments(mean_degree=3.0, second_moment=4.0)


class TestGiantComponent:
    def test_triangle_beats_isolated_edge(self):
        g = Graph(5, [[0, 1], [1, 2], [2, 0], [3, 4]])
        gc, mapping = giant_component(g)
        assert (gc.n, gc.m) == (3, 3)
        assert mapping[3] == -1 and mapping[4] == -1

    def test_connected_graph_maps_to_itself(self):
        g = triangle()
        gc, mapping = giant_component(g)
        assert (gc.n, gc.m) == (g.n, g.m)
        assert mapping.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("labelled", [False, True])
    def test_connected_graph_shares_its_arrays_with_the_rebuilt_graph(self, labelled):
        if labelled:  # sparse labels, given by the edge list
            lines = (b"%d %d\n" % (7 * u + 3, 7 * v + 3) for u, v in grid_2d(6, 5).edges)
            g = load_edge_list(b"".join(lines))
        else:
            g = preferential_attachment(300, 2, seed=4)
        gc, mapping = giant_component(g)
        assert gc is g  # a connected graph is its own giant component
        rebuilt = Graph(g.n, g.edges, original_ids=g.original_ids) if labelled else Graph(g.n, g.edges)
        for name in ("edges", "indptr", "adj", "adj_edge_ids", "original_ids"):
            got, want = getattr(gc, name), getattr(rebuilt, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert (gc.n, gc.m) == (g.n, g.m)
        assert mapping.dtype == np.int64 and mapping.tolist() == list(range(g.n))

    def test_components_are_labelled_once_and_read_only(self):
        g = Graph(5, [[0, 1], [1, 2], [3, 4]])
        labels, sizes = component_labels(g)
        assert labels.tolist() == [0, 0, 0, 1, 1] and sizes.tolist() == [3, 2]
        again = component_labels(g)
        assert again[0] is labels and again[1] is sizes
        for a in (labels, sizes):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1

    def test_100k_two_node_components_are_labelled_in_under_a_second(self):
        g = Graph(200_000, np.arange(200_000).reshape(-1, 2))
        start = time.perf_counter()
        labels, sizes = component_labels(g)
        elapsed = time.perf_counter() - start
        assert np.array_equal(labels, np.arange(200_000) // 2) and (sizes == 2).all()
        assert elapsed < 1.0, f"{elapsed:.2f} s to label 100,000 two-node components"

    def test_a_200k_node_path_is_labelled_in_under_a_second(self):
        # The hub's search is capped at n.bit_length() levels; uncapped, it
        # would run one level per node before the path is hooked.
        g = Graph(200_000, np.stack([np.arange(199_999), np.arange(1, 200_000)], axis=1))
        start = time.perf_counter()
        labels, sizes = component_labels(g)
        elapsed = time.perf_counter() - start
        assert not labels.any() and sizes.tolist() == [200_000]
        assert elapsed < 1.0, f"{elapsed:.2f} s to label a 200,000-node path"

    def test_hooking_a_path_holds_one_forest_and_one_jump_buffer(self):
        # Hooking every edge of a 100k-node path holds both edge columns, the
        # forest, one jump buffer and the two hooking temporaries: about 6.3
        # times 8n bytes.  A second forest alive through the jumps read 7.3.
        n = 100_000
        g = Graph(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))
        component_labels(Graph(2, [[0, 1]]))  # warm up outside the trace
        tracemalloc.start()
        try:
            component_labels(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.75 * 8 * n, f"labelling peaked at {peak / (8 * n):.2f} times 8n bytes"

    def test_the_hubs_star_is_settled_and_the_path_beside_it_hooked(self):
        # Path 0..39; star on 40..52 with its hub at 52, so the star's tree
        # must be rooted at 40, its smallest member, not at the hub.
        path = [[v, v + 1] for v in range(39)]
        g = Graph(53, path + [[52, leaf] for leaf in range(40, 52)])
        hooked, components = [], graph_module._components

        def spy(parent, a, b):
            hooked.append(np.union1d(a, b).tolist())
            return components(parent, a, b)

        with mock.patch.object(graph_module, "_components", spy):
            labels, sizes = component_labels(g)
        assert hooked == [list(range(40))]  # only the path's arcs are hooked
        assert labels.tolist() == [0] * 40 + [1] * 13 and sizes.tolist() == [40, 13]
        gc, mapping = giant_component(g)
        assert (gc.n, gc.m) == (40, 39) and mapping.tolist() == list(range(40)) + [-1] * 13

    @pytest.mark.parametrize("n", [1, 5])
    def test_an_edgeless_graph_has_one_component_per_node(self, n):
        g = Graph(n, [])
        labels, sizes = component_labels(g)
        assert labels.tolist() == list(range(n)) and sizes.tolist() == [1] * n
        gc, mapping = giant_component(g)
        assert gc.n == 1 and mapping.tolist() == [0] + [-1] * (n - 1)

    def test_tie_break_prefers_component_of_node_zero(self):
        g = Graph(4, [[0, 1], [2, 3]])
        gc, mapping = giant_component(g)
        assert gc.n == 2
        assert mapping[0] == 0 and mapping[1] == 1
        assert mapping[2] == -1

    def test_tie_break_uses_original_ids(self):
        # dense order disagrees with original labels: {5,7} vs {1,2}
        g = load_edge_list(b"5 7\n1 2\n")
        gc, _ = giant_component(g)
        assert sorted(gc.original_ids.tolist()) == [1, 2]

    def test_output_is_connected(self):
        g = Graph(7, [[0, 1], [1, 2], [3, 4], [4, 5], [5, 6], [6, 3]])
        gc, _ = giant_component(g)
        dist = bfs_distances(gc, 0)
        assert (dist != UNREACHABLE).all()


class TestBfs:
    def test_four_cycle(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3], [3, 0]])
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 1]

    def test_star_from_leaf(self):
        dist = bfs_distances(star(4), 1)
        assert dist[0] == 1
        assert dist[1] == 0
        assert all(dist[v] == 2 for v in (2, 3, 4))

    def test_disconnected_pair_unreachable(self):
        dist = bfs_distances(two_triangles(), 0)
        assert dist[4] == UNREACHABLE

    def test_source_distance_zero_and_edge_lipschitz(self):
        g = load_edge_list(b"0 1\n1 2\n2 3\n3 0\n0 2\n2 4\n4 5\n")
        dist = bfs_distances(g, 3)
        assert dist[3] == 0
        for u, v in g.edges:
            assert abs(int(dist[u]) - int(dist[v])) <= 1

    def test_edge_mask_restricts_traversal(self):
        g = triangle()
        mask = np.array([True, False, False])  # only edge (0,1) usable
        dist = bfs_distances(masked(g, mask), 0)
        assert dist.tolist() == [0, 1, UNREACHABLE]

    def test_a_mask_in_the_third_place_is_read_as_max_level(self):
        # The third parameter was once an edge mask; a mask passed there now
        # must fail on max_level, not search anything.
        g = Graph(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
        with pytest.raises(ValueError, match="^max_level "):
            bfs_distances(g, 0, np.array([True, False, True, False]))

    @pytest.mark.parametrize("source", [1.5, np.float64(0.5), "1"])
    def test_non_integral_source_is_rejected(self, source):
        with pytest.raises(ValueError, match="source must be integral"):
            bfs_distances(star(4), source)

    @pytest.mark.parametrize("source", [-1, 5])
    def test_source_out_of_range_is_rejected(self, source):
        with pytest.raises(ValueError, match="out of range"):
            bfs_distances(star(4), source)

    @pytest.mark.parametrize(
        "source, cut",
        [(7, False), (6, False), (0, True), (np.int32(2), False), (np.array(3), True)],
        ids=["isolated", "degree-1", "masked-row-empty", "numpy-int", "0-d-array"],
    )
    def test_level_one_slice_matches_queue_bfs(self, source, cut):
        # Node 7 has no edge, node 6 one, and the mask drops both of node 0's.
        g = Graph(8, [[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [5, 6]])
        mask = ~(g.edges == 0).any(axis=1) if cut else np.ones(g.m, dtype=bool)
        expected = queue_bfs(adjacency_lists(g.n, g.edges[mask]), int(source))
        assert np.array_equal(bfs_distances(masked(g, mask if cut else None), source), expected)

    def test_subgraph_distances_never_beat_full_graph(self):
        g = load_edge_list(b"0 1\n1 2\n2 3\n3 0\n0 2\n2 4\n4 5\n5 0\n")
        full = bfs_distances(g, 0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            mask = rng.random(g.m) < 0.6
            sub = bfs_distances(masked(g, mask), 0)
            for v in range(g.n):
                if sub[v] != UNREACHABLE:
                    assert sub[v] >= full[v]


@st.composite
def oriented_cases(draw) -> Graph:
    """A random graph, a cycle, a grid or a star (the last three full of
    degree ties), with a few isolated nodes, under shuffled node ids."""
    kind = draw(st.sampled_from(["random", "cycle", "grid", "star"]))
    if kind == "random":
        k = draw(st.integers(2, 14))
        edges = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=40))
    elif kind == "cycle":
        k = draw(st.integers(3, 12))
        edges = [(i, (i + 1) % k) for i in range(k)]
    elif kind == "grid":
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 5))
        k = rows * cols
        edges = [(i, i + 1) for i in range(k) if (i + 1) % cols] + [(i, i + cols) for i in range(k - cols)]
    else:
        k = draw(st.integers(2, 12))
        edges = [(0, leaf) for leaf in range(1, k)]
    n = k + draw(st.integers(0, 3))
    ids = draw(st.permutations(range(n)))
    return Graph(n, np.array([(ids[u], ids[v]) for u, v in edges], dtype=np.int64).reshape(-1, 2))


@settings(max_examples=150, deadline=None)
@given(oriented_cases())
def test_oriented_arcs_hold_each_edge_once_at_its_lower_end(g):
    indptr, adj = oriented_arcs(g)
    deg = g.degrees.tolist()
    tails = np.repeat(np.arange(g.n), np.diff(indptr)).tolist()
    assert sorted((min(u, v), max(u, v)) for u, v in zip(tails, adj.tolist())) == sorted(map(tuple, g.edges.tolist()))
    assert all((deg[u], u) < (deg[v], v) for u, v in zip(tails, adj.tolist()))
    for u in range(g.n):  # each row is its node's adjacency, filtered in place
        above = [v for v in g.neighbors(u).tolist() if (deg[u], u) < (deg[v], v)]
        assert adj[indptr[u] : indptr[u + 1]].tolist() == above
    assert max(np.diff(indptr), default=0) ** 2 <= 2 * g.m
    for a in (indptr, adj):
        assert a.dtype == np.int64 and not a.flags.writeable
    again = oriented_arcs(g)
    assert again[0] is indptr and again[1] is adj
    assert indptr.nbytes + adj.nbytes == 8 * (g.n + 1 + g.m)


def test_stats_report_fields():
    g = Graph(5, [[0, 1], [1, 2], [2, 0], [3, 4]])
    report = stats_report(g)
    assert report["n"] == 5 and report["m"] == 4
    assert report["mean_degree"] == pytest.approx(8 / 5)
    assert report["q"] == pytest.approx((report["second_moment"] - 8 / 5) / (8 / 5))
    assert report["giant_component_fraction"] == pytest.approx(3 / 5)
