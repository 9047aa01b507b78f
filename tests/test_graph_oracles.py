"""Differential tests of the BFS kernels against networkx and brute force.

Random G(n, p) graphs run from edgeless to dense, so they carry isolated
nodes, many small components and equal-size largest components; some have
remapped original ids, and searches run on subgraphs cut by edge masks:
random ones, and G*-shaped ones holding every edge incident to a random
node set.
Hub-heavy graphs (small preferential-attachment graphs and stars) make the
single-source search pull.  Component labelling also runs on raw node pairs
in any order.
Pair-distance searches also run on long path-like graphs, on source sets
that cross the 64-source blocks, and under visited sets that groups of
sources share.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwtopo import UNREACHABLE, Graph, giant_component, preferential_attachment
from rwtopo.graph import bfs_distances, component_labels
from rwtopo import graph as graph_module
from rwtopo.graph import giant_members, pair_distances
from helpers import masked

nx = pytest.importorskip("networkx")


@given(
    st.lists(st.integers(0, 30), max_size=100)
    | st.builds(lambda v, k: [v] * k, st.integers(0, 30), st.integers(1, 20))
)
def test_distinct_keeps_each_value_once(values):
    v = np.asarray(values, dtype=np.int64)
    kept = graph_module._distinct(v, np.empty(v.max(initial=0) + 1, np.int64))
    assert np.array_equal(np.sort(kept), np.unique(v))


@st.composite
def graphs(draw):
    """G(n, p) graphs from edgeless to dense, some with remapped original ids."""
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = np.triu_indices(n, k=1)
    keep = rng.random(u.size) < p
    originals = draw(st.none() | st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    return Graph(n, np.stack([u[keep], v[keep]], axis=1), original_ids=originals)


@st.composite
def mostly_isolated_graphs(draw):
    """Few random edges on many nodes: mostly isolated nodes and small components."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Graph(n, rng.integers(0, n, size=(n // 5, 2)))


@st.composite
def path_like_graphs(draw):
    """A random Hamiltonian path plus a few chords: long searches that push."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    chords = rng.integers(0, n, size=(draw(st.integers(0, 4)), 2))
    return Graph(n, np.concatenate([np.stack([order[:-1], order[1:]], axis=1), chords]))


@st.composite
def hub_heavy_graphs(draw):
    """Small preferential-attachment graphs, and stars beside isolated nodes
    under shuffled ids: a hub's level outweighs the unlabelled arcs, so the
    flood pulls."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return preferential_attachment(draw(st.integers(5, 300)), draw(st.integers(1, 3)), seed=seed)
    leaves, isolated = draw(st.integers(1, 40)), draw(st.integers(0, 10))
    ids = np.random.default_rng(seed).permutation(leaves + 1 + isolated)
    return Graph(ids.size, ids[[[0, i] for i in range(1, leaves + 1)]].reshape(-1, 2))


@st.composite
def edge_masks(draw, g: Graph):
    """No mask, a random one, or a G*-shaped one: every edge incident to a
    random node set, as a group of walks covers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.none() | st.sampled_from([0.3, 0.6, 0.9]))
    if keep is None:
        return None
    if draw(st.booleans()):
        return rng.random(g.m) < keep
    visited = rng.random(g.n) < keep / 3
    return visited[g.edges].any(axis=1)


@st.composite
def visited_sets(draw, g: Graph, nodes: np.ndarray):
    """None, or one node-id array per source: sources are dealt into groups,
    members of a group share one array object, and each array holds its
    members' nodes plus random others (none at all for some groups)."""
    if draw(st.booleans()):
        return None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    group = rng.integers(0, draw(st.integers(1, 5)), size=nodes.size)
    arrays = {}
    for label in np.unique(group).tolist():
        inside = rng.random(g.n) < draw(st.sampled_from([0.0, 0.05, 0.3, 0.9]))
        inside[nodes[group == label]] = True
        arrays[label] = np.flatnonzero(inside)
    return [arrays[label] for label in group.tolist()]


@st.composite
def pair_searches(draw):
    """A graph, k nodes (k crossing the 64-source blocks, with repeats when k
    exceeds n) and their visited sets."""
    g = draw(graphs() | path_like_graphs())
    k = draw(st.sampled_from([1, 2, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = rng.choice(g.n, size=k, replace=k > g.n)
    return g, nodes, draw(visited_sets(g, nodes))


@st.composite
def masked_searches(draw):
    g = draw(graphs() | hub_heavy_graphs())
    return g, draw(st.integers(0, g.n - 1)), draw(edge_masks(g))


def to_nx(g: Graph, mask=None):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges.tolist() if mask is None else g.edges[mask].tolist())
    return h


@settings(max_examples=100, deadline=None)
@given(masked_searches())
def test_bfs_distances_match_networkx_on_the_masked_subgraph(case):
    g, source, mask = case
    expected = np.full(g.n, UNREACHABLE)
    for v, d in nx.single_source_shortest_path_length(to_nx(g, mask), source).items():
        expected[v] = d
    assert bfs_distances(masked(g, mask), source).tolist() == expected.tolist()


def one_search_per_source(g: Graph, nodes, visited) -> list[list[int]]:
    """pair_distances' reference: a BFS from each source over the subgraph
    of the edges incident to its visited set, UNREACHABLE at nodes outside
    the set."""
    rows = []
    for a, source in enumerate(nodes):
        if visited is None:
            rows.append(bfs_distances(g, int(source))[nodes].tolist())
            continue
        inside = np.zeros(g.n, dtype=bool)
        inside[np.asarray(visited[a], dtype=np.int64)] = True
        row = bfs_distances(masked(g, inside[g.edges].any(axis=1)), int(source))[nodes]
        row[~inside[nodes]] = UNREACHABLE
        rows.append(row.tolist())
    return rows


@pytest.mark.parametrize("push_share", [0.0, graph_module._PUSH_SHARE, np.inf], ids=["pull", "switch", "push"])
@settings(max_examples=60, deadline=None)
@given(case=pair_searches())
@example(case=(Graph(4, [[2, 3]]), np.array([0, 1]), [np.array([0]), np.array([1])]))  # a block keeps no arc
def test_pair_distances_match_one_search_per_source(push_share, case):
    g, nodes, visited = case
    expected = one_search_per_source(g, nodes, visited)
    with mock.patch.object(graph_module, "_PUSH_SHARE", push_share):
        assert pair_distances(g, nodes, visited).tolist() == expected


def test_pair_distances_across_components_and_isolated_sources():
    # triangles {0,1,2} and {3,4,5}, a path 6-7-8, isolated nodes 9 and 10
    g = Graph(11, [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3], [6, 7], [7, 8]])
    u = UNREACHABLE
    assert pair_distances(g, [9, 0, 8, 2, 10, 6, 3]).tolist() == [
        [0, u, u, u, u, u, u],
        [u, 0, u, 1, u, u, u],
        [u, u, 0, u, u, 2, u],
        [u, 1, u, 0, u, u, u],
        [u, u, u, u, 0, u, u],
        [u, u, 2, u, u, 0, u],
        [u, u, u, u, u, u, 0],
    ]
    everything = np.arange(g.n)
    assert pair_distances(g, [9, 0, 8, 2], [everything] * 4).tolist() == pair_distances(g, [9, 0, 8, 2]).tolist()
    # Each set holds only its source's node: 7 is reached but never left.
    assert pair_distances(g, [6, 8], [[6], [8]]).tolist() == [[0, u], [u, 0]]
    # 6 and 8 visited, 7 not: a bit stranded on 7 may still enter 8.
    assert pair_distances(g, [6, 8], [[6, 8], [8]]).tolist() == [[0, 2], [u, 0]]
    assert pair_distances(g, [9, 6, 9], [[9], [6], [9]]).tolist() == [[0, u, 0], [u, 0, u], [0, u, 0]]
    assert pair_distances(g, [], []).shape == pair_distances(g, []).shape == (0, 0)
    with pytest.raises(ValueError, match="out of range"):
        pair_distances(g, [0, 11])
    with pytest.raises(ValueError, match="out of range"):
        pair_distances(g, [0], [[0, 11]])
    with pytest.raises(ValueError, match=r"node 0 \(entry 1\) is not in its visited set"):
        pair_distances(g, [1, 0], [[0, 1], [1]])
    with pytest.raises(ValueError, match=r"node 9 \(entry 0\) is not in its visited set"):
        pair_distances(g, [9], [np.array([], dtype=np.int64)])


def test_pair_distances_rejects_non_integral_node_ids():
    # Both were truncated to node 1, which is in the set.
    g = Graph(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="node ids must be integral, got 1.5"):
        pair_distances(g, [0, 1.5])
    with pytest.raises(ValueError, match="visited node ids must be integral, got 1.5"):
        pair_distances(g, [0, 1], [np.array([0.0, 1.5]), [1]])
    assert pair_distances(g, [0.0, 2.0], [np.array([0.0, 1.0, 2.0])] * 2).tolist() == [[0, 2], [2, 0]]


# A star: hub 0 with leaves 1..40, and a path 41-42-43 beside it.
STAR_AND_PATH = Graph(44, [[0, i] for i in range(1, 41)] + [[41, 42], [42, 43]])
# The same star, and a path 41-42-...-60 beside it.
FRINGE_HUB = Graph(61, [[0, i] for i in range(1, 41)] + [[i, i + 1] for i in range(41, 60)])


@pytest.mark.parametrize(
    "g, nodes, visited, pushes",
    [
        # a path with every other node visited: level k's frontier is
        # {k, 198 - k} (and 199 at level 1), so every level pushes it
        (
            Graph(200, [[i, i + 1] for i in range(199)]),
            [0, 198],
            [np.arange(0, 200, 2)] * 2,
            [[0, 198]] + [sorted({k, 198 - k} | ({199} if k == 1 else set())) for k in range(1, 198)],
        ),
        # the sources' level is pushed; the unvisited hub's 40 of 80 arcs are
        # pulled
        (Graph(41, [[0, i] for i in range(1, 41)]), [1, 2], [np.arange(1, 41)] * 2, [[1, 2]]),
        # the share counts kept arcs only: the visited path keeps its 38
        # arcs, and the unvisited hub only its arcs to 1 and 2, so the hub's
        # level has 2 of the 42 kept arcs and pushes, where its 40 of g's 118
        # arcs would pull
        (FRINGE_HUB, [1, 2], [np.r_[1, 2, 41:61]] * 2, [[1, 2], [0]]),
        # the star touches no visited set, so 41 and 43 have 2 of the 4 kept
        # arcs and pull, where 2 of g's 84 arcs would push
        (STAR_AND_PATH, [41, 43], [np.array([41, 43])] * 2, []),
    ],
    ids=["frontier-pushed", "frontier-pulled", "fringe-hub-pushed", "untouched-star-pulled"],
)
def test_levels_push_or_pull_by_their_share_of_the_arcs(g, nodes, visited, pushes):
    pushed = []
    arc_positions = graph_module._arc_positions

    def spy(indptr, frontier):
        pushed.append(sorted(frontier.tolist()))
        return arc_positions(indptr, frontier)

    with mock.patch.object(graph_module, "_arc_positions", spy):
        dist = pair_distances(g, nodes, visited)
    assert dist.tolist() == one_search_per_source(g, nodes, visited)
    assert pushed == pushes


@settings(max_examples=100, deadline=None)
@given(graphs() | mostly_isolated_graphs() | path_like_graphs() | hub_heavy_graphs())
def test_component_labels_match_networkx(g):
    labels, sizes = component_labels(g)
    components = sorted(nx.connected_components(to_nx(g)), key=min)
    assert sizes.tolist() == [len(c) for c in components]
    for label, members in enumerate(components):  # numbered by smallest member
        assert np.flatnonzero(labels == label).tolist() == sorted(members)


@st.composite
def node_pairs(draw):
    """n nodes and pairs among them in any order: repeated, reversed, or
    linking a node to itself."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=90))


@settings(max_examples=200, deadline=None)
@given(node_pairs())
@example((1, []))
@example((1, [(0, 0), (0, 0)]))
@example((4, []))
def test_components_of_any_pairs_match_networkx(case):
    n, pairs = case
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    labels, sizes = graph_module._components(np.arange(n), a, b)
    multigraph = nx.MultiGraph(pairs)
    multigraph.add_nodes_from(range(n))
    components = sorted(nx.connected_components(multigraph), key=min)
    assert sizes.tolist() == [len(c) for c in components]
    for label, members in enumerate(components):  # numbered by smallest member
        assert np.flatnonzero(labels == label).tolist() == sorted(members)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_giant_component_is_the_largest_with_the_smallest_original_id(g):
    orig = g.original_ids
    best = max(nx.connected_components(to_nx(g)), key=lambda c: (len(c), -min(orig[v] for v in c)))
    members = giant_members(g)
    assert members.tolist() == sorted(best)

    sub, mapping = giant_component(g)
    assert (sub is g) == (len(best) == g.n)
    assert sub.n == len(best)
    assert np.flatnonzero(mapping >= 0).tolist() == members.tolist()
    assert mapping[members].tolist() == list(range(sub.n))
    assert sub.original_ids.tolist() == orig[members].tolist()
    induced = {tuple(sorted(mapping[[u, v]].tolist())) for u, v in to_nx(g).subgraph(best).edges}
    assert set(map(tuple, sub.edges.tolist())) == induced
