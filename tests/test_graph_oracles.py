"""Differential tests of the BFS kernels against networkx and brute force.

Random G(n, p) graphs run from edgeless to dense, so they carry isolated
nodes, many small components and equal-size largest components; some have
remapped original ids, and searches run under edge masks: random ones,
and G*-shaped ones holding every edge incident to a random node set.
Hub-heavy graphs (small preferential-attachment graphs and stars) make the
single-source flood pull.
Pair-distance searches also run on long path-like graphs and on source
sets that cross the 64-source blocks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwtopo import UNREACHABLE, Graph, giant_component, preferential_attachment
from rwtopo.graph import bfs_distances, component_labels
from rwtopo import graph as graph_module
from rwtopo.graph import giant_members, pair_distances

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
def pair_searches(draw):
    """A graph, k nodes (k crossing the 64-source blocks) and an optional edge mask."""
    g = draw(graphs() | path_like_graphs())
    k = draw(st.sampled_from([1, 2, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = rng.choice(g.n, size=k, replace=k > g.n)
    return g, nodes, draw(edge_masks(g))


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
    assert bfs_distances(g, source, mask).tolist() == expected.tolist()


@pytest.mark.parametrize("push_share", [0.0, graph_module._PUSH_SHARE, np.inf], ids=["pull", "switch", "push"])
@settings(max_examples=60, deadline=None)
@given(case=pair_searches())
def test_pair_distances_match_one_search_per_source(push_share, case):
    g, nodes, mask = case
    expected = [bfs_distances(g, int(s), mask)[nodes].tolist() for s in nodes]
    with mock.patch.object(graph_module, "_PUSH_SHARE", push_share):
        assert pair_distances(g, nodes, mask).tolist() == expected


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
    without_7_8 = ~(g.edges == [7, 8]).all(axis=1)
    assert pair_distances(g, [6, 8], without_7_8).tolist() == [[0, u], [u, 0]]
    nothing = np.zeros(g.m, dtype=bool)
    assert pair_distances(g, [9, 6, 9], nothing).tolist() == [[0, u, 0], [u, 0, u], [0, u, 0]]
    assert pair_distances(g, []).shape == (0, 0)
    with pytest.raises(ValueError, match="out of range"):
        pair_distances(g, [0, 11])


@settings(max_examples=100, deadline=None)
@given(graphs() | mostly_isolated_graphs() | hub_heavy_graphs())
def test_component_labels_match_networkx(g):
    labels, sizes = component_labels(g)
    components = sorted(nx.connected_components(to_nx(g)), key=min)
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
