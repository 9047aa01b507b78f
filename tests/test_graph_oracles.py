"""Differential tests of the BFS kernel against networkx and brute force.

Random G(n, p) graphs run from edgeless to dense, so they carry isolated
nodes, many small components, equal-size largest components and nodes with
several neighbours one level closer; some have remapped original ids, and
searches run under random edge masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwtopo import UNREACHABLE, Graph, bfs_distances, bfs_parents, component_labels, giant_component
from rwtopo.graph import giant_members

nx = pytest.importorskip("networkx")


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
def masked_searches(draw):
    g = draw(graphs())
    keep = draw(st.none() | st.sampled_from([0.3, 0.6, 0.9]))
    mask = None if keep is None else np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(g.m) < keep
    return g, draw(st.integers(0, g.n - 1)), mask


def to_nx(g: Graph, mask=None):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges.tolist() if mask is None else g.edges[mask].tolist())
    return h


def originals(g: Graph) -> np.ndarray:
    return g.original_ids if g.original_ids is not None else np.arange(g.n)


@settings(max_examples=100, deadline=None)
@given(masked_searches())
def test_bfs_distances_match_networkx_on_the_masked_subgraph(case):
    g, source, mask = case
    expected = np.full(g.n, UNREACHABLE)
    for v, d in nx.single_source_shortest_path_length(to_nx(g, mask), source).items():
        expected[v] = d
    assert bfs_distances(g, source, mask).tolist() == expected.tolist()


@settings(max_examples=100, deadline=None)
@given(masked_searches())
def test_bfs_parents_pick_the_smallest_closer_neighbour(case):
    g, source, mask = case
    dist = bfs_distances(g, source, mask)
    usable = np.ones(g.m, dtype=bool) if mask is None else mask
    expected = []
    for v in range(g.n):
        closer = [
            int(u)
            for u, e in zip(g.neighbors(v), g.incident_edge_ids(v))
            if usable[e] and dist[v] > 0 and dist[u] == dist[v] - 1
        ]
        expected.append(min(closer) if closer else -1)
    assert bfs_parents(g, dist, mask).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_component_labels_match_networkx(g):
    labels, sizes = component_labels(g)
    components = sorted(nx.connected_components(to_nx(g)), key=min)
    assert sizes.tolist() == [len(c) for c in components]
    for label, members in enumerate(components):  # numbered by smallest member
        assert np.flatnonzero(labels == label).tolist() == sorted(members)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_giant_component_is_the_largest_with_the_smallest_original_id(g):
    orig = originals(g)
    best = max(nx.connected_components(to_nx(g)), key=lambda c: (len(c), -min(orig[v] for v in c)))
    members = giant_members(g)
    assert members.tolist() == sorted(best)

    sub, mapping = giant_component(g)
    assert sub.n == len(best)
    assert np.flatnonzero(mapping >= 0).tolist() == members.tolist()
    assert mapping[members].tolist() == list(range(sub.n))
    assert sub.original_ids.tolist() == orig[members].tolist()
    induced = {tuple(sorted(mapping[[u, v]].tolist())) for u, v in to_nx(g).subgraph(best).edges}
    assert set(map(tuple, sub.edges.tolist())) == induced
