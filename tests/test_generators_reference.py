"""Differential tests of the generators against the code they replaced.

``preferential_attachment`` draws the targets of a block of new nodes with
one ``rng.integers(0, highs)`` call and resolves them with array passes.  The
oracle below is the earlier implementation, one scalar ``rng.integers`` call
per draw, kept verbatim but for an optional per-node draw count.  Every
graph must match it, which rests on numpy consuming the bit stream for an
array of bounds exactly as for one scalar call per bound; that is pinned
here too, so a numpy change fails loudly instead of changing every graph.

``power_law_degrees`` draws its uniforms before it builds the degree table
and maps them as ``Generator.choice`` does; ``rng.choice`` itself is its
oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwtopo import Graph, PowerLawParams, power_law_degrees, preferential_attachment
from rwtopo.generators import _PA_BLOCK_MAX, _PA_BLOCK_MIN


def reference_preferential_attachment(n, m0, seed, draws=None):
    """The per-draw loop; ``draws`` (a list) receives each new node's draw count."""
    if m0 < 1:
        raise ValueError("m0 must be at least 1")
    if n <= m0:
        raise ValueError("n must exceed m0")
    rng = np.random.default_rng(seed)
    clique = m0 + 1
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    # One entry per edge endpoint: sampling from it is degree-proportional.
    repeated: list[int] = [v for e in edges for v in e]
    for new in range(clique, n):
        targets: set[int] = set()
        count = 0
        while len(targets) < m0:
            targets.add(repeated[rng.integers(len(repeated))])
            count += 1
        if draws is not None:
            draws.append(count)
        for t in sorted(targets):
            edges.append((new, t))
            repeated.append(t)
        repeated.extend([new] * m0)
    return Graph(n, np.asarray(edges, dtype=np.int64))


def assert_same_graph(got, want):
    assert (got.n, got.m) == (want.n, want.m)
    for name in ("edges", "indptr", "adj", "adj_edge_ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def repeats_opening_a_block(n, m0, draws):
    """New-node rows whose first m0 draws repeat a target and that open a block.

    This replays the batched generator's block schedule from the oracle's
    draw counts: a block ends just after its first repeating row, and halves
    then, or doubles when no row repeats.
    """
    repeats = [count > m0 for count in draws]
    opening, row, block = [], 0, _PA_BLOCK_MIN
    while row < n - m0 - 1:
        rows = min(block, n - m0 - 1 - row)
        first = next((r for r in range(rows) if repeats[row + r]), None)
        if first is None:
            row, block = row + rows, min(2 * block, _PA_BLOCK_MAX)
            continue
        if first == 0:
            opening.append(row)
        row, block = row + first + 1, max(block // 2, _PA_BLOCK_MIN)
    return opening


seeds = st.one_of(
    st.integers(0, 2**63 - 1),
    st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
)


@st.composite
def pa_cases(draw):
    m0 = draw(st.integers(1, 6))
    n = draw(st.integers(m0 + 1, 3000))
    return n, m0, draw(seeds)


@settings(max_examples=120, deadline=None)
@given(pa_cases())
def test_preferential_attachment_matches_the_per_draw_loop(case):
    n, m0, seed = case
    assert_same_graph(preferential_attachment(n, m0, seed), reference_preferential_attachment(n, m0, seed))


@pytest.mark.parametrize("m0", range(1, 7))
def test_degenerate_clique_matches_the_per_draw_loop(m0):
    assert_same_graph(preferential_attachment(m0 + 1, m0, 3), reference_preferential_attachment(m0 + 1, m0, 3))


@pytest.mark.parametrize("n, m0, seed", [(400, 5, 0), (3000, 3, 0)])
def test_repeat_on_the_first_row_of_a_block_matches_the_per_draw_loop(n, m0, seed):
    # Both cases repeat on the first row of a block well past the first one:
    # rows 95, 101 and 257 of (400, 5, 0), and rows 870 and 871 of (3000, 3, 0).
    draws = []
    want = reference_preferential_attachment(n, m0, seed, draws)
    assert max(repeats_opening_a_block(n, m0, draws), default=-1) >= _PA_BLOCK_MIN
    assert_same_graph(preferential_attachment(n, m0, seed), want)


def test_ten_thousand_nodes_match_the_per_draw_loop():
    assert_same_graph(preferential_attachment(10_000, 3, 11), reference_preferential_attachment(10_000, 3, 11))


bounds = st.one_of(st.integers(1, 2**32 - 1), st.integers(2**32, 2**62))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63 - 1), st.lists(bounds, min_size=1, max_size=64))
@example(2024, [2, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**40 + 7] * 400)
def test_array_bounds_consume_the_stream_like_scalar_calls(seed, highs):
    batched = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    values = batched.integers(0, np.asarray(highs, dtype=np.int64))
    assert values.tolist() == [int(scalar.integers(h)) for h in highs]
    assert batched.bit_generator.state == scalar.bit_generator.state


def reference_power_law_degrees(params, seed):
    """The rng.choice draw that power_law_degrees replaced, verbatim."""
    rng = np.random.default_rng(seed)
    support = np.arange(params.k_min, params.k_cap + 1, dtype=np.int64)
    weights = (support / params.k_min) ** (-params.alpha)
    degrees = rng.choice(support, size=params.n, p=weights / weights.sum())
    if int(degrees.sum()) % 2 == 1:
        degrees[-1] += 1
    return degrees


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 5000),
    st.floats(1.01, 12.0) | st.sampled_from([2.0, 2.5, 3.5, 40.0, 800.0]),
    st.integers(1, 20),
    st.integers(0, 2**63 - 1) | st.tuples(st.integers(0, 99), st.integers(0, 99)),
)
def test_power_law_degrees_match_rng_choice(n, alpha, k_min, seed):
    params = PowerLawParams(alpha, min(k_min, n - 1), n)
    got = power_law_degrees(params, seed)
    want = reference_power_law_degrees(params, seed)
    assert got.dtype == want.dtype and np.array_equal(got, want)
