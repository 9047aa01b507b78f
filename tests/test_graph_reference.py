"""Differential tests of graph set-up and search against the code they replaced.

``load_edge_list`` parses plain ASCII edge lists in one vectorized pass and
falls back to a per-line parse for anything else, and every input must load
alike as bytes, from a path and from an open file; ``Graph`` deduplicates
and orders arcs by sorting, and ``giant_component`` slices its CSR;
``bfs_distances`` pulls into the unreached nodes, one arc of each per
round, once the frontier outweighs them, and
``component_labels`` settles the hub's component with one search and
hooks roots over the rest instead of flooding.  The oracles below
are the earlier implementations, kept verbatim: a per-line parser with a
dict remap, a constructor built on ``np.unique`` and ``np.lexsort``, and a
flood that only pushes, run from each unlabelled node in id order to label
components.  Every array of the result must match them, and every
malformed input must raise the same error.
"""

import io
import pathlib
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwtopo.graph
from rwtopo import (
    UNREACHABLE,
    EdgeListParseError,
    Graph,
    PowerLawParams,
    configuration_model,
    from_spec,
    grid_2d,
    load_edge_list,
    power_law_degrees,
    preferential_attachment,
    write_edge_list,
)
from rwtopo.graph import (
    _first_appearance_ids,
    _pull,
    _span_positions,
    bfs_distances,
    component_labels,
    giant_component,
    giant_members,
)


def reference_graph(n, edges, original_ids=None):
    """(n, m, edges, indptr, adj, adj_edge_ids, original_ids) as the
    np.unique / np.lexsort constructor built them."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError("edge endpoint out of range 0..n-1")
        edges = edges[edges[:, 0] != edges[:, 1]]
        if edges.size:
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            code = np.unique(lo * np.int64(n) + hi)
            edges = np.stack([code // n, code % n], axis=1)
        else:
            edges = edges.reshape(-1, 2)
    m = int(edges.shape[0])
    original_ids = np.asarray(np.arange(n) if original_ids is None else original_ids, dtype=np.int64)
    deg = np.bincount(edges.ravel(), minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    eid = np.arange(m, dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    return n, m, edges, indptr, dst[order], np.concatenate([eid, eid])[order], original_ids


def reference_load(data: bytes):
    """The per-line edge-list parser, on top of :func:`reference_graph`."""
    text = data.decode("utf-8")
    remap = {}
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two node ids, got {len(parts)} tokens"
            )
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: non-integer node id") from None
        for label in (a, b):
            if label not in remap:
                remap[label] = len(remap)
        pairs.append((remap[a], remap[b]))
    if not pairs:
        raise EdgeListParseError("empty input: no edge lines found")
    originals = np.fromiter(remap.keys(), dtype=np.int64, count=len(remap))
    return reference_graph(len(remap), np.asarray(pairs, dtype=np.int64), original_ids=originals)


def arrays(g: Graph):
    return g.n, g.m, g.edges, g.indptr, g.adj, g.adj_edge_ids, g.original_ids


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
        else:
            assert a == b


def outcome(load, data: bytes):
    try:
        return "graph", load(data)
    except Exception as exc:
        return "error", (type(exc), str(exc))


def assert_loaded_alike_from_a_path_and_a_file(data: bytes, want):
    """``data`` written to a file loads as ``want``, the outcome of loading
    it as bytes, both from the file's path and from the open binary file."""
    with tempfile.TemporaryDirectory() as tmp:  # hypothesis reuses a function-scoped tmp_path
        path = pathlib.Path(tmp, "edges.txt")
        path.write_bytes(data)
        with open(path, "rb") as fh:
            for got_kind, got in (outcome(load_edge_list, path), outcome(load_edge_list, fh)):
                assert got_kind == want[0]
                if got_kind == "graph":
                    assert_same_arrays(arrays(got), arrays(want[1]))
                else:
                    assert got == want[1]


_BEYOND_INT64 = "99999999999999999999"
_ODD_TOKENS = ["+5", "-0", "007", "1_000", "٣", "1.5", "x", "-", "+", _BEYOND_INT64,
               "-9223372036854775808", "9223372036854775807"]
_BLANKS = [" ", " ", "\t", "  ", " \t", "\x1f", "\xa0"]
_BREAKS = ["\n"] * 8 + ["\r\n"] * 4 + ["\r", "\x0b", "\x0c", "\x1c", "\x85"]


@st.composite
def edge_list_texts(draw):
    """Edge lists that are mostly well formed, with a few odd tokens,
    separators, line breaks, comments and arities mixed in."""
    odd = draw(st.integers(0, 3)) == 0  # a quarter of the texts carry odd input
    token = st.integers(-3, 12).map(str)
    if odd:
        token = token | st.sampled_from(_ODD_TOKENS)
    blank = st.sampled_from(_BLANKS if odd else _BLANKS[:5])
    brk = st.sampled_from(_BREAKS if odd else _BREAKS[:12])
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            line = draw(st.sampled_from(["", " ", "\t"]))
        elif kind == 1:
            line = draw(st.sampled_from(["", " ", "\t"])) + "#" + draw(st.sampled_from(["", " c", " 1 2", " # x"]))
        elif kind == 2:
            label = draw(token)
            line = f"{label}{draw(blank)}{label}"  # a self-loop
        elif kind == 3 and odd:
            line = draw(blank).join(draw(st.lists(token, min_size=1, max_size=3)))
        else:
            line = f"{draw(token)}{draw(blank)}{draw(token)}"
        if odd and draw(st.integers(0, 9)) == 0:
            line += " # inline"
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "])))
    text = "".join(line + draw(brk) for line in lines)
    if lines and draw(st.booleans()):
        text = text[: -1]  # no line break after the last line
    return text.encode("utf-8")


def out_of_range(token: str) -> bool:
    try:
        return not -(2**63) <= int(token) < 2**63
    except ValueError:
        return False


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_load_edge_list_matches_the_per_line_parser(data):
    got_kind, got = outcome(load_edge_list, data)
    want_kind, want = outcome(reference_load, data)
    assert_loaded_alike_from_a_path_and_a_file(data, (got_kind, got))
    if got_kind == "graph":
        assert want_kind == "graph", want
        assert_same_arrays(arrays(got), want)
    elif got[1].endswith(": node id out of range"):
        # The one intended change: an id beyond int64 is reported on its own
        # line.  The per-line parser let it through to np.fromiter, which
        # raised OverflowError after the whole input, unless a later line
        # raised first.
        lineno = int(got[1].split(":")[0].removeprefix("line "))
        assert got[0] is EdgeListParseError
        line = data.decode().splitlines()[lineno - 1]
        assert any(out_of_range(t) for t in line.split())
        if want_kind == "error" and want[0] is EdgeListParseError:
            assert int(want[1].split(":")[0].removeprefix("line ")) > lineno
        else:
            assert want_kind == "error" and want[0] is OverflowError
    else:
        assert (got_kind, got) == (want_kind, want)


@pytest.mark.parametrize(
    "data",
    [
        b"3 3\n",  # only self-loops: one node, no edges
        b"3 3\n4 4\n3 4\n",
        b"5 -2\n-2 5\n+5 007\n",
        b"# c\n  # indented comment\n1 2\r\n2 3",
        b"1 2\n1 2 # inline\n",
        b"1 2\r3 4\n",  # lone CR is a line break
        b"# c\r1 2\n5 6\n",  # even inside a comment line
        b"1\x0b2\n",  # so is VT, which np.loadtxt reads as a space
        b"1\x0c2\n",  # and FF
        b"# c\x0b1 2\n5 6\n",
        b"1\xc2\x852\n",  # NEL, a non-ASCII line break
        b"1 2 3\n4 5 6\n",  # every line of one wrong arity
        b"1\n2\n",
        b"1_000 2\n",
        b"\xd9\xa3 4\n",  # an Arabic-Indic digit
        b"1 2\x1f\n",
        b"9223372036854775807 -9223372036854775808\n",
        # Label spans against the relabel table's bound, the number of label
        # entries (4 here): one below it is numbered through tables, equal to
        # it and one above it by sorting.
        b"3 1\n0 3\n",
        b"4 1\n0 4\n",
        b"5 1\n0 5\n",
        b"-1 -3\n-2 -1\n0 -3\n",  # negative labels, numbered through tables
        b"-7 40\n-7 -3\n",  # and by sorting
        # Labels at int64's two ends: tables near either end, a sort across both.
        b"9223372036854775807 9223372036854775806\n9223372036854775806 9223372036854775805\n",
        b"-9223372036854775807 -9223372036854775808\n-9223372036854775808 -9223372036854775806\n",
        b"-9223372036854775808 9223372036854775807\n9223372036854775807 9223372036854775806\n"
        b"-9223372036854775807 -9223372036854775808\n",
    ],
)
def test_load_edge_list_matches_the_per_line_parser_on_edge_cases(data):
    got_kind, got = outcome(load_edge_list, data)
    want_kind, want = outcome(reference_load, data)
    assert got_kind == want_kind
    if got_kind == "graph":
        assert_same_arrays(arrays(got), want)
    else:
        assert got == want
    assert_loaded_alike_from_a_path_and_a_file(data, (got_kind, got))


def test_a_clean_path_is_parsed_by_numpys_file_reader(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"# c\n1 2\r\n2 3\n3 1\n")
    handed, loadtxt = [], np.loadtxt

    def spy(fname, *args, **kwargs):
        handed.append(fname)
        return loadtxt(fname, *args, **kwargs)

    with mock.patch.object(np, "loadtxt", spy), mock.patch.object(rwtopo.graph, "_parse_lines") as per_line:
        g = load_edge_list(path)
    assert handed == [str(path)]
    per_line.assert_not_called()
    assert_same_arrays(arrays(g), reference_load(path.read_bytes()))


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_a_path_numpy_would_decompress_is_read_as_text(tmp_path, suffix):
    path = tmp_path / f"edges{suffix}"
    path.write_bytes(b"1 2\n2 3\n")
    assert_same_arrays(arrays(load_edge_list(path)), reference_load(path.read_bytes()))


def test_comment_only_input_raises_without_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EdgeListParseError, match="^empty input"):
            load_edge_list(b"# nothing here\n\n")
    assert caught == []


@pytest.mark.parametrize(
    "data, lineno",
    [
        (_BEYOND_INT64.encode() + b" 1\n", 1),
        (b"0 1\n# c\n2 -" + _BEYOND_INT64.encode() + b"\n", 3),
        (b"0 1\n9223372036854775808 2\n1 x\n", 2),  # reported before a later bad line
    ],
)
def test_node_id_beyond_int64_is_a_parse_error_with_its_line(data, lineno):
    with pytest.raises(EdgeListParseError, match=f"^line {lineno}: node id out of range$"):
        load_edge_list(data)


@st.composite
def multigraphs(draw):
    """Edge lists with self-loops, duplicates in either orientation and
    isolated nodes, on 1 to 30 nodes; some hold only self-loops."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    if draw(st.integers(0, 4)) == 0:
        pairs = draw(st.lists(node.map(lambda v: (v, v)), max_size=6))
    else:
        pairs = draw(st.lists(st.tuples(node, node), max_size=80))
        pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))] if pairs else []
    originals = draw(st.none() | st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2), originals


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_graph_matches_the_unique_and_lexsort_constructor(case):
    n, edges, originals = case
    assert_same_arrays(arrays(Graph(n, edges, original_ids=originals)), reference_graph(n, edges, originals))


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.integers(0, 3))
def test_a_giant_component_is_the_graph_of_its_members_edges(case, isolated):
    n, edges, originals = case
    if originals is not None:
        originals += [10**7 + i for i in range(isolated)]
    g = Graph(n + isolated, edges, original_ids=originals)
    members = giant_members(g)
    mapping = np.full(g.n, -1, dtype=np.int64)
    mapping[members] = np.arange(members.size)
    mapped = mapping[g.edges]
    want = Graph(members.size, mapped[mapped[:, 0] >= 0], original_ids=g.original_ids[members])
    got, got_mapping = giant_component(g)
    assert_same_arrays(arrays(got) + (got_mapping,), arrays(want) + (mapping,))


def traced_peak(call, *args) -> int:
    """Peak bytes traced by tracemalloc during ``call(*args)``."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_peaks_below_the_per_line_parser():
    rng = np.random.default_rng(3)
    labels = rng.choice(10**9, size=5_000, replace=False)
    pairs = labels[rng.integers(0, labels.size, size=(20_000, 2))]
    data = "".join(f"{a} {b}\n" for a, b in pairs.tolist()).encode()
    load_edge_list(data)  # warm up imports and caches outside the trace
    reference_load(data)
    assert traced_peak(load_edge_list, data) < traced_peak(reference_load, data)


def test_loading_frees_the_text_and_labels_before_the_graph_is_built():
    # The constructor's sort is where a load peaks.  Holding the decoded text
    # and the label array through it peaked at 3.19 times the loaded graph's
    # own arrays on this input; freeing both first, at 2.70.
    buf = io.StringIO()
    write_edge_list(from_spec("pa:n=20000,m0=3", 5), buf)
    data = buf.getvalue().encode()
    g = load_edge_list(data)
    graph_bytes = sum(a.nbytes for a in arrays(g)[2:])
    assert traced_peak(load_edge_list, data) < 2.9 * graph_bytes


def test_loading_a_path_frees_the_text_and_labels_before_the_graph_is_built(tmp_path):
    # The path-source twin of the test above, with the same bound.
    path = tmp_path / "pa.edges"
    write_edge_list(from_spec("pa:n=20000,m0=3", 5), path)
    g = load_edge_list(path)
    graph_bytes = sum(a.nbytes for a in arrays(g)[2:])
    assert traced_peak(load_edge_list, path) < 2.9 * graph_bytes


def test_a_wide_label_span_is_relabelled_without_a_span_sized_table():
    load_edge_list(b"0 1\n")
    assert traced_peak(load_edge_list, b"0 1000000000000000\n") < 1_000_000


INT64 = np.iinfo(np.int64)


@st.composite
def label_pairs(draw):
    """(k, 2) int64 labels spanning less than, exactly or more than their
    2k entries, from negative labels to both ends of int64, with repeats."""
    size = 2 * draw(st.integers(1, 30))
    span = draw(st.one_of(st.integers(0, size - 1), st.just(size), st.integers(size + 1, 2**64 - 1), st.just(2**64 - 1)))
    lo = draw(st.integers(INT64.min, INT64.max - span))
    pool = [lo, lo + span] + draw(st.lists(st.integers(lo, lo + span), max_size=size))
    rest = draw(st.lists(st.sampled_from(pool), min_size=size - 2, max_size=size - 2))
    return np.array(draw(st.permutations([lo, lo + span] + rest)), dtype=np.int64).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(label_pairs())
def test_first_appearance_ids_match_a_dict_numbering(labels):
    remap: dict[int, int] = {}
    for label in labels.ravel().tolist():
        remap.setdefault(label, len(remap))
    ids, originals = _first_appearance_ids(labels)
    assert ids.dtype == originals.dtype == np.int64
    assert ids.tolist() == [[remap[a], remap[b]] for a, b in labels.tolist()]
    assert originals.tolist() == list(remap)


def reference_flood(g: Graph, labels: np.ndarray, source: int, step: int, edge_mask: np.ndarray | None = None) -> None:
    """The push-only flood: every level labels the unlabelled heads of the
    arcs leaving the frontier, read off the rows of ``g.edges`` that
    ``edge_mask`` keeps, in both directions, without ``g``'s CSR."""
    kept = g.edges if edge_mask is None else g.edges[np.flatnonzero(edge_mask)]
    tails, heads = np.concatenate([kept, kept[:, ::-1]]).T
    on_frontier = np.zeros(g.n, dtype=bool)
    on_frontier[source] = True
    value = labels[source]
    while True:
        nbrs = heads[on_frontier[tails]]
        frontier = np.unique(nbrs[labels[nbrs] < 0])
        if frontier.size == 0:
            return
        value += step
        labels[frontier] = value
        on_frontier[:] = False
        on_frontier[frontier] = True


def reference_bfs(g: Graph, source: int, edge_mask=None) -> np.ndarray:
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    reference_flood(g, dist, source, 1, edge_mask)
    return dist


def reference_components(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(labels, sizes) of ``g``'s components: one push-only flood from each
    node still unlabelled in id order, so each is numbered by smallest member."""
    labels = np.full(g.n, -1, dtype=np.int64)
    count = 0
    for seed in range(g.n):
        if labels[seed] < 0:
            labels[seed] = count
            reference_flood(g, labels, seed, 0)
            count += 1
    return labels, np.bincount(labels)


def pull_scans(search) -> list[int]:
    """One entry per level that ``search()`` pulled (one graph._pull call
    each): the span scans it ran after its rounds, since graph._pull calls
    _span_positions only for that scan."""
    scans = []

    def counted_pull(*args):
        with mock.patch.object(rwtopo.graph, "_span_positions", wraps=_span_positions) as spy:
            frontier = _pull(*args)
        scans.append(spy.call_count)
        return frontier

    with mock.patch.object(rwtopo.graph, "_pull", counted_pull):
        search()
    return scans


def pulls(search) -> int:
    """Levels that ``search()`` pulled."""
    return len(pull_scans(search))


def star_with_isolated(leaves: int, isolated: int, seed: int) -> Graph:
    """A star on ``leaves + 1`` nodes beside ``isolated`` isolated ones, under shuffled ids."""
    ids = np.random.default_rng(seed).permutation(leaves + 1 + isolated)
    return Graph(ids.size, ids[[[0, i] for i in range(1, leaves + 1)]].reshape(-1, 2))


def path_like(n: int, chords: int, seed: int) -> Graph:
    """A random Hamiltonian path plus a few chords."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return Graph(n, np.concatenate([np.stack([order[:-1], order[1:]], axis=1), rng.integers(0, n, size=(chords, 2))]))


def plconfig(n: int, alpha: float, k_min: int, seed: int) -> Graph:
    return configuration_model(power_law_degrees(PowerLawParams(alpha, k_min, n), seed=seed), seed=seed + 1)


@st.composite
def flood_graphs(draw):
    """PA (n <= 3000), stars beside isolated nodes, power-law configuration
    graphs, grids and path-like graphs."""
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["pa", "star", "plconfig", "grid", "path"]))
    if family == "pa":
        return preferential_attachment(draw(st.integers(5, 3000)), draw(st.integers(1, 4)), seed=seed)
    if family == "star":
        return star_with_isolated(draw(st.integers(1, 60)), draw(st.integers(0, 20)), seed)
    if family == "plconfig":
        return plconfig(draw(st.integers(10, 3000)), draw(st.sampled_from([2.1, 2.5, 3.0])), draw(st.integers(1, 2)), seed)
    if family == "grid":
        return grid_2d(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    return path_like(draw(st.integers(1, 500)), draw(st.integers(0, 4)), seed)


def edge_mask(g: Graph, kind: str, seed: int):
    """No mask, a random one keeping 90% of the edges, or a G*-shaped one:
    every edge incident to a random third of the nodes."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random(g.m) < 0.9
    if kind == "gstar":
        return (rng.random(g.n) < 1 / 3)[g.edges].any(axis=1)
    return None


@settings(max_examples=150, deadline=None)
@given(flood_graphs(), st.sampled_from(["none", "random", "gstar"]), st.integers(0, 2**32 - 1))
def test_bfs_distances_match_the_push_only_flood(g, kind, seed):
    mask = edge_mask(g, kind, seed)
    source = int(np.random.default_rng(seed).integers(g.n))
    assert np.array_equal(bfs_distances(g, source, mask), reference_bfs(g, source, mask))


@settings(max_examples=100, deadline=None)
@given(flood_graphs())
def test_component_labels_match_the_push_only_flood(g):
    got, want = component_labels(g), reference_components(g)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


FAMILIES = {
    "star": (star_with_isolated(30, 5, seed=1), None),
    "pa": (preferential_attachment(2000, 2, seed=3), 1999),
    "plconfig": (plconfig(2000, 2.5, 2, seed=5), 0),
    "grid": (grid_2d(30, 30), 0),
    "path": (path_like(300, 2, seed=7), 0),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", ["none", "random", "gstar"])
def test_bfs_distances_pull_and_match_the_push_only_flood(family, kind):
    g, source = FAMILIES[family]
    mask = edge_mask(g, kind, seed=11)
    if source is None:  # a leaf of the star
        source = int(np.flatnonzero(g.degrees == 1)[0])
    if kind == "gstar":  # an endpoint of a kept edge
        source = int(g.edges[mask][0, 0])
    assert np.array_equal(bfs_distances(g, source, mask), reference_bfs(g, source, mask))
    # A mask that cuts a grid or a path into pieces leaves the pieces out of
    # reach but in the unreached arcs, so those searches only push.
    if kind == "none" or family not in ("grid", "path"):
        assert pulls(lambda: bfs_distances(g, source, mask)) >= 1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", ["none", "random"])
def test_a_search_capped_at_k_levels_is_the_full_search_cut_at_k(family, kind):
    g, source = FAMILIES[family]
    mask = edge_mask(g, kind, seed=11)
    source = int(np.flatnonzero(g.degrees == 1)[0]) if source is None else source
    full = reference_bfs(g, source, mask)
    for k in range(int(full.max()) + 2):
        assert np.array_equal(bfs_distances(g, source, mask, max_level=k), np.where(full > k, UNREACHABLE, full)), k


@pytest.mark.parametrize("family", FAMILIES)
def test_component_labels_pull_and_match_the_push_only_flood(family):
    g = Graph(FAMILIES[family][0].n, FAMILIES[family][0].edges)  # not yet labelled
    assert all(np.array_equal(a, b) for a, b in zip(component_labels(g), reference_components(g)))


def test_bfs_distances_peaks_below_twice_the_graph_arrays():
    """One search allocates O(n + m): at most twice the bytes of an int64
    per node and per arc, which its dist table and pull buffers stay under."""
    g = from_spec("pa:n=50000,m0=3", seed=1)
    bfs_distances(g, 0)  # warm up outside the trace
    assert traced_peak(bfs_distances, g, 0) < 2 * (g.n + g.adj.size) * 8


def test_a_star_searched_from_a_leaf_pulls_once_at_level_2():
    g = Graph(9, [[0, i] for i in range(1, 9)])
    assert pulls(lambda: bfs_distances(g, 1)) == 1  # level 1 pushes to the hub; level 2 pulls the 7 other leaves
    assert bfs_distances(g, 1).tolist() == [1, 0, 2, 2, 2, 2, 2, 2, 2]
    assert pulls(lambda: bfs_distances(g, 0)) == 0  # from the hub, level 1 labels every arc


def test_a_masked_pull_skips_candidates_with_no_kept_arcs():
    # Leaves 5 and 9 keep no arc; 9 is the last node, so reading its first
    # arc would run off adj, and reading 5's would read 6's arc to the hub.
    g = Graph(10, [[0, i] for i in range(1, 10)])
    mask = ~np.isin(g.edges[:, 1], [5, 9])
    assert pulls(lambda: bfs_distances(g, 1, mask)) == 1
    dist = bfs_distances(g, 1, mask)
    assert np.array_equal(dist, reference_bfs(g, 1, mask))
    assert dist[[5, 9]].tolist() == [UNREACHABLE, UNREACHABLE]


def ladder_behind_a_low_node(k: int) -> Graph:
    """Hub 2k+1 joined to a clique on the middle nodes k+1..2k; middle node
    k+i joined to candidate i, and node 0 joined to every candidate 1..k.
    Each candidate's first arc goes to node 0, which is reached last."""
    middle = np.arange(k + 1, 2 * k + 1)
    clique = [[a, b] for a in middle for b in middle if a < b]
    spokes = [[2 * k + 1, v] for v in middle]
    rungs = [[i, k + i] for i in range(1, k + 1)]
    low = [[0, i] for i in range(1, k + 1)]
    return Graph(2 * k + 2, clique + spokes + rungs + low)


def test_a_pull_whose_first_round_mostly_misses_scans_the_rest():
    g = ladder_behind_a_low_node(10)
    source = g.n - 1
    # The first pull (level 2) tests every candidate's arc to node 0, still
    # unreached, in round 0 and hits none, so the span scan finds the rungs;
    # the second (level 3) pulls node 0 in round 0.
    assert pull_scans(lambda: bfs_distances(g, source)) == [1, 0]
    dist = bfs_distances(g, source)
    assert np.array_equal(dist, reference_bfs(g, source))
    assert dist[0] == 3 and set(dist[1:11].tolist()) == {2}


def test_a_candidate_that_runs_out_of_arcs_in_the_rounds_joins_a_later_level():
    # Source 0 joined to 1..10, each joined to all of 11..30; node 31 hangs
    # off 11 through 32 and 33.  The level-2 pull hits 11..30 on their arc
    # to node 1 in round 0; 31, 32 and 33 miss in rounds 0 and 1 and run out
    # of arcs.  The level-3 pull takes 32 and 33 in round 0, and 31 runs out
    # in round 1 again; the level-4 pull takes it.  No span scan runs.
    spokes = [[0, a] for a in range(1, 11)]
    bipartite = [[a, b] for a in range(1, 11) for b in range(11, 31)]
    g = Graph(34, spokes + bipartite + [[31, 32], [31, 33], [11, 32], [11, 33]])
    assert pull_scans(lambda: bfs_distances(g, 0)) == [0, 0, 0]
    dist = bfs_distances(g, 0)
    assert np.array_equal(dist, reference_bfs(g, 0))
    assert dist[31:].tolist() == [4, 3, 3]
