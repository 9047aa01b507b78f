"""Compact undirected graphs with CSR adjacency, edge ids, and BFS distance oracles.

Node ids are dense integers ``0..n-1`` and every undirected edge carries a
stable id ``0..m-1``, so visited-node sets and covered-edge sets can be flat
boolean arrays.  Graphs are immutable after construction, apart from three
derived tables, the arcs' edge ids, the component labels and the
degree-oriented arc table, filled in on first use; they are safe to share
across threads or worker processes.
"""

from __future__ import annotations

import io
import numbers
import os
import re
import warnings
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

# Sentinel for "no path" in hop-distance arrays.  Distinct from every valid
# hop count; callers must compare against the constant, never against 0/n.
UNREACHABLE = -1


class EdgeListParseError(ValueError):
    """Malformed edge-list input (bad token, wrong arity, or no edges)."""


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of the sorted array ``ordered`` that differ from
    their predecessor: ``ordered[mask]`` is its distinct values."""
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _int64s(values, what: str) -> np.ndarray:
    """``values`` as an int64 array, uncopied when it already is one.

    A value the cast would change (``1.7``, NaN, ``"3"``, a uint64 beyond
    int64) or cannot read (None, ``"x"``, a ragged list) raises ValueError
    naming ``what``, instead of being truncated or raising numpy's error; so
    does a Python int beyond int64, which the cast cannot take, a bool,
    which the cast would read as the id 0 or 1, and a complex number, whose
    imaginary part it would drop.
    """
    try:
        values = np.asarray(values)
    except ValueError:  # a ragged sequence
        raise ValueError(f"{what} must be a rectangular array of numbers") from None
    if values.dtype.kind in "bc":
        raise ValueError(f"{what} must be integral, got {values.dtype}")
    try:
        with np.errstate(invalid="ignore"):
            ints = values.astype(np.int64, copy=False)
    except OverflowError:
        raise ValueError(f"{what} out of range of int64") from None
    except (TypeError, ValueError):  # an object no cast reads, such as None or "x"
        raise ValueError(f"{what} must be integral, got {values.tolist()!r}") from None
    if not np.array_equal(ints, values):
        raise ValueError(f"{what} must be integral, got {values[ints != values].flat[0].item()!r}")
    return ints


def _one_int(value, what: str, lo: int | None = None) -> int:
    """``value`` as a Python int; ValueError naming ``what`` unless it is one
    integral number other than a bool (see :func:`_int64s`) and, given
    ``lo``, at least ``lo``."""
    if type(value) is not int or not -(1 << 63) <= value < 1 << 63:  # a plain int needs no array round trip
        ints = _int64s(value, what)
        if ints.ndim:
            raise ValueError(f"{what} must be a single integer, got {value!r}")
        value = int(ints)
    if lo is not None and value < lo:
        raise ValueError(f"{what} must be at least {lo}")
    return value


def _one_node(value, n: int, what: str) -> int:
    """``value`` as a Python int (see :func:`_one_int`); ValueError naming
    ``what`` unless it is in ``0..n-1``."""
    value = _one_int(value, what)
    if not 0 <= value < n:
        raise ValueError(f"{what} out of range 0..{n - 1}, got {value}")
    return value


def _one_real(value, what: str) -> float:
    """``value`` as a float; ValueError naming ``what`` unless it is a real
    number other than a bool: ``"0.1"`` is not read as a number, a bool
    would be written as ``true``, and a complex number is no real even with
    a zero imaginary part."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is no numbers.Real
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _node_ids(values, n: int, what: str) -> np.ndarray:
    """``values`` as int64 node ids (see :func:`_int64s`); ValueError naming
    ``what`` unless every one is in ``0..n-1``."""
    ids = _int64s(values, what)
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        raise ValueError(f"{what} out of range 0..{n - 1}, got {ids[(ids < 0) | (ids >= n)].flat[0]}")
    return ids


class Graph:
    """Immutable simple undirected graph.

    Parameters
    ----------
    n : int
        Number of nodes; ids are ``0..n-1``.
    edges : array-like of shape (k, 2)
        Endpoint pairs (or none).  Self-loops are dropped and duplicates (in
        either orientation) are merged, so the stored graph is always simple.
    original_ids : array-like of length n, optional
        External labels for nodes, kept for reporting when the graph was
        remapped from an arbitrary id space; ``0..n-1`` when not given.

    Self-loops are dropped from the pairs first, and one sort of the codes
    ``u*n + v`` and ``v*n + u`` builds ``indptr`` and ``adj``, all that is
    stored; ``edges`` is derived on every read.  The arcs' edge ids, the
    connected components and the degree-oriented arc table are built on
    first use and kept with the graph (see :func:`component_labels` and
    :func:`oriented_arcs`).
    """

    __slots__ = ("n", "m", "indptr", "adj", "original_ids", "_edge_ids", "_components", "_oriented")

    def __init__(self, n: int, edges, original_ids=None):
        self.n = _one_int(n, "n", lo=1)
        pairs = _node_ids(edges, self.n, "edge endpoints")
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError(f"edge endpoints must be an array of shape (k, 2), got shape {pairs.shape}")
        original_ids = np.arange(self.n) if original_ids is None else _int64s(original_ids, "original_ids")
        if original_ids.shape != (self.n,):
            raise ValueError("original_ids must have one entry per node")

        # Sort, then mask repeats: np.unique may hash, several times slower here.
        n, pairs = np.int64(self.n), pairs.reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        keep = u != v  # no self-loops
        if not keep.all():
            u, v = u[keep], v[keep]
        code = np.empty(2 * u.size, dtype=np.int64)
        np.multiply(u, n, out=code[: u.size])
        code[: u.size] += v
        np.multiply(v, n, out=code[u.size :])
        code[u.size :] += u
        code.sort()
        head = code[_run_starts(code)]
        del code
        tail = head // n
        head -= tail * n
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=self.n), out=indptr[1:])
        self._from_csr(indptr, head, original_ids)

    def _from_csr(self, indptr: np.ndarray, adj: np.ndarray, original_ids: np.ndarray) -> Graph:
        """Fill this graph from a CSR pair, unchecked and unsorted, and return it.

        Each row must ascend and hold no repeat or self-loop, with every
        arc's reverse present; ``Graph.__new__(Graph)._from_csr(...)`` wraps
        such a CSR, say a slice of another graph's, without the sort.
        """
        self.n, self.m = indptr.size - 1, adj.size // 2
        self.indptr, self.adj, self.original_ids = indptr, adj, original_ids
        self._edge_ids = self._components = self._oriented = None
        return self

    @property
    def edges(self) -> np.ndarray:
        """Edge k as row k, (lo, hi): the arcs with tail < head, in adj order; derived on every read."""
        return np.stack(_edge_ends(self), axis=1)

    @property
    def adj_edge_ids(self) -> np.ndarray:
        """Each arc's edge id, built on the first read and kept read-only."""
        if self._edge_ids is None:  # threads that build at once store equal arrays
            up = np.repeat(np.arange(self.n), self.degrees) < self.adj
            ids = np.empty(self.adj.size, dtype=np.int64)
            # Up-arc k is edge k.  The down arcs v->u come by (v, u), the order of their reverses u->v
            # sorted stably by head v.
            ids[up], ids[~up] = np.arange(self.m), np.argsort(self.adj[up], kind="stable")
            self._edge_ids = _read_only(ids)[0]
        return self._edge_ids

    # -- read-only accessors -------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        v = _one_node(v, self.n, "node id")
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of ``v``, sorted ascending."""
        v = _one_node(v, self.n, "node id")
        return self.adj[self.indptr[v] : self.indptr[v + 1]]

    def arcs(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions in ``adj``/``adj_edge_ids`` of the arcs leaving ``nodes``.

        Arcs come grouped by node in the order of ``nodes``; the second
        array holds each node's degree, so ``np.repeat(x, counts)`` aligns a
        per-node value ``x`` with the arcs.  ``nodes`` must hold integers in
        ``0..n-1``; anything else raises ValueError.
        """
        return _arc_positions(self.indptr, _node_ids(nodes, self.n, "node ids"))

    def has_edge(self, u: int, v: int) -> bool:
        v = _one_node(v, self.n, "node id")
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and nbrs[i] == v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # Cached tables are handed out by reference; keep callers from editing them.
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of ``g.edges``, each a contiguous array."""
    tail = np.repeat(np.arange(g.n), g.degrees)
    up = tail < g.adj
    return tail[up], g.adj[up]


def _arc_positions(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`Graph.arcs` over any CSR row pointer ``indptr``."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    return _span_positions(starts, counts, int(counts.sum())), counts


def _span_positions(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """The positions ``starts[i] .. starts[i] + counts[i] - 1``, span after
    span; ``total`` is ``counts.sum()``."""
    base = np.cumsum(counts) - counts
    return np.repeat(starts - base, counts) + np.arange(total)


@dataclass(frozen=True)
class DegreeMoments:
    """First and second degree moments of a graph.

    ``q = (<k^2> - <k>) / <k>`` is the expected number of *new* edges a walker
    gains per newly visited node (the inspection-biased mean degree minus the
    arrival edge); it is the quantity that makes heavy-tailed graphs easy to
    cover.
    """

    mean_degree: float
    second_moment: float

    def __post_init__(self):
        if not np.isfinite([self.mean_degree, self.second_moment]).all():
            raise ValueError("degree moments must be finite")
        if self.mean_degree <= 0:
            raise ValueError("mean degree must be positive (graph has no edges?)")
        if self.second_moment < self.mean_degree**2 * (1 - 1e-12):
            raise ValueError("second moment below squared mean violates Jensen")

    @property
    def q(self) -> float:
        return (self.second_moment - self.mean_degree) / self.mean_degree


def degree_moments(g: Graph) -> DegreeMoments:
    """Exact degree moments over all ``n`` nodes of ``g``."""
    deg = g.degrees.astype(np.float64)
    if g.m == 0:
        raise ValueError("degree moments undefined for an edgeless graph")
    return DegreeMoments(float(deg.mean()), float((deg**2).mean()))


# -- ingestion / serialization ------------------------------------------------

Source = Union[str, os.PathLike, bytes, IO]


def _read_text(source: Source) -> str:
    """The UTF-8 text of ``source`` without one leading byte-order mark."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source if isinstance(source, bytes) else source.read()
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return text.removeprefix("\ufeff")


# str.splitlines() ends a line at each of these characters, where np.loadtxt
# reads a space; and np.loadtxt does not end a comment at a lone "\r".
_SPLITLINES_ONLY_BREAKS = "\x0b\x0c\x1c\x1d\x1e"
# A "#" after a line's first non-blank character: np.loadtxt drops the rest
# of the line, while an edge list reads it as more tokens.
_INLINE_HASH = re.compile(r"^[^\S\n]*[^\s#][^\n]*#", re.MULTILINE)
_INT64 = np.iinfo(np.int64)


def _parse_whole(text: str, path: str | None = None) -> np.ndarray | None:
    """Every line's two labels as a (k, 2) array, parsed in one pass by
    np.loadtxt, or None where that parse might differ from
    :func:`_parse_lines` or fails.

    It is trusted on ASCII text whose lines both parsers split alike (see
    above).  Anything it rejects (a bad token, an id beyond int64, a line of
    another arity, or no edge lines) is left to the per-line parse, which
    alone words the error.

    Given ``path``, the file ``text`` was read from, np.loadtxt reads the
    file itself, in chunks; it feeds any other source to its tokenizer one
    Python line at a time, which takes about 1.5 times as long.  The screen
    above still reads ``text``, so the file is read twice (about 0.5 ms for
    1.6 MB), and a file rewritten between the two reads is parsed as its
    new content.
    """
    if (
        not text.isascii()
        or any(c in text for c in _SPLITLINES_ONLY_BREAKS)
        or ("\r" in text and text.count("\r") != text.count("\r\n"))
        or ("#" in text and _INLINE_HASH.search(text))
    ):
        return None
    try:
        with warnings.catch_warnings():
            # Input with no data only warns, and numpy before 2.0 reads
            # "1.5" as 1 with only a DeprecationWarning.
            warnings.simplefilter("error")
            labels = np.loadtxt(
                io.StringIO(text) if path is None else path,
                dtype=np.int64, ndmin=2, comments="#", encoding="utf-8-sig",
            )
    except (ValueError, Warning):
        return None
    return labels if labels.shape[0] > 0 and labels.shape[1] == 2 else None


def _parse_lines(text: str) -> np.ndarray:
    """Every line's two labels as a (k, 2) array, one line at a time, raising
    :class:`EdgeListParseError` with the number of the first bad line."""
    pairs: list[tuple[int, int]] = []
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
        if not (_INT64.min <= a <= _INT64.max and _INT64.min <= b <= _INT64.max):
            raise EdgeListParseError(f"line {lineno}: node id out of range")
        pairs.append((a, b))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _first_appearance_ids(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``labels`` renumbered ``0..n-1`` in first-appearance order, the label
    of each new id).

    Labels are numbered through tables: ``np.minimum.at`` keeps each
    label's first position in a table indexed by ``label - lo``, a table
    indexed by position lists the distinct labels in order of first
    appearance, and the first table, overwritten, then maps each label to
    its id.  Labels whose span ``hi - lo`` is at least their number of
    entries are first ranked (one ``np.unique``, the only sort), so no
    table outgrows the input.
    """
    flat = labels.ravel()
    lo, hi = int(flat.min()), int(flat.max())
    if hi - lo < flat.size:
        key, distinct = flat - lo, None
    else:
        distinct, key = np.unique(flat, return_inverse=True)
        lo, hi = 0, distinct.size - 1
    first = np.full(hi - lo + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, key, np.arange(flat.size))
    present = np.flatnonzero(first < flat.size)
    slot = np.full(flat.size, -1, dtype=np.int64)
    slot[first[present]] = present
    by_appearance = slot[slot >= 0]
    first[by_appearance] = np.arange(by_appearance.size)
    originals = by_appearance + lo if distinct is None else distinct[by_appearance]
    return first[key].reshape(labels.shape), originals


def load_edge_list(source: Source) -> Graph:
    """Parse a whitespace-separated edge list into a simple undirected Graph.

    One edge per line, two integer node ids; lines starting with ``#`` are
    comments and blank lines are ignored, and one leading byte-order mark is
    skipped.  Duplicate edges (in either orientation) and self-loops are
    dropped.  Node ids are remapped to dense ``0..n-1`` in first-appearance
    order; the original labels are kept on the returned graph's
    ``original_ids``.  Labels are remapped through tables indexed by label
    (see :func:`_first_appearance_ids`): labels that span less than their
    number of entries, such as the dense ids :func:`write_edge_list`
    writes, index them directly, and wider spans are first ranked, so no
    table outgrows the input.
    The text and the labels are freed before the graph is built.

    ASCII input is parsed in one vectorized pass when its lines split alike
    for np.loadtxt and for Python; any other input, and every input that
    parse rejects, goes through a per-line parse that gives the same graph
    and words every error.  A path is handed to np.loadtxt, which reads the
    file itself in chunks (see :func:`_parse_whole`), unless its name ends
    in a suffix numpy would decompress.

    Raises
    ------
    EdgeListParseError
        On a malformed line (with its line number), a node id outside int64,
        or if the input contains no edge lines at all.
    """
    text = _read_text(source)
    path = None
    if isinstance(source, (str, os.PathLike)):
        # np.loadtxt opens a str path with numpy's DataSource, which decompresses
        # by suffix and would fetch a name that parses as a URL; no absolute path does.
        path = os.path.abspath(os.fsdecode(source))
        path = None if path.endswith((".gz", ".bz2", ".xz", ".lzma")) else path
    labels = _parse_whole(text, path)
    if labels is None:
        labels = _parse_lines(text)
    del text  # the constructor's sort is the load's peak; keep only the ids
    if labels.size == 0:
        raise EdgeListParseError("empty input: no edge lines found")
    pairs, originals = _first_appearance_ids(labels)
    del labels
    return Graph(originals.size, pairs, original_ids=originals)


def write_edge_list(g: Graph, dest: Union[str, os.PathLike, IO]) -> None:
    """Write ``g`` as a canonical edge list (one ``u v`` line per edge, dense ids).

    Isolated nodes are not representable in this format and are lost on a
    round trip.
    """
    lines = "".join(f"{u} {v}\n" for u, v in g.edges.tolist())
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(lines)
    else:
        dest.write(lines)


# -- traversal ------------------------------------------------------------------


def _distinct(values: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """``values`` without repeats, in no set order, without sorting.

    Each entry parks its position in ``slot[value]``; exactly one position
    per value survives, whichever write numpy applies last, and the entries
    whose position survived are kept.  ``slot`` is any int64 array indexable
    by every value; only those entries are written.
    """
    position = np.arange(values.size)
    slot[values] = position
    return values[slot[values] == position]


def _bool_mask(mask, size: int, what: str) -> np.ndarray:
    """``mask`` as an array; ValueError unless it is a bool array of shape
    ``(size,)``, since an integer array would gather instead of marking."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (size,):
        raise ValueError(f"{what} must be a bool array of shape ({size},), got {mask.dtype} of shape {mask.shape}")
    return mask


def _arc_subset(g: Graph, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, adj) of the arcs of ``g`` with a true entry in ``keep``, a
    bool per arc: one prefix sum, no sort, so every row keeps its arcs in
    adjacency order."""
    kept_before = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[g.indptr], g.adj[keep]


# A level of bfs_distances that pushes at least this share of n arcs marks
# their heads in an n-sized bool table and takes its frontier with one
# np.flatnonzero; a smaller one dedupes its heads with _distinct instead.
# The table costs a few passes over n bytes whatever the level holds, and
# _distinct costs several times more per arc than a table pass per node, so
# a long path or a grid, whose levels are all small, never pays O(n) a level.
_TABLE_SHARE = 1 / 8


def _pull(indptr: np.ndarray, adj: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """The nodes marked in ``fresh`` with an arc into an unmarked node,
    ascending: one pulled level of :func:`bfs_distances`.

    A candidate stops at its first such arc (Beamer et al.'s bottom-up
    early exit).  Round k tests the k-th arc of every candidate still open
    with one gather; a hit joins, and a candidate whose arcs run out leaves.
    A round that hits fewer than half of the candidates it tested ends the
    rounds, and the candidates still open are scanned over their untested
    arcs at once.  Every round before that removes at least half of its
    candidates, so the rounds test fewer than twice as many arcs as there
    are candidates, and a pull stays within the candidates' arcs.
    """
    candidates = np.flatnonzero(fresh)
    pos = indptr[candidates]
    end = indptr[candidates + 1]
    armed = pos < end  # a candidate with no arc, say masked away, cannot join
    if not armed.all():
        candidates, pos, end = candidates[armed], pos[armed], end[armed]
    joined = np.zeros(candidates.size, dtype=bool)
    open_ = np.arange(candidates.size)  # the candidates still in the rounds
    while open_.size:
        missed = fresh[adj[pos]]
        joined[open_] = ~missed  # no open candidate has joined yet
        tested = open_.size
        misses = int(np.count_nonzero(missed))
        pos += 1
        missed &= pos < end
        stay = np.flatnonzero(missed)
        open_, pos, end = open_[stay], pos[stay], end[stay]
        if 2 * misses > tested:  # fewer than half hit
            break
    if open_.size:
        counts = end - pos
        # reached[k]: arcs among the open candidates' first k that reach an unmarked node
        reached = np.zeros(int(counts.sum()) + 1, dtype=np.int64)
        np.cumsum(~fresh[adj[_span_positions(pos, counts, reached.size - 1)]], out=reached[1:])
        ends = np.cumsum(counts)
        joined[open_[reached[ends] > reached[ends - counts]]] = True
    return candidates[joined]


def bfs_distances(
    g: Graph, source: int, edge_mask: np.ndarray | None = None, *, max_level: int | None = None
) -> np.ndarray:
    """Breadth-first hop distances from ``source`` (UNREACHABLE where no path exists).

    When ``edge_mask`` (a bool array of shape ``(m,)``, one entry per edge
    id) is given, only edges with a true mask entry are traversed, i.e. the
    search runs on a subgraph of ``g`` sharing its node ids, filtered once
    before the first level in adjacency order; the filter costs O(n + m)
    whatever the mask keeps.  Given ``max_level``, nodes more than
    ``max_level`` hops away are UNREACHABLE too.  Any other mask,
    a non-integral or out-of-range ``source`` and a ``max_level`` that is no
    integer of at least 0 raise ValueError.

    Level 1 is the source's own row of the searched arcs, taken by slice: a
    row of a simple graph, masked or not, is distinct, ascending and free of
    the source.  Every later level either pushes or pulls (Beamer et al.,
    SC'12).  The search keeps the count of the unreached nodes' arcs: the
    searched arcs minus the arcs of every node reached so far.  While the
    frontier's arcs are at most that count the level pushes: it gathers the
    frontier's neighbors and keeps the unreached ones, deduplicated in an
    n-sized bool table once they number ``_TABLE_SHARE * n`` or more.
    Otherwise it pulls (:func:`_pull`): every unreached node with an arc
    into a reached node joins, each stopping at its first such arc.  A
    pulled frontier comes out ascending.  The search ends at a level that
    reaches nothing, once no unreached node has an arc left, or after level
    ``max_level``.
    """
    # One source would fill one bit of pair_distances' 64-bit words, whose
    # levels pull over every arc of their block's G*; this search keeps
    # bool reach tables and pulls over the unreached nodes' arcs alone.  A
    # large pushed level's frontier is np.flatnonzero of its table, and a
    # pulled one is picked from np.flatnonzero(fresh), so both come
    # distinct and ascending, and the next level reads indptr and adj in
    # order.
    source = _one_node(source, g.n, "source")
    max_level = g.n if max_level is None else _one_int(max_level, "max_level", lo=0)  # no path has n hops
    if edge_mask is None:
        indptr, adj = g.indptr, g.adj
    else:
        indptr, adj = _arc_subset(g, _bool_mask(edge_mask, g.m, "edge_mask")[g.adj_edge_ids])
    dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    fresh = np.ones(g.n, dtype=bool)  # the unreached nodes
    fresh[source] = False
    frontier = adj[indptr[source] : indptr[source + 1]]
    unreached = adj.size - frontier.size
    level = 1
    while frontier.size and level <= max_level:
        fresh[frontier] = False
        dist[frontier] = level
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        arcs = int(np.add.reduce(counts))
        unreached -= arcs
        if arcs <= unreached:
            nbrs = adj[_span_positions(starts, counts, arcs)]
            if arcs < _TABLE_SHARE * g.n:
                frontier = _distinct(nbrs[fresh[nbrs]], dist)  # every parked node is reached next
            else:
                hit = np.zeros(g.n, dtype=bool)
                hit[nbrs] = True
                hit &= fresh
                frontier = np.flatnonzero(hit)
        elif unreached == 0:
            break
        else:
            # An unreached node's reached neighbors are all on the last
            # level: any earlier one would have reached it already.
            frontier = _pull(indptr, adj, fresh)
        level += 1
    if level > max_level:  # stopped by the cap: the next level, maybe parked in dist, stays unreached
        dist[frontier] = UNREACHABLE
    return dist


# A level of pair_distances pushes its whole frontier (scatters each word
# over its node's kept arcs with np.bitwise_or.at) while the frontier's kept
# arcs are at most this share of the block's kept arcs, and pulls over every
# kept arc otherwise.  A pushed arc costs several times a pulled one, but a
# pull scans them all.
_PUSH_SHARE = 0.1


def _allowed_words(allowed: np.ndarray, visited, lo: int, hi: int) -> None:
    """Fill ``allowed[u]`` with the bits ``a - lo`` of the sources ``lo <= a <
    hi`` whose ``visited[a]`` holds ``u``, one index pass per distinct array."""
    allowed.fill(0)
    words: dict[int, list] = {}
    for a in range(lo, hi):
        words.setdefault(id(visited[a]), [visited[a], 0])[1] |= 1 << (a - lo)
    for ids, word in words.values():
        allowed[_node_ids(ids, allowed.size, "visited node ids")] |= np.uint64(word)


def pair_distances(g: Graph, nodes, visited=None) -> np.ndarray:
    """Hop distances among ``nodes`` as a k x k matrix, each source searching
    only its own discovered subgraph (UNREACHABLE where no route exists).

    ``visited[a]`` is the node-id array of source a's visited set: G*'s nodes
    for a meeting group, whose members pass the same array object.  Source a
    may cross arc u->v only when u or v is in ``visited[a]``, the rule of
    :attr:`rwtopo.walker.WalkTrace.covered_edges`, and entry ``[a, b]``, its
    distance to ``nodes[b]``, is reported only where ``nodes[b]`` is in
    ``visited[a]``; elsewhere it is UNREACHABLE.  Without ``visited`` every
    source searches all of ``g``.

    Up to 64 sources are searched at once, one bit per source in a
    ``uint64`` word (Then et al., "The More the Merrier", PVLDB 2014).
    ``allowed[u]`` ORs the bits of the sources whose set holds u, and arc
    u->v carries the word ``allowed[u] | allowed[v]``, the sources that may
    cross it.  A block keeps only the arcs with a nonzero word, the union of
    its sources' discovered subgraphs, under ``g``'s node ids, and searches
    nothing else.  A level with few frontier arcs pushes each frontier word
    over its node's arcs, ANDed with theirs; a larger one pulls
    ``frontier & word`` over every kept arc into the arc's tail (Beamer et
    al., SC'12).  A block of sources stops once every one of ``nodes`` holds
    all of its allowed bits, or once a level reaches nothing new.

    Raises ValueError when ``nodes[a]`` is not in ``visited[a]``.
    """
    nodes = _node_ids(nodes, g.n, "node ids").reshape(-1)
    if visited is not None and len(visited) != nodes.size:
        raise ValueError("visited needs one node-id array per node")
    allowed = np.empty(g.n, dtype=np.uint64)
    seen = np.empty(g.n, dtype=np.uint64)
    frontier = np.empty(g.n, dtype=np.uint64)  # nonzero only at ``front``
    slot = np.empty(g.n, dtype=np.int64)
    dist = np.full((nodes.size, nodes.size), UNREACHABLE, dtype=np.int64)

    for lo in range(0, nodes.size, 64):
        block = nodes[lo : lo + 64]
        shifts = np.arange(block.size, dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), shifts)
        if visited is None:
            allowed.fill(np.bitwise_or.reduce(bits))
        else:
            _allowed_words(allowed, visited, lo, lo + block.size)
        outside = np.flatnonzero((allowed[block] >> shifts) & np.uint64(1) == 0)
        if outside.size:
            a = lo + int(outside[0])
            raise ValueError(f"node {nodes[a]} (entry {a}) is not in its visited set")
        need = allowed[nodes]
        word = np.repeat(allowed, g.degrees)
        word |= allowed[g.adj]
        indptr, adj = _arc_subset(g, word != 0)
        word = word[word != 0]  # no full-length array outlives the set-up
        kept_deg = np.diff(indptr)
        pullers = np.flatnonzero(kept_deg)
        pull_starts = indptr[pullers]
        push_limit = _PUSH_SHARE * adj.size
        frontier.fill(0)
        np.bitwise_or.at(frontier, block, bits)
        seen[:] = frontier
        front = np.unique(block)
        level = 0
        while True:
            reached = frontier[nodes] & need
            if reached.any():
                targets, sources = np.nonzero((reached[:, None] >> shifts) & np.uint64(1))
                dist[lo + sources, targets] = level
            if ((seen[nodes] & need) == need).all():
                break
            level += 1
            if kept_deg[front].sum() <= push_limit:
                arcs, counts = _arc_positions(indptr, front)
                heads = adj[arcs]
                crossing = np.repeat(frontier[front], counts) & word[arcs]
                crossing &= ~seen[heads]
                new = np.flatnonzero(crossing)
                frontier[front] = 0
                np.bitwise_or.at(frontier, heads[new], crossing[new])
                front = _distinct(heads[new], slot)
            else:
                gathered = np.take(frontier, adj)
                gathered &= word
                pulled = np.bitwise_or.reduceat(gathered, pull_starts) & ~seen[pullers]
                frontier[front] = 0
                frontier[pullers] = pulled
                front = pullers[pulled != 0]
            if not front.size:
                break
            seen[front] |= frontier[front]
    return dist


def _components(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of nodes ``0..n-1`` joined by the forest
    ``parent`` and linked by the pairs ``(a[k], b[k])``, as (labels, sizes)
    numbered by smallest member.

    ``parent[v]`` is v's root, so every tree is one level deep, and a
    tree's root is its smallest member: ``np.arange(n)`` is n one-node
    trees.  Every node a pair names must be a root.  ``a`` and ``b`` are
    int arrays; their pairs may come in any order, repeat, or link a node
    to itself.  Each round hooks roots by the classic hook-and-shortcut
    scheme (Shiloach & Vishkin, J. Algorithms 1982): the larger root of
    every pair of distinct roots points at the smallest root it is paired
    with, full pointer jumping flattens every tree back to one level, and
    every pair becomes its two roots, the pairs inside one tree dropped.

    A root only ever hooks under a smaller root, so every parent pointer
    decreases and each tree's root stays its smallest member; numbering the
    roots in id order therefore numbers components by smallest member.  A
    tree with a neighbor hooks or is hooked within two rounds, so the trees
    of a component at least halve every two rounds: O(log n) rounds, each
    one pass over the pairs plus a few jumping passes over the nodes,
    whatever the number or shape of the components.  ``parent`` is
    overwritten: jumps alternate between it and one more n-sized buffer, so
    no other forest is allocated while the caller holds ``parent``.
    """
    n, grand = parent.size, np.empty_like(parent)
    while a.size:
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        # Every index is in range, so "clip" takes what "raise" would, without buffering ``out``.
        while not (parent.take(parent, out=grand, mode="clip") == parent).all():
            parent, grand = grand, parent
        cross = parent[a] != parent[b]
        a, b = parent[a[cross]], parent[b[cross]]
    labels = (np.cumsum(parent == np.arange(n)) - 1)[parent]  # roots numbered in id order
    return labels, np.bincount(labels)


def component_labels(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Connected components as read-only (labels, sizes).

    Labels are numbered in order of each component's smallest node id;
    ``sizes[c]`` is the node count of component ``c``.  The graph is
    labelled on the first call only, and the pair is kept on it.

    A search from the highest-degree node settles its component first
    (Afforest's idea; Sutton, Ben-Nun & Barak, IPDPS 2018).  If it runs out
    within ``n.bit_length()`` levels, as in a small-world giant component,
    the component becomes one tree rooted at its smallest member and
    :func:`_components` hooks only the other nodes' arcs, none of which
    reach it.  Otherwise, as on a grid or a long path, more levels would
    cost more than the O(log n) hooking rounds they save, and every edge
    is hooked.
    """
    if g._components is None:  # threads that label at once store equal pairs
        cap = g.n.bit_length()
        dist = bfs_distances(g, int(np.argmax(g.degrees)), max_level=cap)
        if dist.max() < cap:  # the search ran out within the hub's component
            members, rest = np.flatnonzero(dist != UNREACHABLE), np.flatnonzero(dist == UNREACHABLE)
            arcs, counts = _arc_positions(g.indptr, rest)
            a, b = np.repeat(rest, counts), g.adj[arcs]
            parent = np.arange(g.n)
            parent[members] = members[0]
        else:
            del dist  # deriving the edge columns is the peak; keep no n-sized array through it
            a, b = _edge_ends(g)
            parent = np.arange(g.n)
        g._components = _read_only(*_components(parent, a, b))
    return g._components


def oriented_arcs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Every edge of ``g`` once, as a read-only CSR pair (indptr, adj).

    Edge {u, v} is kept as the arc leaving whichever end comes first in
    (degree, id) order, the pairs compared entry by entry, and the arcs keep
    their place in ``g.adj`` (:func:`_arc_subset`).  So ``adj`` holds m
    entries, each row ascends, and a row of length k has k heads of degree
    at least k: no row is longer than sqrt(2m) (Chiba & Nishizeki,
    "Arboricity and subgraph listing algorithms", SIAM J. Comput. 1985).
    The table is built on the first call only and kept on the graph.
    """
    if g._oriented is None:  # threads that build at once store equal pairs
        deg = g.degrees
        tail = np.repeat(np.arange(g.n), deg)
        tail_deg, head_deg = deg[tail], deg[g.adj]
        keep = (tail_deg < head_deg) | ((tail_deg == head_deg) & (tail < g.adj))
        g._oriented = _read_only(*_arc_subset(g, keep))
    return g._oriented


def giant_members(g: Graph) -> np.ndarray:
    """Node ids of the largest connected component, ascending.

    Ties on size are broken by the smallest minimum original node id.
    """
    labels, sizes = component_labels(g)
    min_original = np.full(sizes.size, np.iinfo(np.int64).max)
    np.minimum.at(min_original, labels, g.original_ids)
    largest = np.flatnonzero(sizes == sizes.max())
    best = largest[np.argmin(min_original[largest])]
    return np.flatnonzero(labels == best)


def giant_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest connected component (see :func:`giant_members`).

    Returns the subgraph plus an old-to-new id mapping (-1 for nodes outside
    it).  A connected graph is its own giant component: ``g`` itself comes
    back, with the identity mapping.  Otherwise the subgraph is sliced from
    ``g``'s CSR, with no sort: a member's arcs all lead to members, and the
    mapping ascends on them, so the member rows, their heads mapped, are
    the subgraph's rows in order.
    """
    members = giant_members(g)
    if members.size == g.n:
        return g, members  # 0..n-1: the identity mapping
    mapping = np.full(g.n, -1, dtype=np.int64)
    mapping[members] = np.arange(members.size)
    arcs, counts = _arc_positions(g.indptr, members)
    indptr = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Graph.__new__(Graph)._from_csr(indptr, mapping[g.adj[arcs]], g.original_ids[members]), mapping


def stats_report(g: Graph) -> dict:
    """Summary statistics as a JSON-ready dict."""
    mom = degree_moments(g)
    _, sizes = component_labels(g)
    return {
        "n": g.n,
        "m": g.m,
        "mean_degree": mom.mean_degree,
        "second_moment": mom.second_moment,
        "q": mom.q,
        "giant_component_fraction": int(sizes.max()) / g.n,
    }
