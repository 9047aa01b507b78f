"""Synthetic graph generators.

These provide desk-scale stand-ins for the large social/AS snapshots that
heavy-tailed crawling behaviour is usually studied on: i.i.d. power-law
degree sequences, an erased configuration model, preferential-attachment
growth, and a 2D grid as a low-variance negative control.  All generators
are pure functions of ``(params, seed)``; a seed opens its stream as a walk
seed does, through :func:`rwtopo.walker._rng`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _int64s, _one_int, _one_real
from .walker import _as_seed_tuple, _rng


@dataclass(frozen=True)
class PowerLawParams:
    """Parameters of a discrete power-law degree distribution p_k ~ k**-alpha.

    ``alpha`` is the exponent (> 1), ``k_min`` the smallest degree, and ``n``
    the number of nodes the distribution is sampled for.
    """

    alpha: float
    k_min: int = 1
    n: int = 2

    def __post_init__(self):
        if not _one_real(self.alpha, "alpha") > 1:
            raise ValueError("alpha must exceed 1")
        for field, lo in (("k_min", 1), ("n", 2)):
            object.__setattr__(self, field, _one_int(getattr(self, field), field, lo))
        if self.k_min > self.n - 1:
            raise ValueError("k_min must be at most n - 1")

    @property
    def k_cap(self) -> int:
        """Structural degree cutoff floor(sqrt(n * k_min))."""
        return max(self.k_min, int(math.isqrt(self.n * self.k_min)))


def power_law_degrees(params: PowerLawParams, seed) -> np.ndarray:
    """Sample n i.i.d. degrees from p_k ~ k**-alpha on [k_min, k_cap].

    The support is truncated at the structural cutoff sqrt(n * k_min) to keep
    degree-degree correlations negligible after stub matching.  If the sampled
    sum is odd the last entry is incremented by one (an O(1/n) perturbation of
    the moments, which may push that single entry one above the cutoff).
    """
    # Draw first, so that an impossible n fails before the k_cap-sized tables.
    uniform = _rng(seed).random(params.n)
    support = np.arange(params.k_min, params.k_cap + 1, dtype=np.int64)
    # Normalize against the smallest k so huge alphas underflow gracefully.
    weights = (support / params.k_min) ** (-params.alpha)
    # Map the draws as Generator.choice(support, p=...) does.
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    degrees = support[cdf.searchsorted(uniform, side="right")]
    if int(degrees.sum()) % 2 == 1:
        degrees[-1] += 1
    return degrees


def configuration_model(degrees, seed) -> Graph:
    """Uniform stub matching of a degree sequence, erased to a simple graph.

    Stubs are paired by a random permutation; self-loops and parallel edges
    from the matching are then dropped, so realized degrees can fall slightly
    below the requested ones.

    Parameters
    ----------
    degrees : array-like of int
        Requested degree per node; the sum must be even.
    seed : int or sequence of int
        Seed for the matching permutation.
    """
    degrees = _int64s(degrees, "degrees")
    if degrees.ndim != 1 or degrees.size < 1:
        raise ValueError("degrees must be a non-empty 1-D sequence")
    if (degrees < 0).any():
        raise ValueError("degrees must be non-negative")
    if int(degrees.sum()) % 2 == 1:
        raise ValueError("degree sum must be even")
    rng = _rng(seed)
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    stubs = rng.permutation(stubs)
    return Graph(degrees.size, stubs.reshape(-1, 2))


# Bounds on how many nodes draw their targets in one array call; a block
# halves after a node whose draws repeat a target and doubles otherwise.
_PA_BLOCK_MIN = 16
_PA_BLOCK_MAX = 4096


def preferential_attachment(n: int, m0: int, seed) -> Graph:
    """Degree-proportional growth from an (m0+1)-clique.

    Each new node attaches to ``m0`` distinct existing nodes chosen with
    probability proportional to their current degree (Barabasi-Albert style
    growth), which yields a power-law degree tail.  The result is always
    simple and connected.

    A node draws positions in ``repeated``, one entry per edge endpoint, until
    it holds ``m0`` distinct targets.  The draws of a block of nodes come from
    one ``rng.integers`` call and consume the stream exactly as one call per
    draw would, so a given ``(n, m0, seed)`` yields the same graph as drawing
    one target at a time.
    """
    n, m0 = _one_int(n, "n"), _one_int(m0, "m0", lo=1)
    if n <= m0:
        raise ValueError("n must exceed m0")
    rng = _rng(seed)
    clique = m0 + 1
    width = 2 * m0  # entries each new node adds to `repeated`
    start = clique * m0
    repeated = np.empty(start + width * (n - clique), dtype=np.int64)
    lo, hi = np.triu_indices(clique, 1)
    clique_edges = np.stack([lo, hi], axis=1)
    repeated[:start] = clique_edges.ravel()
    # Row j - clique is node j's segment: its sorted targets, then j m0 times.
    # Node j draws from the first start + width * (j - clique) entries.
    grown = repeated[start:].reshape(n - clique, width)
    grown[:, m0:] = np.arange(clique, n, dtype=np.int64)[:, None]
    row, block = 0, _PA_BLOCK_MIN
    while row < n - clique:
        rows = min(block, n - clique - row)
        base = start + width * row
        highs = np.repeat(base + width * np.arange(rows, dtype=np.int64), m0)
        state = rng.bit_generator.state
        drawn = _block_targets(repeated, rng.integers(0, highs).reshape(rows, m0), base)
        # Accept the nodes before the first one whose draws repeat a target.
        repeats = (drawn[:, 1:] == drawn[:, :-1]).any(axis=1)
        accepted = int(repeats.argmax()) if repeats.any() else rows
        grown[row : row + accepted, :m0] = drawn[:accepted]
        row += accepted
        if accepted == rows:
            block = min(2 * block, _PA_BLOCK_MAX)
            continue
        # Replay the accepted nodes' draws, then draw the repeating node's
        # targets one at a time against the extended `repeated`.
        rng.bit_generator.state = state
        rng.integers(0, highs[: accepted * m0])
        high = start + width * row
        chosen: set[int] = set()
        while len(chosen) < m0:
            chosen.add(int(repeated[rng.integers(high)]))
        grown[row, :m0] = sorted(chosen)
        row += 1
        block = max(block // 2, _PA_BLOCK_MIN)
    grown_edges = np.stack([grown[:, m0:].ravel(), grown[:, :m0].ravel()], axis=1)
    return Graph(n, np.concatenate([clique_edges, grown_edges]))


def _block_targets(repeated, pos, base):
    """Sorted targets of a block of new nodes from the positions they drew.

    Row r of ``pos`` holds the draws of the block's r-th node, whose segment
    starts at ``base + 2 * m0 * r``.  ``repeated`` already holds every entry
    below ``base`` and every node's own m0 entries.  A draw of one of the
    block's target slots reads the earlier row's sorted targets once that row
    is resolved; rows point only backwards, so each pass resolves at least
    the first unresolved row.
    """
    m0 = pos.shape[1]
    src, slot = np.divmod(pos - base, 2 * m0)
    pending = (pos >= base) & (slot < m0)
    values = repeated[pos]
    out = np.empty_like(pos)
    ready = ~pending.any(axis=1)
    out[ready] = np.sort(values[ready], axis=1)
    while not ready.all():
        hit = pending & ready[np.where(pending, src, 0)]
        values[hit] = out[src[hit], slot[hit]]
        pending &= ~hit
        fresh = ~ready & ~pending.any(axis=1)
        out[fresh] = np.sort(values[fresh], axis=1)
        ready |= fresh
    return out


def grid_2d(rows: int, cols: int) -> Graph:
    """Deterministic rows x cols lattice; a low-q control case."""
    rows, cols = _one_int(rows, "rows", lo=1), _one_int(cols, "cols", lo=1)
    idx = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    return Graph(rows * cols, np.concatenate([right, down]))


# -- textual generator specs (shared by the CLI and eval configs) -------------

_SPEC_HELP = (
    "expected '<model>:k=v,...' with model one of "
    "pa (n, m0), plconfig (n, alpha, kmin), grid (rows, cols)"
)


def from_spec(spec: str, seed) -> Graph:
    """Build a graph from a compact textual spec.

    Supported forms::

        pa:n=5000,m0=3          preferential attachment
        plconfig:n=10000,alpha=2.5,kmin=2
                                power-law degrees + erased configuration model
        grid:rows=71,cols=71    2D lattice (seed checked, unused)
    """
    _as_seed_tuple(seed)
    model, _, arg_str = spec.partition(":")
    model = model.strip().lower()
    args: dict[str, str] = {}
    if arg_str.strip():
        for item in arg_str.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip() or not value.strip():
                raise ValueError(f"bad generator spec {spec!r}: {_SPEC_HELP}")
            key = key.strip().lower()
            if key in args:
                raise ValueError(f"generator spec {spec!r} gives {key!r} twice")
            args[key] = value.strip()

    def take(key: str, parse=int, default: str | None = None):
        value = args.pop(key, default)
        if value is None:
            raise ValueError(f"generator spec {spec!r} is missing {key!r}")
        try:
            return parse(value)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise ValueError(f"generator spec {spec!r}: {key} must be {kind}, got {value!r}") from None

    if model == "pa":
        g = preferential_attachment(take("n"), take("m0"), seed)
    elif model == "plconfig":
        params = PowerLawParams(alpha=take("alpha", float), k_min=take("kmin", int, "1"), n=take("n"))
        g = configuration_model(power_law_degrees(params, seed), seed)
    elif model == "grid":
        g = grid_2d(take("rows"), take("cols"))
    else:
        raise ValueError(f"unknown generator model {model!r}: {_SPEC_HELP}")
    if args:
        raise ValueError(f"unknown keys {sorted(args)} in generator spec {spec!r}")
    return g
