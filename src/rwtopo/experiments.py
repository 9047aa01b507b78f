"""Seeded Monte-Carlo harness: stretch matrices, coverage curves, crossing rates.

The harness repeats the discovery protocol from random starts inside the
giant component, tabulates (true shortest-path length, discovered route
length) for every ordered walker pair into a stretch matrix with an INF
bucket for undiscovered routes, and writes plot-ready CSV/JSON reports.
Every run draws its own RNG streams from (master seed, run index), so runs
can execute in a worker pool and still merge to byte-identical results.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .coverage import (
    CrossingBoundParams,
    crossing_probability_bound,
    expected_edge_fraction,
)
from .graph import (
    Graph,
    UNREACHABLE,
    _int64s,
    _one_int,
    _one_real,
    bfs_distances,
    degree_moments,
    giant_component,  # noqa: F401  (not called here; rwbench/tracing.py wraps it by name)
    giant_members,
    pair_distances,
)
from .rwsp import ProtocolRun, run_rwsp
from .rwsp import routing_tree  # noqa: F401  (not called here; rwbench/tracing.py wraps it by name)
from .walker import WalkTrace, _as_seed_tuple, _rng, _start_nodes, run_walk, run_walks, walker_seed

# Stream tag for start-node sampling; must not collide with walker ids, so h
# may not exceed it.  Run r's walker i draws from the stream at (cfg.seed,
# r, i), its starts from (cfg.seed, r, _START_STREAM), and the coverage walk
# of run r from (cfg.seed, r).
_START_STREAM = 0xBEEF

# Cap on what one block of walks holds at once, so its memory does not grow
# with the run count: the uniforms crossing_rate draws (lanes x budget x 8
# bytes), and the visited sets of a block of scored runs (at most h x budget
# node ids a run).
_WALK_BLOCK_BYTES = 1 << 22


class InvariantViolation(RuntimeError):
    """A recorded result contradicts a structural guarantee (routing bug)."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: h walkers, budget fraction beta, repeated ``runs`` times.

    The walk budget is ``floor(beta * n)`` steps, or ``floor(beta * n / h)``
    with ``rescale_budget`` (total crawl effort held constant across h
    sweeps).  Start nodes are drawn uniformly without replacement from the
    giant component unless ``fixed_starts`` pins them.
    """

    seed: int
    h: int = 4
    beta: float = 0.025
    runs: int = 200
    rescale_budget: bool = False
    fixed_starts: tuple[int, ...] | None = None
    workers: int = 1
    graph_source: str | None = None

    def __post_init__(self):
        # Counts and node ids are stored as plain ints, beta as a float and
        # rescale_budget as a bool: metadata.json is asdict(config), and the
        # walk loop steps over plain ints.  The seed is only checked: it may
        # exceed int64, or be a sequence.
        try:
            _as_seed_tuple(self.seed)
            object.__setattr__(self, "h", _one_int(self.h, "h", lo=2))
            if self.h > _START_STREAM:
                raise ValueError(
                    f"h must be at most {_START_STREAM}: walker {_START_STREAM} would replay the start-drawing stream"
                )
            object.__setattr__(self, "beta", _one_real(self.beta, "beta"))
            if not 0 < self.beta < 1:
                raise ValueError("beta must lie in (0, 1)")
            for field in ("runs", "workers"):
                object.__setattr__(self, field, _one_int(getattr(self, field), field, lo=1))
            if self.fixed_starts is not None:
                starts = _int64s(self.fixed_starts, "fixed_starts")
                if starts.shape != (self.h,):
                    raise ValueError("fixed_starts must list exactly h nodes")
                if np.unique(starts).size < self.h:  # the walkers would share a start
                    raise ValueError("fixed_starts must be distinct")
                object.__setattr__(self, "fixed_starts", tuple(starts.tolist()))
        except ValueError as exc:  # a bad value, named by the readers, _as_seed_tuple or the checks above
            raise ConfigError(str(exc)) from None
        if not isinstance(self.rescale_budget, (bool, np.bool_)):  # "no" is truthy
            raise ConfigError(f"rescale_budget must be a bool, got {self.rescale_budget!r}")
        object.__setattr__(self, "rescale_budget", bool(self.rescale_budget))

    def budget(self, n: int) -> int:
        b = int(self.beta * n / self.h) if self.rescale_budget else int(self.beta * n)
        if b < 1:
            raise ConfigError(f"budget fraction beta={self.beta} yields zero steps on n={n}")
        return b


class StretchMatrix:
    """Joint counts of (true distance, discovered distance) over walker pairs.

    Rows index the true shortest-path length, columns the discovered route
    length; both axes run 1..D plus a trailing INF bucket (row: endpoints
    disconnected in the graph, column: no route discovered).  For finite
    cells the column can never be below the row: a discovered route is a
    path in the real graph.
    """

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] < 1:
            raise ValueError("counts must be a square matrix with an INF bucket")
        self.counts = counts
        self._check()

    def _check(self) -> None:
        d = self.finite_limit
        finite = self.counts[:d, :d]
        bad = np.argwhere(np.tril(finite, k=-1) > 0)
        if bad.size:
            r, c = bad[0]
            raise InvariantViolation(
                f"discovered distance {c + 1} beats true distance {r + 1}"
            )
        if self.counts[d, :d].sum() > 0:
            raise InvariantViolation("finite route recorded for unreachable endpoints")

    @classmethod
    def from_pairs(cls, pairs) -> "StretchMatrix":
        """Tally ``(d_true, d_discovered)`` records, any (N, 2) array-like;
        UNREACHABLE marks INF."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        unreachable = pairs == UNREACHABLE
        invalid = pairs[(pairs < 1) & ~unreachable]
        if invalid.size:
            raise InvariantViolation(f"invalid recorded distance {invalid[0]}")
        limit = int(pairs[~unreachable].max(initial=0))
        cells = np.where(unreachable, limit, pairs - 1)
        counts = np.zeros((limit + 1, limit + 1), dtype=np.int64)
        np.add.at(counts, (cells[:, 0], cells[:, 1]), 1)
        return cls(counts)

    @property
    def finite_limit(self) -> int:
        """Largest finite distance on either axis (0 when only INF exists)."""
        return self.counts.shape[0] - 1

    @property
    def labels(self) -> list[str]:
        return [str(d) for d in range(1, self.finite_limit + 1)] + ["INF"]

    @property
    def total_pairs(self) -> int:
        return int(self.counts.sum())

    @property
    def marginal_true_histogram(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def row_normalized(self) -> np.ndarray:
        sums = self.counts.sum(axis=1, keepdims=True)
        out = np.zeros(self.counts.shape, dtype=np.float64)
        np.divide(self.counts, sums, out=out, where=sums > 0)
        return out

    def summary(self) -> dict:
        """Optimality fractions overall and per true-distance row.

        ``fraction_optimal`` / ``fraction_within_one`` are taken over finite
        pairs; ``inf_fraction`` over all recorded pairs.  A fraction over no
        pairs is 0.0, and a row with no pairs is left out of ``per_row``.
        """
        d = self.finite_limit
        routed = self.counts.copy()
        routed[:, d] = 0  # only the pairs with a finite route
        optimal = np.diagonal(routed)
        within = optimal + np.append(np.diagonal(routed, 1), 0)
        # Per true-distance row, the INF row last: its pairs, finite pairs,
        # optimal routes and routes within one hop of optimal.
        table = np.stack([self.counts.sum(axis=1), routed.sum(axis=1), optimal, within])

        def fractions(pairs: int, finite: int, optimal: int, within: int) -> dict:
            return {
                "fraction_optimal": optimal / finite if finite else 0.0,
                "fraction_within_one": within / finite if finite else 0.0,
                "inf_fraction": (pairs - finite) / pairs if pairs else 0.0,
            }

        per_row = {
            r: {"pairs": row[0], "finite": row[1], **fractions(*row)}
            for r, row in enumerate(table[:, :d].T.tolist(), 1)
            if row[0]
        }
        total = table.sum(axis=1).tolist()
        return {
            "total_pairs": total[0],
            "finite_pairs": total[1],
            "unreachable_true_pairs": int(table[0, d]),
            **fractions(*total),
            "per_row": per_row,
        }


@dataclass(frozen=True)
class CoverageValidationRow:
    """Empirical vs predicted covered-edge fraction at one tau grid point."""

    tau: float
    empirical_mean: float
    empirical_std: float
    predicted: float


@dataclass(frozen=True)
class CrossingRateResult:
    """Measured non-crossing rate for walker pairs plus the analytic bound.

    ``gamma_bar`` is the closed-form covered-edge fraction the bound is
    evaluated at; ``empirical_gamma`` is the measured mean of the first
    walker's realized fraction, kept alongside for diagnosing gaps between
    the idealized curve and real walks.
    """

    runs: int
    budget: int
    non_crossing_rate: float
    gamma_bar: float
    empirical_gamma: float
    c: float
    delta: int
    exponent: int
    bound: float
    conditional_hit_rate: float
    conditional_samples: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    budget: int
    graph_n: int
    graph_m: int
    stretch: StretchMatrix
    coverage: list[CoverageValidationRow] | None = None
    crossing: CrossingRateResult | None = None
    wall_time_s: float = 0.0

    @property
    def summary(self) -> dict:
        return self.stretch.summary()


def _start_pool(g: Graph, cfg: ExperimentConfig) -> np.ndarray:
    """Node ids eligible as starts: the giant component of ``g``."""
    if cfg.fixed_starts is not None:
        try:
            return _start_nodes(g, cfg.fixed_starts)
        except ValueError as exc:  # an id outside g or an isolated node, named by _start_nodes
            raise ConfigError(f"fixed_starts: {exc}") from None
    members = giant_members(g)
    if members.size < cfg.h:
        raise ConfigError(
            f"giant component has {members.size} nodes; need at least h={cfg.h}"
        )
    return members


def _draw_starts(cfg: ExperimentConfig, members: np.ndarray, run_index: int, k: int | None = None) -> list[int]:
    """The first ``k`` (default h) starts of a run: pinned, or drawn without replacement."""
    k = cfg.h if k is None else k
    if cfg.fixed_starts is not None:
        return list(cfg.fixed_starts[:k])
    return [int(s) for s in _rng(cfg.seed, run_index, _START_STREAM).choice(members, size=k, replace=False)]


def _run_scores(run: ProtocolRun) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """``(starts, visited, true)``: all that scoring keeps of a run, none of
    it holding the run's step table.  ``visited`` is each walker's group's
    ``UnionSubgraph.nodes``, one array object per group, and ``true`` the
    h x h hop distances among the starts on the graph the run walked, one
    BFS per walker."""
    starts = np.array(run.starts, dtype=np.int64)
    true = np.stack([bfs_distances(run.graph, start)[starts] for start in run.starts])
    return starts, [union.nodes for union in run.unions], true


def _scored(g: Graph, runs: list, first: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each run's ``(true, discovered)`` h x h matrices, where ``runs`` holds
    the :func:`_run_scores` of runs ``first``, ``first + 1``, ...

    One :func:`pair_distances` search over every run's starts, each walker
    searching its group's G* (the group's visited nodes), gives each run's
    diagonal block.  G* is connected, and of its run's starts it visited
    exactly its members', so entry (i, j) is the routing-tree depth of j's
    start from i's where i and j share a group, and UNREACHABLE otherwise.
    InvariantViolation names the first run, and in it the first pair in
    i-major order, with a route shorter than its true distance or a route
    where no path exists.
    """
    starts = np.concatenate([starts for starts, _, _ in runs])
    dist = pair_distances(g, starts, [nodes for _, visited, _ in runs for nodes in visited])
    scored, hi = [], 0
    for r, (starts, _, true) in enumerate(runs, first):
        lo, hi = hi, hi + starts.size
        discovered = dist[lo:hi, lo:hi]
        bad = np.argwhere((discovered != UNREACHABLE) & ((true == UNREACHABLE) | (discovered < true)))
        if bad.size:
            i, j = bad[0]
            raise InvariantViolation(
                f"run {r}: discovered {discovered[i, j]} hops vs true {true[i, j]} for pair ({i},{j})"
            )
        scored.append((true, discovered))
    return scored


def score_pairs(run: ProtocolRun) -> tuple[np.ndarray, np.ndarray]:
    """``(true, discovered)``: h × h int64 hop distances among the walkers' starts.

    Entry (i, j) is for the ordered pair i -> j; both diagonals are 0.
    ``true`` takes one BFS per walker on ``run.graph``, the graph the run
    walked, UNREACHABLE where the starts are disconnected.  ``discovered``
    routes every walker on its meeting group's union G*, UNREACHABLE
    unless i and j are in one group.  The run is scored as a block of one
    by :func:`_scored`, the scorer of ``run_experiment``, so an impossible
    route raises InvariantViolation naming run 0 and the pair.  Only
    ``run.unions`` is read, so scoring builds none of the run's protocol
    accounting.
    """
    return _scored(run.graph, [_run_scores(run)])[0]


def _one_run_records(g: Graph, cfg: ExperimentConfig, budget: int, members: np.ndarray, run_index: int):
    """The per-run half of a block: run ``run_index``'s :func:`_run_scores`.

    Its name and signature stay as they were when it scored a whole run,
    because rwbench's traced mode wraps it by name as one run's span, and
    rwbench's eval check reads a run's h ``bfs_distances`` calls right after
    its ``run_rwsp`` call.  The discovered half is searched for the whole
    block by :func:`_block_records`.
    """
    starts = _draw_starts(cfg, members, run_index)
    return _run_scores(run_rwsp(g, starts, budget, seed=walker_seed(cfg.seed, run_index)))


def _block_records(g: Graph, cfg: ExperimentConfig, budget: int, members: np.ndarray, runs: range) -> np.ndarray:
    """(d_true, d_discovered) of the runs ``runs``' ordered walker pairs, an
    (h·(h−1)·len(runs), 2) array in run-index, then i-major, order.

    Each run, in turn, draws its starts, walks and keeps only its
    :func:`_run_scores` (:func:`_one_run_records`); then one :func:`_scored`
    call scores the block.
    """
    scored = _scored(g, [_one_run_records(g, cfg, budget, members, r) for r in runs], runs.start)
    off_diagonal = ~np.eye(cfg.h, dtype=bool)
    records = [np.column_stack((true[off_diagonal], discovered[off_diagonal])) for true, discovered in scored]
    return np.concatenate(records)


_POOL_CTX: tuple | None = None


def _pool_init(g, cfg, budget, members):
    global _POOL_CTX
    _POOL_CTX = (g, cfg, budget, members)


def _pool_block(runs: range) -> np.ndarray:
    g, cfg, budget, members = _POOL_CTX
    return _block_records(g, cfg, budget, members, runs)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _block_size(h: int, budget: int, runs: int, workers: int) -> int:
    """Runs scored in one block: as many as fill one 64-bit word of
    :func:`pair_distances`, but few enough that each of ``workers``
    processes gets a block and that a block's visited sets (at most
    h x budget node ids a run) stay under _WALK_BLOCK_BYTES."""
    return max(1, min(64 // h, -(-runs // workers), _WALK_BLOCK_BYTES // (8 * h * budget)))


def run_experiment(g: Graph, cfg: ExperimentConfig) -> ExperimentResult:
    """Monte-Carlo stretch evaluation of the discovery protocol.

    Each run samples ``h`` distinct starts (giant component, or
    ``cfg.fixed_starts``), executes the protocol, and records
    (true shortest-path length, discovered route length) for every ordered
    walker pair; undiscovered routes land in the INF column.  Results are
    identical for any ``workers`` count: runs depend only on
    (seed, run index) and merge commutatively.  Runs are scored in blocks
    (:func:`_block_size`), whose discovered routes come from one
    :func:`pair_distances` search (see :func:`_block_records`).
    The blocks run in a process pool of at most ``workers`` processes, one
    per CPU this process may use and one per block, if that is at least two.
    """
    t0 = time.perf_counter()
    members = _start_pool(g, cfg)
    budget = cfg.budget(g.n)
    # The pool forks all its workers up front, so start no more than there
    # are CPUs to run them on, or blocks of runs.
    workers = min(cfg.workers, _usable_cpus())
    size = _block_size(cfg.h, budget, cfg.runs, workers)
    blocks = [range(lo, min(lo + size, cfg.runs)) for lo in range(0, cfg.runs, size)]
    workers = min(workers, len(blocks))
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_pool_init, initargs=(g, cfg, budget, members)) as pool:
            per_block = list(pool.map(_pool_block, blocks))
    else:
        per_block = [_block_records(g, cfg, budget, members, runs) for runs in blocks]
    return ExperimentResult(
        config=cfg,
        budget=budget,
        graph_n=g.n,
        graph_m=g.m,
        stretch=StretchMatrix.from_pairs(np.concatenate(per_block)),
        wall_time_s=time.perf_counter() - t0,
    )


def _tau_grid(taus) -> list[float]:
    """``taus`` as floats, checked as :func:`coverage_validation` reads them."""
    try:
        taus = [_one_real(t, "tau") for t in taus]
    except ValueError as exc:  # a tau that is no real number, named by _one_real
        raise ConfigError(str(exc)) from None
    if not taus:
        raise ConfigError("tau grid must be non-empty")
    if not all(0 <= t < 1 for t in taus):
        raise ConfigError("tau grid values must lie in [0, 1)")
    return taus


def coverage_validation(g: Graph, cfg: ExperimentConfig, taus) -> list[CoverageValidationRow]:
    """Single-walker covered-edge fractions versus the closed-form curve.

    Runs ``cfg.runs`` independent walks from giant-component starts, reads
    ``|E(t, i)| / 2m`` off each trace at ``t = round(tau * n)`` for every grid
    point, and pairs the sample mean/std with the prediction.  ``tau = 0``
    rows are the boundary case: zero edges before the walk exists.
    """
    taus = _tau_grid(taus)
    members = _start_pool(g, cfg)
    steps_at = [int(round(t * g.n)) for t in taus]
    budget = max(1, max(steps_at))
    moments = degree_moments(g)
    two_m = 2.0 * g.m
    samples = np.zeros((cfg.runs, len(taus)), dtype=np.float64)
    for r in range(cfg.runs):
        start = _draw_starts(cfg, members, r, k=1)[0]
        trace, _ = run_walk(g, start, budget, seed=walker_seed(cfg.seed, r))
        edges = trace.edge_count_per_step
        for k, t in enumerate(steps_at):
            samples[r, k] = 0.0 if t == 0 else edges[t - 1] / two_m
    rows = []
    for k, tau in enumerate(taus):
        col = samples[:, k]
        rows.append(
            CoverageValidationRow(
                tau=tau,
                empirical_mean=float(col.mean()),
                empirical_std=float(col.std(ddof=1)) if cfg.runs > 1 else 0.0,
                predicted=float(expected_edge_fraction(moments, tau)),
            )
        )
    return rows


def _crossing_params(g: Graph, budget: int, c: float = 1.0, delta: int | None = None) -> CrossingBoundParams:
    """The inputs of :func:`crossing_rate`'s bound for walks of ``budget``
    steps on ``g``, all checked before any walk runs; ``delta`` defaults to
    ``ceil(n / 100)``."""
    beta = budget / g.n
    gamma_bar = expected_edge_fraction(degree_moments(g), beta)
    delta = max(1, math.ceil(g.n / 100)) if delta is None else delta
    try:
        return CrossingBoundParams(beta=beta, n=g.n, delta=delta, c=c, gamma_bar=gamma_bar)
    except ValueError as exc:  # a bad c or delta, named by CrossingBoundParams
        raise ConfigError(str(exc)) from None


def crossing_rate(
    g: Graph, cfg: ExperimentConfig, c: float = 1.0, delta: int | None = None
) -> CrossingRateResult:
    """Empirical non-crossing probability for walker pairs, with the bound.

    Requires ``cfg.h == 2``.  For each run, walker 0 finishes first and
    walker 1's trace is checked against its visited set; the fraction of
    runs with no crossing is compared against the geometric bound evaluated
    at the predicted covered-edge fraction.  Also measures the conditional
    hit rate P[in set at w+delta | outside at w] that the bound presumes to
    be at least ``c * gamma_bar``.
    """
    if cfg.h != 2:
        raise ConfigError("crossing rate is defined for h=2 walker pairs")
    members = _start_pool(g, cfg)
    budget = cfg.budget(g.n)
    params = _crossing_params(g, budget, c, delta)
    delta = params.delta
    never = 0
    cond_num = 0
    cond_den = 0
    gamma_sum = 0.0
    # Both walkers of every run in a block are lanes of one run_walks call,
    # in blocks of runs whose uniforms stay under _WALK_BLOCK_BYTES.
    block = max(1, _WALK_BLOCK_BYTES // (2 * 8 * budget))
    for lo in range(0, cfg.runs, block):
        runs = range(lo, min(lo + block, cfg.runs))
        starts = [s for r in runs for s in _draw_starts(cfg, members, r)]
        seeds = [walker_seed(cfg.seed, r, w) for r in runs for w in (0, 1)]
        steps = run_walks(g, starts, budget, seeds)
        for steps_i, steps_j in zip(steps[0::2], steps[1::2]):
            trace_i = WalkTrace(walker_id=0, steps=steps_i, graph=g)
            in_set = trace_i.visited[steps_j]
            if not in_set.any():
                never += 1
            gamma_sum += trace_i.covered_edge_count / (2.0 * g.m)
            if budget > delta:
                before = in_set[:-delta]
                after = in_set[delta:]
                cond_den += int(np.count_nonzero(~before))
                cond_num += int(np.count_nonzero(~before & after))
    bound, exponent = crossing_probability_bound(params)
    return CrossingRateResult(
        runs=cfg.runs,
        budget=budget,
        non_crossing_rate=never / cfg.runs,
        gamma_bar=params.gamma_bar,
        empirical_gamma=gamma_sum / cfg.runs,
        c=c,
        delta=delta,
        exponent=exponent,
        bound=bound,
        conditional_hit_rate=cond_num / cond_den if cond_den else math.nan,
        conditional_samples=cond_den,
    )


# -- report emission -----------------------------------------------------------


def _csv(header: list[str], rows) -> str:
    """CSV text of the ``header`` cells and then each row's, one line each:
    float cells (numpy's float64 too) written as ``repr(float(x))``, others by ``str``."""
    lines = [header, *rows]
    return "".join(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in line) + "\n" for line in lines)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def emit_reports(result: ExperimentResult, fmt: str, destination) -> list[Path]:
    """Write plot-ready experiment reports into ``destination``.

    csv format: stretch_matrix.csv (row-normalized fractions with INF
    row/column), true_distance_histogram.csv, coverage.csv and crossing.json
    when present, and metadata.json.  json format: a single results.json.
    Either way a timing.json sidecar carries the wall time, so every other
    file is byte-deterministic for a fixed config and seed.
    """
    if result.stretch.total_pairs == 0:
        raise ValueError("refusing to emit an empty stretch matrix")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)

    crossing_dict = None
    if result.crossing is not None:
        crossing_dict = asdict(result.crossing)
        if math.isnan(crossing_dict["conditional_hit_rate"]):
            crossing_dict["conditional_hit_rate"] = None

    written: list[Path] = []

    def put(name: str, text: str) -> None:
        path = dest / name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)

    metadata = {
        "version": f"rwtopo {__version__}",
        "config": asdict(result.config),
        "budget": result.budget,
        "graph": {"n": result.graph_n, "m": result.graph_m},
        "summary": result.summary,
    }
    if fmt == "csv":
        stretch, labels = result.stretch, result.stretch.labels
        fractions = stretch.row_normalized().tolist()
        put("stretch_matrix.csv", _csv(["d_true", *labels], ([d, *row] for d, row in zip(labels, fractions))))
        counts = stretch.marginal_true_histogram.tolist()
        rows = ([d, k, k / stretch.total_pairs] for d, k in zip(labels, counts))
        put("true_distance_histogram.csv", _csv(["d_true", "count", "fraction"], rows))
        if result.coverage is not None:
            header = [f.name for f in fields(CoverageValidationRow)]
            put("coverage.csv", _csv(header, map(astuple, result.coverage)))
        if crossing_dict is not None:
            put("crossing.json", _json_dump(crossing_dict))
        metadata["outputs"] = sorted(p.name for p in written)
        put("metadata.json", _json_dump(metadata))
    else:
        payload = {
            "metadata": metadata,
            "stretch": {
                "labels": result.stretch.labels,
                "counts": result.stretch.counts.tolist(),
                "row_normalized": result.stretch.row_normalized().tolist(),
            },
            "coverage": None if result.coverage is None else [asdict(r) for r in result.coverage],
            "crossing": crossing_dict,
        }
        put("results.json", _json_dump(payload))
    put("timing.json", _json_dump({"wall_time_s": result.wall_time_s}))
    return written
