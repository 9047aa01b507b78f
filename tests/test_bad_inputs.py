"""One table of (entry point, argument) rows against one corpus of bad values.

Every row must raise its entry point's own error, naming the argument,
before anything is drawn from a random stream, so before any walk or graph
build.  A new entry point joins the table, not a new test.
"""

import math

import numpy as np
import pytest

from rwtopo import ConfigError, ExperimentConfig, PowerLawParams, configuration_model, coverage_validation
from rwtopo import crossing_rate, from_spec, grid_2d, power_law_degrees, preferential_attachment, walker_seed
from rwtopo.coverage import CrossingBoundParams, coverage_points, powerlaw_edge_coverage
from rwtopo.graph import DegreeMoments, bfs_distances
from rwtopo.walker import retrace_to_start, run_walk
from helpers import star

CORPUS = {
    "True": True,
    "np.True_": np.True_,
    "'1'": "1",
    "'x'": "x",
    "[1]": [1],
    "np.array([1])": np.array([1]),
    "1.5": 1.5,
    "nan": math.nan,
    "-1": -1,
    "None": None,
    "4+0j": 4 + 0j,
}
G = star(4)
TRACE = run_walk(G, 0, 4, 1)[0]
PAIRS = ExperimentConfig(seed=1, h=2, beta=0.4, runs=2)
MOMENTS = DegreeMoments(2.0, 5.0)
POWER_LAW = PowerLawParams(2.5, 2, 50)
BOUND = {"beta": 0.5, "n": 10, "delta": 1, "c": 1.0, "gamma_bar": 0.5}
ENTRY_POINTS = [
    # (row id, error, argument named, call with the bad value)
    ("Graph.degree", ValueError, "node id", lambda v: G.degree(v)),
    ("Graph.neighbors", ValueError, "node id", lambda v: G.neighbors(v)),
    ("Graph.has_edge", ValueError, "node id", lambda v: G.has_edge(0, v)),
    ("bfs_distances source", ValueError, "source", lambda v: bfs_distances(G, v)),
    ("bfs_distances max_level", ValueError, "max_level", lambda v: bfs_distances(G, 0, max_level=v)),
    ("walker_seed id", ValueError, "walker id", lambda v: walker_seed(1, v)),
    ("retrace_to_start node", ValueError, "node", lambda v: retrace_to_start(TRACE, v)),
    ("ExperimentConfig h", ConfigError, "h", lambda v: ExperimentConfig(seed=1, h=v)),
    ("ExperimentConfig beta", ConfigError, "beta", lambda v: ExperimentConfig(seed=1, beta=v)),
    ("ExperimentConfig runs", ConfigError, "runs", lambda v: ExperimentConfig(seed=1, runs=v)),
    ("ExperimentConfig workers", ConfigError, "workers", lambda v: ExperimentConfig(seed=1, workers=v)),
    ("coverage_validation tau", ConfigError, "tau", lambda v: coverage_validation(G, PAIRS, [v])),
    ("crossing_rate c", ConfigError, "c", lambda v: crossing_rate(G, PAIRS, c=v)),
    ("crossing_rate delta", ConfigError, "delta", lambda v: crossing_rate(G, PAIRS, delta=v)),
    ("CrossingBoundParams beta", ValueError, "beta", lambda v: CrossingBoundParams(**{**BOUND, "beta": v})),
    ("CrossingBoundParams n", ValueError, "n", lambda v: CrossingBoundParams(**{**BOUND, "n": v})),
    ("CrossingBoundParams delta", ValueError, "delta", lambda v: CrossingBoundParams(**{**BOUND, "delta": v})),
    ("CrossingBoundParams c", ValueError, "c", lambda v: CrossingBoundParams(**{**BOUND, "c": v})),
    ("CrossingBoundParams gamma_bar", ValueError, "gamma_bar", lambda v: CrossingBoundParams(**{**BOUND, "gamma_bar": v})),
    ("coverage_points tau", ValueError, "tau", lambda v: coverage_points(MOMENTS, 10, [v])),
    ("powerlaw_edge_coverage beta", ValueError, "beta", lambda v: powerlaw_edge_coverage(POWER_LAW, v)),
    ("run_walk budget", ValueError, "budget", lambda v: run_walk(G, 0, v, 1)),
    ("PowerLawParams alpha", ValueError, "alpha", lambda v: PowerLawParams(v, 2, 50)),
    ("PowerLawParams k_min", ValueError, "k_min", lambda v: PowerLawParams(2.5, v, 50)),
    ("PowerLawParams n", ValueError, "n", lambda v: PowerLawParams(2.5, 1, v)),
    ("preferential_attachment n", ValueError, "n", lambda v: preferential_attachment(v, 2, 1)),
    ("preferential_attachment m0", ValueError, "m0", lambda v: preferential_attachment(50, v, 1)),
    ("grid_2d rows", ValueError, "rows", lambda v: grid_2d(v, 3)),
    ("grid_2d cols", ValueError, "cols", lambda v: grid_2d(3, v)),
    ("power_law_degrees seed", ValueError, "seed", lambda v: power_law_degrees(PowerLawParams(2.5, 2, 50), v)),
    ("configuration_model seed", ValueError, "seed", lambda v: configuration_model([1, 1, 2], v)),
    ("preferential_attachment seed", ValueError, "seed", lambda v: preferential_attachment(50, 2, v)),
    ("from_spec pa seed", ValueError, "seed", lambda v: from_spec("pa:n=50,m0=2", v)),
    ("from_spec grid seed", ValueError, "seed", lambda v: from_spec("grid:rows=3,cols=3", v)),
]
# Corpus values that are valid for a row: a sequence of non-negative
# integers is a seed, 1.5 is an alpha, a tau, a power-law beta and, with the
# rows' other inputs, a c, and None is crossing_rate's default delta and
# bfs_distances' default max_level.
VALID = {row: {"[1]", "np.array([1])"} for row, _, what, _ in ENTRY_POINTS if what == "seed"} | {
    "bfs_distances max_level": {"None"},
    "PowerLawParams alpha": {"1.5"},
    "crossing_rate c": {"1.5"},
    "crossing_rate delta": {"None"},
    "CrossingBoundParams c": {"1.5"},
    # A gamma_bar of 1.5 is positive, but with c = 1 it fails the c * gamma_bar <= 1 check.
    "CrossingBoundParams gamma_bar": {"1.5"},
    "coverage_points tau": {"1.5"},
    "powerlaw_edge_coverage beta": {"1.5"},
}
CASES = [
    pytest.param(error, what, call, value, id=f"{row}-{name}")
    for row, error, what, call in ENTRY_POINTS
    for name, value in CORPUS.items()
    if name not in VALID.get(row, ())
]


@pytest.mark.parametrize("error, what, call, value", CASES)
def test_bad_value_raises_the_entry_points_error_naming_the_argument(monkeypatch, error, what, call, value):
    def refuse(*args, **kwargs):
        raise AssertionError("a random stream was opened before the bad value was rejected")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(error, match=f"^{what} ") as caught:
        call(value)
    assert type(caught.value) is error
