"""One table of (entry point, argument) rows against one corpus of bad values.

Every row must raise its entry point's own error, naming the argument,
before anything is drawn from a random stream, so before any walk or graph
build.  A new entry point joins the table, not a new test.
"""

import math

import numpy as np
import pytest

from rwtopo import ConfigError, ExperimentConfig, PowerLawParams, configuration_model, from_spec
from rwtopo import power_law_degrees, preferential_attachment
from rwtopo.graph import bfs_distances
from rwtopo.walker import run_walk
from helpers import star

CORPUS = {
    "True": True,
    "np.True_": np.True_,
    "'1'": "1",
    "[1]": [1],
    "np.array([1])": np.array([1]),
    "1.5": 1.5,
    "nan": math.nan,
    "-1": -1,
    "None": None,
}
# A sequence of non-negative integers is a valid seed.
SEQUENCES = {"[1]", "np.array([1])"}

G = star(4)
ENTRY_POINTS = [
    # (row id, error, argument named, call with the bad value)
    ("bfs_distances source", ValueError, "source", lambda v: bfs_distances(G, v)),
    ("ExperimentConfig h", ConfigError, "h", lambda v: ExperimentConfig(seed=1, h=v)),
    ("ExperimentConfig runs", ConfigError, "runs", lambda v: ExperimentConfig(seed=1, runs=v)),
    ("ExperimentConfig workers", ConfigError, "workers", lambda v: ExperimentConfig(seed=1, workers=v)),
    ("run_walk budget", ValueError, "budget", lambda v: run_walk(G, 0, v, 1)),
    ("power_law_degrees seed", ValueError, "seed", lambda v: power_law_degrees(PowerLawParams(2.5, 2, 50), v)),
    ("configuration_model seed", ValueError, "seed", lambda v: configuration_model([1, 1, 2], v)),
    ("preferential_attachment seed", ValueError, "seed", lambda v: preferential_attachment(50, 2, v)),
    ("from_spec pa seed", ValueError, "seed", lambda v: from_spec("pa:n=50,m0=2", v)),
    ("from_spec grid seed", ValueError, "seed", lambda v: from_spec("grid:rows=3,cols=3", v)),
]
CASES = [
    pytest.param(error, what, call, value, id=f"{row}-{name}")
    for row, error, what, call in ENTRY_POINTS
    for name, value in CORPUS.items()
    if not (what == "seed" and name in SEQUENCES)
]


@pytest.mark.parametrize("error, what, call, value", CASES)
def test_bad_value_raises_the_entry_points_error_naming_the_argument(monkeypatch, error, what, call, value):
    def refuse(*args, **kwargs):
        raise AssertionError("a random stream was opened before the bad value was rejected")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(error, match=f"^{what} ") as caught:
        call(value)
    assert type(caught.value) is error
