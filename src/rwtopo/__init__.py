"""rwtopo: random-walk topology discovery and route-quality evaluation.

Budgeted random walkers crawl an unknown graph, leave breadcrumbs, exchange
discovered subgraphs when their paths cross, and route on the union
topology.  The package bundles the walk/protocol simulators, closed-form
coverage and crossing predictions for the same process, synthetic power-law
generators, and a seeded Monte-Carlo evaluation harness.

The top level re-exports the names the workflow needs: build or load a
graph, walk it, run the protocol, score its routes and run an experiment.
Everything else is imported from its submodule, e.g.
``from rwtopo.graph import bfs_distances``.
"""

__version__ = "0.1.0"

from .graph import (
    UNREACHABLE,
    EdgeListParseError,
    Graph,
    degree_moments,
    giant_component,
    load_edge_list,
    stats_report,
    write_edge_list,
)
from .generators import (
    PowerLawParams,
    configuration_model,
    from_spec,
    grid_2d,
    power_law_degrees,
    preferential_attachment,
)
from .coverage import validity_limit
from .walker import crossing_time, naive_route, run_walk, walker_seed
from .rwsp import run_rwsp
from .experiments import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    coverage_validation,
    crossing_rate,
    emit_reports,
    run_experiment,
    score_pairs,
)

__all__ = [
    "__version__",
    "UNREACHABLE",
    "Graph",
    "EdgeListParseError",
    "ConfigError",
    "InvariantViolation",
    "load_edge_list",
    "write_edge_list",
    "degree_moments",
    "giant_component",
    "stats_report",
    "from_spec",
    "preferential_attachment",
    "grid_2d",
    "PowerLawParams",
    "power_law_degrees",
    "configuration_model",
    "validity_limit",
    "run_walk",
    "walker_seed",
    "crossing_time",
    "naive_route",
    "run_rwsp",
    "score_pairs",
    "ExperimentConfig",
    "run_experiment",
    "coverage_validation",
    "crossing_rate",
    "emit_reports",
]
