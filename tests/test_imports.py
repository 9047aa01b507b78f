"""Import hygiene: no unused imports, and a top level that is the workflow.

An import is used when its bound name appears as a name anywhere in the
module, or, in a package ``__init__``, in ``__all__``.  An import kept on
purpose carries ``# noqa: F401`` on its line.  The package top level
re-exports only the names the README quickstart, the demos and the
benchmark import from it; everything else is imported from its submodule.
Scalar inputs are read by ``graph``'s readers, so only ``graph`` imports
``numbers``.  The package's one declared dependency is numpy, so its
modules import nothing else outside the standard library.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import rwtopo

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of every import in ``source`` that nothing uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, bound))
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_and_kept_imports():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from a import (\n"
        "    b,\n"
        "    c,  # noqa: F401\n"
        ")\n"
        "from d import e\n"
        "__all__ = ['e']\n"
        "print(np.pi)\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "b")]


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of every module-level private ``_name`` that no other
    top-level statement of any of ``sources`` (module -> text) refers to."""
    defined, refers = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            refers.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                bound = []
            defined += [(module, stmt, name) for name in bound if name.startswith("_") and not name.startswith("__")]
    return [
        (module, name)
        for module, stmt, name in defined
        if not any(name in names for other, names in refers if other is not stmt)
    ]


def test_no_dead_private_helpers():
    package = ROOT / "src" / "rwtopo"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_the_check_sees_dead_private_helpers():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "def _used(x):\n    return x + _LIMIT\n"
            "def _recursive(x):\n    return _recursive(x - 1)\n"
            "def _dead():\n    pass\n"
            "def public():\n    return _used(1)\n"
        ),
        "b": "class _Owner:\n    pass\nprint(a._Owner, a._LIMIT)\n",
    }
    assert dead_private_names(sources) == [("a", "_recursive"), ("a", "_dead")]


TOP_LEVEL = {
    "__version__", "UNREACHABLE", "Graph", "EdgeListParseError", "ConfigError", "InvariantViolation",
    "load_edge_list", "write_edge_list", "degree_moments", "giant_component", "stats_report",
    "from_spec", "preferential_attachment", "grid_2d", "PowerLawParams", "power_law_degrees",
    "configuration_model", "validity_limit", "run_walk", "walker_seed", "crossing_time", "naive_route",
    "run_rwsp", "score_pairs", "ExperimentConfig", "run_experiment", "coverage_validation",
    "crossing_rate", "emit_reports",
}

# Public names that live only in their submodule.
SUBMODULE_ONLY = {
    "graph": [
        "DegreeMoments", "bfs_distances", "component_labels", "giant_members", "oriented_arcs", "pair_distances",
    ],
    "coverage": [
        "DIVERGES", "CoveragePoint", "CrossingBoundParams", "coverage_points", "coverage_rate",
        "crossing_probability_bound", "edge_coverage", "expected_edge_fraction",
        "linear_edge_coverage", "node_coverage", "powerlaw_edge_coverage",
    ],
    "walker": ["BreadcrumbTable", "WalkTrace", "retrace_to_start", "run_walks"],
    "rwsp": ["MeetingEvent", "ProtocolRun", "RoutingTree", "UnionSubgraph", "WalkerState", "routing_tree"],
    "experiments": ["CoverageValidationRow", "CrossingRateResult", "ExperimentResult", "StretchMatrix"],
}


def test_top_level_is_the_workflow():
    assert len(rwtopo.__all__) == len(TOP_LEVEL) == 29
    assert set(rwtopo.__all__) == TOP_LEVEL
    exported = {
        name for name, value in vars(rwtopo).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported | {"__version__"} == TOP_LEVEL
    for module, names in SUBMODULE_ONLY.items():
        owner = importlib.import_module(f"rwtopo.{module}")
        for name in names:
            assert hasattr(owner, name), f"rwtopo.{module}.{name}"
            assert name not in TOP_LEVEL


def scalar_checks(sources: dict[str, str]) -> tuple[set[str], set[tuple[str, str]]]:
    """The modules of ``sources`` (module -> text) that import ``numbers``,
    and the (module, function) of every ``isinstance`` call whose class
    argument is or lists ``bool``."""
    importers, checks = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(alias.name == "numbers" for alias in node.names):
                importers.add(module)
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
                importers.add(module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance":
                        kinds = call.args[1].elts if isinstance(call.args[1], ast.Tuple) else call.args[1:]
                        if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                            checks.add((module, node.name))
    return importers, checks


def test_scalars_are_read_through_the_graph_readers():
    # An entry point reads an integer, node id or real through graph's
    # readers, and a seed through walker._as_seed_tuple; ExperimentConfig's
    # rescale_budget is the one bool it takes, and accepts nothing else.
    package = ROOT / "src" / "rwtopo"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    importers, checks = scalar_checks(sources)
    assert importers == {"graph"}
    assert checks == {("graph", "_one_real"), ("walker", "_as_seed_tuple"), ("experiments", "__post_init__")}


def test_the_check_sees_numbers_imports_and_bool_checks():
    sources = {
        "a": "import numbers\ndef f(x):\n    return isinstance(x, bool)\n",
        "b": "from numbers import Real\ndef g(x):\n    return isinstance(x, (bool, int)) or isinstance(x, int)\n",
        "c": "def h(x):\n    return isinstance(x, int)\n",
    }
    assert scalar_checks(sources) == ({"a", "b"}, {("a", "f"), ("b", "g")})


def undeclared_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of every import in ``source`` of a module
    other than numpy, rwtopo and the standard library's."""
    declared = {"numpy", "rwtopo", *sys.stdlib_module_names}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, top) for top in (m.split(".")[0] for m in modules) if top not in declared]
    return sorted(found)


def test_the_package_imports_only_numpy_beyond_the_standard_library():
    # scipy and networkx may be installed where the tests run; pyproject.toml
    # declares numpy alone, so an import of either would break an install.
    package = ROOT / "src" / "rwtopo"
    found = {path.stem: undeclared_imports(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_check_sees_undeclared_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import scipy.sparse\n"
        "from networkx import Graph\n"
        "from . import graph\n"
        "from rwtopo.walker import run_walk\n"
        "def f():\n"
        "    import scipy\n"
    )
    assert undeclared_imports(source) == [(3, "scipy"), (4, "networkx"), (8, "scipy")]
