"""Command-line interface.

Subcommands::

    stats    <graph>                 summary statistics as JSON
    synth    <spec> -o FILE          generate a graph, write an edge list
    walk     --graph ... --start N   one budgeted walk, JSON trace summary
    predict  --graph ...             closed-form coverage curve as CSV
    rwsp     --graph ... --h N       one protocol run, per-pair JSON report
    eval     [config] [flags] -o DIR full Monte-Carlo evaluation

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .coverage import coverage_points
from .experiments import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    _crossing_params,
    _csv,
    _draw_starts,
    _json_dump,
    _start_pool,
    _tau_grid,
    coverage_validation,
    crossing_rate,
    emit_reports,
    run_experiment,
    score_pairs,
)
from .generators import from_spec
from .graph import (
    UNREACHABLE,
    DegreeMoments,
    degree_moments,
    load_edge_list,
    stats_report,
    write_edge_list,
)
from .rwsp import run_rwsp
from .walker import naive_route, run_walk, walker_seed


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors: exit 1, reserving 2 for invariants.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# -- subcommand handlers -------------------------------------------------------


def _cmd_stats(args) -> int:
    sys.stdout.write(_json_dump(stats_report(load_edge_list(args.graph))))
    return 0


def _cmd_synth(args) -> int:
    g = from_spec(args.spec, args.seed)
    if g.m == 0:
        raise ValueError(
            f"generator spec {args.spec!r} gives a graph with no edges, which an edge list cannot hold"
        )
    write_edge_list(g, args.output)
    print(f"wrote {g.n} nodes / {g.m} edges to {args.output}")
    return 0


def _cmd_walk(args) -> int:
    g = load_edge_list(args.graph)
    trace, _ = run_walk(g, args.start, args.budget, args.seed)
    report = {
        "start": trace.start,
        "steps_taken": trace.budget,
        "unique_nodes": trace.unique_nodes,
        "covered_edges": trace.covered_edge_count,
        "covered_edge_fraction": trace.covered_edge_count / (2.0 * g.m),
    }
    sys.stdout.write(_json_dump(report))
    return 0


def _taus(text: str) -> list[float]:
    """A comma-separated tau grid such as ``0.01,0.05`` (``--taus``/``coverage_taus=``)."""
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _seed(text: str) -> int:
    """A non-negative integer seed (``--seed``, ``--synth-seed``/``synth_seed=``)."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# Start nodes are read, and reported, as the dense ids a loaded graph gives
# its nodes, not as the edge list's own labels.
_DENSE_IDS = "dense node ids 0..n-1, numbered by first appearance in the edge list, not its labels"
_STARTS_HELP = f"comma-separated start nodes, {_DENSE_IDS}"


def _node_ids(text: str) -> tuple[int, ...]:
    """A comma-separated start list such as ``0,5,10`` (``--starts``/``starts=``)."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated node ids, got {text!r}") from None


def _cmd_predict(args) -> int:
    if not args.taus:
        raise ConfigError("tau grid must be non-empty")
    moment_keys = ("mean_degree", "second_moment", "num_edges")
    given = ["--" + key.replace("_", "-") for key in moment_keys if getattr(args, key) is not None]
    if args.graph:
        if given:
            raise ConfigError(f"give either --graph or {', '.join(given)}, not both")
        g = load_edge_list(args.graph)
        moments = degree_moments(g)
        m = g.m
    else:
        if len(given) < len(moment_keys):
            raise ConfigError("predict needs --graph or all of --mean-degree, --second-moment, --num-edges")
        if args.num_edges < 1:
            raise ConfigError("--num-edges must be at least 1")
        moments = DegreeMoments(args.mean_degree, args.second_moment)
        m = args.num_edges
    rows = (
        [p.tau, p.expected_edges, p.expected_nodes, p.expected_edges / (2.0 * m), 0 if p.in_regime else 1]
        for p in coverage_points(moments, m, args.taus)
    )
    text = _csv(["tau", "n_e_pred", "n_nodes_pred", "gamma_bar", "warning_flag"], rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return 0


def _given(settings: dict, keys) -> dict:
    """The settings among ``keys`` that the user gave, so each default lives in one place."""
    return {key: settings[key] for key in keys if settings.get(key) is not None}


def _walker_count(h, starts, h_setting: str, starts_setting: str):
    """h as given, or the length of the start list when only that is given.

    ``h_setting`` spells the h setting with a ``{}`` for its value, e.g.
    ``"--h {}"``; ``starts_setting`` names the start list.
    """
    if starts is None:
        return h
    if h is not None and h != len(starts):
        raise ConfigError(
            f"{h_setting.format(h)} disagrees with {starts_setting}, which lists {len(starts)} nodes"
        )
    return len(starts)


def _per_walker(pair_hops: dict, h: int) -> list[int]:
    """Each walker i's total over its ``(i, j)`` entries of a pair-hop dict."""
    totals = [0] * h
    for (i, _), hops in pair_hops.items():
        totals[i] += hops
    return totals


def _cmd_rwsp(args) -> int:
    args.h = _walker_count(args.h, args.starts, "--h {}", "--starts")
    cfg = ExperimentConfig(seed=args.seed, runs=1, fixed_starts=args.starts, **_given(vars(args), ("h", "beta")))
    g = load_edge_list(args.graph)
    budget = cfg.budget(g.n)
    starts = _draw_starts(cfg, _start_pool(g, cfg), 0)
    # Random starts replay run 0 of `eval --seed SEED` at the same h.
    seed = args.seed if args.starts else walker_seed(cfg.seed, 0)
    run = run_rwsp(g, starts, budget, seed)
    states = run.states
    advertise = _per_walker(run.pair_advertise_hops, cfg.h)
    transfer = _per_walker(run.pair_transfer_hops, cfg.h)

    true, discovered = (m.tolist() for m in score_pairs(run))
    pairs = []
    for i, j in itertools.permutations(range(cfg.h), 2):
        # the walks share a node exactly when the walkers met directly
        naive = naive_route(states[i].trace, states[j].trace)
        pairs.append(
            {
                "i": i,
                "j": j,
                "true_spl": None if true[i][j] == UNREACHABLE else true[i][j],
                "rwsp_spl": None if discovered[i][j] == UNREACHABLE else discovered[i][j],
                "naive_spl": None if naive is None else len(naive) - 1,
                "met": j in run.direct_peers[i],
                "linked": j in states[i].known_peers,
                "advertise_hops": run.pair_advertise_hops.get((i, j), 0)
                + run.pair_advertise_hops.get((j, i), 0),
                "transfer_hops": run.pair_transfer_hops.get((i, j), 0)
                + run.pair_transfer_hops.get((j, i), 0),
            }
        )
    walkers = [
        {
            "walker": i,
            "start": starts[i],
            "unique_nodes": states[i].trace.unique_nodes,
            "covered_edges": states[i].trace.covered_edge_count,
            "known_peers": sorted(states[i].known_peers),
            "contact_points": sorted(states[i].contact_points),
            "advertise_hops": advertise[i],
            "transfer_hops": transfer[i],
        }
        for i in range(cfg.h)
    ]
    sys.stdout.write(_json_dump({"budget": budget, "pairs": pairs, "walkers": walkers}))
    return 0


def _truthy(s: str) -> bool:
    """A config-file boolean: ``1/true/yes`` or ``0/false/no``, in any case."""
    if s.lower() in ("1", "true", "yes"):
        return True
    if s.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {s!r}")


# eval settings: config-file key (also the flag, with dashes) -> value parser.
_EVAL_KEYS = {
    "graph": str,
    "synth": str,
    "synth_seed": _seed,
    "h": int,
    "beta": float,
    "runs": int,
    "rescale_budget": _truthy,
    "workers": int,
    "starts": _node_ids,
    "coverage_taus": _taus,
    "crossing": _truthy,
    "c": float,
    "delta": int,
}


def _read_eval_config(path: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key == "seed":
            raise ConfigError(f"{path}:{lineno}: seed must be passed as --seed")
        if key not in _EVAL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _EVAL_KEYS[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _cmd_eval(args) -> int:
    settings: dict = {}
    if args.config:
        settings = _read_eval_config(args.config)
    # Flags override file values; boolean flags can only switch things on.
    for key in _EVAL_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag

    if "graph" in settings and "synth" in settings:
        raise ConfigError("give either graph= or synth=, not both")
    if "graph" in settings:
        g = load_edge_list(settings["graph"])
        source = settings["graph"]
    elif "synth" in settings:
        g = from_spec(settings["synth"], settings.get("synth_seed", 0))
        source = settings["synth"]
    else:
        raise ConfigError("eval needs a graph= path or a synth= generator spec")

    settings["h"] = _walker_count(settings.get("h"), settings.get("starts"), "h={}", "starts=")
    cfg = ExperimentConfig(
        seed=args.seed,
        fixed_starts=settings.get("starts"),
        graph_source=source,
        **_given(settings, ("h", "beta", "runs", "rescale_budget", "workers")),
    )
    # Check the later phases' inputs before the first run.
    if "coverage_taus" in settings:
        _tau_grid(settings["coverage_taus"])
    if settings.get("crossing"):
        cross_cfg = cfg if cfg.h == 2 else replace(cfg, h=2, fixed_starts=None, workers=1)
        cross_args = _given(settings, ("c", "delta"))
        _crossing_params(g, cross_cfg.budget(g.n), **cross_args)
    result = run_experiment(g, cfg)
    if "coverage_taus" in settings:
        result = replace(result, coverage=coverage_validation(g, cfg, settings["coverage_taus"]))
    if settings.get("crossing"):
        crossing = crossing_rate(g, cross_cfg, **cross_args)
        result = replace(result, crossing=crossing)
    written = emit_reports(result, fmt=args.format, destination=args.out)
    summary = result.summary
    print(
        f"runs={cfg.runs} pairs={summary['total_pairs']} "
        f"optimal={summary['fraction_optimal']:.3f} "
        f"within_one={summary['fraction_within_one']:.3f} "
        f"inf={summary['inf_fraction']:.3f}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


# -- parser wiring ---------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="rwtopo", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"rwtopo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="graph summary statistics as JSON")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic graph")
    p.add_argument("spec", help="generator spec, e.g. pa:n=5000,m0=3")
    p.add_argument("-o", "--output", required=True, help="edge-list file to write")
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("walk", help="run one budgeted random walk")
    p.add_argument("--graph", required=True)
    p.add_argument("--start", type=int, required=True, help=f"start node, one of the {_DENSE_IDS}")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("predict", help="closed-form coverage curve as CSV")
    p.add_argument("--graph")
    p.add_argument("--mean-degree", type=float)
    p.add_argument("--second-moment", type=float)
    p.add_argument("--num-edges", type=int)
    p.add_argument(
        "--taus",
        type=_taus,
        default=np.linspace(0.01, 0.10, 10).tolist(),
        help="comma-separated tau values (default 0.01, 0.02, ..., 0.10)",
    )
    p.add_argument("-o", "--output", help="CSV file (default stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("rwsp", help="one protocol run with a per-pair report")
    p.add_argument("--graph", required=True)
    p.add_argument("--h", type=int)
    policy = p.add_mutually_exclusive_group(required=True)
    policy.add_argument("--starts", type=_node_ids, help=_STARTS_HELP)
    policy.add_argument("--random-starts", action="store_true")
    p.add_argument("--beta", type=float)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=_cmd_rwsp)

    p = sub.add_parser("eval", help="full Monte-Carlo evaluation")
    p.add_argument("config", nargs="?", help="key=value config file")
    p.add_argument("--seed", type=_seed, required=True, help="master seed (mandatory)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    for key, parse in _EVAL_KEYS.items():
        flag = "--" + key.replace("_", "-")
        if parse is _truthy:
            p.add_argument(flag, action="store_true", default=None, dest=key)
        else:
            p.add_argument(flag, type=parse, dest=key, help=_STARTS_HELP if key == "starts" else None)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
