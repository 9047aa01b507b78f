"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.

Criteria 1 and 3 are implemented exactly as specified and are expected to
FAIL: the closed-form coverage curve assumes each step samples a fresh
uniformly random edge, while a real neighbor-stepping walk revisits nodes
(an immediate backtrack alone has probability 1/<k>, about 0.24 on the
prescribed low-degree graph), so measured coverage runs 30-45% below the
curve and the derived gamma_bar overestimates the attractor strength at
c=1.  See the C1/C3 analysis in README.md ("Tests and acceptance suite");
the implementation itself is verified by brute-force oracles in the unit
suites.
"""

import math

import numpy as np
import pytest

from rwtopo import (
    ExperimentConfig,
    Graph,
    PowerLawParams,
    UNREACHABLE,
    cli,
    configuration_model,
    coverage_validation,
    crossing_rate,
    degree_moments,
    giant_component,
    grid_2d,
    power_law_degrees,
    preferential_attachment,
    run_experiment,
    run_rwsp,
)
from rwtopo.graph import bfs_distances
from rwtopo.coverage import (
    edge_coverage,
    linear_edge_coverage,
    node_coverage,
    powerlaw_edge_coverage,
)
from rwtopo.walker import retrace_to_start
from rwtopo.rwsp import routing_tree
from helpers import discovered_lengths, naive_length, union_graph


def verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def crawl_graph():
    """n=10^4 power-law (alpha=2.5, k_min=2) erased configuration model,
    conditioned on its giant component."""
    params = PowerLawParams(alpha=2.5, k_min=2, n=10_000)
    raw = configuration_model(power_law_degrees(params, seed=101), seed=202)
    g, _ = giant_component(raw)
    return g


@pytest.fixture(scope="module")
def powerlaw_run_summary():
    """Criterion-5 experiment, shared with the criterion-6 comparison."""
    g = preferential_attachment(5000, 3, seed=424242)
    cfg = ExperimentConfig(seed=777, h=4, beta=0.025, runs=200)
    return run_experiment(g, cfg).summary


def test_c1_mean_field_coverage(crawl_graph):
    taus = [round(0.01 * k, 2) for k in range(1, 11)]
    cfg = ExperimentConfig(seed=2024, h=2, beta=0.1, runs=50)
    rows = coverage_validation(crawl_graph, cfg, taus)
    worst = max(abs(r.empirical_mean - r.predicted) / r.predicted for r in rows)
    detail = (
        f"worst relative error {worst:.3f} over tau in [0.01, 0.10] "
        f"(tolerance 0.10; empirical at tau=0.1: {rows[-1].empirical_mean:.4f} "
        f"vs predicted {rows[-1].predicted:.4f})"
    )
    verdict("C1 mean-field coverage", worst <= 0.10, detail)


def test_c2_closed_form_spot_values():
    from rwtopo.graph import DegreeMoments

    mom = DegreeMoments(mean_degree=2.0, second_moment=6.0)
    edge = edge_coverage(mom, 300, 0.1)
    node = node_coverage(mom, 300, 0.1)
    expected_edge = 57.097549178424256  # 600 * (1 - exp(-0.1))
    checks = [
        abs(edge - expected_edge) / expected_edge <= 1e-9,
        abs(node - expected_edge / 2) / (expected_edge / 2) <= 1e-9,
        powerlaw_edge_coverage(PowerLawParams(4.0, 1, 10_000), 0.01)
        == pytest.approx(100.0, rel=1e-12),
        powerlaw_edge_coverage(PowerLawParams(2.5, 1, 10_000), 0.01) == math.inf,
    ]
    verdict(
        "C2 closed-form spot values",
        all(checks),
        f"edge={edge!r} node={node!r} powerlaw(4)=100 powerlaw(2.5)=inf",
    )


def test_c3_crossing_bound_consistency(crawl_graph):
    cfg = ExperimentConfig(seed=31337, h=2, beta=0.025, runs=200)
    delta = math.ceil(crawl_graph.n / 100)
    res = crossing_rate(crawl_graph, cfg, c=1.0, delta=delta)
    premise = res.conditional_hit_rate >= res.c * res.gamma_bar
    ok = res.non_crossing_rate <= 0.05 and premise and res.non_crossing_rate <= res.bound
    detail = (
        f"non-crossing {res.non_crossing_rate:.4f} (<=0.05 "
        f"{res.non_crossing_rate <= 0.05}); bound {res.bound:.4f}; "
        f"conditional hit rate {res.conditional_hit_rate:.4f} vs "
        f"c*gamma_bar {res.c * res.gamma_bar:.4f} (premise {premise}; "
        f"measured mean coverage {res.empirical_gamma:.4f})"
    )
    verdict("C3 crossing bound consistency", ok, detail)


def test_c4_routing_soundness_sweep():
    instances = 0
    attempt = 0
    while instances < 500:
        k = attempt
        attempt += 1
        rng = np.random.default_rng((4242, k))
        kind = k % 4
        if kind == 0:
            g = preferential_attachment(
                int(rng.integers(20, 200)), int(rng.integers(1, 4)), seed=(1, k)
            )
        elif kind == 1:
            params = PowerLawParams(
                alpha=float(rng.uniform(2.1, 3.5)),
                k_min=int(rng.integers(1, 3)),
                n=int(rng.integers(30, 200)),
            )
            g = configuration_model(power_law_degrees(params, seed=(2, k)), seed=(3, k))
        elif kind == 2:
            g = grid_2d(int(rng.integers(3, 15)), int(rng.integers(3, 15)))
        else:
            n = int(rng.integers(10, 60))
            g = Graph(n, [[i, (i + 1) % n] for i in range(n)])
        eligible = np.flatnonzero(g.degrees > 0)
        h = int(rng.integers(2, 5))
        if eligible.size < h:
            continue
        instances += 1
        starts = [int(x) for x in rng.choice(eligible, size=h, replace=False)]
        budget = max(2, int(rng.uniform(0.1, 0.6) * g.n))
        run = run_rwsp(g, starts, budget, seed=(4242, k, 7))
        found = discovered_lengths(run)
        for i in range(h):
            true_dist = bfs_distances(g, starts[i])
            depth = routing_tree(run.unions[i], starts[i])
            assert (depth == bfs_distances(union_graph(run.unions[i]), starts[i])).all()
            for j in range(h):
                if i == j:
                    continue
                discovered = found[(i, j)]
                if discovered != UNREACHABLE:
                    true = int(true_dist[starts[j]])
                    assert true != UNREACHABLE and discovered >= true
                if j in run.direct_peers[i]:
                    assert discovered <= naive_length(run, i, j)
            trace = run.states[i].trace
            for v in trace.first_visits[0]:
                path = retrace_to_start(trace, int(v))
                assert len(set(path)) == len(path)
                assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
    verdict(
        "C4 routing soundness",
        instances == 500,
        f"{instances} randomized instances, zero violations",
    )


def test_c5_stretch_quality_on_power_law(powerlaw_run_summary):
    s = powerlaw_run_summary
    ok = s["fraction_within_one"] >= 0.60 and s["inf_fraction"] <= 0.05
    per_row = {d: round(r["fraction_within_one"], 3) for d, r in s["per_row"].items()}
    detail = (
        f"within-one {s['fraction_within_one']:.4f} (>=0.60), "
        f"INF {s['inf_fraction']:.4f} (<=0.05), per-row within-one {per_row}"
    )
    verdict("C5 stretch quality (power law)", ok, detail)


def test_c6_low_q_negative_control(powerlaw_run_summary):
    grid = grid_2d(71, 71)  # n=5041, q ~ 2.96
    cfg = ExperimentConfig(seed=777, h=4, beta=0.025, runs=200)
    grid_summary = run_experiment(grid, cfg).summary
    pl = powerlaw_run_summary["fraction_within_one"]
    gr = grid_summary["fraction_within_one"]
    ok = gr < pl
    detail = (
        f"grid within-one {gr:.4f} < power-law within-one {pl:.4f}; "
        f"grid INF fraction {grid_summary['inf_fraction']:.4f}, "
        f"grid q {degree_moments(grid).q:.2f}"
    )
    verdict("C6 low-q negative control", ok, detail)


def test_c7_determinism_and_serialization(tmp_path):
    args = [
        "eval", "--synth", "pa:n=300,m0=2", "--synth-seed", "12",
        "--h", "3", "--beta", "0.1", "--runs", "20",
        "--coverage-taus", "0.02,0.05,0.1", "--seed", "99",
    ]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["-o", str(a_dir)]) == 0
    assert cli.main(args + ["-o", str(b_dir)]) == 0
    identical = []
    for path in sorted(a_dir.iterdir()):
        if path.name == "timing.json":  # wall time lives in its own sidecar
            continue
        identical.append(path.read_bytes() == (b_dir / path.name).read_bytes())
    matrix_lines = (a_dir / "stretch_matrix.csv").read_text().splitlines()[1:]
    sums_ok = True
    for line in matrix_lines:
        cells = [float(x) for x in line.split(",")[1:]]
        if any(c > 0 for c in cells):
            sums_ok &= abs(sum(cells) - 1.0) <= 1e-9
    ok = all(identical) and len(identical) >= 3 and sums_ok
    verdict(
        "C7 determinism and serialization",
        ok,
        f"{len(identical)} deterministic files byte-identical; "
        f"row sums re-normalize to 1 +/- 1e-9: {sums_ok}",
    )


def test_c8_small_budget_linear_regime(crawl_graph):
    mom = degree_moments(crawl_graph)
    beta = 1e-3
    exact = edge_coverage(mom, crawl_graph.m, beta)
    linear = linear_edge_coverage(mom, beta, crawl_graph.n)
    rel = abs(exact - linear) / linear
    verdict(
        "C8 small-budget linear regime",
        rel <= 0.02,
        f"closed form {exact:.2f} vs q*beta*n {linear:.2f}, rel diff {rel:.5f}",
    )
