#!/usr/bin/env python3
"""End-to-end route discovery: walk, meet, exchange, route on the union.

Four walkers crawl a 5000-node power-law graph with a 2.5% budget each.
When a walker steps onto another's breadcrumb they learn of each other and
later exchange everything they discovered; each then routes on the merged
topology G* with a breadth-first tree.  The stretch matrix compares those
route lengths against true shortest paths, and the naive alternative
(retracing breadcrumbs end to end) shows why the exchange is worth it.
"""

import itertools

import numpy as np

from rwtopo import (
    ExperimentConfig,
    emit_reports,
    naive_route,
    preferential_attachment,
    run_experiment,
    run_rwsp,
    score_pairs,
)

g = preferential_attachment(5000, 3, seed=424242)
print(f"graph: n={g.n}, m={g.m}")

print()
print("== one protocol run, h=4, budget 125 ==")
rng = np.random.default_rng(1)
starts = [int(x) for x in rng.choice(g.n, size=4, replace=False)]
run = run_rwsp(g, starts, 125, seed=99)
for i, state in enumerate(run.states):
    # a walker's message hops are the sum of its (i, j) pair entries
    advertise = sum(hops for (a, _), hops in run.pair_advertise_hops.items() if a == i)
    transfer = sum(hops for (a, _), hops in run.pair_transfer_hops.items() if a == i)
    print(
        f"  walker {i} from {run.starts[i]:4d}: "
        f"visited {state.trace.unique_nodes:3d} nodes, "
        f"covered {state.trace.covered_edge_count:5d} edges, "
        f"peers {sorted(state.known_peers)}, "
        f"msg hops adv={advertise} xfer={transfer}"
    )
print()
print("  pair  true  discovered  naive")
true, discovered = score_pairs(run)  # h x h hop counts among the starts
for i, j in itertools.combinations(range(run.h), 2):
    if j not in run.direct_peers[i]:
        continue
    naive_len = len(naive_route(run.states[i].trace, run.states[j].trace)) - 1
    print(f"  {i}-{j}   {true[i, j]:4d}  {discovered[i, j]:10d}  {naive_len:5d}")

print()
print("== 200-run stretch census ==")
cfg = ExperimentConfig(seed=777, h=4, beta=0.025, runs=200)
result = run_experiment(g, cfg)
matrix = result.stretch
print("  row-normalized (d_true rows, discovered-length columns):")
header = "        " + " ".join(f"{lab:>6}" for lab in matrix.labels)
print(header)
for label, row in zip(matrix.labels, matrix.row_normalized()):
    cells = " ".join(f"{x:6.3f}" for x in row)
    print(f"  {label:>5}: {cells}")
summary = result.summary
print(
    f"  optimal {summary['fraction_optimal']:.1%}, "
    f"within one hop {summary['fraction_within_one']:.1%}, "
    f"no route {summary['inf_fraction']:.1%}"
)

out = emit_reports(result, "csv", "demo_output")
print()
print("wrote plot-ready reports:")
for path in out:
    print(f"  {path}")
