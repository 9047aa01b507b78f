#!/usr/bin/env python3
"""Covered-edge growth of a budgeted walk, simulation vs. closed form.

A walker that can read the neighbor list of every node it visits covers
edges far faster than it covers nodes: each new node is reached with
probability proportional to its degree and donates roughly q edges.  The
closed form

    n_e(tau) = 2m * (1 - exp(-((<k^2>-<k>)/<k>^2) * tau))

captures that mechanism assuming every step lands on a fresh uniformly
random edge.  Real walks revisit old ground (stepping straight back has
probability 1/<k>), so on low-degree graphs the measured curve sits visibly
below the prediction; the gap closes as <k> grows.  The table makes both
effects visible.
"""

from rwtopo import (
    ExperimentConfig,
    PowerLawParams,
    configuration_model,
    coverage_validation,
    degree_moments,
    giant_component,
    power_law_degrees,
    validity_limit,
)

for k_min in (2, 8):
    params = PowerLawParams(alpha=2.5, k_min=k_min, n=4000)
    raw = configuration_model(power_law_degrees(params, seed=11), seed=12)
    g, _ = giant_component(raw)
    mom = degree_moments(g)
    print(f"== power-law config model, k_min={k_min}: "
          f"<k>={mom.mean_degree:.2f}, q={mom.q:.1f}, "
          f"validity limit tau << {validity_limit(mom):.3f} ==")
    cfg = ExperimentConfig(seed=2, h=2, beta=0.2, runs=30)
    taus = [0.01, 0.02, 0.05, 0.10]
    print("  tau   simulated   predicted   ratio")
    for row in coverage_validation(g, cfg, taus):
        ratio = row.empirical_mean / row.predicted
        print(
            f"  {row.tau:4.2f}   {row.empirical_mean:9.4f}   "
            f"{row.predicted:9.4f}   {ratio:5.2f}"
        )
    print()

print("The k_min=8 walk hugs the curve; the k_min=2 walk pays its revisit tax.")
