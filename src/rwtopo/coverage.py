"""Closed-form coverage predictions and the walker crossing-probability bound.

A budgeted random walk on a graph with degree moments ``<k>``, ``<k^2>``
collects edges at a rate governed by ``q = (<k^2> - <k>) / <k>``: each newly
visited node contributes about ``q`` previously unseen edges.  Solving the
resulting saturation dynamics gives the expected covered-edge count after
``t = tau * n`` steps:

    n_e(tau) = 2m * (1 - exp(-((<k^2> - <k>) / <k>^2) * tau))

and the expected visited-node count ``n_e(tau) / q``.  The same quantity
drives a geometric upper bound on the probability that a second walk never
enters the first walk's visited set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .generators import PowerLawParams
from .graph import DegreeMoments, _one_int, _one_real

# Marker for a predicted edge count that grows without bound (heavy tails
# with infinite second moment in the large-n limit).
DIVERGES = math.inf


def coverage_rate(moments: DegreeMoments) -> float:
    """Exponent rate (<k^2> - <k>) / <k>^2 of the saturation curve."""
    return (moments.second_moment - moments.mean_degree) / moments.mean_degree**2


def validity_limit(moments: DegreeMoments) -> float:
    """Scale <k>^2 / <k^2> below which tau must stay for the mean-field
    approximation to be trustworthy."""
    return moments.mean_degree**2 / moments.second_moment


def expected_edge_fraction(moments: DegreeMoments, tau: float) -> float:
    """Expected fraction of the 2m edge endpoints covered after tau*n steps.

    This is the closed-form curve normalized by 2m; it doubles as the
    steady-state probability that an independent walker stands on covered
    territory, so it feeds the crossing bound directly.
    """
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and non-negative, got {tau}")
    # -expm1 keeps precision when the exponent is tiny.
    return -math.expm1(-coverage_rate(moments) * tau)


def edge_coverage(moments: DegreeMoments, m: int, tau: float) -> float:
    """Expected number of distinct covered edges after tau*n walk steps.

    Exact evaluation of ``2m * (1 - exp(-rate * tau))``.  Staying inside the
    validity regime ``tau << <k>^2/<k^2>`` is the caller's responsibility;
    see :func:`coverage_points` for the per-point regime flag.
    """
    return 2.0 * m * expected_edge_fraction(moments, tau)


def node_coverage(moments: DegreeMoments, m: int, tau: float) -> float:
    """Expected number of distinct visited nodes after tau*n walk steps.

    Equals ``edge_coverage(...) / q``; its small-tau limit is ``tau * n``,
    i.e. early on nearly every step discovers a new node.
    """
    q = moments.q
    if q <= 0:
        raise ValueError("node coverage undefined when q = 0 (all degrees <= 1)")
    return edge_coverage(moments, m, tau) / q


def linear_edge_coverage(moments: DegreeMoments, beta: float, n: int) -> float:
    """First-order (small-budget) coverage: q * beta * n covered edges."""
    return moments.q * beta * n


def powerlaw_edge_coverage(params: PowerLawParams, beta: float) -> float:
    """Asymptotic small-budget edge coverage for a pure power law.

    For degree exponent alpha <= 3 the second moment diverges and the
    prediction is DIVERGES (math.inf); otherwise ``beta * n / (alpha - 3)``.
    ``beta`` must be a positive real number (not NaN); ValueError otherwise.
    """
    beta = _one_real(beta, "beta")
    if not beta > 0:
        raise ValueError("beta must be positive")
    if params.alpha <= 3:
        return DIVERGES
    return beta * params.n / (params.alpha - 3)


@dataclass(frozen=True)
class CoveragePoint:
    """One point of the predicted coverage curve.

    ``in_regime`` is False when tau exceeds <k>^2/<k^2>, i.e. the closed form
    is being read outside its derivation regime (a warning, not an error).
    """

    tau: float
    expected_edges: float
    expected_nodes: float
    in_regime: bool


def coverage_points(moments: DegreeMoments, m: int, taus) -> list[CoveragePoint]:
    """Evaluate the coverage curve on a tau grid, with per-point regime flags.
    A tau that is not a finite, non-negative real number is a ValueError."""
    limit = validity_limit(moments)
    out = []
    for tau in taus:
        tau = _one_real(tau, "tau")
        out.append(
            CoveragePoint(
                tau=tau,
                expected_edges=edge_coverage(moments, m, tau),
                expected_nodes=node_coverage(moments, m, tau),
                in_regime=bool(tau <= limit),
            )
        )
    return out


@dataclass(frozen=True)
class CrossingBoundParams:
    """Inputs of the non-crossing probability bound.

    ``gamma_bar`` is the expected covered-edge fraction of the finished first
    walker; ``delta`` the decorrelation spacing in steps; ``c`` the attractor
    constant relating the conditional hit rate at spacing delta to gamma_bar.
    The graph supplies no estimate for ``c`` or ``delta``; they are free
    inputs (defaults used by the harness: c=1, delta=ceil(n/100)).
    """

    beta: float
    n: int
    delta: int
    c: float
    gamma_bar: float

    def __post_init__(self):
        # Read by graph's readers (a bool or a string is no number) and stored
        # as read: n and delta as plain ints, the rest as floats.
        object.__setattr__(self, "beta", _one_real(self.beta, "beta"))
        object.__setattr__(self, "n", _one_int(self.n, "n", lo=1))
        for field in ("c", "gamma_bar"):
            object.__setattr__(self, field, _one_real(getattr(self, field), field))
        object.__setattr__(self, "delta", _one_int(self.delta, "delta", lo=1))
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        for field in ("c", "gamma_bar"):
            if not getattr(self, field) > 0:
                raise ValueError(f"{field} must be positive")
        if self.c * self.gamma_bar > 1:
            raise ValueError("c * gamma_bar > 1 makes the bound ill-formed")


def crossing_probability_bound(params: CrossingBoundParams) -> tuple[float, int]:
    """Upper bound on the probability that two walks never cross, as (bound, exponent).

    Sampling the second walk every ``delta`` steps gives at least
    ``floor(beta*n/delta)`` near-independent chances to land in the first
    walk's visited set, each succeeding with probability at least
    ``c * gamma_bar``; the bound is ``(1 - c*gamma_bar) ** exponent``.
    """
    exponent = int(params.beta * params.n / params.delta)
    return (1.0 - params.c * params.gamma_bar) ** exponent, exponent
