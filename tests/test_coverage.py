import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwtopo import PowerLawParams, degree_moments, preferential_attachment, validity_limit
from rwtopo.graph import DegreeMoments
from rwtopo.coverage import (
    DIVERGES,
    CrossingBoundParams,
    coverage_points,
    coverage_rate,
    crossing_probability_bound,
    edge_coverage,
    expected_edge_fraction,
    linear_edge_coverage,
    node_coverage,
    powerlaw_edge_coverage,
)
from helpers import star, triangle

# <k>=2, <k^2>=6 gives rate (6-2)/4 = 1 and q = 2.
MOM = DegreeMoments(mean_degree=2.0, second_moment=6.0)


class TestEdgeCoverage:
    def test_zero_budget_covers_nothing(self):
        assert edge_coverage(MOM, 300, 0.0) == 0.0

    def test_saturates_at_2m(self):
        assert edge_coverage(MOM, 300, 1e9) == pytest.approx(600.0)

    def test_closed_form_spot_value(self):
        # 600 * (1 - exp(-0.1)), frozen from high-precision evaluation
        assert edge_coverage(MOM, 300, 0.1) == pytest.approx(
            57.097549178424256, rel=1e-12
        )

    def test_monotone_and_concave_in_tau(self):
        taus = np.linspace(0.0, 2.0, 50)
        vals = [edge_coverage(MOM, 300, t) for t in taus]
        diffs = np.diff(vals)
        assert (diffs > 0).all()
        assert (np.diff(diffs) < 1e-9).all()
        assert max(vals) <= 600.0

    def test_tiny_tau_keeps_precision(self):
        tau = 1e-15
        assert edge_coverage(MOM, 300, tau) == pytest.approx(
            600 * coverage_rate(MOM) * tau, rel=1e-9
        )

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            edge_coverage(MOM, 300, -0.1)


class TestNodeCoverage:
    def test_zero_budget(self):
        assert node_coverage(MOM, 300, 0.0) == 0.0

    def test_is_edge_coverage_over_q(self):
        assert node_coverage(MOM, 300, 0.1) == pytest.approx(
            57.097549178424256 / 2.0, rel=1e-12
        )

    def test_small_tau_tracks_step_count(self):
        # early walks discover about one node per step: n_nodes ~ tau * n
        for g in (preferential_attachment(500, 3, seed=2), star(40)):
            mom = degree_moments(g)
            tau = 0.01 * validity_limit(mom)
            ratio = node_coverage(mom, g.m, tau) / (tau * g.n)
            assert 0.9 <= ratio <= 1.0

    def test_never_exceeds_edge_coverage_when_q_at_least_one(self):
        for tau in (0.01, 0.1, 0.5):
            assert node_coverage(MOM, 300, tau) <= edge_coverage(MOM, 300, tau)

    def test_q_zero_rejected(self):
        # all degrees 1: <k>=1, <k^2>=1, q=0
        lonely = DegreeMoments(mean_degree=1.0, second_moment=1.0)
        with pytest.raises(ValueError):
            node_coverage(lonely, 1, 0.1)


class TestLinearEdgeCoverage:
    def test_flickr_scale_prefactor(self):
        # q=943.4 on 1.7M nodes: coverage grows as 943.4 * 1.7e6 * beta
        mom = DegreeMoments(mean_degree=18.1, second_moment=18.1 * 944.4)
        assert mom.q == pytest.approx(943.4, rel=1e-12)
        for beta in (1e-4, 0.0125, 0.025):
            assert linear_edge_coverage(mom, beta, 1_700_000) == pytest.approx(
                943.4 * 1_700_000 * beta, rel=1e-9
            )

    def test_zero_budget(self):
        assert linear_edge_coverage(MOM, 0.0, 1000) == 0.0

    def test_gnutella_scale_value(self):
        mom = DegreeMoments(mean_degree=4.7, second_moment=4.7 * 11.6)
        assert linear_edge_coverage(mom, 0.05, 62_500) == pytest.approx(33_125.0)

    def test_matches_first_order_taylor_term(self):
        for g in (triangle(), star(6), preferential_attachment(400, 3, seed=4)):
            mom = degree_moments(g)
            beta = 1e-4 * mom.mean_degree**2 / mom.q
            exact = edge_coverage(mom, g.m, beta)
            linear = linear_edge_coverage(mom, beta, g.n)
            assert abs(exact - linear) / linear < 0.01


class TestPowerLawEdgeCoverage:
    def test_heavy_tail_diverges(self):
        assert powerlaw_edge_coverage(PowerLawParams(2.5, 1, 10_000), 0.01) == DIVERGES
        assert powerlaw_edge_coverage(PowerLawParams(3.0, 1, 10_000), 0.01) == DIVERGES

    def test_light_tail_value(self):
        assert powerlaw_edge_coverage(PowerLawParams(4.0, 1, 10_000), 0.01) == pytest.approx(
            100.0, rel=1e-12
        )

    def test_infinite_alpha_limit_vanishes(self):
        assert powerlaw_edge_coverage(PowerLawParams(1e9, 1, 10_000), 0.01) < 1e-6

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_edge_coverage(PowerLawParams(4.0, 1, 100), 0.0)


class TestCoveragePoints:
    def test_regime_flag(self):
        limit = validity_limit(MOM)  # 4/6
        pts = coverage_points(MOM, 300, [0.0, limit * 0.5, limit * 2])
        assert [p.in_regime for p in pts] == [True, True, False]

    def test_values_match_scalar_functions(self):
        pts = coverage_points(MOM, 300, [0.1])
        assert pts[0].expected_edges == edge_coverage(MOM, 300, 0.1)
        assert pts[0].expected_nodes == node_coverage(MOM, 300, 0.1)


class TestCrossingBound:
    def test_half_coverage_squared(self):
        params = CrossingBoundParams(beta=0.5, n=4, delta=1, c=1.0, gamma_bar=0.5)
        bound, exponent = crossing_probability_bound(params)
        assert exponent == 2
        assert bound == pytest.approx(0.25)

    def test_vanishing_attraction_gives_vacuous_bound(self):
        params = CrossingBoundParams(beta=0.5, n=100, delta=10, c=1.0, gamma_bar=1e-12)
        bound, _ = crossing_probability_bound(params)
        assert bound == pytest.approx(1.0, abs=1e-9)

    def test_bound_vanishes_for_large_n(self):
        bounds = [
            crossing_probability_bound(
                CrossingBoundParams(beta=0.1, n=n, delta=5, c=1.0, gamma_bar=0.2)
            )[0]
            for n in (100, 1_000, 10_000)
        ]
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[-1] < 1e-9

    def test_ill_formed_product_rejected(self):
        with pytest.raises(ValueError):
            CrossingBoundParams(beta=0.5, n=10, delta=1, c=3.0, gamma_bar=0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CrossingBoundParams(beta=0.0, n=10, delta=1, c=1.0, gamma_bar=0.5)
        with pytest.raises(ValueError):
            CrossingBoundParams(beta=0.5, n=10, delta=0, c=1.0, gamma_bar=0.5)
        with pytest.raises(ValueError):
            CrossingBoundParams(beta=0.5, n=10, delta=1, c=1.0, gamma_bar=0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        c=st.floats(0.05, 1.0),
        gamma=st.floats(0.01, 0.9),
        scale=st.floats(1.1, 4.0),
    )
    def test_monotone_decreasing_in_each_argument(self, c, gamma, scale):
        if c * gamma * scale > 1:
            return
        base = CrossingBoundParams(beta=0.5, n=1000, delta=10, c=c, gamma_bar=gamma)
        b0 = crossing_probability_bound(base)[0]
        more_c = CrossingBoundParams(beta=0.5, n=1000, delta=10, c=c * scale, gamma_bar=gamma)
        more_g = CrossingBoundParams(beta=0.5, n=1000, delta=10, c=c, gamma_bar=gamma * scale)
        longer = CrossingBoundParams(beta=0.5, n=4000, delta=10, c=c, gamma_bar=gamma)
        assert crossing_probability_bound(more_c)[0] <= b0
        assert crossing_probability_bound(more_g)[0] <= b0
        assert crossing_probability_bound(longer)[0] <= b0


def test_expected_edge_fraction_is_gamma_bar():
    # the covered-edge fraction doubles as the crossing attractor strength
    assert expected_edge_fraction(MOM, 0.1) == pytest.approx(
        edge_coverage(MOM, 300, 0.1) / 600.0
    )
