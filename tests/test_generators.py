import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rwtopo import (
    PowerLawParams,
    configuration_model,
    degree_moments,
    from_spec,
    grid_2d,
    power_law_degrees,
    preferential_attachment,
)
from helpers import degree_multiset


class TestPowerLawDegrees:
    def test_huge_alpha_collapses_to_k_min(self):
        params = PowerLawParams(alpha=80.0, k_min=2, n=500)
        d = power_law_degrees(params, seed=0)
        assert (d == 2).all()

    def test_support_bounds_and_even_sum(self):
        params = PowerLawParams(alpha=2.5, k_min=2, n=3000)
        for seed in range(10):
            d = power_law_degrees(params, seed=seed)
            assert int(d.sum()) % 2 == 0
            assert d.min() >= params.k_min
            # the parity fix may raise exactly the last entry one past the cap
            assert d[:-1].max() <= params.k_cap
            assert d[-1] <= params.k_cap + 1

    def test_empirical_mean_matches_truncated_pmf(self):
        params = PowerLawParams(alpha=2.5, k_min=2, n=10_000)
        d = power_law_degrees(params, seed=7)
        # independent oracle: direct summation of the truncated distribution
        support = np.arange(params.k_min, params.k_cap + 1, dtype=np.float64)
        pmf = support**-2.5
        pmf /= pmf.sum()
        analytic_mean = float((support * pmf).sum())
        assert abs(d.mean() - analytic_mean) / analytic_mean < 0.10

    def test_structural_cutoff_value(self):
        assert PowerLawParams(alpha=2.5, k_min=2, n=10_000).k_cap == 141

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PowerLawParams(alpha=1.0, k_min=2, n=100)
        with pytest.raises(ValueError):
            PowerLawParams(alpha=2.5, k_min=0, n=100)
        with pytest.raises(ValueError):
            PowerLawParams(alpha=2.5, k_min=2, n=1)
        # no simple graph on n nodes has a degree above n - 1
        with pytest.raises(ValueError, match="k_min must be at most n - 1"):
            PowerLawParams(alpha=2.5, k_min=200, n=100)
        assert PowerLawParams(alpha=2.5, k_min=99, n=100).k_min == 99
        # k_min=1.5 failed only later in k_cap, alpha="3" in a comparison.
        for kwargs, message in [
            ({"alpha": 2.5, "k_min": 1.5, "n": 100}, "k_min must be integral, got 1.5"),
            ({"alpha": 2.5, "k_min": 2, "n": True}, "n must be integral, got bool"),
            ({"alpha": "3", "k_min": 2, "n": 100}, "alpha must be a real number, got '3'"),
            ({"alpha": True, "k_min": 2, "n": 100}, "alpha must be a real number, got True"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                PowerLawParams(**kwargs)
        assert PowerLawParams(alpha=np.float64(2.5), k_min=2.0, n=np.int64(100)) == PowerLawParams(2.5, 2, 100)

    def test_deterministic_given_seed(self):
        params = PowerLawParams(alpha=2.2, k_min=1, n=200)
        a = power_law_degrees(params, seed=5)
        b = power_law_degrees(params, seed=5)
        assert (a == b).all()

    def test_an_impossible_n_fails_before_the_degree_table_is_built(self):
        # The n draws are asked for first, so their MemoryError comes before
        # the k_cap-sized support, weights and CDF (10**7 entries each here).
        script = (
            "import resource\n"
            "from rwtopo import PowerLawParams, power_law_degrees\n"
            "try:\n"
            "    power_law_degrees(PowerLawParams(2.5, 1, 10**14), seed=1)\n"
            "except MemoryError:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 150 * 1024  # KiB


class TestConfigurationModel:
    def test_two_unit_stubs_make_one_edge(self):
        g = configuration_model([1, 1], seed=0)
        assert (g.n, g.m) == (2, 1)

    def test_three_two_regular_nodes_enumerated_outcomes(self):
        # stub matchings of [2,2,2] erase to a triangle, a single edge, or
        # nothing; realized degrees never exceed the requested 2
        seen = set()
        for seed in range(200):
            g = configuration_model([2, 2, 2], seed=seed)
            assert int(g.degrees.sum()) <= 6
            assert g.degrees.max() <= 2
            assert g.m in (0, 1, 3)
            seen.add(g.m)
        assert 3 in seen  # the triangle outcome dominates the matching count

    def test_realized_edges_never_exceed_half_stub_count(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            d = rng.integers(0, 6, size=30)
            if int(d.sum()) % 2 == 1:
                d[0] += 1
            g = configuration_model(d, seed=seed)
            assert g.m <= int(d.sum()) // 2

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError, match="even"):
            configuration_model([1, 1, 1], seed=0)

    def test_non_integral_degrees_rejected(self):
        with pytest.raises(ValueError, match="degrees must be integral, got 2.5"):
            configuration_model([2.5, 1.5], seed=0)

    def test_deterministic_given_seed(self):
        d = [3, 2, 2, 1, 2, 2]
        a = configuration_model(d, seed=9)
        b = configuration_model(d, seed=9)
        assert (a.edges == b.edges).all()


class TestPreferentialAttachment:
    def test_degenerate_case_is_the_seed_clique(self):
        g = preferential_attachment(4, 3, seed=0)
        assert (g.n, g.m) == (4, 6)
        assert (g.degrees == 3).all()

    def test_edge_count_follows_construction_rule(self):
        n, m0 = 50, 3
        g = preferential_attachment(n, m0, seed=11)
        clique_edges = (m0 + 1) * m0 // 2
        assert g.m == clique_edges + (n - m0 - 1) * m0

    def test_degree_variance_grows_with_n(self):
        qs = [
            degree_moments(preferential_attachment(n, 3, seed=13)).q
            for n in (1_000, 10_000, 100_000)
        ]
        assert qs[0] < qs[1] < qs[2]

    def test_connected_and_simple(self):
        from rwtopo import UNREACHABLE
        from rwtopo.graph import bfs_distances

        g = preferential_attachment(200, 2, seed=3)
        assert (bfs_distances(g, 0) != UNREACHABLE).all()
        assert int(g.degrees.min()) >= 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            preferential_attachment(3, 3, seed=0)
        with pytest.raises(ValueError):
            preferential_attachment(10, 0, seed=0)
        with pytest.raises(ValueError, match=r"^n must be integral, got 100.5$"):
            preferential_attachment(100.5, 3, seed=1)
        with pytest.raises(ValueError, match=r"^m0 must be integral, got bool$"):
            preferential_attachment(100, True, seed=1)

    def test_deterministic_given_seed(self):
        a = preferential_attachment(60, 2, seed=21)
        b = preferential_attachment(60, 2, seed=21)
        assert (a.edges == b.edges).all()


class TestGrid:
    def test_small_grid_shape(self):
        g = grid_2d(2, 3)
        assert (g.n, g.m) == (6, 7)
        assert degree_multiset(g) == [2, 2, 2, 2, 3, 3]

    def test_low_q(self):
        q = degree_moments(grid_2d(30, 30)).q
        assert 2.0 < q < 3.2

    def test_invalid(self):
        with pytest.raises(ValueError):
            grid_2d(0, 4)
        with pytest.raises(ValueError, match=r"^rows must be integral, got 3.5$"):
            grid_2d(3.5, 4)
        with pytest.raises(ValueError, match=r"^rows must be integral, got bool$"):
            grid_2d(True, 4)
        with pytest.raises(ValueError, match=r"^cols must be a single integer, got \[4\]$"):
            grid_2d(3, [4])
        assert np.array_equal(grid_2d(3.0, 4).edges, grid_2d(3, 4).edges)


class TestFromSpec:
    def test_pa_spec(self):
        g = from_spec("pa:n=40,m0=2", seed=5)
        assert g.n == 40
        assert (g.edges == preferential_attachment(40, 2, seed=5).edges).all()

    def test_plconfig_spec(self):
        g = from_spec("plconfig:n=300,alpha=2.5,kmin=2", seed=8)
        assert g.n == 300

    def test_grid_spec(self):
        assert from_spec("grid:rows=4,cols=5", seed=0).n == 20

    def test_every_form_of_one_seed_builds_one_graph(self):
        # The seed is checked, then handed to numpy as given (None, which drew
        # from OS entropy, is rejected: see tests/test_bad_inputs.py).
        for spec in ("pa:n=50,m0=2", "plconfig:n=50,alpha=2.5,kmin=2"):
            graphs = {from_spec(spec, s).edges.tobytes() for s in [5, np.int64(5), (5,), [5], np.array([5])]}
            assert len(graphs) == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown generator model"):
            from_spec("erdos:n=10", seed=0)
        with pytest.raises(ValueError, match="missing"):
            from_spec("pa:n=10", seed=0)
        with pytest.raises(ValueError, match="unknown keys"):
            from_spec("grid:rows=2,cols=2,depth=2", seed=0)
        with pytest.raises(ValueError, match="bad generator spec"):
            from_spec("pa:n", seed=0)
        with pytest.raises(ValueError, match="gives 'n' twice"):
            from_spec("pa:n=10,n=20,m0=2", seed=0)
        with pytest.raises(ValueError, match="gives 'kmin' twice"):
            from_spec("plconfig:n=100,alpha=2.5,kmin=2,KMIN=2", seed=0)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("pa:n=1e5,m0=3", "'pa:n=1e5,m0=3': n must be an integer, got '1e5'"),
            ("grid:rows=4,cols=5.0", "cols must be an integer, got '5.0'"),
            ("plconfig:n=100,alpha=two", "alpha must be a number, got 'two'"),
            ("plconfig:n=100,alpha=2.5,kmin=x", "kmin must be an integer, got 'x'"),
        ],
    )
    def test_bad_values_name_the_spec_and_the_key(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            from_spec(spec, seed=0)
