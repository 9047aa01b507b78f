import json
from dataclasses import replace

import numpy as np
import pytest

import rwtopo
from rwtopo import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    UNREACHABLE,
    coverage_validation,
    crossing_rate,
    degree_moments,
    emit_reports,
    experiments,
    grid_2d,
    preferential_attachment,
    run_experiment,
    run_rwsp,
    rwsp,
    score_pairs,
    walker_seed,
)
from rwtopo.graph import Graph, bfs_distances, component_labels, giant_component, stats_report
from rwtopo.coverage import expected_edge_fraction
from rwtopo.walker import retrace_to_start
from rwtopo.experiments import StretchMatrix
from helpers import adjacency_lists, complete, path_graph, queue_bfs, star, two_triangles


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=1, h=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=1, beta=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=1, beta=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=1, runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=1, h=3, fixed_starts=(0, 1))
        # Both walkers ran from node 5: crossing_rate read a non-crossing
        # rate of 0.0, and run_experiment failed at its first run.
        with pytest.raises(ConfigError, match="^fixed_starts must be distinct$"):
            ExperimentConfig(seed=1, h=2, fixed_starts=(5, 5))

    @pytest.mark.parametrize(
        "field, value, bad",
        [("h", 2.5, 2.5), ("runs", 2.5, 2.5), ("workers", 1.5, 1.5), ("fixed_starts", (0, 1.5), 1.5)],
    )
    def test_non_integral_counts_and_starts_are_rejected(self, field, value, bad):
        # fixed_starts was truncated to (0, 1); the counts failed late with a TypeError.
        with pytest.raises(ConfigError, match=rf"^{field} must be integral, got {bad}$"):
            ExperimentConfig(seed=1, **{"h": 2, field: value})

    @pytest.mark.parametrize("seed", [1.5, 1.0, -1, (2, 0.5), (2, -3), True, (2, False)], ids=repr)
    def test_non_integral_or_negative_seeds_are_rejected(self, seed):
        # 1.5 failed at the first run with a TypeError, -1 inside numpy, and
        # True ran as seed 1 with "seed": true in metadata.json.
        with pytest.raises(ConfigError, match="^seed must be a non-negative integer or a sequence of them, got "):
            ExperimentConfig(seed=seed)

    def test_seeds_beyond_int64_and_seed_sequences_run(self):
        for seed in (2**70, (3, 2**64)):
            cfg = ExperimentConfig(seed=seed, h=2, beta=0.5, runs=2)
            assert cfg.seed == seed
            assert run_experiment(path_graph(6), cfg).stretch.total_pairs == 4

    def test_integral_values_are_stored_as_plain_ints(self):
        cfg = ExperimentConfig(seed=1, h=np.int64(2), runs=3.0, workers=np.int32(2), fixed_starts=np.array([0, 5]))
        assert (cfg.h, cfg.runs, cfg.workers, cfg.fixed_starts) == (2, 3, 2, (0, 5))
        assert {type(v) for v in (cfg.h, cfg.runs, cfg.workers, *cfg.fixed_starts)} == {int}

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rescale_budget", "no", "rescale_budget must be a bool, got 'no'"),
            ("rescale_budget", 1, "rescale_budget must be a bool, got 1"),
            ("beta", "0.1", "beta must be a real number, got '0.1'"),
            ("beta", None, "beta must be a real number, got None"),
        ],
    )
    def test_a_flag_that_is_not_a_bool_or_a_beta_that_is_not_a_real_is_rejected(self, field, value, message):
        # rescale_budget="no" rescaled the budget; beta="0.1" failed with a TypeError.
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentConfig(seed=1, **{field: value})

    def test_numpy_flags_and_betas_are_stored_as_plain_values(self):
        cfg = ExperimentConfig(seed=1, h=2, beta=np.float32(0.5), rescale_budget=np.bool_(True))
        assert type(cfg.beta) is float and cfg.rescale_budget is True
        assert cfg.budget(300) == 75

    def test_walker_ids_stay_below_the_start_stream_tag(self):
        # walker 0xBEEF would be seeded like the start-drawing stream
        with pytest.raises(ConfigError, match="at most"):
            ExperimentConfig(seed=1, h=0xBEEF + 1)
        assert ExperimentConfig(seed=1, h=0xBEEF).h == 0xBEEF

    def test_budget_rescaling(self):
        cfg = ExperimentConfig(seed=1, h=4, beta=0.4)
        assert cfg.budget(100) == 40
        rescaled = ExperimentConfig(seed=1, h=4, beta=0.4, rescale_budget=True)
        assert rescaled.budget(100) == 10

    def test_zero_budget_rejected(self):
        cfg = ExperimentConfig(seed=1, h=2, beta=0.01)
        with pytest.raises(ConfigError):
            cfg.budget(50)


class TestStretchMatrix:
    def test_from_pairs_counts_and_labels(self):
        m = StretchMatrix.from_pairs([(1, 1), (1, 2), (2, UNREACHABLE), (1, 1)])
        assert m.labels == ["1", "2", "INF"]
        assert m.counts[0, 0] == 2 and m.counts[0, 1] == 1
        assert m.counts[1, 2] == 1
        assert m.total_pairs == 4

    def test_zero_mass_rows_are_kept(self):
        m = StretchMatrix.from_pairs([(1, 1), (4, 4)])
        assert m.labels == ["1", "2", "3", "4", "INF"]
        assert m.counts[1].sum() == 0 and m.counts[2].sum() == 0

    def test_row_normalization_sums_to_one_where_mass_exists(self):
        m = StretchMatrix.from_pairs([(1, 1), (1, 2), (3, 3), (2, UNREACHABLE)])
        norm = m.row_normalized()
        sums = norm.sum(axis=1)
        for r, total in enumerate(m.counts.sum(axis=1)):
            assert sums[r] == pytest.approx(1.0 if total else 0.0, abs=1e-12)

    def test_marginal_histogram_is_row_sums(self):
        m = StretchMatrix.from_pairs([(1, 1), (1, 3), (2, 2)])
        assert m.marginal_true_histogram.tolist() == [2, 1, 0, 0]

    def test_discovered_beating_true_is_a_violation(self):
        with pytest.raises(InvariantViolation):
            StretchMatrix.from_pairs([(3, 2)])

    def test_finite_route_for_unreachable_pair_is_a_violation(self):
        with pytest.raises(InvariantViolation):
            StretchMatrix.from_pairs([(UNREACHABLE, 2)])

    def test_zero_distance_is_a_violation(self):
        with pytest.raises(InvariantViolation):
            StretchMatrix.from_pairs([(0, 1)])

    def test_summary_fractions(self):
        # Row 1's pairs are all INF; rows 4 and 5 hold no pairs, so they are
        # left out of per_row; one pair's endpoints are disconnected.
        m = StretchMatrix.from_pairs(
            [(2, 2), (2, 3), (2, 5), (3, 3), (3, UNREACHABLE), (1, UNREACHABLE), (1, UNREACHABLE),
             (UNREACHABLE, UNREACHABLE)]
        )
        assert m.summary() == {
            "total_pairs": 8,
            "finite_pairs": 4,
            "inf_fraction": 4 / 8,
            "unreachable_true_pairs": 1,
            "fraction_optimal": 2 / 4,
            "fraction_within_one": 3 / 4,
            "per_row": {
                1: {"pairs": 2, "finite": 0, "fraction_optimal": 0.0, "fraction_within_one": 0.0, "inf_fraction": 1.0},
                2: {"pairs": 3, "finite": 3, "fraction_optimal": 1 / 3, "fraction_within_one": 2 / 3,
                    "inf_fraction": 0.0},
                3: {"pairs": 2, "finite": 1, "fraction_optimal": 1.0, "fraction_within_one": 1.0, "inf_fraction": 0.5},
            },
        }

    def test_summary_of_no_finite_pairs_is_all_zero_or_inf(self):
        m = StretchMatrix.from_pairs([(UNREACHABLE, UNREACHABLE)])
        assert m.summary() == {
            "total_pairs": 1,
            "finite_pairs": 0,
            "inf_fraction": 1.0,
            "unreachable_true_pairs": 1,
            "fraction_optimal": 0.0,
            "fraction_within_one": 0.0,
            "per_row": {},
        }
        assert StretchMatrix(np.zeros((1, 1))).summary()["inf_fraction"] == 0.0


class TestRunExperiment:
    def test_complete_graph_every_pair_adjacent(self):
        # generous budget on K5: every discovered pair sits at distance 1
        cfg = ExperimentConfig(seed=0, h=2, beta=0.9, runs=30)
        res = run_experiment(complete(5), cfg)
        s = res.summary
        assert res.stretch.labels == ["1", "INF"]
        assert s["inf_fraction"] == 0.0
        assert s["fraction_optimal"] == 1.0

    def test_forced_cross_component_starts_fill_the_inf_bucket(self):
        cfg = ExperimentConfig(seed=3, h=2, beta=0.5, runs=10, fixed_starts=(0, 3))
        res = run_experiment(two_triangles(), cfg)
        assert res.summary["inf_fraction"] == 1.0
        assert res.summary["unreachable_true_pairs"] == res.summary["total_pairs"]

    def test_marginal_matches_hand_computed_distances(self):
        # pinned starts on a path: the true distance is always 3
        cfg = ExperimentConfig(seed=5, h=2, beta=0.9, runs=8, fixed_starts=(0, 3))
        res = run_experiment(path_graph(4), cfg)
        hist = res.stretch.marginal_true_histogram
        assert hist[2] == res.summary["total_pairs"]

    def test_giant_component_too_small_rejected(self):
        cfg = ExperimentConfig(seed=1, h=4, beta=0.5, runs=2)
        with pytest.raises(ConfigError, match="giant component"):
            run_experiment(two_triangles(), cfg)

    def test_deterministic_across_calls_and_workers(self):
        from rwtopo import preferential_attachment

        g = preferential_attachment(200, 2, seed=17)
        serial = ExperimentConfig(seed=77, h=3, beta=0.12, runs=24, workers=1)
        again = ExperimentConfig(seed=77, h=3, beta=0.12, runs=24, workers=1)
        pooled = ExperimentConfig(seed=77, h=3, beta=0.12, runs=24, workers=2)
        a = run_experiment(g, serial)
        b = run_experiment(g, again)
        c = run_experiment(g, pooled)
        assert (a.stretch.counts == b.stretch.counts).all()
        assert (a.stretch.counts == c.stretch.counts).all()

    @pytest.mark.parametrize(
        "workers, runs, cpus, pool",
        [
            (5000, 1, 64, None),
            (5000, 20, 64, 20),
            (5000, 100, 2, 2),
            (5000, 100, 1, None),
            (4, 100, 64, 4),
            (3, 9, 64, 3),
            (2, 4, 64, 2),
            (1, 100, 64, None),
        ],
    )
    def test_pool_is_no_larger_than_the_chunks_or_the_cpus(self, monkeypatch, workers, runs, cpus, pool):
        made = []

        class SerialPool:  # records its size and maps in this process
            def __init__(self, max_workers, initializer, initargs):
                made.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):  # one block of runs per task
                return map(fn, iterable)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(experiments, "_POOL_CTX", None)
        g = preferential_attachment(100, 2, seed=5)
        # h=8: blocks of at most 64 // 8 = 8 runs, and of at most runs /
        # min(workers, cpus), so each process gets a block
        cfg = ExperimentConfig(seed=3, h=8, beta=0.1, runs=runs, workers=workers)
        result = run_experiment(g, cfg)
        assert made == ([] if pool is None else [pool])
        assert result.config.workers == workers  # reported as given
        serial = run_experiment(g, replace(cfg, workers=1))
        assert np.array_equal(result.stretch.counts, serial.stretch.counts)

    @pytest.mark.parametrize(
        "h, budget, runs, workers, size",
        [
            (4, 1250, 200, 1, 16),  # one 64-bit word of walkers
            (130, 5, 200, 1, 1),
            (4, 1250, 200, 2, 16),
            (4, 1250, 20, 2, 10),  # a block for each process
            (4, 1250, 20, 64, 1),
            (2, 50_000, 200, 1, 5),  # 2 x 50k node ids a run, under 4 MiB a block
            (2, 500_000, 200, 1, 1),
            (4, 1 << 17, 200, 1, 1),
        ],
    )
    def test_block_size_fills_a_word_within_the_workers_and_the_bytes(self, h, budget, runs, workers, size):
        assert experiments._block_size(h, budget, runs, workers) == size

    def test_usable_cpus_counts_at_least_one(self):
        assert experiments._usable_cpus() >= 1


class TestCoverageValidation:
    def test_tau_zero_row_is_exactly_zero(self):
        cfg = ExperimentConfig(seed=2, h=2, beta=0.5, runs=5)
        rows = coverage_validation(star(6), cfg, [0.0])
        assert rows[0].empirical_mean == 0.0
        assert rows[0].predicted == 0.0

    def test_empirical_means_monotone_in_tau(self):
        from rwtopo import preferential_attachment

        g = preferential_attachment(300, 3, seed=8)
        cfg = ExperimentConfig(seed=4, h=2, beta=0.5, runs=10)
        rows = coverage_validation(g, cfg, [0.02, 0.05, 0.1, 0.2, 0.4])
        means = [r.empirical_mean for r in rows]
        assert means == sorted(means)
        for r in rows:
            assert 0.0 <= r.empirical_mean <= 1.0

    def test_saturation_regime_on_a_star(self):
        # one hub visit covers all m distinct edges, so the empirical
        # fraction |E|/2m pins at its structural ceiling 1/2 while the
        # prediction (which extrapolates the small-coverage dynamics past
        # their regime) keeps rising toward 1
        g = star(99)
        mom = degree_moments(g)
        taus = [t for t in np.linspace(0.05, 0.9, 18)
                if 0.96 <= expected_edge_fraction(mom, t) <= 0.99]
        assert taus, "grid must intersect the saturation window"
        cfg = ExperimentConfig(seed=6, h=2, beta=0.5, runs=10)
        rows = coverage_validation(g, cfg, taus)
        for r in rows:
            assert r.empirical_mean == pytest.approx(0.5)  # every edge covered
            assert r.predicted >= 0.96
            assert 0.0 <= r.empirical_mean <= 1.0

    def test_bad_grid_rejected(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before the taus were checked")

        monkeypatch.setattr(experiments, "run_walk", no_walk)
        cfg = ExperimentConfig(seed=2, h=2, beta=0.5, runs=2)
        with pytest.raises(ConfigError):
            coverage_validation(star(5), cfg, [])
        with pytest.raises(ConfigError):
            coverage_validation(star(5), cfg, [1.0])
        # False ran as a tau = 0 row, "0.05" as 0.05.
        for tau in [False, np.True_, "0.05", None]:
            with pytest.raises(ConfigError, match=f"^tau must be a real number, got {tau!r}$"):
                coverage_validation(star(5), cfg, [0.05, tau])

    def test_numpy_and_integer_taus_read_as_floats(self):
        cfg = ExperimentConfig(seed=2, h=2, beta=0.5, runs=2)
        rows = coverage_validation(star(5), cfg, [0, np.float32(0.5)])
        assert [row.tau for row in rows] == [0.0, 0.5]
        assert rows == coverage_validation(star(5), cfg, [0.0, 0.5])


class TestCrossingRate:
    def test_a_leaf_start_always_crosses_the_hub_start(self):
        # Walker 1's second step is the hub, walker 0's start.
        cfg = ExperimentConfig(seed=1, h=2, beta=0.4, runs=10, fixed_starts=(0, 1))
        res = crossing_rate(star(9), cfg, delta=1)
        assert res.non_crossing_rate == 0.0

    def test_disconnected_starts_never_cross(self):
        cfg = ExperimentConfig(seed=1, h=2, beta=0.4, runs=10, fixed_starts=(0, 3))
        res = crossing_rate(two_triangles(), cfg, delta=1)
        assert res.non_crossing_rate == 1.0

    @pytest.mark.parametrize("beta, rate", [(0.002, 0.9725), (0.006, 0.7825), (0.012, 0.34)])
    def test_pairs_never_cross_exactly_when_eval_finds_no_route(self, beta, rate):
        # With h = 2 both drivers walk run r's walker w from the stream at
        # (seed, r, w) and draw its starts from (seed, r, 0xBEEF).  On a
        # connected graph both of a run's pairs are INF exactly when the two
        # walks share no node, so eval's INF fraction is the non-crossing rate.
        g = preferential_attachment(5000, 3, seed=11)
        cfg = ExperimentConfig(seed=7, h=2, beta=beta, runs=400)
        assert run_experiment(g, cfg).summary["inf_fraction"] == crossing_rate(g, cfg).non_crossing_rate == rate

    def test_requires_pairs(self):
        cfg = ExperimentConfig(seed=1, h=3, beta=0.4, runs=5)
        with pytest.raises(ConfigError):
            crossing_rate(star(9), cfg)

    @pytest.mark.parametrize(
        "c, delta, message",
        [(float("nan"), None, "c must be positive"), (0.0, None, "c must be positive"),
         (1e9, None, "c \\* gamma_bar > 1"), (1.0, 0, "delta must be at least 1")],
        ids=["c-nan", "c-zero", "c-too-large", "delta-zero"],
    )
    def test_checks_the_bound_inputs_before_any_walk(self, monkeypatch, c, delta, message):
        def no_walks(*args):
            raise AssertionError("walked before the bound inputs were checked")

        monkeypatch.setattr(experiments, "run_walks", no_walks)
        cfg = ExperimentConfig(seed=1, h=2, beta=0.4, runs=5)
        with pytest.raises(ValueError, match=message):
            crossing_rate(star(9), cfg, c=c, delta=delta)

    def test_a_non_integral_delta_is_a_config_error_before_any_walk(self, monkeypatch):
        # delta=2.5 walked every run, then failed slicing a trace with a TypeError.
        def no_walks(*args):
            raise AssertionError("walked before delta was checked")

        monkeypatch.setattr(experiments, "run_walks", no_walks)
        cfg = ExperimentConfig(seed=1, h=2, beta=0.4, runs=5)
        with pytest.raises(ConfigError, match=r"^delta must be integral, got 2.5$"):
            crossing_rate(star(9), cfg, delta=2.5)

    @pytest.mark.parametrize("c", [True, np.True_, "1", None], ids=repr)
    def test_a_c_that_is_not_a_real_is_a_config_error_before_any_walk(self, monkeypatch, c):
        # True ran and wrote "c": true; "1" raised a TypeError.
        def no_walks(*args):
            raise AssertionError("walked before c was checked")

        monkeypatch.setattr(experiments, "run_walks", no_walks)
        cfg = ExperimentConfig(seed=1, h=2, beta=0.4, runs=5)
        with pytest.raises(ConfigError, match=f"^c must be a real number, got {c!r}$"):
            crossing_rate(star(9), cfg, c=c)

    def test_calibrated_bound_dominates_measured_rate(self):
        # calibrate c from the measured conditional hit rate, then the
        # geometric bound must sit above the measured non-crossing rate
        from rwtopo import (
            PowerLawParams,
            configuration_model,
            giant_component,
            power_law_degrees,
        )

        raw = configuration_model(
            power_law_degrees(PowerLawParams(2.5, 2, 2000), seed=61), seed=62
        )
        g, _ = giant_component(raw)
        cfg = ExperimentConfig(seed=17, h=2, beta=0.05, runs=200)
        probe = crossing_rate(g, cfg, c=1.0)
        calibrated = min(1.0, probe.conditional_hit_rate / probe.gamma_bar)
        res = crossing_rate(g, cfg, c=calibrated)
        assert res.conditional_hit_rate >= res.c * res.gamma_bar * 0.999
        assert res.non_crossing_rate <= res.bound

    def test_blocks_of_lockstep_walks_give_the_same_result(self, monkeypatch):
        g = preferential_attachment(400, 3, seed=30)
        cfg = ExperimentConfig(seed=9, h=2, beta=0.1, runs=7)
        lanes = []
        run_walks = experiments.run_walks

        def counted(g, starts, budget, seeds):
            lanes.append(len(starts))
            return run_walks(g, starts, budget, seeds)

        monkeypatch.setattr(experiments, "run_walks", counted)
        whole = crossing_rate(g, cfg, c=0.5, delta=10)
        assert lanes == [14]
        lanes.clear()
        # a cap of two lanes: one run per block
        monkeypatch.setattr(experiments, "_WALK_BLOCK_BYTES", 2 * 8 * cfg.budget(g.n))
        assert crossing_rate(g, cfg, c=0.5, delta=10) == whole
        assert lanes == [2] * 7

    def test_reports_bound_inputs(self):
        from rwtopo import preferential_attachment

        g = preferential_attachment(400, 3, seed=30)
        cfg = ExperimentConfig(seed=9, h=2, beta=0.1, runs=30)
        res = crossing_rate(g, cfg, c=0.5, delta=10)
        assert res.budget == 40
        assert res.exponent == 4
        assert 0 < res.gamma_bar < 1
        assert 0 <= res.non_crossing_rate <= 1
        assert res.conditional_samples > 0
        assert 0.0 <= res.conditional_hit_rate <= 1.0
        assert res.bound == pytest.approx(
            (1 - 0.5 * res.gamma_bar) ** 4
        )
        assert 0 < res.empirical_gamma < 1


class TestEmitReports:
    def _result(self, tmp_path=None):
        cfg = ExperimentConfig(seed=0, h=2, beta=0.9, runs=30)
        return run_experiment(complete(5), cfg)

    def test_complete_graph_matrix_csv_shape(self, tmp_path):
        res = self._result()
        emit_reports(res, "csv", tmp_path)
        lines = (tmp_path / "stretch_matrix.csv").read_text().splitlines()
        assert lines[0] == "d_true,1,INF"
        assert lines[1] == "1,1.0,0.0"
        assert lines[2] == "INF,0.0,0.0"

    def test_round_trip_rows_renormalize(self, tmp_path):
        from rwtopo import preferential_attachment

        g = preferential_attachment(120, 2, seed=40)
        res = run_experiment(g, ExperimentConfig(seed=8, h=3, beta=0.2, runs=20))
        emit_reports(res, "csv", tmp_path)
        lines = (tmp_path / "stretch_matrix.csv").read_text().splitlines()
        for line in lines[1:]:
            cells = [float(x) for x in line.split(",")[1:]]
            if any(c > 0 for c in cells):
                assert sum(cells) == pytest.approx(1.0, abs=1e-9)

    def test_histogram_and_metadata_files(self, tmp_path):
        res = self._result()
        written = emit_reports(res, "csv", tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "metadata.json",
            "stretch_matrix.csv",
            "timing.json",
            "true_distance_histogram.csv",
        ]
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["config"]["seed"] == 0
        assert meta["graph"] == {"n": 5, "m": 10}
        assert "wall_time_s" not in json.dumps(meta)

    def test_json_format_round_trips(self, tmp_path):
        res = self._result()
        emit_reports(res, "json", tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["stretch"]["labels"] == ["1", "INF"]
        counts = np.array(payload["stretch"]["counts"])
        assert counts.sum() == res.stretch.total_pairs

    def test_empty_matrix_rejected_not_written(self, tmp_path):
        res = self._result()
        res.stretch = StretchMatrix(np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            emit_reports(res, "csv", tmp_path / "sub")
        assert not (tmp_path / "sub").exists() or not list((tmp_path / "sub").iterdir())

    def test_unwritable_destination_errors(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        res = self._result()
        with pytest.raises(OSError):
            emit_reports(res, "csv", blocker / "nested")

    def test_byte_identical_reruns(self, tmp_path):
        from rwtopo import preferential_attachment

        g = preferential_attachment(150, 2, seed=50)
        cfg = ExperimentConfig(seed=31, h=3, beta=0.15, runs=15)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        emit_reports(run_experiment(g, cfg), "csv", a_dir)
        emit_reports(run_experiment(g, cfg), "csv", b_dir)
        for path in sorted(a_dir.iterdir()):
            if path.name == "timing.json":
                continue
            assert path.read_bytes() == (b_dir / path.name).read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_reports(self._result(), "xml", tmp_path)


def tree_scored_matrices(g, run):
    """Reference scorer: one plain queue search of ``g`` and one of the
    walker's G* per walker, sharing no code with the scorer.  G* is every
    edge with an end that a walk of the walker's group visited."""
    true = np.zeros((run.h, run.h), dtype=np.int64)
    discovered = np.zeros((run.h, run.h), dtype=np.int64)
    whole = adjacency_lists(g.n, g.edges)
    for i, start in enumerate(run.starts):
        visited = np.zeros(g.n, dtype=bool)
        visited[run.steps[sorted(run.states[i].known_peers | {i})]] = True
        true_dist = queue_bfs(whole, start)
        depth = queue_bfs(adjacency_lists(g.n, g.edges[visited[g.edges].any(axis=1)]), start)
        for j, target in enumerate(run.starts):
            if j == i:
                continue
            known = j in run.states[i].known_peers
            true[i, j] = true_dist[target]
            discovered[i, j] = depth[target] if known else UNREACHABLE
    return true, discovered


@pytest.mark.parametrize("budget", [5, 60])
@pytest.mark.parametrize("h", [2, 4, 65, 130])
@pytest.mark.parametrize("kind", ["pa", "grid"])
def test_score_pairs_matches_one_routing_tree_per_walker(kind, h, budget, monkeypatch):
    g = preferential_attachment(1500, 2, seed=11) if kind == "pa" else grid_2d(24, 24)
    starts = np.random.default_rng(h).choice(g.n, size=h, replace=False)
    run = run_rwsp(g, starts, budget, seed=(3, h))
    groups = {frozenset(s.known_peers | {i}) for i, s in enumerate(run.states)}
    linked = [grp for grp in groups if len(grp) > 1]
    singletons = len(groups) - len(linked)
    if budget == 5 and h >= 65:  # several groups beside walkers that met nobody
        assert len(linked) > 1 and singletons > 0
    if budget == 60 and h >= 65:  # one group wider than a 64-source block
        assert max(map(len, groups)) > 64

    calls = {"bfs_distances": 0, "pair_distances": 0}

    def counted(name):
        original = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(experiments, name, counted(name))
    true, discovered = score_pairs(run)
    expected_true, expected_discovered = tree_scored_matrices(g, run)
    assert true.dtype == discovered.dtype == np.int64
    assert np.array_equal(true, expected_true) and np.array_equal(discovered, expected_discovered)
    assert calls == {"bfs_distances": h, "pair_distances": 1}  # one search for the whole run


def test_score_pairs_builds_no_per_walk_tables():
    # Each group's G* comes from its steps alone: scoring caches no member's
    # first-visit table, covered-edge counts or breadcrumb map.
    g = preferential_attachment(1500, 2, seed=11)
    starts = np.random.default_rng(16).choice(g.n, size=16, replace=False)
    run = run_rwsp(g, starts, 60, seed=(3, 16))
    score_pairs(run)
    assert any(state.known_peers for state in run.states)
    for state in run.states:
        assert not {"first_visits", "edge_count_per_step", "_breadcrumbs"} & vars(state.trace).keys()


def test_scoring_builds_no_protocol_accounting(monkeypatch):
    # Groups come from shared nodes, so scoring never replays the meetings.
    def refuse(run):
        raise AssertionError("_replay called")

    monkeypatch.setattr(rwsp, "_replay", refuse)
    g = preferential_attachment(1500, 2, seed=11)
    starts = np.random.default_rng(16).choice(g.n, size=16, replace=False)
    run = run_rwsp(g, starts, 60, seed=(3, 16))
    true, discovered = score_pairs(run)
    assert ((discovered != UNREACHABLE) & ~np.eye(16, dtype=bool)).any()
    # Nor does it build the walkers' traces.
    assert not {"_accounting", "_traces"} & vars(run).keys()
    result = run_experiment(g, ExperimentConfig(seed=5, h=4, beta=0.02, runs=3))
    assert result.stretch.total_pairs == 3 * 4 * 3
    assert not {"_accounting", "_traces"} & vars(run).keys()
    with pytest.raises(AssertionError, match="_replay called"):
        run.meetings


U = UNREACHABLE
# (1,2) and (2,0) are both impossible under BAD_TRUE; GOOD_TRUE is consistent.
PLANTED_DISCOVERED = np.array([[0, 2, U], [2, 0, 5], [2, 4, 0]])
GOOD_TRUE = np.array([[0, 2, 3], [2, 0, 4], [2, 4, 0]])
BAD_TRUE = np.array([[0, 2, 3], [2, 0, U], [3, 4, 0]])


def plant_scores(monkeypatch, bad_runs):
    """Score every run as PLANTED_DISCOVERED, with BAD_TRUE for ``bad_runs``.

    The planted functions are module attributes, so forked pool workers
    inherit them."""
    one_run = experiments._one_run_records

    def planted_run(g, cfg, budget, members, run_index):
        starts, visited, _ = one_run(g, cfg, budget, members, run_index)
        return starts, visited, BAD_TRUE if run_index in bad_runs else GOOD_TRUE

    def planted_search(g, nodes, visited):
        dist = np.full((len(nodes), len(nodes)), U)
        for lo in range(0, len(nodes), 3):
            dist[lo : lo + 3, lo : lo + 3] = PLANTED_DISCOVERED
        return dist

    monkeypatch.setattr(experiments, "_one_run_records", planted_run)
    monkeypatch.setattr(experiments, "pair_distances", planted_search)


def test_run_invariant_names_the_first_bad_pair_in_i_major_order(monkeypatch):
    plant_scores(monkeypatch, {0})
    g = path_graph(6)
    cfg = ExperimentConfig(seed=1, h=3, beta=0.5, runs=1, fixed_starts=(0, 2, 4))
    with pytest.raises(InvariantViolation, match=r"^run 0: discovered 5 hops vs true -1 for pair \(1,2\)$"):
        run_experiment(g, cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_block_invariant_names_the_lowest_bad_run(monkeypatch, workers):
    # h=3: runs 0..20 form one block, so runs 5 and 9 are scored together;
    # run 30 lies in the next block.
    plant_scores(monkeypatch, {9, 5, 30})
    g = path_graph(6)
    cfg = ExperimentConfig(seed=1, h=3, beta=0.5, runs=40, fixed_starts=(0, 2, 4), workers=workers)
    with pytest.raises(InvariantViolation, match=r"^run 5: discovered 5 hops vs true -1 for pair \(1,2\)$"):
        run_experiment(g, cfg)


def alone_records(run):
    """One run's records from score_pairs of that run alone, i-major."""
    true, discovered = score_pairs(run)
    off_diagonal = ~np.eye(run.h, dtype=bool)
    return np.column_stack((true[off_diagonal], discovered[off_diagonal]))


@pytest.mark.parametrize("budget", [5, 60])
@pytest.mark.parametrize("fixed", [False, True], ids=["random", "fixed"])
@pytest.mark.parametrize("h", [2, 3, 4, 5, 16, 33, 65, 130])
def test_each_run_scores_in_its_block_as_alone(h, fixed, budget):
    g = preferential_attachment(1500, 2, seed=11)
    size = max(1, 64 // h)
    starts = tuple(np.random.default_rng(h).choice(g.n, size=h, replace=False).tolist()) if fixed else None
    cfg = ExperimentConfig(
        seed=h, h=h, beta=budget / g.n, runs=size + 2 if size > 1 else 3, fixed_starts=starts
    )
    members = experiments._start_pool(g, cfg)
    assert cfg.budget(g.n) == budget
    in_blocks, alone = [], []
    for lo in range(0, cfg.runs, size):
        block = range(lo, min(lo + size, cfg.runs))
        in_blocks.append(experiments._block_records(g, cfg, budget, members, block))
        for r in block:
            run = run_rwsp(g, experiments._draw_starts(cfg, members, r), budget, walker_seed(cfg.seed, r))
            alone.append(alone_records(run))
    assert np.array_equal(np.concatenate(in_blocks), np.concatenate(alone))
    assert sum(map(len, alone)) == cfg.runs * h * (h - 1)
    expected = StretchMatrix.from_pairs(np.concatenate(alone)).counts
    for workers in (1, 2):
        result = run_experiment(g, replace(cfg, workers=workers))
        assert np.array_equal(result.stretch.counts, expected)


def test_a_block_keeps_no_step_table_of_its_runs():
    g = preferential_attachment(300, 2, seed=4)
    run = run_rwsp(g, [0, 5, 9, 40], 80, seed=2)
    starts, visited, true = experiments._run_scores(run)
    assert starts.tolist() == list(run.starts)
    assert [v is u.nodes for v, u in zip(visited, run.unions)] == [True] * 4
    assert not any(np.shares_memory(a, run.steps) for a in [starts, *visited, true])


@pytest.fixture
def component_labellings(monkeypatch):
    """The number of labellings run so far of a graph, as a function of it.

    A labelling is a ``component_labels`` call that finds the graph's
    components unset.  Every driver reaches ``component_labels`` through
    ``rwtopo.graph``'s own name for it (``giant_members``, ``stats_report``);
    the protocol's meeting groups label walker ids with ``_components`` and
    count under no graph."""
    labelled = []
    component_labels = rwtopo.graph.component_labels

    def counting_component_labels(g):
        if g._components is None:
            labelled.append(g)
        return component_labels(g)

    monkeypatch.setattr(rwtopo.graph, "component_labels", counting_component_labels)
    return lambda g: sum(x is g for x in labelled)


def run_every_driver(g):
    cfg = ExperimentConfig(seed=3, h=2, beta=0.05, runs=3)
    run_experiment(g, cfg)
    run_experiment(g, replace(cfg, h=3))
    coverage_validation(g, cfg, [0.02, 0.05])
    crossing_rate(g, cfg)
    stats_report(g)


def test_a_connected_graph_is_labelled_once_by_every_driver(component_labellings):
    g = preferential_attachment(200, 2, seed=6)
    assert giant_component(g)[0] is g
    run_every_driver(g)
    assert component_labellings(g) == 1


def test_a_rebuilt_giant_component_is_labelled_at_most_once(component_labellings):
    pa = preferential_attachment(200, 2, seed=6)
    raw = Graph(203, np.concatenate([pa.edges, [[200, 201]]]))
    gc, _ = giant_component(raw)
    assert gc is not raw and gc.n == 200
    for _ in range(2):
        run_every_driver(gc)
    assert component_labellings(raw) == 1
    assert component_labellings(gc) <= 1


def test_a_sliced_giant_component_comes_labelled(component_labellings):
    pa = preferential_attachment(200, 2, seed=6)
    raw = Graph(203, np.concatenate([pa.edges, [[200, 201]]]))
    gc, _ = giant_component(raw)
    run_every_driver(gc)
    assert component_labellings(gc) == 0
    labels, sizes = component_labels(gc)
    assert labels.tolist() == [0] * gc.n and sizes.tolist() == [gc.n]
    assert not labels.flags.writeable and not sizes.flags.writeable


def test_names_patched_by_the_benchmark_exist():
    # rwbench swaps these attributes by name, reading vars(owner)[name]; a
    # missing one makes every traced benchmark run raise KeyError.
    for name in ("bfs_distances", "routing_tree", "run_rwsp", "run_walk", "giant_component", "_one_run_records"):
        assert name in vars(experiments), name
    assert "from_pairs" in vars(experiments.StretchMatrix)
    # What rwbench/workloads.py imports from the top level, including the
    # edge-list writer it runs in a child process.
    for name in (
        "ExperimentConfig", "coverage_validation", "crossing_rate", "emit_reports", "from_spec",
        "giant_component", "load_edge_list", "run_experiment", "write_edge_list",
    ):
        assert name in rwtopo.__all__ and hasattr(rwtopo, name), name

    # What rwbench reads from the results of those calls.
    g = preferential_attachment(60, 2, seed=4)
    walk = experiments.run_walk(g, 0, 12, (1, 2))
    assert isinstance(walk, tuple) and len(walk) == 2
    trace, bc = walk
    assert type(trace.budget) is int and type(trace.start) is int
    assert (trace.start, trace.budget) == (0, 12)
    assert (bc.visited == trace.visited).all()
    for v in trace.first_visits[0].tolist():
        assert bc.predecessor[v] == (retrace_to_start(trace, v) + [-1])[1]
    assert (experiments.bfs_distances(g, 0, None) == bfs_distances(g, 0)).all()
    run = experiments.run_rwsp(g, [0, 20, 40], 15, (3, 4))
    for union in run.unions:
        assert union.graph is g
    assert run.meetings and run.direct_peers
    assert isinstance(run.pair_advertise_hops, dict) and isinstance(run.pair_transfer_hops, dict)
    for state in run.states:
        assert isinstance(state.known_peers, frozenset) and state.trace.steps.size == 15
        assert type(state.trace.budget) is int and type(state.trace.start) is int
