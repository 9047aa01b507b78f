import json

import numpy as np
import pytest

from rwtopo import UNREACHABLE, ExperimentConfig, cli, experiments, load_edge_list
from rwtopo.experiments import InvariantViolation, _block_records, _start_pool


@pytest.fixture
def pa_file(tmp_path):
    path = tmp_path / "pa.txt"
    assert cli.main(["synth", "pa:n=120,m0=2", "-o", str(path), "--seed", "7"]) == 0
    return path


def test_synth_writes_a_loadable_graph(pa_file):
    g = load_edge_list(pa_file)
    assert g.n == 120
    assert g.m == 3 + 117 * 2


def test_stats_reports_summary(pa_file, capsys):
    assert cli.main(["stats", str(pa_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 120
    assert set(report) == {
        "n", "m", "mean_degree", "second_moment", "q", "giant_component_fraction",
    }


def test_stats_reads_an_edge_list_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf1 2\n2 3\n")
    assert cli.main(["stats", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["n"], report["m"]) == (3, 2)


def test_stats_rejects_a_node_id_beyond_int64(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("99999999999999999999 1\n")
    assert cli.main(["stats", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: node id out of range\n"
    assert "Traceback" not in captured.err


def test_walk_trace_summary(pa_file, capsys):
    code = cli.main(
        ["walk", "--graph", str(pa_file), "--start", "0", "--budget", "25", "--seed", "3"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["steps_taken"] == 25
    assert 1 <= out["unique_nodes"] <= 25
    assert 0 < out["covered_edge_fraction"] <= 0.5


def test_predict_csv_from_graph(pa_file, capsys):
    assert cli.main(["predict", "--graph", str(pa_file), "--taus", "0.0,0.02,0.9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tau,n_e_pred,n_nodes_pred,gamma_bar,warning_flag"
    assert lines[1].startswith("0.0,0.0,0.0,0.0,")
    assert len(lines) == 4


def test_predict_csv_from_explicit_moments(tmp_path, capsys):
    code = cli.main(
        [
            "predict",
            "--mean-degree", "2", "--second-moment", "6", "--num-edges", "300",
            "--taus", "0.1",
            "-o", str(tmp_path / "pred.csv"),
        ]
    )
    assert code == 0
    row = (tmp_path / "pred.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(57.097549178424256)
    assert float(row[2]) == pytest.approx(28.548774589212128)


def test_predict_needs_a_source(capsys):
    assert cli.main(["predict", "--taus", "0.1"]) == 1
    assert "error" in capsys.readouterr().err


def test_predict_rejects_moments_given_with_a_graph(pa_file, capsys):
    assert cli.main(["predict", "--graph", str(pa_file), "--mean-degree", "3", "--taus", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: give either --graph or --mean-degree, not both" in captured.err


@pytest.mark.parametrize(
    "source", [["--graph", "{graph}"], ["--mean-degree", "2", "--second-moment", "6", "--num-edges", "10"]]
)
def test_predict_rejects_an_empty_tau_grid(pa_file, capsys, source):
    # used to print only the CSV header and exit 0
    args = ["predict", *(a.format(graph=pa_file) for a in source), "--taus", ","]
    capsys.readouterr()
    assert cli.main(args) == 1
    assert capsys.readouterr() == ("", "error: tau grid must be non-empty\n")


@pytest.mark.parametrize("edges", ["0", "-5"])  # 0 divided by zero, -5 printed negative counts
def test_predict_rejects_fewer_than_one_edge(capsys, edges):
    args = ["predict", "--mean-degree", "2", "--second-moment", "6", "--num-edges", edges, "--taus", "0.1"]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--num-edges must be at least 1" in captured.err


@pytest.mark.parametrize(
    "command, message",
    [
        # each printed a nan or inf-derived row, or wrote NaN into crossing.json, and exited 0
        ("predict --mean-degree nan --second-moment 10 --num-edges 100", "degree moments must be finite"),
        ("predict --mean-degree 2 --second-moment inf --num-edges 100", "degree moments must be finite"),
        ("predict --graph {graph} --taus 0.01,nan", "tau must be finite and non-negative, got nan"),
        ("eval --graph {graph} --seed 1 -o {out} --runs 2 --crossing --c nan", "c must be positive"),
        # exited 1, but with "cannot convert float NaN to integer"
        ("eval --graph {graph} --seed 1 -o {out} --runs 2 --coverage-taus 0.01,nan", "tau grid values must lie in [0, 1)"),
    ],
    ids=["mean-degree", "second-moment", "predict-taus", "crossing-c", "coverage-taus"],
)
def test_non_finite_numbers_are_one_line_input_errors(pa_file, tmp_path, capsys, command, message):
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(command.format(graph=pa_file, out=out).split()) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--crossing --c nan", "c must be positive"),
        ("--crossing --c 0", "c must be positive"),
        ("--crossing --delta 0", "delta must be at least 1"),
        ("--coverage-taus 0.01,nan", "tau grid values must lie in [0, 1)"),
    ],
    ids=["crossing-c-nan", "crossing-c-zero", "crossing-delta", "coverage-taus"],
)
def test_eval_checks_every_input_before_the_first_run(pa_file, tmp_path, capsys, monkeypatch, flags, message):
    def no_run(g, cfg):
        raise AssertionError("run_experiment ran before the inputs were checked")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["eval", "--graph", str(pa_file), "--seed", "1", "-o", str(out), "--runs", "2", *flags.split()]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_eval_crossing_on_a_single_edge_names_gamma_bar(tmp_path, capsys):
    # c is the default 1; it is the graph's covered-edge fraction that is 0.
    graph = tmp_path / "one.txt"
    graph.write_text("0 1\n")
    out = tmp_path / "out"
    args = ["eval", "--graph", str(graph), "--seed", "1", "-o", str(out), "--runs", "2", "--h", "2", "--beta", "0.5", "--crossing"]
    capsys.readouterr()
    assert cli.main(args) == 1
    assert capsys.readouterr() == ("", "error: gamma_bar must be positive\n")
    assert not out.exists()


def test_predict_has_no_tau_grid_flag(pa_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--graph", str(pa_file), "--tau-grid", "0.01", "0.1", "10"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --tau-grid" in capsys.readouterr().err


def test_rwsp_star_meeting_report(tmp_path, capsys):
    graph = tmp_path / "star.txt"
    graph.write_text("0 1\n0 2\n0 3\n0 4\n")
    code = cli.main(
        ["rwsp", "--graph", str(graph), "--h", "2", "--starts", "1,2",
         "--beta", "0.5", "--seed", "5"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    pair = out["pairs"][0]
    assert pair["met"] is True
    assert pair["true_spl"] == 2
    assert pair["rwsp_spl"] == 2
    assert pair["naive_spl"] == 2
    assert out["walkers"][0]["known_peers"] == [1]
    # walker 1 advertises one hop back to walker 0; each hand-off is leaf -> hub -> leaf
    assert [(w["advertise_hops"], w["transfer_hops"]) for w in out["walkers"]] == [(0, 2), (1, 2)]


def test_rwsp_random_starts_replays_eval_run_zero(pa_file, capsys):
    args = ["rwsp", "--graph", str(pa_file), "--h", "5", "--random-starts", "--beta", "0.1", "--seed", "17"]
    assert cli.main(args) == 0
    out = json.loads(capsys.readouterr().out)
    g = load_edge_list(pa_file)
    # run 0 as scored inside eval's first block: runs 0..11 at h=5
    cfg = ExperimentConfig(seed=17, h=5, beta=0.1, runs=12)
    block = _block_records(g, cfg, cfg.budget(g.n), _start_pool(g, cfg), range(12))
    expected = block[: 5 * 4]
    recorded = [
        [UNREACHABLE if p[key] is None else p[key] for key in ("true_spl", "rwsp_spl")]
        for p in out["pairs"]
    ]
    assert out["budget"] == cfg.budget(g.n)
    assert recorded == expected.tolist()


def test_rwsp_exits_two_on_a_route_shorter_than_the_true_distance(pa_file, monkeypatch, capsys):
    args = ["rwsp", "--graph", str(pa_file), "--h", "4", "--random-starts", "--seed", "3"]
    assert cli.main(args) == 0
    true = json.loads(capsys.readouterr().out)["pairs"][0]["true_spl"]
    assert true > 1

    def planted_search(g, nodes, visited=None):
        return 1 - np.eye(len(nodes), dtype=np.int64)  # a one-hop route between every pair

    monkeypatch.setattr(experiments, "pair_distances", planted_search)
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal invariant violation: run 0: discovered 1 hops vs true {true} for pair (0,1)\n"


def test_rwsp_takes_h_from_the_start_list(pa_file, capsys):
    assert cli.main(["rwsp", "--graph", str(pa_file), "--starts", "0,7,50", "--beta", "0.2", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [w["start"] for w in out["walkers"]] == [0, 7, 50]
    assert len(out["pairs"]) == 6


def test_rwsp_rejects_an_h_that_disagrees_with_the_start_list(pa_file, capsys):
    args = ["rwsp", "--graph", str(pa_file), "--h", "4", "--starts", "0,7,50", "--seed", "3"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "--h 4 disagrees with --starts, which lists 3 nodes" in err


def test_eval_takes_h_from_the_start_list(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("synth = pa:n=100,m0=2\nstarts = 0,7,50\nbeta = 0.2\nruns = 2\n")
    out_dir = tmp_path / "out"
    assert cli.main(["eval", str(cfg), "--seed", "4", "-o", str(out_dir)]) == 0
    meta = json.loads((out_dir / "metadata.json").read_text())
    assert meta["config"]["h"] == 3 and meta["config"]["fixed_starts"] == [0, 7, 50]


def test_eval_rejects_an_h_that_disagrees_with_the_start_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("synth = pa:n=100,m0=2\nstarts = 0,7,50\nh = 2\n")
    assert cli.main(["eval", str(cfg), "--seed", "4", "-o", str(tmp_path / "out")]) == 1
    assert "h=2 disagrees with starts=, which lists 3 nodes" in capsys.readouterr().err


def test_rwsp_requires_start_policy(pa_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rwsp", "--graph", str(pa_file), "--seed", "1"])
    assert exc.value.code == 1
    assert "one of the arguments --starts --random-starts is required" in capsys.readouterr().err


def test_rwsp_rejects_both_start_policies(pa_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rwsp", "--graph", str(pa_file), "--starts", "0,5", "--random-starts", "--seed", "1"])
    assert exc.value.code == 1
    assert "argument --random-starts: not allowed with argument --starts" in capsys.readouterr().err


@pytest.mark.parametrize(
    "policy, beta, message",
    [
        (["--starts", "0,5"], "-3", "beta must lie in (0, 1)"),
        (["--random-starts"], "0.001", "yields zero steps"),  # 0.001 * 120 nodes < 1 step
    ],
)
def test_rwsp_validates_beta_like_eval(pa_file, capsys, policy, beta, message):
    args = ["rwsp", "--graph", str(pa_file), "--h", "2", "--beta", beta, "--seed", "1"]
    assert cli.main(args + policy) == 1
    assert message in capsys.readouterr().err


def test_eval_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "# demo config\n"
        "synth = pa:n=100,m0=2\n"
        "synth_seed = 4\n"
        "h = 2\n"
        "beta = 0.2\n"
        "runs = 5\n"
    )
    out_dir = tmp_path / "out"
    code = cli.main(["eval", str(cfg), "--seed", "21", "-o", str(out_dir), "--runs", "6"])
    assert code == 0
    meta = json.loads((out_dir / "metadata.json").read_text())
    assert meta["config"]["runs"] == 6  # flag wins over the file
    assert meta["config"]["h"] == 2
    assert (out_dir / "stretch_matrix.csv").exists()
    assert (out_dir / "timing.json").exists()


def test_eval_flags_only_with_coverage_and_crossing(tmp_path):
    out_dir = tmp_path / "out"
    code = cli.main(
        ["eval", "--synth", "pa:n=100,m0=2", "--synth-seed", "4",
         "--h", "2", "--beta", "0.2", "--runs", "5",
         "--coverage-taus", "0.02,0.05", "--crossing", "--delta", "3",
         "--seed", "9", "-o", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / "coverage.csv").exists()
    crossing = json.loads((out_dir / "crossing.json").read_text())
    assert crossing["delta"] == 3
    assert 0 <= crossing["non_crossing_rate"] <= 1


def test_eval_byte_identical_outputs(tmp_path):
    args = ["eval", "--synth", "pa:n=90,m0=2", "--synth-seed", "1",
            "--h", "2", "--beta", "0.2", "--runs", "4", "--seed", "13"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["-o", str(a)]) == 0
    assert cli.main(args + ["-o", str(b)]) == 0
    for path in sorted(a.iterdir()):
        if path.name == "timing.json":
            continue
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_eval_rejects_seed_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("synth = pa:n=50,m0=2\nseed = 3\n")
    assert cli.main(["eval", str(cfg), "--seed", "1", "-o", str(tmp_path / "o")]) == 1
    assert "--seed" in capsys.readouterr().err


def test_eval_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("walkers = 4\n")
    assert cli.main(["eval", str(cfg), "--seed", "1", "-o", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("h=abc", "h: invalid literal for int() with base 10: 'abc'"),
        ("starts=1,x", "starts: expected comma-separated node ids, got '1,x'"),
        ("coverage_taus=0.1,y", "coverage_taus: expected comma-separated numbers, got '0.1,y'"),
        ("synth_seed=-4", "synth_seed: expected a non-negative integer, got '-4'"),
        # both used to read as false: exit 0, no crossing census
        ("crossing=on", "crossing: expected 1/true/yes or 0/false/no, got 'on'"),
        ("rescale_budget=maybe", "rescale_budget: expected 1/true/yes or 0/false/no, got 'maybe'"),
    ],
)
def test_eval_config_value_errors_name_the_file_line_and_key(tmp_path, capsys, line, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"synth = pa:n=50,m0=2\n{line}\n")
    assert cli.main(["eval", str(cfg), "--seed", "1", "-o", str(tmp_path / "o")]) == 1
    assert f"error: {cfg}:2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("on, off", [("1", "0"), ("TRUE", "False"), ("Yes", "NO")])
def test_eval_config_booleans_take_both_spellings_in_any_case(tmp_path, on, off):
    cfg = tmp_path / "cfg.txt"
    body = "synth = pa:n=60,m0=2\nh = 2\nbeta = 0.2\nruns = 2\n"
    for crossing, rescale in ((on, off), (off, on)):
        cfg.write_text(body + f"crossing = {crossing}\nrescale_budget = {rescale}\n")
        out_dir = tmp_path / f"out-{crossing}"
        assert cli.main(["eval", str(cfg), "--seed", "2", "-o", str(out_dir)]) == 0
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["config"]["rescale_budget"] is (rescale == on)
        assert (out_dir / "crossing.json").exists() is (crossing == on)


@pytest.mark.parametrize(
    "args, flag, value",
    [
        (["eval", "--synth", "pa:n=50,m0=2", "-o", "o"], "--starts", "1,x"),
        (["rwsp", "--graph", "g.txt", "--h", "2"], "--starts", "1,x"),
        (["eval", "--synth", "pa:n=50,m0=2", "-o", "o"], "--coverage-taus", "0.1,y"),
        (["predict", "--graph", "g.txt"], "--taus", "0.1,y"),
    ],
)
def test_bad_list_flags_name_the_flag(capsys, args, flag, value):
    seed = [] if args[0] == "predict" else ["--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(args + seed + [flag, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: expected comma-separated" in err and repr(value) in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("walk --graph {graph} --start 0 --budget 5", "--seed"),
        ("synth pa:n=50,m0=2 -o {out}", "--seed"),
        ("rwsp --graph {graph} --h 2 --random-starts", "--seed"),
        ("eval --synth pa:n=50,m0=2 -o {out}", "--seed"),
        ("eval --synth pa:n=50,m0=2 -o {out} --seed 1", "--synth-seed"),
    ],
    ids=["walk", "synth", "rwsp", "eval", "eval-synth-seed"],
)
def test_negative_seeds_name_the_flag(pa_file, tmp_path, capsys, command, flag):
    args = command.format(graph=pa_file, out=tmp_path / "out").split()
    with pytest.raises(SystemExit) as exc:
        cli.main(args + [flag, "-1"])
    assert exc.value.code == 1
    assert f"argument {flag}: expected a non-negative integer, got '-1'" in capsys.readouterr().err


def test_eval_requires_seed_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--synth", "pa:n=50,m0=2", "-o", str(tmp_path / "o")])
    assert exc.value.code == 1


def test_eval_requires_a_graph_source(tmp_path, capsys):
    assert cli.main(["eval", "--seed", "1", "-o", str(tmp_path / "o")]) == 1
    assert "graph" in capsys.readouterr().err


def test_input_errors_exit_one(capsys):
    assert cli.main(["stats", "/definitely/not/there"]) == 1
    assert cli.main(["synth", "mystery:n=5", "-o", "/tmp/x", "--seed", "1"]) == 1


def test_synth_of_a_non_integer_size_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert cli.main(["synth", "pa:n=1e5,m0=3", "-o", str(out), "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: generator spec 'pa:n=1e5,m0=3': n must be an integer, got '1e5'\n"
    assert not out.exists()


def test_synth_of_an_edgeless_graph_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert cli.main(["synth", "grid:rows=1,cols=1", "-o", str(out), "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: generator spec 'grid:rows=1,cols=1' gives a graph with no edges, "
        "which an edge list cannot hold\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "spec",
    [
        # each needs hundreds of terabytes or more, so its allocation fails at once
        "pa:n=100000000000000,m0=3",
        "plconfig:n=100000000000000,alpha=2.5",
        "grid:rows=100000000,cols=100000000",
    ],
)
def test_synth_of_an_impossible_size_is_a_one_line_error(spec, tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert cli.main(["synth", spec, "-o", str(out), "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_invariant_violations_exit_two(monkeypatch, tmp_path, capsys):
    def boom(*args, **kwargs):
        raise InvariantViolation("planted for the exit-code contract")

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(
        ["eval", "--synth", "pa:n=50,m0=2", "--seed", "1", "-o", str(tmp_path / "o")]
    )
    assert code == 2
    assert "invariant" in capsys.readouterr().err
