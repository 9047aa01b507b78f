"""The observable contract, pinned by digest.

Each test runs one CLI command on a small synthetic preferential-attachment
graph and compares the sha256 of what it writes with a recorded value:
``eval`` reports (CSV and JSON, with coverage and crossing, at one and two
workers), the ``rwsp`` JSON for random and pinned starts, the default
``predict`` curve and one ``walk`` summary.  Two more digests pin every
array of a loaded graph, for dense labels and for labels spread wider than
the edge list is long.  A refactor behind the contract leaves every digest
as it is; a change that moves one changes the contract and must say so.
"""

import hashlib
import io

import numpy as np
import pytest

from rwtopo import cli, from_spec, load_edge_list, write_edge_list

EVAL_ARGS = [
    "eval", "--synth", "pa:n=400,m0=2", "--synth-seed", "3",
    "--h", "4", "--beta", "0.05", "--runs", "12",
    "--coverage-taus", "0.01,0.03", "--crossing", "--seed", "11",
]

# (format, workers) -> digest of the summary line and every report but timing.json
EVAL_DIGESTS = {
    ("csv", 1): "02f2140493dd2c8637d80508ea66d74b5704b8e89893106d7a942e04db6d952b",
    ("csv", 2): "13a313570b9ef6f9ec0ad5fe7574d4f7540c1be73a71f867c525157345173090",
    ("json", 1): "7b1b0a64d9174015eaf6268b277c07d2f32d5b994e4156930f7b232718badf4f",
    ("json", 2): "3017182d668c4abb087e5c6eedd1adf1e6604c4b11d07958b2727b38945dcd62",
}

# name -> (command run with --graph on the PA graph, digest of its stdout)
STDOUT_DIGESTS = {
    "rwsp-random-starts": (
        ["rwsp", "--h", "6", "--random-starts", "--beta", "0.04", "--seed", "17"],
        "59705210581ab7d41d1932988d97fbbb487113666bdb90ce5409d44516e2ed0a",
    ),
    "rwsp-starts": (
        ["rwsp", "--h", "3", "--starts", "0,7,350", "--beta", "0.02", "--seed", "5"],
        "e9f5e1c364bc264dfdb421975162aa0bf4c64cdcc8bcc4d4c0da2a8e07fe2788",
    ),
    "predict-default": (["predict"], "59fd11727512bc5bbea158f7673fabce1d2d156ea34407e0800791eb9e790152"),
    "walk": (
        ["walk", "--start", "0", "--budget", "300", "--seed", "9"],
        "77fd8d9b8a6e91aea70689b8f73084ddf648400a009e432056eabf56ea4e5c0f",
    ),
}

# relabelling of the dense ids of pa:n=5000,m0=3 (seed 11) -> digest of the
# loaded graph's arrays.  Dense labels span less than the 2m label entries,
# and 7u + 3 spans more.
LOADED_GRAPH_DIGESTS = {
    "u": (lambda u: u, "d86d452b891d96bcde6d74c8f69c25f0c9734a3a5e61a41fe97a9d099b288ef7"),
    "7u+3": (lambda u: 7 * u + 3, "d1d5a518c9e7de562e245543826443955471750140579240a599351ba05816b6"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def pa_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "pa.txt"
    assert cli.main(["synth", "pa:n=400,m0=2", "-o", str(path), "--seed", "3"]) == 0
    return str(path)


@pytest.mark.parametrize("fmt, workers", sorted(EVAL_DIGESTS))
def test_eval_reports_match_the_recorded_digest(tmp_path, capsys, fmt, workers):
    args = EVAL_ARGS + ["--format", fmt, "--workers", str(workers), "-o", str(tmp_path)]
    assert cli.main(args) == 0
    summary_line = capsys.readouterr().out.splitlines()[0]
    parts = [summary_line.encode()]
    for path in sorted(tmp_path.iterdir()):
        if path.name != "timing.json":
            parts += [path.name.encode(), path.read_bytes()]
    assert sha256(b"\0".join(parts)) == EVAL_DIGESTS[fmt, workers]


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_stdout_matches_the_recorded_digest(pa_file, capsys, name):
    args, digest = STDOUT_DIGESTS[name]
    assert cli.main(args + ["--graph", pa_file]) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize("name", sorted(LOADED_GRAPH_DIGESTS))
def test_loaded_graph_matches_the_recorded_digest(name):
    relabel, digest = LOADED_GRAPH_DIGESTS[name]
    written = io.StringIO()
    write_edge_list(from_spec("pa:n=5000,m0=3", 11), written)
    labels = relabel(np.loadtxt(io.StringIO(written.getvalue()), dtype=np.int64))
    g = load_edge_list("".join(f"{a} {b}\n" for a, b in labels.tolist()).encode())
    h = hashlib.sha256(f"{g.n} {g.m}".encode())
    for a in (g.edges, g.indptr, g.adj, g.adj_edge_ids, g.original_ids):
        h.update(f"{a.dtype.str}{a.shape}".encode() + np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest
