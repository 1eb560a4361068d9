"""Command line: report contents, exit codes, and byte-level determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bclique
from bclique import graph
from bclique.cli import run_command
from bclique.graph import gen_graph, load_graph, serialize_graph


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(serialize_graph(gen_graph("path", 4)))
    return str(path)


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_params_command(capsys):
    code, doc = run_json(capsys, ["params", "--n", "4", "--d", "1"])
    assert code == 0
    assert doc["p"] == "101" and doc["xbar"] == 2 and doc["p_bits"] == 7
    assert doc["schema_version"] == 1
    assert doc["table_entries"] == 0  # binary shape: nothing stored
    assert doc["domain_size"] == 5
    code, doc = run_json(capsys, ["params", "--n", "16", "--d", "1"])
    assert code == 0
    # p = 4637 has 13 bits, so low = 12: the table stores the four
    # singletons at 12-15, and the other 13 encodings are binary values
    assert doc["domain_size"] == 17 and doc["table_entries"] == 4


def test_prune_command(capsys, p4_file):
    code, doc = run_json(capsys, ["prune", "--graph", p4_file, "--d", "1"])
    assert code == 0
    assert doc["fully_reconstructed"] is True
    assert doc["rounds_used"] == 1
    assert doc["oracle_agreement"] is True
    assert doc["sequence"] == [[0, [1]], [1, [2]], [2, [3]], [3, []]]
    assert "wall_ms" not in doc  # timing goes to stderr only


def test_prune_transcript_flag(capsys, p4_file):
    code, doc = run_json(capsys, ["prune", "--graph", p4_file, "--d", "1", "--transcript"])
    assert code == 0
    rounds = doc["transcript"]["rounds"]
    assert len(rounds) == 1 and len(rounds[0]) == 4
    assert rounds[0][0] == {"kind": "degree_and_sketch", "degree": 1, "sketch": "2", "bits": 9}


def test_components_command(capsys, p4_file):
    code, doc = run_json(capsys, ["components", "--graph", p4_file, "--eps", "1/2"])
    assert code == 0
    assert doc["labels"] == [0, 0, 0, 0]
    assert doc["component_count"] == 1
    assert doc["rounds_used"] <= doc["round_budget"] == 2
    assert doc["oracle_agreement"] is True


def test_one_round_command(capsys, p4_file):
    code, doc = run_json(capsys, ["one-round", "--graph", p4_file, "--r", "2"])
    assert code == 0
    assert doc["rounds_used"] == 1
    assert doc["labels"] == [0, 0, 0, 0]
    assert doc["parameters"]["s"] == 2
    assert doc["oracle_agreement"] is True


def test_missing_graph_file_is_usage_error(capsys):
    code = run_command(["components", "--graph", "does_not_exist.txt", "--eps", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


@pytest.mark.parametrize("eps", ["0", "2", "-1/2", "abc", "3/2"])
def test_bad_eps_is_usage_error(capsys, p4_file, eps):
    assert run_command(["components", "--graph", p4_file, "--eps", eps]) == 2


def test_usage_errors(capsys):
    assert run_command([]) == 2
    assert run_command(["frobnicate"]) == 2
    assert run_command(["params", "--n", "4"]) == 2


def test_module_error_reported_as_json(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 0\n")
    code, doc = run_json(capsys, ["prune", "--graph", str(bad), "--d", "1"])
    assert code == 1
    assert doc["error"]["type"] == "InvalidEdge"


@pytest.mark.parametrize("graph, argv", [
    ("p4", ["prune", "--d", "9"]),
    ("p4", ["prune", "--d", "-1"]),
    ("p4", ["one-round", "--r", "0"]),
    ("p4", ["components", "--eps", "0.999999999999"]),
    ("empty", ["components", "--eps", "1/2"]),
    ("empty", ["prune", "--d", "0"]),
    ("empty", ["one-round", "--r", "1"]),
    (None, ["params", "--n", "0", "--d", "0"]),
], ids=lambda v: v if isinstance(v, str) else " ".join(v) if v else "no-graph")
def test_bad_params_reported_as_json(capsys, tmp_path, graph, argv):
    if graph is not None:
        path = tmp_path / "g.txt"
        path.write_text({"p4": serialize_graph(gen_graph("path", 4)), "empty": "0\n"}[graph])
        argv = argv[:1] + ["--graph", str(path)] + argv[1:]
    code, doc = run_json(capsys, argv)
    assert code == 1
    assert doc["error"]["type"] == "BadParams"


@pytest.mark.parametrize("argv", [["prune", "--d", "1"], ["components", "--eps", "1/2"],
                                  ["one-round", "--r", "2"]], ids=lambda v: v[0])
def test_non_utf8_graph_file_reported_as_json(capsys, tmp_path, argv):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"3\n0 1\n\xff\n")
    code, doc = run_json(capsys, argv[:1] + ["--graph", str(path)] + argv[1:])
    assert code == 1
    assert doc["command"] == argv[0]
    assert doc["error"]["type"] == "ParseError"
    assert "not UTF-8" in doc["error"]["message"]


def test_params_above_max_nodes_reported_as_json(capsys):
    code, doc = run_json(capsys, ["params", "--n", str(graph.MAX_NODES + 1), "--d", "1"])
    assert code == 1
    assert doc["error"]["type"] == "BadParams"


def test_absurd_node_counts_reported_as_json(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"{10**12}\n0 1\n")
    code, doc = run_json(capsys, ["components", "--graph", str(path), "--eps", "1"])
    assert code == 1
    assert doc["error"]["type"] == "ParseError"
    code, doc = run_json(capsys, ["gen", "--kind", "path", "--n", str(10**12)])
    assert code == 1
    assert doc["error"]["type"] == "BadParams"


def test_quadratic_generators_refused_as_json(capsys):
    for kind in ("complete", "gnp"):
        code, doc = run_json(capsys, ["gen", "--kind", kind, "--n", "1000000"])
        assert code == 1
        assert doc["command"] == "gen" and doc["schema_version"] == 1
        assert doc["error"]["type"] == "BadParams"


def run_cli_process(argv):
    """Run the command line in a child process; its timeout turns a hang
    into a test failure."""
    src = str(Path(bclique.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "bclique.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, json.loads(proc.stdout)


def test_huge_radius_finishes_at_once(tmp_path):
    # the ball stops at an empty frontier and the sparsity bound is 2
    # without building 2**r
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(gen_graph("gnp", 20, seed=1, q=0.2)))
    code, doc = run_cli_process(["one-round", "--graph", str(path), "--r", str(10**12)])
    assert code == 0
    assert doc["oracle_agreement"] is True and doc["parameters"]["s"] == 2


def test_full_degree_beyond_the_modulus_bound_fails_fast(tmp_path):
    # s = n at r = 1: the prime search behind n = 400 or 1000 would run for
    # hours, so the sketch parameters refuse the shape up front
    code, doc = run_cli_process(["params", "--n", "1000", "--d", "1000"])
    assert code == 1 and doc["error"]["type"] == "CapExceeded"
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(gen_graph("gnp", 400, seed=0, q=0.01)))
    code, doc = run_cli_process(["one-round", "--graph", str(path), "--r", "1"])
    assert code == 1 and doc["error"]["type"] == "CapExceeded"


def test_one_round_beyond_the_ball_bound_fails_on_the_table_cap(capsys, tmp_path):
    # balls refuse n > 3162, where the sketch table cap already refuses
    # every one-round shape; the command looks the shape up first, so the
    # error stays CapExceeded, and the table is refused before the prime search
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(gen_graph("path", 20000)))
    code, doc = run_json(capsys, ["one-round", "--graph", str(path), "--r", "2"])
    assert code == 1 and doc["error"]["type"] == "CapExceeded"


def test_tiny_eps_finishes_at_once(capsys, p4_file):
    code, doc = run_json(capsys, ["components", "--graph", p4_file, "--eps", "1e-12"])
    assert code == 0
    assert doc["neighbor_cap"] == 2 and doc["oracle_agreement"] is True


def test_gen_unknown_kind_is_module_error(capsys):
    code, doc = run_json(capsys, ["gen", "--kind", "moebius", "--n", "8"])
    assert code == 1
    assert doc["error"]["type"] == "UnknownKind"


def test_gen_writes_loadable_file(capsys, tmp_path):
    out = tmp_path / "g.txt"
    code, doc = run_json(capsys, ["gen", "--kind", "gnp", "--n", "12", "--seed", "9",
                                  "--q", "0.3", "--out", str(out)])
    assert code == 0
    g = load_graph(out.read_text())
    assert g == gen_graph("gnp", 12, seed=9, q=0.3)
    assert doc["edge_count"] == len(g.edges())
    assert doc["graph"] is None


def test_gen_inline_graph(capsys):
    code, doc = run_json(capsys, ["gen", "--kind", "cycle", "--n", "5"])
    assert code == 0
    assert load_graph(doc["graph"]) == gen_graph("cycle", 5)


def test_gen_forest_tight(capsys):
    code, doc = run_json(capsys, ["gen", "--kind", "forest_tight", "--k", "3"])
    assert code == 0
    assert doc["n"] == 64 and doc["extras"] == {"k": 3, "cap": 4}
    assert load_graph(doc["graph"]) == graph.forest_tight(3)
    for argv in (["--kind", "forest_tight", "--n", "64"],          # n is cap**k
                 ["--kind", "forest_tight", "--k", "3", "--q", "0.1"],
                 ["--kind", "forest_tight", "--k", "20"],          # above MAX_NODES
                 ["--kind", "path", "--k", "3"]):
        code, doc = run_json(capsys, ["gen", *argv])
        assert code == 1 and doc["error"]["type"] == "BadParams", argv
    # a size is a usage matter: exactly one of --n and --k
    for argv in (["--kind", "path"], ["--kind", "path", "--n", "3", "--k", "3"]):
        assert run_command(["gen", *argv]) == 2
        capsys.readouterr()


def test_verify_small_suite(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "small"])
    assert code == 0
    assert doc["passed"] is True
    assert all(case["ok"] for case in doc["cases"])


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0


def test_reports_are_internally_consistent(capsys, tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(serialize_graph(gen_graph("gnp", 18, seed=8, q=0.2)))
    for argv in (["components", "--graph", str(graph_file), "--eps", "1/2", "--transcript"],
                 ["one-round", "--graph", str(graph_file), "--r", "2", "--transcript"]):
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert len(doc["forest"]) == doc["n"] - doc["component_count"]
        assert doc["rounds_used"] == len(doc["transcript"]["rounds"])
        assert doc["per_node_bits"] == doc["transcript"]["per_node_bits"]


@pytest.mark.parametrize("argv", [
    ["params", "--n", "6", "--d", "2"],
    ["gen", "--kind", "gnp", "--n", "16", "--seed", "4", "--q", "0.25"],
    ["prune", "--d", "2", "--transcript"],
    ["components", "--eps", "1/3", "--transcript"],
    ["one-round", "--r", "2", "--transcript"],
])
def test_repeat_invocations_byte_identical(capsys, tmp_path, argv):
    if argv[0] in ("prune", "components", "one-round"):
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(gen_graph("gnp", 24, seed=3, q=0.15)))
        argv = argv[:1] + ["--graph", str(path)] + argv[1:]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second and first.endswith("\n")
