"""Golden digests: protocol outputs, transcripts and CLI stdout pinned byte
for byte.

A refactor that promises identical results must leave both constants
unchanged.  A deliberate change of output updates them in the same change
and says why.
"""

import hashlib
import json
from fractions import Fraction

from bclique.cli import run_command
from bclique.clique import adjacency_inputs, ball_inputs
from bclique.protocols import connectivity_one_round_r, prune_one_round, spanning_forest_multiround
from bclique.verify import one_round_corpus, protocol_corpus

PROTOCOL_DIGEST = "ca317d45a35ed9cacd14b78a615b128296e968e44e0788821a11d4d5a55e467d"
CLI_DIGEST = "1777584ca6b3e0c76d279157249c3a3dcc14cb758ec989b230a215d2e6aeaaa8"


def _prune_doc(result):
    return {
        "sequence": result.sequence,
        "remaining": result.remaining,
        "residual_degrees": result.residual_degrees,
        "fully_reconstructed": result.fully_reconstructed,
        "reconstructed": None if result.reconstructed is None else result.reconstructed.edges(),
    }


def _line(kind, tag, param, output, transcript):
    return json.dumps({"kind": kind, "graph": tag, "param": str(param), "output": output,
                       "transcript": transcript.to_json_dict()}, sort_keys=True)


def test_protocol_outputs_match_the_golden_digest():
    lines = []
    for tag, g in protocol_corpus(30, (2, 3, 5, 8, 13, 21, 34, 55), base_seed=2024):
        rows = adjacency_inputs(g)
        for d in range(min(3, g.n) + 1):
            result, transcript = prune_one_round(rows, d)
            lines.append(_line("prune", tag, d, _prune_doc(result), transcript))
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
            labels, forest, transcript = spanning_forest_multiround(rows, eps)
            lines.append(_line("forest", tag, eps, [labels, forest], transcript))
    for r in (1, 2, 3):
        for tag, g in one_round_corpus(r, 8, base_seed=2024):
            labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, r), r)
            lines.append(_line("one_round", tag, r, [labels, forest], transcript))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PROTOCOL_DIGEST


def test_cli_stdout_matches_the_golden_digest(tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    assert run_command(["gen", "--kind", "gnp", "--n", "40", "--q", "0.08", "--seed", "1",
                        "--out", graph]) == 0
    capsys.readouterr()
    outputs = []
    for argv in (["prune", "--d", "2"], ["components", "--eps", "1/3"], ["one-round", "--r", "2"]):
        code = run_command([argv[0], "--graph", graph, *argv[1:], "--transcript"])
        outputs.append(f"{code}\n{capsys.readouterr().out}")
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == CLI_DIGEST
