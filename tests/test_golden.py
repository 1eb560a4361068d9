"""Golden digests: protocol outputs, transcripts and CLI stdout pinned byte
for byte.

A refactor that promises identical results must leave both constants
unchanged.  A deliberate change of output updates them in the same change
and says why.

Both were re-pinned when the forest protocol began to halt in the round
whose merge proves it done, not one all-empty round later; that took the
confirming round off forest transcripts, among them the CLI's
`components --eps 1/3`.  REFERENCE_PROTOCOL_DIGEST is the digest as pinned
before, and a test rebuilds it with the former halting rule
(conftest.reference_spanning_forest) and checks that every forest
transcript differs from the reference's only by its trailing empty rounds.
"""

import hashlib
import json
from fractions import Fraction

from bclique.cli import run_command
from bclique.clique import ball_inputs
from bclique.protocols import connectivity_one_round_r, prune_one_round, spanning_forest_multiround
from bclique.verify import one_round_corpus, protocol_corpus

from conftest import reference_spanning_forest

PROTOCOL_DIGEST = "db9f6973b82e97ca7e33be2da358a6f749a5932e6cff1f8ed7f4b5ae7f234391"
REFERENCE_PROTOCOL_DIGEST = "ca317d45a35ed9cacd14b78a615b128296e968e44e0788821a11d4d5a55e467d"
CLI_DIGEST = "b2e36cffef1ddae64804bc809d5d6d04d480d2f99ac52683f0e206cc085b68fb"


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


def _protocol_lines(forest_protocol):
    lines = []
    for tag, g in protocol_corpus(30, (2, 3, 5, 8, 13, 21, 34, 55), base_seed=2024):
        for d in range(min(3, g.n) + 1):
            result, transcript = prune_one_round(g, d)
            lines.append(_line("prune", tag, d, _prune_doc(result), transcript))
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
            labels, forest, transcript = forest_protocol(g, eps)
            lines.append(_line("forest", tag, eps, [labels, forest], transcript))
    for r in (1, 2, 3):
        for tag, g in one_round_corpus(r, 8, base_seed=2024):
            labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, r), r)
            lines.append(_line("one_round", tag, r, [labels, forest], transcript))
    return lines


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_protocol_outputs_match_the_golden_digest():
    assert _digest(_protocol_lines(spanning_forest_multiround)) == PROTOCOL_DIGEST


def test_former_halting_rule_rebuilds_the_former_digest():
    lines = _protocol_lines(spanning_forest_multiround)
    reference = _protocol_lines(reference_spanning_forest)
    assert _digest(reference) == REFERENCE_PROTOCOL_DIGEST
    for line, ref_line in zip(lines, reference, strict=True):
        doc, ref = json.loads(line), json.loads(ref_line)
        kept = doc["transcript"].pop("rounds")
        dropped = ref["transcript"].pop("rounds")
        assert dropped[:len(kept)] == kept
        assert not any(m["ids"] for rnd in dropped[len(kept):] for m in rnd)
        ref["transcript"]["rounds_used"] = len(kept)
        assert doc == ref


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
