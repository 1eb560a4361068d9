"""Golden digests: protocol outputs, transcripts and CLI stdout pinned byte
for byte.

A refactor that promises identical results must leave both constants
unchanged.  A deliberate change of output updates them in the same change
and says why.

Both were re-pinned when the forest protocol began to halt in the round
whose merge proves it done, not one all-empty round later; that took the
confirming round off forest transcripts, among them the CLI's
`components --eps 1/3`.  They were re-pinned again when a NeighborList
came to be sized by the rank of its id set, ceil(log2 C(n, k)) bits after
a length field, not ceil(log2 n) bits per id, and once more when the
length field went into one index over all id sets, size class by size
class, smallest first; each changed the bits of forest messages and
nothing else.  REFERENCE_PROTOCOL_DIGEST is the digest as
pinned before all three, and a test rebuilds it with the former halting
rule and sizes (conftest.reference_spanning_forest) and checks that every
forest line differs from the reference's only by its trailing empty
rounds and its bit counts, and every other line not at all.
LENGTH_FIELD_PROTOCOL_DIGEST is the digest as pinned with the length
field, and a test rebuilds it by re-sizing the forest messages alone.
"""

import hashlib
import json
from fractions import Fraction

from bclique.cli import run_command
from bclique.clique import ball_inputs, pack, unpack
from bclique.protocols import (connectivity_one_round_r, prune_one_round,
                               spanning_forest_multiround, sparsity_parameter)
from bclique.sketch import cached_params
from bclique.verify import one_round_corpus, protocol_corpus

from conftest import (length_field_neighbor_list_bits, reference_spanning_forest,
                      resized_by_former_formula)

PROTOCOL_DIGEST = "617f84637494a9a127febb6e820ce54b17bbfd2d4a2281483449b2913d43fa22"
REFERENCE_PROTOCOL_DIGEST = "ca317d45a35ed9cacd14b78a615b128296e968e44e0788821a11d4d5a55e467d"
LENGTH_FIELD_PROTOCOL_DIGEST = "a993a4cf0492c25c61d291d3ba04295d63ed0155618983ab579be6232711334e"
CLI_DIGEST = "088b739a919c0b48e34a5ba990d4183c3c9d526273c56f145468d77c7f12586a"


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


def _protocol_runs(forest_protocol):
    """(kind, tag, param, output, transcript, n, p) of every run of the
    golden corpus, p being the sketch modulus, or None for the forest."""
    for tag, g in protocol_corpus(30, (2, 3, 5, 8, 13, 21, 34, 55), base_seed=2024):
        for d in range(min(3, g.n) + 1):
            result, transcript = prune_one_round(g, d)
            yield ("prune", tag, d, _prune_doc(result), transcript,
                   g.n, cached_params(g.n, d).p)
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
            labels, forest, transcript = forest_protocol(g, eps)
            yield "forest", tag, eps, [labels, forest], transcript, g.n, None
    for r in (1, 2, 3):
        for tag, g in one_round_corpus(r, 8, base_seed=2024):
            labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, r), r)
            yield ("one_round", tag, r, [labels, forest], transcript,
                   g.n, cached_params(g.n, sparsity_parameter(g.n, r)).p)


def _protocol_lines(forest_protocol):
    return [_line(*run[:5]) for run in _protocol_runs(forest_protocol)]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_protocol_outputs_match_the_golden_digest():
    assert _digest(_protocol_lines(spanning_forest_multiround)) == PROTOCOL_DIGEST


def test_former_halting_rule_rebuilds_the_former_digest():
    # the reference halts a round later and sizes ids by the former
    # formula; prune and one-round lines are identical, and forest lines
    # differ only in bits, per_node_bits and the trailing empty rounds
    lines = _protocol_lines(spanning_forest_multiround)
    reference = _protocol_lines(reference_spanning_forest)
    assert _digest(reference) == REFERENCE_PROTOCOL_DIGEST
    for line, ref_line in zip(lines, reference, strict=True):
        doc, ref = json.loads(line), json.loads(ref_line)
        if doc["kind"] != "forest":
            assert line == ref_line
            continue
        kept = doc["transcript"].pop("rounds")
        dropped = ref["transcript"].pop("rounds")
        assert doc["transcript"].pop("per_node_bits") <= ref["transcript"].pop("per_node_bits")
        for rnd, ref_rnd in zip(kept, dropped):
            for m, ref_m in zip(rnd, ref_rnd, strict=True):
                assert m.pop("bits") <= ref_m.pop("bits")
        assert dropped[:len(kept)] == kept
        assert not any(m["ids"] for rnd in dropped[len(kept):] for m in rnd)
        ref["transcript"]["rounds_used"] = len(kept)
        assert doc == ref


def test_length_field_sizes_rebuild_the_length_field_digest():
    # re-sizing each forest message by the length-field formula, and
    # nothing else, gives back every line as it was pinned with that formula
    lines = []
    for kind, tag, param, output, transcript, n, _ in _protocol_runs(spanning_forest_multiround):
        if kind == "forest":
            transcript = resized_by_former_formula(transcript, n, length_field_neighbor_list_bits)
        lines.append(_line(kind, tag, param, output, transcript))
    assert _digest(lines) == LENGTH_FIELD_PROTOCOL_DIGEST


def test_every_golden_message_packs_into_its_bits():
    for _, _, _, _, transcript, n, p in _protocol_runs(spanning_forest_multiround):
        for rnd in transcript.rounds:
            for m in rnd:
                word = pack(m, n, p)
                assert word < 1 << m.bits
                assert unpack(word, type(m), n, p) == m


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
