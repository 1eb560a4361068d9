"""Acceptance gate: one test per criterion, at full stated scale.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion (each also prints a summary line, visible with -s).
"""

import itertools
import json
import random
from fractions import Fraction

from bclique.cli import run_command
from bclique.graph import (
    ball_inputs,
    components_and_forest,
    core_peel,
    gen_graph,
    has_short_cycle,
    serialize_graph,
    tilde_global,
    tilde_row_local,
)
from bclique.intmath import ceil_log2, pow_ceil
from bclique.protocols import (
    connectivity_one_round_r,
    prune_one_round,
    spanning_forest_multiround,
    sparsity_parameter,
)
from bclique.sketch import cached_params, decode, encode
from bclique.verify import forest_is_valid, one_round_corpus, protocol_corpus

from conftest import dropped_edges, short_cycle_top_edges

GRID = [(n, d) for n in range(1, 17) for d in range(0, min(n, 3) + 1)]

CORPUS_SIZES = (2, 3, 4, 5, 6, 8, 9, 12, 16, 20, 24, 32, 40, 48, 56, 63, 64)


def sparse_vectors(n, d):
    for w in range(d + 1):
        for support in itertools.combinations(range(n), w):
            yield tuple(1 if i in support else 0 for i in range(n))


def test_criterion_1_sketch_injectivity_and_round_trip():
    checked = 0
    for n, d in GRID:
        params = cached_params(n, d)
        seen = set()
        for b in sparse_vectors(n, d):
            y = encode(params, b)
            assert y not in seen, f"collision at n={n}, d={d}"
            seen.add(y)
            assert decode(params, y) == b
            checked += 1
    print(f"[acceptance] criterion 1 (injectivity + round-trip, {checked} vectors): PASS")


def test_criterion_2_sketch_size_bound():
    for n, d in GRID:
        params = cached_params(n, d)
        bound = 2 * d * ceil_log2(n + 1) + ceil_log2(n) + 2
        assert params.p_bits <= bound, (n, d, params.p_bits, bound)
    print(f"[acceptance] criterion 2 (size bound on {len(GRID)} grid points): PASS")


def test_criterion_3_linearity():
    for n, d in [(4, 1), (8, 2), (16, 3), (32, 2), (64, 3)]:
        params = cached_params(n, d)
        rng = random.Random(1000 * n + d)
        for _ in range(1000):
            u = [rng.randint(-n, n) for _ in range(n)]
            v = [rng.randint(-n, n) for _ in range(n)]
            eu, ev = encode(params, u), encode(params, v)
            assert encode(params, [a + b for a, b in zip(u, v)]) == (eu + ev) % params.p
            assert encode(params, [a - b for a, b in zip(u, v)]) == (eu - ev) % params.p
    print("[acceptance] criterion 3 (linearity, 1000 pairs x 5 params): PASS")


def test_criterion_4_prune_matches_core_peel():
    graphs = protocol_corpus(200, CORPUS_SIZES, base_seed=400)
    runs = 0
    for tag, g in graphs:
        for d in range(0, 4):
            if d > g.n:
                continue
            result, transcript = prune_one_round(g, d)
            seq, remaining = core_peel(g, d)
            assert result.sequence == seq, (tag, d)
            assert result.remaining == remaining, (tag, d)
            assert transcript.rounds_used == 1, (tag, d)
            params = cached_params(g.n, d)
            bits_bound = ceil_log2(g.n) + params.p_bits
            assert transcript.per_node_bits <= bits_bound, (tag, d)
            runs += 1
    print(f"[acceptance] criterion 4 (one-round pruning vs oracle, {runs} runs): PASS")


def test_criterion_5_degenerate_reconstruction():
    for idx in range(100):
        rng = random.Random(5000 + idx)
        d = rng.choice((1, 2, 3))
        n = rng.choice((max(d, 4), 8, 12, 16, 24, 32, 48, 64))
        g = gen_graph("random_degenerate", n, seed=idx, d=d)
        result, _ = prune_one_round(g, d)
        assert result.fully_reconstructed, (idx, n, d)
        assert result.reconstructed == g, (idx, n, d)
    print("[acceptance] criterion 5 (reconstruction of 100 degenerate graphs): PASS")


def test_criterion_6_multiround_spanning_forest():
    graphs = protocol_corpus(200, CORPUS_SIZES, base_seed=600)
    runs = 0
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
        budget = -(-eps.denominator // eps.numerator)
        for tag, g in graphs:
            labels, forest, transcript = spanning_forest_multiround(g, eps)
            oracle_labels, _ = components_and_forest(g)
            assert transcript.rounds_used <= budget, (tag, eps)
            assert labels == oracle_labels, (tag, eps)
            assert forest_is_valid(g, labels, forest), (tag, eps)
            cap = max(1, pow_ceil(g.n, eps))
            per_id = ceil_log2(g.n)
            assert transcript.per_node_bits <= ceil_log2(g.n + 1) + cap * per_id, (tag, eps)
            runs += 1
    print(f"[acceptance] criterion 6 (multi-round spanning forest, {runs} runs): PASS")


def test_criterion_7_one_round_connectivity():
    split = {1: 67, 2: 67, 3: 66}
    runs = 0
    for r, count in split.items():
        for tag, g in one_round_corpus(r, count, base_seed=700):
            tilde = tilde_global(g, r)
            assert dropped_edges(g, tilde) == short_cycle_top_edges(g, 2 * r), (tag, r)
            assert not has_short_cycle(tilde, 2 * r), (tag, r)
            balls = ball_inputs(g, r)
            for v, b in enumerate(balls):
                assert tilde_row_local(b) == tilde.rows[v], (tag, r, v)
            oracle_labels, _ = components_and_forest(g)
            assert components_and_forest(tilde)[0] == oracle_labels, (tag, r)
            # the protocol itself: one round, oracle labeling, no stall
            labels, forest, transcript = connectivity_one_round_r(balls, r)
            assert transcript.rounds_used == 1, (tag, r)
            assert labels == oracle_labels, (tag, r)
            assert forest_is_valid(g, labels, forest), (tag, r)
            assert set(forest) <= set(tilde.edges()), (tag, r)
            s = sparsity_parameter(g.n, r)
            params = cached_params(g.n, s)
            bits_bound = ceil_log2(g.n) + params.p_bits
            assert transcript.per_node_bits <= bits_bound, (tag, r)
            runs += 1
    assert runs == 200
    print(f"[acceptance] criterion 7 (one-round connectivity, {runs} runs): PASS")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(serialize_graph(gen_graph("gnp", 14, seed=21, q=0.25)))
    invocations = [
        ["params", "--n", "8", "--d", "2"],
        ["gen", "--kind", "random_degenerate", "--n", "20", "--seed", "3", "--d", "2"],
        ["prune", "--graph", str(graph_file), "--d", "2", "--transcript"],
        ["components", "--graph", str(graph_file), "--eps", "1/3"],
        ["one-round", "--graph", str(graph_file), "--r", "2", "--transcript"],
        ["verify", "--suite", "small"],
    ]
    for argv in invocations:
        first_code = run_command(argv)
        first = capsys.readouterr().out
        second_code = run_command(argv)
        second = capsys.readouterr().out
        assert first_code == second_code == 0, argv
        assert first == second, argv
        json.loads(first)  # every report is one JSON document
    print(f"[acceptance] criterion 8 (byte-identical reports, {len(invocations)} commands): PASS")
