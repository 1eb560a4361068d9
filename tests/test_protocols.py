"""The three protocols against their oracles, plus the shared peel machinery."""

import heapq
import itertools
import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bclique import protocols, sketch, verify
from bclique.clique import (
    DegreeAndSketch,
    NeighborList,
    Transcript,
    ball_inputs,
    message_bits,
    run_protocol,
)
from bclique.errors import (BadParams, BcliqueError, DegeneracyExceeded, InvalidTranscript,
                            NotDecodable, RoundBudgetExceeded, WeightMismatch)
from bclique.graph import (
    Graph,
    components_and_forest,
    core_peel,
    forest_tight,
    gen_graph,
    tilde_global,
    tilde_row_local,
)
from bclique.intmath import ceil_log2, pow_ceil
from bclique.protocols import (
    PruningResult,
    _SpanningForestProtocol,
    connectivity_one_round_r,
    forest_neighbor_cap,
    forest_round_budget,
    merge_step,
    peel_from_messages,
    prune_one_round,
    spanning_forest_multiround,
    sparsity_parameter,
)
from bclique.sketch import build_params, cached_params, encode, encode_support, sketch_bits_bound
from bclique.verify import one_round_corpus, protocol_corpus

from conftest import (bfs_component_labels, dropped_edges, edges_of_sequence, forest_ok,
                      reference_decode_support, reference_merge_step, reference_spanning_forest,
                      resized_by_former_formula, seeded_graph, shuffled_run)


# --- merge_step -----------------------------------------------------------------

def test_merge_step_examples():
    singletons = ((0, 1, 2), ())
    merged = merge_step(*singletons, [(), (0, 2), ()])
    assert merged == ((0, 0, 0), ((0, 1), (1, 2)))

    assert merge_step(*singletons, [(), (), ()]) == singletons
    assert merge_step(*singletons, ((), (), ())) == singletons

    again = merge_step(*merged, [(1,), (), ()])  # cycle edge changes nothing
    assert again == merged

    # edges go in ascending order whichever end announced them: (0, 3)
    # first, although only node 3 announced it, after node 1 announced (1, 3)
    assert merge_step((0, 1, 2, 3), (), [(), (3,), (), (0, 1, 2)]) == (
        (0, 0, 0, 0), ((0, 3), (1, 3), (2, 3)))
    # two edges with no end in common leave two supernodes
    assert merge_step((0, 1, 2, 3), (), [(1,), (), (3,), ()]) == (
        (0, 0, 2, 2), ((0, 1), (2, 3)))
    # an edge announced by its upper end alone goes in among the lower end's
    # own ids: (0, 1) before (0, 2), which closes a cycle through the
    # supernode {1, 2}, and (0, 3) after it
    assert merge_step((0, 1, 1, 3), (), [(2,), (0,), (), (0,)]) == (
        (0, 0, 0, 0), ((0, 1), (0, 3)))


@pytest.mark.parametrize("ids_of", [
    pytest.param(lambda rows: enumerate(rows), id="iterator"),
    pytest.param(lambda rows: list(enumerate(rows)), id="id-row-pairs"),
    pytest.param(lambda rows: rows[:2], id="too-short"),
    pytest.param(lambda rows: [*rows, ()], id="too-long"),
])
def test_merge_step_refuses_a_vector_not_one_id_sequence_per_node(ids_of):
    rows = [(1,), (0, 2), (1,)]
    with pytest.raises(BadParams, match="merge_step takes"):
        merge_step((0, 1, 2), (), ids_of(rows))


@st.composite
def merge_chains(draw):
    """n and 1-3 message vectors, one ascending id tuple per node.

    Each vector draws a set of edges and, for each edge, the ends that
    announce it: the lower, the upper or both.  One hub node announces a
    list drawn 15 to 17 long or up to 40 long, with each of its ids
    announcing it back or not, so long lists meet edges announced from one
    end and from both; the vectors after the first merge under the labels
    of the step before."""
    n = draw(st.integers(min_value=2, max_value=60))
    node = st.integers(min_value=0, max_value=n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    near = st.sampled_from((15, 16, 17))
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        ids_of: list[set[int]] = [set() for _ in range(n)]
        for u, w in draw(st.lists(pair, max_size=2 * n)):
            ends = draw(st.sampled_from(("lower", "upper", "both")))
            lo, hi = min(u, w), max(u, w)
            if ends != "upper":
                ids_of[lo].add(hi)
            if ends != "lower":
                ids_of[hi].add(lo)
        hub = draw(node)
        others = [w for w in range(n) if w != hub]
        size = min(draw(st.one_of(near, st.integers(min_value=0, max_value=40))), n - 1)
        for w in draw(st.sets(st.sampled_from(others), min_size=size, max_size=size)):
            ids_of[hub].add(w)
            if draw(st.booleans()):
                ids_of[w].add(hub)
        steps.append([tuple(sorted(ids)) for ids in ids_of])
    return n, steps


@given(merge_chains())
@settings(max_examples=300, deadline=None)
@example((40, [[tuple(w for w in range(40) if w != u) for u in range(40)]]))
@example((18, [[tuple(range(1, 17))] + [(0,)] * 17, [(17,)] + [()] * 17]))
def test_merge_step_matches_reference(case):
    n, steps = case
    known = (tuple(range(n)), ())
    for ids_of in steps:
        merged = merge_step(*known, ids_of)
        pairs = [(u, w) for u, ids in enumerate(ids_of) for w in ids]
        assert merged == reference_merge_step(*known, pairs)
        labels = merged[0]
        for v in range(n):
            assert labels[v] == min(u for u in range(n) if labels[u] == labels[v])
        known = merged


@st.composite
def merge_chains_hiding(draw):
    """merge_chains with a random subset of the nodes as each vector's
    hiding."""
    n, steps = draw(merge_chains())
    hiding = [sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1)))) for _ in steps]
    return n, steps, hiding


@given(merge_chains_hiding())
@settings(max_examples=300, deadline=None)
def test_merge_step_below_a_random_hiding_matches_reference(case):
    # merge_step takes every pair its lower end announced, and the pairs
    # only the upper end announced whose lower end is in hiding
    n, steps, hidings = case
    known = (tuple(range(n)), ())
    for ids_of, hiding in zip(steps, hidings):
        lower = [(u, w) for u, ids in enumerate(ids_of) for w in ids if u < w]
        upper_only = [(w, x) for x, ids in enumerate(ids_of) for w in ids
                      if w < x and w in hiding and x not in ids_of[w]]
        merged = merge_step(*known, ids_of, hiding)
        assert merged == reference_merge_step(*known, lower + upper_only)
        known = merged


class _NoScan(tuple):
    """An id tuple that refuses to be scanned for membership."""

    def __contains__(self, x):
        raise AssertionError("an id list was scanned")


@pytest.mark.parametrize("size", [17, 32])
def test_merge_step_runs_no_membership_test_on_a_long_list(size):
    # node 0 announces 1..size; nodes 1..size + 4 announce 0, so the upper
    # ends in 0's list repeat edges of 0's list and the four beyond it do
    # not.  A scan of 0's long list would make the merge quadratic in its
    # length
    n = size + 5
    ids_of = [_NoScan(range(1, size + 1))] + [(0,)] * (n - 1)
    pairs = [(u, w) for u, ids in enumerate(ids_of) for w in ids]
    singletons = (tuple(range(n)), ())
    assert merge_step(*singletons, ids_of) == reference_merge_step(*singletons, pairs)


class _CountedReads(_NoScan):
    """A _NoScan tuple that counts the passes over its ids."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("hiding", [[], [0], None], ids=["none-hiding", "node-0", "every-node"])
def test_merge_step_reads_each_list_at_most_twice(hiding):
    # on a complete graph every node announces its whole row, so each edge
    # comes from both ends.  The first pass reads a list once and the sweep
    # once, and neither tests a list for membership; with no node hiding
    # the pass is skipped, and the sweep reads each list once
    n = 32
    rows = gen_graph("complete", n).rows
    ids_of = [_CountedReads(row) for row in rows]
    singletons = (tuple(range(n)), ())
    pairs = [(u, w) for u, row in enumerate(rows) for w in row]
    assert merge_step(*singletons, ids_of, hiding) == reference_merge_step(*singletons, pairs)
    assert [ids.passes for ids in ids_of] == [1 if hiding == [] else 2] * n


def test_forest_round_without_full_senders_merges_without_the_first_pass(monkeypatch):
    # gnp n=15 at cap 2: round 0 leaves full senders in two supernodes; in
    # round 1 no sender is full, and node 13 announces node 12, which
    # announced its smallest neighbor in 13's supernode, 6, instead: an
    # edge announced by its upper end alone, which the skip leaves out
    calls = []

    def spy(labels, forest, ids_of, hiding=None):
        calls.append((labels, forest, ids_of, hiding))
        return merge_step(labels, forest, ids_of, hiding)

    monkeypatch.setattr(protocols, "merge_step", spy)
    g = gen_graph("gnp", 15, seed=19, q=0.2)
    proto = _SpanningForestProtocol(g.n, 2, 6, g.max_degree)
    merged, transcript = run_protocol(proto, g.rows)
    assert [len(proto.full_senders(rnd)) > 0 for rnd in transcript.rounds] == [True, False]
    # each round's merge looks below the round's full senders alone
    assert [call[3] for call in calls] == [proto.full_senders(rnd) for rnd in transcript.rounds]
    assert calls[1][3] == []
    labels, forest, ids_of, _ = calls[1]
    assert len(set(labels)) == 3 and labels[6] == labels[13]
    upper_only = [(w, x) for x, ids in enumerate(ids_of) for w in ids
                  if w < x and x not in ids_of[w]]
    assert upper_only == [(12, 13)] and ids_of[12] == (6,)
    pairs = [(u, w) for u, ids in enumerate(ids_of) for w in ids]
    assert merged == reference_merge_step(labels, forest, pairs)
    assert merged == merge_step(labels, forest, ids_of)


def _forest_proto(g, eps):
    return _SpanningForestProtocol(g.n, forest_neighbor_cap(g.n, eps), forest_round_budget(eps),
                                   g.max_degree)


def _forest_rounds(proto, g):
    """(known, message vector, full senders) of each round of proto's run
    on g, known as merge_step takes it."""
    _, transcript = run_protocol(proto, g.rows)
    known = tuple(range(g.n)), ()
    for rnd in transcript.rounds:
        yield known, rnd, proto.full_senders(rnd)
        known = proto.deliver(known, rnd)[0]


def _merge_below_full_senders_is_the_reference(proto, g) -> int:
    """Check every round of proto's run on g: merge_step looking below the
    full senders alone equals reference_merge_step over every announced
    pair.  Returns the number of edges announced by their upper end alone
    whose lower end is not full, which merge_step leaves out."""
    left_out = 0
    for known, rnd, full in _forest_rounds(proto, g):
        ids_of = [m.ids for m in rnd]
        pairs = [(u, w) for u, ids in enumerate(ids_of) for w in ids]
        assert merge_step(*known, ids_of, full) == reference_merge_step(*known, pairs)
        left_out += sum(w < x and x not in ids_of[w] and w not in full
                        for x, ids in enumerate(ids_of) for w in ids)
    return left_out


def _small_gnp_graphs():
    return [gen_graph("gnp", n, seed=seed, q=q)
            for n in (15, 30, 60) for q in (0.05, 0.1, 0.2, 0.35) for seed in range(20)]


def test_merge_below_full_senders_matches_reference_on_gnp():
    left_out = multi = 0
    for g in _small_gnp_graphs():
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)):
            proto = _forest_proto(g, eps)
            left_out += _merge_below_full_senders_is_the_reference(proto, g)
            multi += run_protocol(proto, g.rows)[1].rounds_used > 1
    # the corpus has later rounds, and edges that the pass leaves out
    assert multi and left_out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_merge_below_full_senders_matches_reference_on_forest_tight(k):
    g = forest_tight(k)
    proto = _forest_proto(g, Fraction(1, k))
    _merge_below_full_senders_is_the_reference(proto, g)
    # after round 0 some senders are not full and still leave out ids of
    # their rows, so the merge looks below fewer senders than announce
    later = [rnd for _, rnd, _ in _forest_rounds(proto, g)][1:]
    assert len(later) == k - 1
    assert all(any(0 < len(m.ids) < proto.cap and len(m.ids) < len(g.rows[u])
                   for u, m in enumerate(rnd)) for rnd in later[:-1])


@pytest.mark.parametrize("k, m, eps", [(2, 30, Fraction(3, 4)), (3, 40, Fraction(3, 4))])
def test_merge_below_full_senders_matches_reference_on_long_rows(k, m, eps):
    # rows of m - 1 ids and a cap of more than 16 ids, below the row
    # length: every sender is full, and the pass buckets the ids of long
    # lists, most of them edges announced from both ends
    g = interleaved_cliques(k, m)
    proto = _forest_proto(g, eps)
    assert 16 < proto.cap < m - 1
    _merge_below_full_senders_is_the_reference(proto, g)


@pytest.mark.parametrize("n, eps", [(9, Fraction(1, 2)), (27, Fraction(1, 3))])
def test_merge_looks_below_the_only_full_sender(n, eps):
    # a star at cap 3: the hub, node 0, is the only full sender and
    # announces leaves 1..3; every leaf announces the hub, so each leaf past
    # the cap gives an edge announced by its upper end alone that Kruskal
    # takes.  A merge that looked below the senders that are not full, or
    # that skipped the pass for a single full sender, would lose them
    g = gen_graph("star", n)
    proto = _forest_proto(g, eps)
    assert proto.cap == 3
    (known, rnd, full), = _forest_rounds(proto, g)
    assert full == [0]
    assert [m.ids for m in rnd] == [(1, 2, 3)] + [(0,)] * (n - 1)
    _merge_below_full_senders_is_the_reference(proto, g)
    labels, forest, transcript = spanning_forest_multiround(g, eps)
    assert (labels, forest) == components_and_forest(g)
    assert forest == tuple((0, x) for x in range(1, n)) and transcript.rounds_used == 1


def test_one_round_forests_come_out_ascending():
    # one merge_step call from an empty forest appends edges in ascending
    # edge order, so a one-round run needs no sort; later rounds append
    # edges below earlier ones, so a longer run's forest is sorted
    out_of_order = 0
    graphs = _small_gnp_graphs() + [forest_tight(k) for k in (2, 3, 4)]
    for g in graphs:
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)):
            (_, merged), transcript = run_protocol(_forest_proto(g, eps), g.rows)
            _, forest, _ = spanning_forest_multiround(g, eps)
            assert forest == tuple(sorted(merged))
            if transcript.rounds_used == 1:
                assert merged == forest
            else:
                out_of_order += merged != forest
    assert out_of_order


def test_merge_step_from_singletons_is_the_oracle_forest():
    # one-round reads its answer off the peel this way: every edge once,
    # from singleton labels, from either end
    for tag, g in protocol_corpus(24, (1, 2, 9, 33, 70), base_seed=31):
        oracle = components_and_forest(g)
        singletons = tuple(range(g.n)), ()
        # every edge once, from its upper end
        below = [tuple(w for w in row if w < v) for v, row in enumerate(g.rows)]
        assert merge_step(*singletons, below) == oracle, tag
        # every edge once, from its lower end
        above = [tuple(w for w in row if w > v) for v, row in enumerate(g.rows)]
        assert merge_step(*singletons, above) == oracle, tag
        # every edge twice, once from each end, as whole rows
        assert merge_step(*singletons, g.rows) == oracle, tag


# --- spanning forest, multi-round -------------------------------------------------

def test_spanning_forest_single_round_at_eps_one():
    for g in (gen_graph("cycle", 7), gen_graph("gnp", 12, seed=2, q=0.4)):
        labels, forest, transcript = spanning_forest_multiround(g, 1)
        oracle_labels, _ = components_and_forest(g)
        assert transcript.rounds_used == 1
        assert labels == oracle_labels
        assert forest_ok(g, labels, forest)


def test_spanning_forest_p9_at_half():
    g = gen_graph("path", 9)
    labels, forest, transcript = spanning_forest_multiround(g, Fraction(1, 2))
    assert transcript.rounds_used <= 2
    assert labels == (0,) * 9
    assert set(forest) == set(g.edges())


def test_spanning_forest_edgeless_early_stop():
    g = Graph.from_edges(5, [])
    labels, forest, transcript = spanning_forest_multiround(g, Fraction(1, 3))
    assert transcript.rounds_used == 1
    assert labels == (0, 1, 2, 3, 4)
    assert forest == ()


def test_spanning_forest_argument_checks():
    g = gen_graph("path", 3)
    with pytest.raises(TypeError):
        spanning_forest_multiround(g, 0.5)  # floats are ambiguous
    with pytest.raises(BadParams):
        spanning_forest_multiround(g, Fraction(3, 2))
    with pytest.raises(BadParams):
        spanning_forest_multiround(g, 0)
    # the neighbor cap raises n to the numerator, so a huge one would hang
    top = protocols.MAX_EPS_NUMERATOR
    assert spanning_forest_multiround(g, Fraction(top, top + 1))[0] == (0, 0, 0)
    for eps in (Fraction(top + 1, top + 2), Fraction(10**12 - 1, 10**12)):
        with pytest.raises(BadParams):
            spanning_forest_multiround(g, eps)


@pytest.mark.parametrize("eps", ["abc", "1/0", "", "1/", None, 1j])
def test_spanning_forest_refuses_unparsable_eps(eps):
    # BadParams is a ValueError, so callers catching ValueError still work
    g = gen_graph("path", 3)
    with pytest.raises(BadParams, match="cannot parse eps"):
        spanning_forest_multiround(g, eps)


def test_spanning_forest_raises_when_the_budget_runs_out(monkeypatch):
    # with merging broken, every round announces the same foreign neighbors
    # and the run stops at its budget with nodes unfinished; in K5 at cap 3
    # every node is full, so no round proves the run done
    monkeypatch.setattr(protocols, "merge_step",
                        lambda labels, forest, ids_of, hiding=None: (labels, forest))
    g = gen_graph("complete", 5)
    with pytest.raises(RoundBudgetExceeded, match=r"nodes \[0, 1, 2, 3, 4\] unfinished after 2"):
        spanning_forest_multiround(g, Fraction(1, 2))


# --- forest_tight: inputs that use every round ------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_forest_tight_uses_every_round(k):
    # n = cap**k, so eps = 1/k gives the generator's cap and k rounds
    g = forest_tight(k)
    eps = Fraction(1, k)
    labels, forest, transcript = spanning_forest_multiround(g, eps)
    assert forest_neighbor_cap(g.n, eps) ** k == g.n
    assert transcript.rounds_used == k == forest_round_budget(eps)
    assert verify.forest_ok(g, eps, labels, forest, transcript)
    # the last round announces the bridge between the two halves, from both ends
    announced = {tuple(sorted((u, w))) for u, m in enumerate(transcript.rounds[-1]) for w in m.ids}
    assert len(announced) == 1
    (u, w), = announced
    halves = Graph(g.n, tuple(tuple(x for x in row if {v, x} != {u, w})
                              for v, row in enumerate(g.rows)))
    assert len(set(components_and_forest(halves)[0])) == len(set(labels)) + 1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_forest_tight_overruns_one_round_less(k, monkeypatch):
    # the same run with a budget of k - 1 rounds stops with nodes unfinished
    monkeypatch.setattr(protocols, "forest_round_budget", lambda eps: k - 1)
    with pytest.raises(RoundBudgetExceeded, match=f"unfinished after {k - 1} round"):
        spanning_forest_multiround(forest_tight(k), Fraction(1, k))


def test_forest_tight_sizes(monkeypatch):
    # cap is the smallest whose 2 (cap+1)**(k-2) (cap+2) block nodes fit
    # in cap**k
    assert [forest_tight(k).n for k in (2, 3, 4, 5)] == [4**2, 4**3, 5**4, 5**5]
    for k in (1, 2.0, True):
        with pytest.raises(BadParams):
            forest_tight(k)

    def no_build(*args):
        raise AssertionError("built before the size check")

    # refused before any clique is built
    monkeypatch.setattr(itertools, "product", no_build)
    for k in (9, 20, 10**9):
        with pytest.raises(BadParams, match="nodes"):
            forest_tight(k)


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2)])
@pytest.mark.parametrize("rows, node, bad", [
    ([(1,), (0, 2)], 1, 2),
    ([(10,), (), (), ()], 0, 10),
    ([(1,), (0, 1 << 40)], 1, 1 << 40),
    # at eps 1 the cap of 4 leaves 2 and 9 unannounced: no round reads 9
    ([(1, 1, 1, 1, 2, 9), (0,), (), ()], 0, 9),
    ([(-1,), (0,)], 0, -1),
    ([(1,), (0, -3)], 1, -3),
])
def test_spanning_forest_names_an_out_of_range_id(rows, node, bad, eps):
    # raw rows reach the forest only through Graph.from_rows, which names
    # the id; the rows themselves are refused as not a Graph
    message = rf"row of node {node} holds id {bad} outside 0\.\.{len(rows) - 1}"
    with pytest.raises(BadParams, match=message):
        spanning_forest_multiround(Graph.from_rows(rows), eps)
    with pytest.raises(BadParams, match="Graph.from_rows"):
        spanning_forest_multiround(rows, eps)


@pytest.mark.parametrize("entry", [spanning_forest_multiround, prune_one_round])
@pytest.mark.parametrize("rows", [[(1,), (0,)], ((1,), (0,)), [[1], [0]], [(0, 1), (0,)]])
def test_adjacency_entry_points_take_only_a_graph(entry, rows):
    # well-formed or not, plain rows are refused before the run (eps and d
    # are both 1 here)
    with pytest.raises(BadParams, match=rf"{entry.__name__} takes a Graph, not "):
        entry(rows, 1)
    assert entry(Graph.from_rows([(1,), (0,)]), 1) == entry(Graph.from_edges(2, [(0, 1)]), 1)


def test_forest_deliver_halts_in_the_round_that_proves_the_run_done():
    # On the 9-path every node is full at cap 1 and the merge leaves one
    # label; at cap 3 no node is full: either way round 0 proves the run
    # done, so it halts in the round that announced ids
    rows = gen_graph("path", 9).rows
    for cap in (1, 3):
        proto = _SpanningForestProtocol(9, cap, 2, 2)
        (labels, _), transcript = run_protocol(proto, rows)
        assert transcript.rounds_used == 1
        assert all(m.ids for m in transcript.rounds[0])
        assert proto.proved_done(labels, proto.full_senders(transcript.rounds[0]))
    # two triangles at cap 1: every node is full and the merge leaves two
    # labels, so round 0 proves nothing and a one-round run ends at its budget
    proto = _SpanningForestProtocol(6, 1, 1, 2)
    (labels, _), transcript = run_protocol(proto, disjoint_cliques(2, 3).rows)
    assert labels == (0, 0, 0, 3, 3, 3)
    forest = ((0, 1), (0, 2), (3, 4), (3, 5))
    assert proto.deliver(None, transcript.rounds[0]) == ((labels, forest), False)
    assert not proto.proved_done(labels, proto.full_senders(transcript.rounds[0]))


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                                 Fraction(1, 4)])
@given(idxs=st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=2))
@settings(max_examples=150, deadline=None)
def test_spanning_forest_halts_where_the_reference_confirms(idxs, eps):
    # the reference halts only on a round with nothing announced; the rule
    # on full senders may stop earlier, but only by dropping such rounds.
    # A bridge between two interleaved graphs often sits behind the cap
    # while both sides merge, which leaves full senders in two supernodes.
    # The reference sizes ids by the former formula, so the comparison
    # re-sizes the run's messages by it too
    g = bridged([seeded_graph(idx) for idx in idxs])
    labels, forest, transcript = spanning_forest_multiround(g, eps)
    ref_labels, ref_forest, ref_transcript = reference_spanning_forest(g, eps)
    assert (labels, forest) == (ref_labels, ref_forest)
    kept = transcript.rounds_used
    resized = resized_by_former_formula(transcript, g.n)
    assert resized.rounds == ref_transcript.rounds[:kept]
    assert not any(m.ids for rnd in ref_transcript.rounds[kept:] for m in rnd)
    assert resized.per_node_bits == ref_transcript.per_node_bits
    # soundness of the halt itself, before the entry point's own scan: a
    # fold of deliver over the transcript replays the run, halt included
    proto = _SpanningForestProtocol(g.n, forest_neighbor_cap(g.n, eps), forest_round_budget(eps),
                                    g.max_degree)
    known = None
    for rnd in transcript.rounds:
        known, halt = proto.deliver(known, rnd)
    assert known[0] == labels and tuple(sorted(known[1])) == forest
    if halt:
        assert all(labels[w] == labels[v] for v in range(g.n) for w in g.rows[v])


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
def test_spanning_forest_small_corpus(eps):
    budget = -(-eps.denominator // eps.numerator)
    for tag, g in protocol_corpus(25, (2, 3, 5, 8, 13, 21, 34), base_seed=77):
        labels, forest, transcript = spanning_forest_multiround(g, eps)
        assert labels == bfs_component_labels(g), tag
        assert forest_ok(g, labels, forest), tag
        assert transcript.rounds_used <= budget, tag
        cap = max(1, pow_ceil(g.n, eps))
        per_id = ceil_log2(g.n)
        assert transcript.per_node_bits <= ceil_log2(g.n + 1) + cap * per_id, tag
        for rnd in transcript.rounds:
            for msg in rnd:
                assert len(msg.ids) <= cap, tag


def bridged(graphs) -> Graph:
    """The union of graphs with their nodes interleaved, node v of a graph
    on m nodes at rank v/m, and each graph joined to the next by one edge
    between their largest nodes, which sorts late in both endpoints' rows."""
    order = sorted((Fraction(v, g.n), i, v) for i, g in enumerate(graphs) for v in range(g.n))
    ids = {(i, v): new for new, (_, i, v) in enumerate(order)}
    edges = [(ids[i, u], ids[i, v]) for i, g in enumerate(graphs) for u, v in g.edges()]
    edges += [(ids[i - 1, graphs[i - 1].n - 1], ids[i, graphs[i].n - 1])
              for i in range(1, len(graphs))]
    return Graph.from_edges(len(order), edges)


def disjoint_cliques(k: int, m: int) -> Graph:
    """k cliques of m nodes each on nodes 0..k*m-1, clique i holding the ids
    i*m..i*m+m-1, with no edge between cliques."""
    n = k * m
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, u - u % m + m)])


def interleaved_cliques(k: int, m: int) -> Graph:
    """k cliques of m nodes each on nodes 0..k*m-1, clique i holding the ids
    congruent to i mod k, with consecutive cliques joined by one edge
    between their largest members."""
    n = k * m
    edges = [(u, v) for u in range(n) for v in range(u + k, n, k)]
    edges += [(n - k + i, n - k + i + 1) for i in range(k - 1)]
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
@pytest.mark.parametrize("k, m", [(2, 10), (3, 12), (4, 16)])
def test_spanning_forest_merges_supernodes_in_the_second_round(eps, k, m):
    # round 0 merges each clique; the bridges sit behind the cap until the
    # cliques are supernodes, so round 1 must merge supernode labels
    g = interleaved_cliques(k, m)
    labels, forest, transcript = spanning_forest_multiround(g, eps)
    assert all(any(msg.ids for msg in rnd) for rnd in transcript.rounds[:2])
    assert verify.forest_ok(g, eps, labels, forest, transcript)


@st.composite
def forest_message_cases(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    node = draw(st.integers(min_value=0, max_value=n - 1))
    others = [w for w in range(n) if w != node]
    row = tuple(sorted(draw(st.sets(st.sampled_from(others))) if others else ()))
    labels = tuple(draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                 min_size=n, max_size=n)))
    cap = draw(st.integers(min_value=1, max_value=n))
    return n, node, row, labels, cap


@given(forest_message_cases())
@settings(max_examples=300, deadline=None)
def test_forest_message_announces_the_smallest_foreign_labels(case):
    # reference: the cap smallest foreign labels, each with its smallest
    # neighbor, ids in ascending order; built without relying on row order
    n, node, row, labels, cap = case
    smallest: dict[int, int] = {}
    for w in row:
        if labels[w] != labels[node]:
            smallest[labels[w]] = min(smallest.get(labels[w], w), w)
    expected = tuple(sorted(smallest[lbl] for lbl in sorted(smallest)[:cap]))
    msg = _SpanningForestProtocol(n, cap, 1, n - 1).message(node, row, (labels, ()))
    assert msg.ids == expected
    assert msg.bits == message_bits(msg, n)


@given(forest_message_cases())
@settings(max_examples=300, deadline=None)
def test_forest_message_singletons_shortcut_matches_general_path(case):
    # round 0's knowledge is None and takes the shortcut; singleton labels
    # passed as knowledge go through the per-label dict
    n, node, row, _, cap = case
    proto = _SpanningForestProtocol(n, cap, 1, n - 1)
    msg = proto.message(node, row, None)
    assert msg == proto.message(node, row, (tuple(range(n)), ()))
    assert msg.ids == row[:cap]


@given(forest_message_cases())
@settings(max_examples=100, deadline=None)
def test_forest_message_without_foreign_neighbors_is_empty(case):
    n, node, row, labels, cap = case
    labels = list(labels)
    for w in row:
        labels[w] = labels[node]
    proto = _SpanningForestProtocol(n, cap, 1, n - 1)
    msg = proto.message(node, row, (tuple(labels), ()))
    assert msg == NeighborList((), proto.sizes[0])
    assert msg == NeighborList((), message_bits(NeighborList((), 0), n))


def test_spanning_forest_first_round_takes_the_singletons_shortcut():
    # at eps = 1 no row is cut, so the shortcut announces each row object
    g = gen_graph("gnp", 30, seed=4, q=0.1)
    _, _, transcript = spanning_forest_multiround(g, 1)
    assert all(m.ids is row for m, row in zip(transcript.rounds[0], g.rows))


def test_spanning_forest_counts_its_empty_messages():
    # every node with nothing to announce after round 0 sends an empty
    # message of the fixed head size: in round 1 of the interleaved cliques
    # all but the three bridge ends, and in round 1 of two K6 at cap 3 every
    # node, since round 0 leaves two labels of full senders and nothing left
    # to announce
    eps = Fraction(1, 3)
    for g, count in ((interleaved_cliques(3, 12), 33), (disjoint_cliques(2, 6), 12)):
        proto = _SpanningForestProtocol(g.n, forest_neighbor_cap(g.n, eps),
                                        forest_round_budget(eps), g.max_degree)
        _, transcript = run_protocol(proto, g.rows)
        empty = [m for rnd in transcript.rounds for m in rnd if not m.ids]
        assert len(empty) == count
        assert all(m == NeighborList((), proto.sizes[0]) for m in empty)


def test_spanning_forest_final_round_is_all_empty():
    # two K6 at cap 3: every node is full in round 0, the merge leaves two
    # labels, and round 1 is the only all-empty round
    g = disjoint_cliques(2, 6)
    eps = Fraction(1, 3)
    _, _, transcript = spanning_forest_multiround(g, eps)
    assert transcript.rounds_used == 2
    head = _SpanningForestProtocol(g.n, forest_neighbor_cap(g.n, eps),
                                   forest_round_budget(eps), g.max_degree).sizes[0]
    assert all(m == NeighborList((), head) for m in transcript.rounds[-1])


@pytest.mark.parametrize("g", [interleaved_cliques(3, 12), gen_graph("gnp", 40, seed=9, q=0.08)],
                         ids=["interleaved_cliques", "gnp"])
@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
def test_spanning_forest_ignores_evaluation_order(g, eps):
    n = g.n

    def proto():
        return _SpanningForestProtocol(n, forest_neighbor_cap(n, eps), forest_round_budget(eps),
                                       g.max_degree)

    known, transcript = run_protocol(proto(), g.rows)
    for seed in (4, 5):
        shuffled_known, shuffled = shuffled_run(proto(), g.rows, seed)
        assert shuffled_known == known
        assert shuffled.to_json_dict() == transcript.to_json_dict()


@pytest.mark.parametrize("make, g", [
    # eps 1/3 on 36 nodes: two rounds, and round 1 merges supernode labels
    (lambda g: _SpanningForestProtocol(g.n, 4, 3, g.max_degree), interleaved_cliques(3, 12)),
    # one round at cap 1 that ends at its budget without proving the run done
    (lambda g: _SpanningForestProtocol(g.n, 1, 1, g.max_degree), disjoint_cliques(2, 3)),
    (lambda g: protocols._PruneProtocol(cached_params(g.n, 2)),
     gen_graph("random_degenerate", 30, seed=3, d=2)),
], ids=["forest_two_rounds", "forest_at_budget", "prune"])
def test_protocols_hold_no_run_state(make, g):
    # a run leaves the protocol object as it found it, and a second run on
    # the same object repeats the first
    proto = make(g)
    before = dict(vars(proto))
    first = run_protocol(proto, g.rows)
    assert vars(proto) == before
    assert run_protocol(proto, g.rows) == first
    assert vars(proto) == before


def test_forest_ok_rejects_messages_above_the_bit_bound():
    # the bound is the end of the index run of the sets of at most
    # k = min(cap, longest row) ids, counted with math.comb, not with the
    # size table that sized the messages: classes come smallest first, so
    # for 2k < 9 it is 2 (C(9, 0) + ... + C(9, k - 1)) + C(9, k), and for
    # 2k >= 9 all 2**9 sets; cap is 3 at eps 1/2 and 9 at eps 1, the
    # 9-star's center holds 8 ids and the 9-path's rows 2
    for g, eps, k, bound in ((gen_graph("star", 9), Fraction(1, 2), 3, 8),
                             (gen_graph("star", 9), Fraction(1), 8, 9),
                             (gen_graph("path", 9), Fraction(1), 2, 6)):
        labels, forest, transcript = spanning_forest_multiround(g, eps)
        assert verify.forest_ok(g, eps, labels, forest, transcript)
        assert k == min(pow_ceil(9, eps), g.max_degree)
        if 2 * k < 9:
            assert bound == ceil_log2(2 * sum(math.comb(9, j) for j in range(k))
                                      + math.comb(9, k))
        # tighter than the paper-shaped bound of cap ids of ceil(log2 n) bits
        assert bound < ceil_log2(9 + 1) + pow_ceil(9, eps) * ceil_log2(9)
        (first, *rest), *later = transcript.rounds
        assert first.bits <= bound
        at_bound = Transcript(((first._replace(bits=bound), *rest), *later))
        assert verify.forest_ok(g, eps, labels, forest, at_bound)
        above = Transcript(((first._replace(bits=bound + 1), *rest), *later))
        assert above.per_node_bits == bound + 1
        assert not verify.forest_ok(g, eps, labels, forest, above)


@pytest.mark.parametrize("center_degree", [10**5 - 1, 10**5 // 2 - 1])
def test_forest_ok_bound_is_quick_on_long_rows(center_degree):
    # at eps 1 on 10**5 nodes k is the longest row: the whole star's
    # 99,999 ids take the bound n with no binomial, and 49,999, the most
    # below n / 2, one recurrence step per id count; a math.comb call per
    # id count took minutes here
    n = 10**5
    g = Graph.from_edges(n, [(0, v) for v in range(1, center_degree + 1)])
    labels, forest = components_and_forest(g)
    transcript = Transcript(((NeighborList((), 0),) * n,))
    start = time.perf_counter()
    assert verify.forest_ok(g, 1, labels, forest, transcript)
    assert time.perf_counter() - start < 10


def test_spanning_forest_single_node():
    labels, forest, transcript = spanning_forest_multiround(Graph.from_edges(1, []), 1)
    assert labels == (0,) and forest == () and transcript.rounds_used == 1


def test_forest_size_table_is_bounded_by_the_longest_row(monkeypatch):
    # at eps 1 the cap is n, but no message holds more ids than the longest
    # row, so a sparse graph on 10**5 nodes sizes its messages from a table
    # of 3 entries, not 10**5 + 1
    tables = []
    sizes = protocols.neighbor_list_sizes

    def spy(n, most):
        tables.append(sizes(n, most))
        return tables[-1]

    monkeypatch.setattr(protocols, "neighbor_list_sizes", spy)
    g = gen_graph("path", 10**5)
    _, _, transcript = spanning_forest_multiround(g, 1)
    assert [len(t) for t in tables] == [g.max_degree + 1] == [3]
    assert transcript.per_node_bits == tables[0][2] == message_bits(NeighborList((0, 1), 0), 10**5)


# --- peel_from_messages ------------------------------------------------------------

def p4_params():
    """(n=4, d=1), looked up when a test runs, so that a fault in the prime
    search fails that test instead of hanging collection."""
    return cached_params(4, 1)


# hand-computed messages of the 4-path under (n=4, d=1): rows e1, e0+e2,
# e1+e3, e2 encode to 2, 5, 10, 4 with powers (1, 2, 4, 8) mod 101
P4_MESSAGES = [(1, 2), (2, 5), (2, 10), (1, 4)]


def test_peel_from_messages_path_example():
    result = peel_from_messages(P4_MESSAGES, p4_params())
    assert result.sequence == ((0, (1,)), (1, (2,)), (2, (3,)), (3, ()))
    assert result.remaining == ()
    assert result.fully_reconstructed
    assert result.reconstructed == gen_graph("path", 4)


def test_peel_from_messages_cycle_stalls():
    g = gen_graph("cycle", 4)
    msgs = [(2, encode(p4_params(), tuple(int(j in g.rows[v]) for j in range(4))))
            for v in range(4)]
    result = peel_from_messages(msgs, p4_params())
    assert result.sequence == ()
    assert result.remaining == (0, 1, 2, 3)
    assert result.residual_degrees == ((0, 2), (1, 2), (2, 2), (3, 2))
    assert not result.fully_reconstructed and result.reconstructed is None


def test_peel_from_messages_corrupted_sketch():
    corrupted = [(d, v) for d, v in P4_MESSAGES]
    corrupted[0] = (corrupted[0][0], corrupted[0][1] + 1)
    with pytest.raises(InvalidTranscript):
        peel_from_messages(corrupted, p4_params())


def test_peel_from_messages_detects_dead_reference():
    params = cached_params(3, 1)
    e = lambda k: encode(params, tuple(1 if i == k else 0 for i in range(3)))
    # node 2 claims dead node 0 as neighbor although node 0 peeled away first
    msgs = [(1, e(1)), (1, e(0)), (1, e(0))]
    with pytest.raises(InvalidTranscript):
        peel_from_messages(msgs, params)


def test_peel_from_messages_detects_negative_degree():
    params = cached_params(2, 1)
    e0 = encode(params, (1, 0))
    e1 = encode(params, (0, 1))
    msgs = [(1, e1), (0, e0)]  # node 1 says degree 0 but node 0 points at it
    with pytest.raises(InvalidTranscript):
        peel_from_messages(msgs, params)


def test_peel_from_messages_rejects_bad_vector_shape():
    with pytest.raises(InvalidTranscript):
        peel_from_messages(P4_MESSAGES[:3], p4_params())
    with pytest.raises(InvalidTranscript):
        peel_from_messages([(-1, 0)] + P4_MESSAGES[1:], p4_params())
    with pytest.raises(InvalidTranscript):
        peel_from_messages([(1, p4_params().p)] + P4_MESSAGES[1:], p4_params())


@pytest.mark.parametrize("msgs", [None, iter(P4_MESSAGES), (m for m in P4_MESSAGES)],
                         ids=["none", "iterator", "generator"])
def test_peel_from_messages_refuses_a_vector_with_no_length(msgs):
    with pytest.raises(InvalidTranscript, match="expected a vector of 4 messages"):
        peel_from_messages(msgs, p4_params())


@pytest.mark.parametrize("q", [0.1, 0.2], ids=["rest-peels", "rest-stalls"])
@pytest.mark.parametrize("degree", [20, 10**6])
def test_peel_from_messages_refuses_a_degree_of_n_or_more(q, degree):
    # node 0 of an honest gnp transcript announces degree n or more, so it
    # is never eligible and survives at a residual degree that no survivor
    # can have: at q = 0.1 every other node peels, at q = 0.2 several stall
    g = gen_graph("gnp", 20, seed=1, q=q)
    result, transcript = prune_one_round(g, 2)
    assert bool(result.remaining) == (q == 0.2)
    msgs = [(m.degree, m.sketch) for m in transcript.rounds[0]]
    msgs[0] = (degree, msgs[0][1])
    with pytest.raises(InvalidTranscript, match="node 0 survived at residual degree"):
        peel_from_messages(msgs, cached_params(20, 2))


@pytest.mark.parametrize("bad", [(1,), (), None, ("1", 2), (0, "2"), 7, (None, None), {"degree": 0}],
                         ids=["short", "empty", "none", "str-degree", "str-sketch", "int",
                              "none-fields", "dict"])
@pytest.mark.parametrize("node", [0, 1, 2])
def test_peel_from_messages_names_a_malformed_entry(bad, node):
    # field reads and comparisons that fail are the transcript's fault
    msgs = [(0, 0)] * 3
    msgs[node] = bad
    with pytest.raises(InvalidTranscript, match=f"message of node {node} is "):
        peel_from_messages(msgs, cached_params(3, 1))


def test_peel_from_messages_names_the_first_bad_entry_of_either_kind():
    params = cached_params(3, 1)
    with pytest.raises(InvalidTranscript, match="message of node 0 is out of range"):
        peel_from_messages([(-1, 0), None, (0, 0)], params)
    with pytest.raises(InvalidTranscript, match="message of node 0 is malformed"):
        peel_from_messages([None, (-1, 0), (0, 0)], params)


@pytest.mark.parametrize("n, d", [(3, 1), (64, 4)], ids=("binary", "table"))
def test_peel_from_messages_names_a_float_sketch(n, d):
    # 2.5 or a key + 0.5 passes the range check; the binary path finds no
    # bit_length on it and the table path no key equal to it
    params = cached_params(n, d)
    assert (params.table_entries != 0) == (n == 64)
    msgs = [(1, params.powers[1] + 0.5)] + [(0, 0)] * (n - 1)
    with pytest.raises(InvalidTranscript, match="sketch of node 0 is inconsistent"):
        peel_from_messages(msgs, params)


def test_peel_from_messages_reads_records_and_pairs_alike():
    bits = message_bits(DegreeAndSketch(0, 0, 0), 4, p4_params().p)
    records = [DegreeAndSketch(deg, val, bits) for deg, val in P4_MESSAGES]
    assert peel_from_messages(records, p4_params()) == peel_from_messages(P4_MESSAGES, p4_params())


# (16, 1) looks tops 12-15 up in the decode table and reads lower tops as
# highest set bits; (8, 0) stores no entries and decodes only 0; (6, 2) and
# (7, 3) are binary shapes, whose tops are all highest set bits.  A peel
# runs at its params' bound, so these peel at 0-3.  The params are built
# when a case is drawn, so a fault in the prime search fails a test instead
# of hanging collection.
FUZZ_SHAPES = ((16, 1), (6, 2), (8, 0), (7, 3))


@st.composite
def fuzzed_messages(draw):
    """(params, messages): an honest prune transcript of a random graph
    with some entries corrupted, or one drawn entirely at random."""
    params = draw(st.sampled_from(FUZZ_SHAPES).map(lambda shape: cached_params(*shape)),
                  label="params")
    n, p = params.n, params.p
    if draw(st.booleans(), label="honest base"):
        g = gen_graph("gnp", n, seed=draw(st.integers(0, 10**6)),
                      q=draw(st.sampled_from((0.05, 0.15, 0.3))))
        msgs = [(len(g.rows[v]), encode_support(params, g.rows[v])) for v in range(n)]
        for _ in range(draw(st.integers(min_value=0, max_value=3), label="corruptions")):
            v = draw(st.integers(min_value=0, max_value=n - 1))
            deg, val = msgs[v]
            if draw(st.booleans()):
                deg = max(0, deg + draw(st.integers(min_value=-2, max_value=2)))
            else:
                val = (val + draw(st.integers(min_value=1, max_value=p - 1))) % p
            msgs[v] = (deg, val)
    else:
        length = draw(st.integers(min_value=max(0, n - 1), max_value=n + 1), label="length")
        msgs = draw(st.lists(st.tuples(st.integers(min_value=-1, max_value=n + 1),
                                       st.integers(min_value=-1, max_value=p)),
                             min_size=length, max_size=length), label="messages")
    return params, msgs


@given(fuzzed_messages())
@settings(max_examples=300, deadline=None)
def test_peel_from_messages_fuzzed_transcripts(case):
    params, msgs = case
    try:
        result = peel_from_messages(msgs, params)
    except InvalidTranscript:
        return
    peeled = [k for k, _ in result.sequence]
    assert sorted(peeled + list(result.remaining)) == list(range(params.n))
    assert all(deg > params.d for _, deg in result.residual_degrees)


# Reference for peel_from_messages: a plain peel that decodes every node,
# degree 0 included, and rebuilds the graph through Graph.from_edges, which
# validates every edge on its own.  Returns (result, rebuilt graph or None).
def reference_peel_from_messages(msgs, params: sketch.SketchParams):
    n, d = params.n, params.d
    if len(msgs) != n:
        raise InvalidTranscript(f"expected {n} messages, got {len(msgs)}")
    degrees = []
    values = []
    for node, (deg, val) in enumerate(msgs):
        if deg < 0 or not 0 <= val < params.p:
            raise InvalidTranscript(f"message of node {node} is out of range")
        degrees.append(deg)
        values.append(val)
    live = [True] * n
    eligible = [v for v in range(n) if degrees[v] <= d]  # ascending, so a heap
    sequence: list[tuple[int, tuple[int, ...]]] = []
    while eligible:
        k = heapq.heappop(eligible)
        try:
            nbrs = sketch.decode_support(params, values[k], expected_weight=degrees[k])
        except (NotDecodable, WeightMismatch) as exc:
            raise InvalidTranscript(f"sketch of node {k} is inconsistent: {exc}") from exc
        live[k] = False
        basis_k = sketch.encode_basis(params, k)
        for j in nbrs:
            if not live[j]:
                raise InvalidTranscript(f"node {k} decoded dead or self neighbor {j}")
            degrees[j] -= 1
            if degrees[j] < 0:
                raise InvalidTranscript(f"residual degree of node {j} went negative")
            if degrees[j] == d:
                heapq.heappush(eligible, j)
            values[j] = (values[j] - basis_k) % params.p
        sequence.append((k, nbrs))
    remaining = tuple(v for v in range(n) if live[v])
    residual = tuple((v, degrees[v]) for v in remaining)
    # a survivor's residual degree counts live neighbors, all of them other
    # survivors
    if any(deg > len(remaining) - 1 for _, deg in residual):
        raise InvalidTranscript("a survivor has more neighbors than there are other survivors")
    reconstructed = (None if remaining else
                     Graph.from_edges(n, ((k, j) for k, nbrs in sequence for j in nbrs)))
    return PruningResult(tuple(sequence), remaining, residual), reconstructed


@given(fuzzed_messages())
@settings(max_examples=300, deadline=None)
def test_peel_from_messages_matches_reference(case):
    params, msgs = case
    try:
        result = peel_from_messages(msgs, params)
    except InvalidTranscript:
        result = InvalidTranscript
    try:
        expected, rebuilt = reference_peel_from_messages(msgs, params)
    except InvalidTranscript:
        expected = InvalidTranscript
    assert result == expected
    if result is not InvalidTranscript:
        assert result.reconstructed == rebuilt


@pytest.mark.parametrize("shape", FUZZ_SHAPES[:2], ids=("table", "binary"))
def test_peel_from_messages_nonzero_sketch_at_degree_zero(shape):
    params = cached_params(*shape)
    # node 0 announces degree 0 but a nonzero sketch; the reference decodes
    # it and fails, the peel fails without decoding
    msgs = [(0, params.powers[1])] + [(0, 0)] * (params.n - 1)
    for peel in (peel_from_messages, reference_peel_from_messages):
        with pytest.raises(InvalidTranscript, match="node 0"):
            peel(msgs, params)
    # node 1 falls to residual degree 0 with node 0's basis still in its sketch
    msgs = [(1, params.powers[1]), (1, 2 * params.powers[0] % params.p)]
    msgs += [(0, 0)] * (params.n - 2)
    for peel in (peel_from_messages, reference_peel_from_messages):
        with pytest.raises(InvalidTranscript, match="node 1"):
            peel(msgs, params)


@pytest.mark.parametrize("shape", FUZZ_SHAPES, ids=("table", "binary", "d0", "binary-d3"))
def test_prune_messages_are_the_rows_encodings(shape):
    # the message sums the row's powers in place; encode_support, with its
    # range check per index, is the reference
    n, d = shape
    params = cached_params(n, d)
    bits = message_bits(DegreeAndSketch(0, 0, 0), n, params.p)
    for seed, q in itertools.product(range(6), (0.1, 0.3, 0.6)):
        g = gen_graph("gnp", n, seed=seed, q=q)
        _, transcript = prune_one_round(g, d)
        (messages,) = transcript.rounds
        assert messages == tuple(DegreeAndSketch(len(row), encode_support(params, row), bits)
                                 for row in g.rows), (seed, q)


@pytest.mark.parametrize("r", [2, 3])
def test_one_round_messages_are_the_cut_rows_encodings(r):
    # the one-round rows reach the message unchecked; tilde_global is their
    # oracle and encode_support the sketch's
    for tag, g in one_round_corpus(r, 12, base_seed=40, max_n=40):
        _, _, transcript = connectivity_one_round_r(ball_inputs(g, r), r)
        params = cached_params(g.n, sparsity_parameter(g.n, r))
        (messages,) = transcript.rounds
        rows = tilde_global(g, r).rows
        assert [(m.degree, m.sketch) for m in messages] == \
            [(len(row), encode_support(params, row)) for row in rows], tag


def _replayed_neighbourhoods(msgs, params, sequence):
    """decode_support of each peeled node's residual sketch, replayed from
    the messages and the earlier steps of sequence."""
    degrees = [m[0] for m in msgs]
    values = [m[1] for m in msgs]
    decoded = []
    for k, nbrs in sequence:
        decoded.append((k, sketch.decode_support(params, values[k], degrees[k])))
        for j in nbrs:
            degrees[j] -= 1
            values[j] = (values[j] - params.powers[k]) % params.p
    return decoded


@pytest.mark.parametrize("d", [1, 2, 3])
def test_peel_neighbourhoods_are_decode_supports(d):
    # the peel calls its params' walk and checks the weight itself; every
    # neighbourhood it records is what decode_support gives at that step
    params = cached_params(24, d)
    steps = 0
    for seed in range(30):
        kind = ("random_degenerate", "gnp")[seed % 2]
        extra = {"d": d} if kind == "random_degenerate" else {"q": 0.12}
        g = gen_graph(kind, 24, seed=seed, **extra)
        result, transcript = prune_one_round(g, d)
        (msgs,) = transcript.rounds
        assert _replayed_neighbourhoods(msgs, params, result.sequence) == list(result.sequence)
        steps += len(result.sequence)
    assert steps >= 300


@pytest.mark.parametrize("n, d", [(3, 1), (64, 4)], ids=("binary", "table"))
def test_peel_refuses_exactly_the_sketches_decode_support_refuses(n, d):
    # node 0 announces degree 1 and sketch x, node 1 is its honest
    # neighbour; the peel decodes node 0 first, and it must name node 0
    # exactly when the independent decoder refuses x at weight 1
    params = cached_params(n, d)
    basis = params.powers[1]
    candidates = [basis, basis + 1, 2.5, float(basis), basis + 0.5, Fraction(basis),
                  Fraction(5, 2), Decimal(basis), str(basis), None, 0]
    for x in candidates:
        msgs = [(1, x), (1, params.powers[0])] + [(0, 0)] * (n - 2)
        try:
            reference_decode_support(params, x, 1)
            refused = False
        except BcliqueError:
            refused = True
        if refused:
            with pytest.raises(InvalidTranscript, match="node 0"):
                peel_from_messages(msgs, params)
        else:
            assert peel_from_messages(msgs, params).sequence[0] == (0, (1,)), repr(x)


@pytest.mark.parametrize("bad", [lambda p: (-1, 0), lambda p: (0, -1), lambda p: (0, p),
                                 lambda p: (-3, p + 5)], ids=[f"bad{i}" for i in range(4)])
@pytest.mark.parametrize("first", [1, 2])
def test_peel_from_messages_names_the_first_out_of_range_node(bad, first):
    # each case is a function of the modulus p
    msgs = list(P4_MESSAGES)
    msgs[first] = bad(p4_params().p)
    msgs[3] = (-1, -1)  # a later bad node is not the one named
    for peel in (peel_from_messages, reference_peel_from_messages):
        with pytest.raises(InvalidTranscript, match=f"message of node {first} is out of range"):
            peel(msgs, p4_params())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_peel_reconstruction_matches_the_independent_builder(d):
    rebuilt = 0
    for tag, g in protocol_corpus(40, (4, 6, 9, 14, 20, 28), base_seed=60 + d):
        result, _ = prune_one_round(g, d)
        if not result.fully_reconstructed:
            assert result.reconstructed is None, tag
            continue
        rebuilt += 1
        assert result.reconstructed == Graph.from_edges(g.n, edges_of_sequence(result.sequence)), tag
        assert result.reconstructed == g, tag
    assert rebuilt >= 10


# --- prune_one_round ----------------------------------------------------------------

def test_prune_examples():
    result, transcript = prune_one_round(gen_graph("path", 4), 1)
    assert result.sequence == ((0, (1,)), (1, (2,)), (2, (3,)), (3, ()))
    assert result.remaining == () and result.fully_reconstructed
    assert transcript.rounds_used == 1

    result, _ = prune_one_round(gen_graph("cycle", 4), 1)
    assert result.sequence == () and result.remaining == (0, 1, 2, 3)
    assert result.residual_degrees == ((0, 2), (1, 2), (2, 2), (3, 2))

    edgeless = Graph.from_edges(3, [])
    result, _ = prune_one_round(edgeless, 0)
    assert result.sequence == ((0, ()), (1, ()), (2, ()))
    assert result.fully_reconstructed and result.reconstructed == edgeless


def test_prune_rejects_negative_bound():
    # BadParams is a ValueError; the sketch parameters refuse the bound
    with pytest.raises(BadParams, match=r"0 <= d <= n"):
        prune_one_round(gen_graph("path", 3), -1)


def test_prune_rejects_a_bound_above_n():
    g = gen_graph("path", 3)
    assert prune_one_round(g, 3)[0].fully_reconstructed
    with pytest.raises(BadParams, match=r"0 <= d <= n"):
        prune_one_round(g, 4)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("call, shape", [
    pytest.param(lambda g: prune_one_round(g, 2.0), (6, 2), id="prune-float-d"),
    pytest.param(lambda g: prune_one_round(g, True), (6, 1), id="prune-bool-d"),
    pytest.param(lambda g: build_params(5.0, 2), (5, 2), id="build-float-n"),
    pytest.param(lambda g: build_params(5, 2.0), (5, 2), id="build-float-d"),
    pytest.param(lambda g: cached_params(6, 2.0), (6, 2), id="cached-float-d"),
    pytest.param(lambda g: ball_inputs(g, 2.5), (6, 3), id="ball-float-r"),
    pytest.param(lambda g: ball_inputs(g, 2.0), (6, 3), id="ball-integral-float-r"),
    pytest.param(lambda g: ball_inputs(g, True), (6, 6), id="ball-bool-r"),
    pytest.param(lambda g: connectivity_one_round_r(ball_inputs(g, 2), 2.0), (6, 3),
                 id="one-round-float-r"),
    pytest.param(lambda g: connectivity_one_round_r(ball_inputs(g, 1), True), (6, 6),
                 id="one-round-bool-r"),
    pytest.param(lambda g: sparsity_parameter(64, 2.0), (6, 3), id="sparsity-float-r"),
    pytest.param(lambda g: sparsity_parameter(64.0, 2), (6, 3), id="sparsity-float-n"),
])
def test_sizes_and_radii_must_be_ints(call, shape, warm):
    # 2.0 and True hash and compare equal to 2 and 1, so a parameter cache
    # keyed by value alone would answer for them once the int shape is
    # cached; the refusal must not depend on what the cache holds
    g = gen_graph("path", 6)
    cached_params.cache_clear()
    if warm:
        cached_params(*shape)
    size = cached_params.cache_info().currsize
    with pytest.raises(BadParams, match="must be .*ints?"):
        call(g)
    assert cached_params.cache_info().currsize == size  # a refusal is not cached


def test_prune_ok_rejects_messages_above_the_bit_bound():
    # the bound is the analytic degree field plus sketch_bits_bound, not the
    # message_bits formula that sized the messages
    g = gen_graph("path", 8)
    result, transcript = prune_one_round(g, 1)
    assert verify.prune_ok(g, 1, result, transcript)
    bound = ceil_log2(8) + sketch_bits_bound(8, 1)
    first, *rest = transcript.rounds[0]
    assert first.bits <= bound
    at_bound = Transcript(((first._replace(bits=bound), *rest),))
    assert verify.prune_ok(g, 1, result, at_bound)
    above = Transcript(((first._replace(bits=bound + 1), *rest),))
    assert above.per_node_bits == bound + 1
    assert not verify.prune_ok(g, 1, result, above)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_prune_matches_core_peel_small_corpus(d):
    for tag, g in protocol_corpus(20, (4, 6, 9, 14, 20, 28), base_seed=30 + d):
        result, transcript = prune_one_round(g, d)
        seq, remaining = core_peel(g, d)
        assert result.sequence == seq, tag
        assert result.remaining == remaining, tag
        # residual degrees match the induced subgraph on the survivors
        alive = set(remaining)
        for v, deg in result.residual_degrees:
            assert deg == sum(1 for w in g.rows[v] if w in alive), tag
        assert transcript.rounds_used == 1, tag
        params = cached_params(g.n, d)
        assert transcript.per_node_bits == ceil_log2(g.n) + params.p_bits, tag
        # peeled edges are real edges even on a partial peel
        assert edges_of_sequence(result.sequence) <= set(g.edges()), tag


def test_prune_reconstructs_degenerate_graphs():
    for seed in range(12):
        d = 1 + seed % 3
        g = gen_graph("random_degenerate", 6 + 4 * seed, seed=seed, d=d)
        result, _ = prune_one_round(g, d)
        assert result.fully_reconstructed
        assert result.reconstructed == g


@given(kind=st.sampled_from(("gnp", "random_degenerate")),
       n=st.integers(min_value=1, max_value=24),
       d=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=10**6),
       q=st.sampled_from((0.1, 0.2, 0.35, 0.5)),
       graph_d=st.integers(min_value=0, max_value=4))
@example(kind="gnp", n=12, d=1, seed=0, q=0.5, graph_d=0)  # stalls on a dense core
@settings(max_examples=150, deadline=None)
def test_prune_matches_core_peel_random_graphs(kind, n, d, seed, q, graph_d):
    d = min(d, n)
    if kind == "gnp":
        g = gen_graph("gnp", n, seed=seed, q=q)
    else:
        g = gen_graph("random_degenerate", n, seed=seed, d=graph_d)
    result, _ = prune_one_round(g, d)
    seq, remaining = core_peel(g, d)
    assert result.sequence == seq
    assert result.remaining == remaining
    alive = set(remaining)
    assert result.residual_degrees == tuple(
        (v, sum(1 for w in g.rows[v] if w in alive)) for v in remaining)
    assert result.fully_reconstructed == (not remaining)
    if not remaining:
        assert result.reconstructed == g


# --- sparsity parameter --------------------------------------------------------------

def test_sparsity_parameter_examples():
    assert sparsity_parameter(4, 2) == 2
    assert sparsity_parameter(5, 2) == 3
    for n in (1, 2, 7, 64):
        assert sparsity_parameter(n, 1) == n


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=6))
@settings(max_examples=150)
def test_sparsity_parameter_is_minimal(n, r):
    s = sparsity_parameter(n, r)
    assert s >= 1 and s**r >= n
    if s > 1:
        assert (s - 1) ** r < n


def test_sparsity_parameter_argument_checks():
    with pytest.raises(ValueError):
        sparsity_parameter(0, 2)
    with pytest.raises(ValueError):
        sparsity_parameter(4, 0)


# --- one-round connectivity -----------------------------------------------------------

def test_one_round_cycle4_example():
    g = gen_graph("cycle", 4)
    labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, 2), 2)
    assert transcript.rounds_used == 1
    assert labels == (0, 0, 0, 0)
    assert set(forest) == {(0, 1), (0, 3), (1, 2)}


def test_one_round_triangle_r1():
    g = gen_graph("cycle", 3)
    labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, 1), 1)
    assert sparsity_parameter(3, 1) == 3
    assert labels == (0, 0, 0)
    assert forest_ok(g, labels, forest)
    assert transcript.rounds_used == 1


def test_one_round_two_pentagon_components():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    g = Graph.from_edges(10, edges)
    labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, 2), 2)
    assert labels == (0,) * 5 + (5,) * 5
    assert len(forest) == 8
    assert dropped_edges(g, tilde_global(g, 2)) == frozenset()  # girth 5 > 4
    assert set(forest) <= set(g.edges())


def test_one_round_single_node():
    g = Graph.from_edges(1, [])
    labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, 2), 2)
    assert labels == (0,) and forest == () and transcript.rounds_used == 1


def test_one_round_argument_checks():
    g = gen_graph("cycle", 4)
    with pytest.raises(BadParams):
        connectivity_one_round_r(ball_inputs(g, 2), 1)  # radius mismatch
    balls = ball_inputs(g, 2)
    with pytest.raises(BadParams):
        connectivity_one_round_r(balls[1:] + balls[:1], 2)  # ball v centered elsewhere
    with pytest.raises(ValueError):
        connectivity_one_round_r(ball_inputs(g, 2), 0)


def mixed_balls(seed: int, r: int = 2):
    """The balls of nodes 0..14 of one gnp graph on 30 nodes and of nodes
    15..29 of another."""
    g = gen_graph("gnp", 30, seed=seed, q=0.08)
    h = gen_graph("gnp", 30, seed=seed + 1000, q=0.08)
    return ball_inputs(g, r)[:15] + ball_inputs(h, r)[15:]


def test_one_round_refuses_balls_of_two_graphs(monkeypatch):
    # an edge is searched from its lower end's ball alone, which speaks for
    # the upper end only when both balls come from one graph; the refusal
    # comes before any search
    searched = []
    monkeypatch.setattr(protocols, "tilde_row_local",
                        lambda *args, **kwargs: searched.append(args) or ())
    for seed in range(20):
        with pytest.raises(BadParams, match="another graph"):
            connectivity_one_round_r(mixed_balls(seed), 2)
    balls = ball_inputs(gen_graph("gnp", 30, seed=1, q=0.08), 2)
    with pytest.raises(BadParams, match="30 nodes"):
        connectivity_one_round_r(balls[:20], 2)  # 20 of the graph's 30 balls
    assert searched == []


def test_one_round_accepts_balls_of_one_graph_built_twice():
    # two ball_inputs calls on one graph build equal mask tuples that are
    # not the same object; the test by equality accepts them
    g = gen_graph("gnp", 30, seed=4, q=0.08)
    first, second = ball_inputs(g, 2), ball_inputs(g, 2)
    assert first[0].nbrs == second[0].nbrs and first[0].nbrs is not second[0].nbrs
    labels, forest, transcript = connectivity_one_round_r(first[:15] + second[15:], 2)
    assert (labels, forest, transcript) == connectivity_one_round_r(first, 2)
    assert labels == bfs_component_labels(g)


def per_node_one_round(balls, r: int):
    """The one-round protocol with every node's whole row searched from its
    own ball, each edge twice: the reference for connectivity_one_round_r,
    which searches each edge once, from its lower end."""
    n = len(balls)
    peel, transcript = protocols._prune_rows([tilde_row_local(b) for b in balls],
                                             sparsity_parameter(n, r))
    assert not peel.remaining
    ids_of = [()] * n
    for k, nbrs in peel.sequence:
        ids_of[k] = nbrs
    labels, forest = merge_step(tuple(range(n)), (), ids_of)
    return labels, forest, transcript


def assert_one_round_matches_per_node(g: Graph, r: int, tag=None) -> None:
    balls = ball_inputs(g, r)
    labels, forest, transcript = connectivity_one_round_r(balls, r)
    ref_labels, ref_forest, ref_transcript = per_node_one_round(balls, r)
    assert labels == ref_labels, (tag, r)
    assert forest == ref_forest, (tag, r)
    assert transcript.to_json_dict() == ref_transcript.to_json_dict(), (tag, r)


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_one_round_matches_the_per_node_path(idx, r):
    assert_one_round_matches_per_node(seeded_graph(idx), r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_one_round_matches_the_per_node_path_on_the_corpus(r):
    for tag, g in one_round_corpus(r, 14):
        assert_one_round_matches_per_node(g, r, tag)


def test_one_round_below_the_sparsity_bound_raises(monkeypatch):
    # at r=1 no cycle is short enough to break, so K4 keeps its 3-core,
    # which a peel at s=1 (below sparsity_parameter(4, 1) = 4) cannot remove
    monkeypatch.setattr(protocols, "sparsity_parameter", lambda n, r: 1)
    with pytest.raises(DegeneracyExceeded):
        connectivity_one_round_r(ball_inputs(gen_graph("complete", 4), 1), 1)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_one_round_is_prune_on_the_short_cycle_free_graph(r):
    # the local rows are tilde_global's rows, so the broadcast is exactly
    # prune_one_round's on that graph at s, and the answer is read off it
    for tag, g in one_round_corpus(r, 10, base_seed=400):
        labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, r), r)
        tilde = tilde_global(g, r)
        _, pruned = prune_one_round(tilde, sparsity_parameter(g.n, r))
        assert transcript == pruned, tag
        assert (labels, forest) == components_and_forest(tilde), tag


@pytest.mark.parametrize("r", [1, 2, 3])
def test_one_round_small_corpus(r):
    for tag, g in one_round_corpus(r, 10, base_seed=900, max_n=33):
        labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, r), r)
        assert labels == bfs_component_labels(g), tag
        assert forest_ok(g, labels, forest), tag
        assert transcript.rounds_used == 1, tag
        assert set(forest) <= set(tilde_global(g, r).edges()), tag
        s = sparsity_parameter(g.n, r)
        params = cached_params(g.n, s)
        assert transcript.per_node_bits == ceil_log2(g.n) + params.p_bits, tag


def test_pruning_result_is_plain_data():
    result, _ = prune_one_round(gen_graph("path", 4), 1)
    clone = PruningResult(result.sequence, result.remaining, result.residual_degrees)
    assert clone == result and hash(clone) == hash(result) and clone.fully_reconstructed
    assert clone.reconstructed == result.reconstructed == gen_graph("path", 4)
    # the cached graph is no field: equality and hashing still see three
    assert clone == PruningResult(result.sequence, result.remaining, result.residual_degrees)


def counting_graphs(monkeypatch):
    """Count the Graphs built from here on, by any code."""
    built = []
    init = Graph.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counted)
    return built


def test_one_round_never_builds_the_graph(monkeypatch):
    # it reads the forest off the peel's sequence, so the derived graph
    # is never asked for, and its short-cycle-free rows go to the peel as
    # they are, with no Graph around them
    corpus = one_round_corpus(3, 6, base_seed=101)
    built = counting_graphs(monkeypatch)
    for tag, g in corpus:
        labels, _, _ = connectivity_one_round_r(ball_inputs(g, 3), 3)
        assert labels == bfs_component_labels(g), tag
        assert built == [], tag


def test_peel_builds_its_graph_once_on_first_read(monkeypatch):
    g = gen_graph("random_degenerate", 40, seed=5, d=3)
    built = counting_graphs(monkeypatch)
    result, _ = prune_one_round(g, 3)
    assert result.fully_reconstructed and built == []
    assert result.reconstructed == g
    assert result.reconstructed is result.reconstructed
    assert len(built) == 1


def test_messages_are_sized_by_message_bits():
    # protocols size their messages once per run; every size must still be
    # what the single formula gives for that message
    graphs = [gen_graph("gnp", 24, seed=seed, q=0.2) for seed in (1, 2, 3)]
    graphs.append(interleaved_cliques(3, 12))
    for g in graphs:
        runs = [(spanning_forest_multiround(g, eps)[2], None)
                for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3))]
        runs.append((prune_one_round(g, 2)[1], cached_params(g.n, 2).p))
        for r in (2, 3):
            p = cached_params(g.n, sparsity_parameter(g.n, r)).p
            runs.append((connectivity_one_round_r(ball_inputs(g, r), r)[2], p))
        for transcript, p in runs:
            for rnd in transcript.rounds:
                for m in rnd:
                    assert m.bits == message_bits(m, g.n, p)
