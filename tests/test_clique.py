"""Broadcast engine: message sizing, delivery semantics, output contracts."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclique.clique import (
    DegreeAndSketch,
    NeighborList,
    Protocol,
    Transcript,
    adjacency_inputs,
    ball_inputs,
    make_message,
    message_bits,
    neighbor_list_sizes,
    pack,
    run_protocol,
    unpack,
)
from bclique.errors import BadParams
from bclique.graph import gen_graph
from bclique.intmath import ceil_log2
from bclique.protocols import _PruneProtocol
from bclique.sketch import cached_params

from conftest import shuffled_run


def test_adjacency_inputs_are_the_graph():
    # the adjacency model's input is the graph; node v holds row v
    g = gen_graph("gnp", 12, seed=5, q=0.3)
    assert adjacency_inputs(g) is g


def test_message_bits_examples():
    # ceil(log2) of the end of the k-sets' run of indices, the classes
    # smallest first: k = 0, 9, 1, 8, 2, 7, 3, 6, 4, 5
    assert message_bits(NeighborList((1, 4, 7), 0), n=9) == 8  # 2 (1 + 9 + 36) + 84 = 176
    assert message_bits(NeighborList((), 0), n=9) == 0  # the one empty set
    assert message_bits(NeighborList(tuple(range(9)), 0), n=9) == 1  # second, after it
    assert message_bits(NeighborList(tuple(range(5)), 0), n=9) == 9  # the last class
    assert message_bits(DegreeAndSketch(2, 10, 0), n=4, p=101) == 9
    # the stored bits are not read
    assert message_bits(NeighborList((), 99), n=9) == 0


def test_message_bits_argument_checks():
    with pytest.raises(ValueError):
        message_bits(DegreeAndSketch(1, 3, 0), n=4)  # p missing
    with pytest.raises(ValueError):
        message_bits(NeighborList((), 0), n=0)
    with pytest.raises(BadParams):  # not the bare ValueError of ceil_log2(0)
        message_bits(NeighborList(tuple(range(10)), 0), n=9)
    with pytest.raises(TypeError):
        message_bits("junk", n=4)
    with pytest.raises(TypeError):
        message_bits(((1, 2), 12), n=4)  # a plain tuple is no message


class CountdownProtocol(Protocol):
    """Toy protocol: every node announces its input number, everyone ends up
    knowing the smallest; also records every delivered message vector."""

    def __init__(self, rounds):
        self.round_budget = rounds
        self.received = []

    def message(self, node, node_input, known):
        return make_message(NeighborList((node_input,), 0), n=64)

    def deliver(self, known, messages):
        self.received.append(messages)
        return min(m.ids[0] for m in messages), False


def test_broadcast_symmetry_and_transcript_shape():
    proto = CountdownProtocol(rounds=2)
    out, transcript = run_protocol(proto, [5, 5, 5])
    assert out == 5
    assert transcript.rounds_used == 2
    assert all(len(rnd) == 3 for rnd in transcript.rounds)
    # the full sent vector was delivered once per round, in round order
    assert tuple(proto.received) == transcript.rounds


def test_run_protocol_is_deterministic_and_order_free():
    g = gen_graph("gnp", 12, seed=5, q=0.3)
    params = cached_params(12, 2)
    out0, tr0 = run_protocol(_PruneProtocol(params), g.rows)
    out1, tr1 = run_protocol(_PruneProtocol(params), g.rows)
    assert out0 == out1 and tr0 == tr1
    # no message may depend on the order in which the nodes compute theirs
    for seed in (3, 4):
        out2, tr2 = shuffled_run(_PruneProtocol(params), g.rows, seed)
        assert out2 == out0 and tr2 == tr0
        assert json.dumps(tr2.to_json_dict()) == json.dumps(tr0.to_json_dict())


def test_run_protocol_needs_a_node():
    with pytest.raises(ValueError):
        run_protocol(CountdownProtocol(rounds=1), [])


class NeverDoneProtocol(Protocol):
    """Toy protocol: every node announces its own id; deliver never halts."""

    round_budget = 2

    def message(self, node, node_input, known):
        return make_message(NeighborList((node,), 0), n=8)

    def deliver(self, known, messages):
        return known, False


def test_round_budget_exceeded():
    # a protocol that never halts is stopped at its budget; whether it
    # finished is the protocol's own check
    known, transcript = run_protocol(NeverDoneProtocol(), [None, None])
    assert known is None
    assert transcript.rounds_used == 2


def test_transcript_json_serialization():
    transcript = Transcript((
        (make_message(NeighborList((3, 5), 0), n=9),
         make_message(DegreeAndSketch(2, 12345678901234567890, 0), n=9, p=2**64)),
    ))
    doc = transcript.to_json_dict()
    assert doc["rounds_used"] == 1
    assert doc["per_node_bits"] == transcript.per_node_bits
    first, second = doc["rounds"][0]
    assert first == {"kind": "neighbor_list", "ids": [3, 5], "bits": 6}  # 2 (1 + 9) + 36 = 56
    assert second["kind"] == "degree_and_sketch"
    assert second["sketch"] == "12345678901234567890"  # decimal string
    json.dumps(doc)  # structure is JSON-clean


def test_ball_inputs_share_one_radius():
    g = gen_graph("cycle", 6)
    inputs = ball_inputs(g, 2)
    assert [b.center for b in inputs] == list(range(6))
    assert {b.radius for b in inputs} == {2}


def test_messages_are_immutable_records():
    records = (NeighborList((1, 2), 12), DegreeAndSketch(2, 7, 12))
    for m in records:
        assert m.payload is m
        for field in m._fields:
            with pytest.raises(AttributeError):
                setattr(m, field, getattr(m, field))
        with pytest.raises(AttributeError):
            m.extra = 1
    # equal records hash equal; the two kinds never compare equal
    assert NeighborList((1, 2), 12) == records[0]
    assert hash(NeighborList((1, 2), 12)) == hash(records[0])
    assert hash(DegreeAndSketch(2, 7, 12)) == hash(records[1])
    assert NeighborList((), 0) != DegreeAndSketch(0, 0, 0)
    assert NeighborList((2, 7), 12) != DegreeAndSketch(2, 7, 12)
    with pytest.raises(TypeError):
        NeighborList((1, 2))  # bits has no default


@pytest.mark.parametrize("record, n, p", [
    (NeighborList((), 0), 1, None),
    (NeighborList((3, 5, 8), 0), 9, None),
    (NeighborList(tuple(range(40)), 7), 1000, None),
    (DegreeAndSketch(0, 0, 0), 1, 2),
    (DegreeAndSketch(2, 12345678901234567890, 3), 9, 2**64),
])
def test_make_message_fills_exactly_message_bits(record, n, p):
    m = make_message(record, n, p)
    assert type(m) is type(record)
    assert m[:-1] == record[:-1]
    assert m.bits == message_bits(record, n, p)


# --- the encoder ----------------------------------------------------------------

def colex_rank(ids) -> int:
    """The rank that pack stores for ascending ids: sum(C(c_i, i))."""
    return sum(math.comb(c, i) for i, c in enumerate(ids, start=1))


def first_index(n: int, k: int) -> int:
    """The index that pack gives the first k-set of 0..n-1: the size
    classes come smallest first, k = 0, n, 1, n - 1, ..., k before n - k."""
    order = sorted(range(n + 1), key=lambda j: (min(j, n - j), j))
    return sum(math.comb(n, j) for j in order[:order.index(k)])


def test_rank_is_a_bijection_onto_the_binomial_range():
    # every k-set of 0..n-1 packs to the first index of its size class
    # plus its colex rank, the ranks fill 0..C(n, k) - 1 in colex order, the words
    # of all subsets fill 0..2**n - 1, and unpack inverts pack
    for n in range(1, 11):
        every_word = []
        for k in range(n + 1):
            sets = list(itertools.combinations(range(n), k))
            words = [pack(make_message(NeighborList(ids, 0), n), n) for ids in sets]
            ranks = [w - first_index(n, k) for w in words]
            assert ranks == [colex_rank(ids) for ids in sets]
            assert sorted(ranks) == list(range(math.comb(n, k)))
            assert sorted(sets, key=colex_rank) == sorted(sets, key=lambda ids: ids[::-1])
            assert [unpack(w, NeighborList, n).ids for w in words] == sets
            every_word += words
        assert sorted(every_word) == list(range(2**n))


def test_pack_layout_examples():
    # NeighborList: the C(9, 0) + C(9, 9) + C(9, 1) + C(9, 8) sets of the
    # classes before the 2-sets, plus the colex rank C(3, 1) + C(5, 2);
    # DegreeAndSketch: degree in the low
    # ceil(log2 n) bits, sketch above
    m = make_message(NeighborList((3, 5), 0), n=9)
    assert pack(m, 9) == 1 + 1 + 9 + 9 + 3 + 10
    m = make_message(NeighborList((0, 1, 2, 4, 5, 6, 7, 8), 0), n=9)
    # colex rank C(4, 4) + C(5, 5) + ... + C(8, 8)
    assert pack(m, 9) == 1 + 1 + 9 + 5 and unpack(16, NeighborList, 9) == m
    assert m.bits == 5  # the 8-sets end at 20
    m = make_message(DegreeAndSketch(2, 10, 0), n=4, p=101)
    assert pack(m, 4, 101) == 2 | 10 << 2
    assert unpack(2 | 10 << 2, DegreeAndSketch, 4, 101) == m


@st.composite
def neighbor_lists(draw):
    n = draw(st.integers(min_value=1, max_value=3000))
    k = draw(st.sampled_from((0, 1, n // 2, n)) | st.integers(min_value=0, max_value=min(n, 64)))
    ids = tuple(sorted(draw(st.randoms(use_true_random=False)).sample(range(n), k)))
    return make_message(NeighborList(ids, 0), n), n


@given(neighbor_lists())
@settings(max_examples=150, deadline=None)
def test_neighbor_list_round_trips_within_its_bits(case):
    m, n = case
    word = pack(m, n)
    assert 0 <= word < 1 << m.bits
    assert unpack(word, NeighborList, n) == m


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=2**200),
       st.data())
@settings(max_examples=150, deadline=None)
def test_degree_and_sketch_round_trips_within_its_bits(n, p, data):
    degree = data.draw(st.integers(min_value=0, max_value=n - 1))
    value = data.draw(st.integers(min_value=0, max_value=p - 1))
    m = make_message(DegreeAndSketch(degree, value, 0), n, p)
    word = pack(m, n, p)
    assert 0 <= word < 1 << m.bits
    assert unpack(word, DegreeAndSketch, n, p) == m


def test_neighbor_list_sizes_match_message_bits():
    for n in range(1, 70):
        sizes = neighbor_list_sizes(n, n)
        assert sizes == tuple(message_bits(NeighborList(tuple(range(k)), 0), n)
                              for k in range(n + 1))
        assert neighbor_list_sizes(n, n // 3) == sizes[:n // 3 + 1]
    assert neighbor_list_sizes(10**5, 2) == (0, 17, 33)
    assert neighbor_list_sizes(40, 5) is neighbor_list_sizes(40, 5)  # cached
    for n, most in ((0, 0), (5, 6), (5, -1)):
        with pytest.raises(BadParams):
            neighbor_list_sizes(n, most)


def test_neighbor_list_sizes_match_a_comb_sum():
    # each entry, and message_bits at the longest list, against the end of
    # the k-sets' run of indices summed with math.comb
    for n, most in ((1, 1), (9, 9), (64, 64), (65, 65), (256, 40), (3000, 60), (10**5, 40)):
        expect = tuple(ceil_log2(first_index(n, k) + math.comb(n, k)) for k in range(most + 1))
        assert neighbor_list_sizes(n, most) == expect
        assert message_bits(NeighborList(tuple(range(most)), 0), n) == expect[most]


def test_long_lists_cost_what_short_ones_do():
    # n - k ids take no more bits than k + 1 ids: at eps 1 on K_2000 every
    # node sends 1,999 ids in 12 bits, not the 2,000 that an index with
    # the size classes in the order of k would take
    for n in (9, 10, 2000):
        sizes = neighbor_list_sizes(n, n)
        assert all(sizes[n - k] <= sizes[k + 1] for k in range(n // 2))
    assert neighbor_list_sizes(2000, 2000)[1999] == ceil_log2(1 + 1 + 2000 + 2000) == 12


def _neighbor_list(ids, n=9):
    """A NeighborList with the bits message_bits gives its id count."""
    return NeighborList(ids, message_bits(NeighborList(tuple(range(len(ids))), 0), n))


@pytest.mark.parametrize("record, n, p", [
    (_neighbor_list((3, 1)), 9, None),                     # not ascending
    (_neighbor_list((1, 1)), 9, None),                     # repeated
    (_neighbor_list((2, 9)), 9, None),                     # id >= n
    (_neighbor_list((-1, 2)), 9, None),                    # id < 0
    (_neighbor_list((1.0, 2)), 9, None),                   # not an int
    (_neighbor_list((True, 2)), 9, None),                  # a bool
    (NeighborList(tuple(range(10)), 4), 9, None),          # more ids than n
    (NeighborList((1, 2), 99), 9, None),                   # bits not message_bits
    (DegreeAndSketch(9, 0, 11), 9, 101),                   # degree >= n
    (DegreeAndSketch(-1, 0, 11), 9, 101),                  # degree < 0
    (DegreeAndSketch(1, 101, 11), 9, 101),                 # sketch >= p
    (DegreeAndSketch(1, -1, 11), 9, 101),                  # sketch < 0
    (DegreeAndSketch(1, 1, 11), 9, None),                  # no modulus
])
def test_pack_refuses_bad_records(record, n, p):
    with pytest.raises(BadParams):
        pack(record, n, p)


@pytest.mark.parametrize("word, kind, n, p", [
    (2 | 64 << 4, NeighborList, 9, None),      # word 1026 >= 2**9
    (2 | 36 << 4, NeighborList, 9, None),      # word 578 >= 2**9
    (1 << 9, NeighborList, 9, None),           # 2**9, one past the last set
    (1 << 11, DegreeAndSketch, 9, 101),        # word >= 2**11
    (9, DegreeAndSketch, 9, 101),              # degree 9 >= n
    (1 | 101 << 4, DegreeAndSketch, 9, 101),   # sketch >= p
    (-1, NeighborList, 9, None),               # negative word
    (1.0, NeighborList, 9, None),              # not an int
    (0, NeighborList, 0, None),                # no nodes
    (0, DegreeAndSketch, 9, None),             # no modulus
])
def test_unpack_refuses_bad_words(word, kind, n, p):
    with pytest.raises(BadParams):
        unpack(word, kind, n, p)


def test_unpack_refuses_an_unknown_kind():
    with pytest.raises(TypeError):
        unpack(0, tuple, 9)
