"""Broadcast engine: message sizing, delivery semantics, output contracts."""

import json

import pytest

from bclique.clique import (
    DegreeAndSketch,
    NeighborList,
    Protocol,
    Transcript,
    adjacency_inputs,
    ball_inputs,
    make_message,
    message_bits,
    run_protocol,
)
from bclique.graph import gen_graph
from bclique.protocols import _PruneProtocol
from bclique.sketch import cached_params

from conftest import shuffled_run


def test_adjacency_inputs_are_the_graph():
    # the adjacency model's input is the graph; node v holds row v
    g = gen_graph("gnp", 12, seed=5, q=0.3)
    assert adjacency_inputs(g) is g


def test_message_bits_examples():
    assert message_bits(NeighborList((1, 4, 7), 0), n=9) == 16
    assert message_bits(NeighborList((), 0), n=9) == 4
    assert message_bits(DegreeAndSketch(2, 10, 0), n=4, p=101) == 9
    # the stored bits are not read
    assert message_bits(NeighborList((), 99), n=9) == 4


def test_message_bits_argument_checks():
    with pytest.raises(ValueError):
        message_bits(DegreeAndSketch(1, 3, 0), n=4)  # p missing
    with pytest.raises(ValueError):
        message_bits(NeighborList((), 0), n=0)
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
    assert first == {"kind": "neighbor_list", "ids": [3, 5], "bits": 4 + 2 * 4}
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
