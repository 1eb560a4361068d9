"""Synchronous single-broadcast engine with exact bit accounting.

Every round, each node computes one message from its local state; the full
ordered message vector is then delivered to every node, which updates its
state.  After the last round all nodes must emit the same output.  Message
sizes follow fixed encoding rules so protocol budgets can be checked to the
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BadParams, OutputDivergence, RoundBudgetExceeded
from .graph import Ball, Graph, ball as make_ball
from .intmath import ceil_log2


@dataclass(frozen=True)
class AdjacencyRow:
    """Node input: the node's own neighbor list."""

    node: int
    neighbors: tuple[int, ...]


@dataclass(frozen=True)
class RadiusBall:
    """Node input: everything within a fixed distance of the node."""

    node: int
    ball: Ball


def adjacency_inputs(g: Graph) -> list[AdjacencyRow]:
    return [AdjacencyRow(v, g.rows[v]) for v in range(g.n)]


def ball_inputs(g: Graph, r: int) -> list[RadiusBall]:
    return [RadiusBall(v, make_ball(g, v, r)) for v in range(g.n)]


@dataclass(frozen=True)
class NeighborList:
    ids: tuple[int, ...]


@dataclass(frozen=True)
class DegreeAndSketch:
    degree: int
    sketch: int


@dataclass(frozen=True)
class Message:
    payload: NeighborList | DegreeAndSketch
    bits: int


def message_bits(msg, n: int, p: int | None = None) -> int:
    """Exact encoded size of a message.

    NeighborList: a length field of ceil(log2(n+1)) bits plus ceil(log2 n)
    bits per id.  DegreeAndSketch: ceil(log2 n) bits for the degree plus
    ceil(log2 p) bits for the field element.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    payload = msg.payload if isinstance(msg, Message) else msg
    if isinstance(payload, NeighborList):
        per_id = ceil_log2(n) if n > 1 else 0
        return ceil_log2(n + 1) + len(payload.ids) * per_id
    if isinstance(payload, DegreeAndSketch):
        if p is None:
            raise ValueError("DegreeAndSketch sizing needs the modulus p")
        return (ceil_log2(n) if n > 1 else 0) + ceil_log2(p)
    raise TypeError(f"unknown payload {payload!r}")


def make_message(payload, n: int, p: int | None = None) -> Message:
    return Message(payload, message_bits(payload, n, p))


@dataclass(frozen=True)
class Transcript:
    """Everything that went over the air: one message vector per round."""

    rounds: tuple[tuple[Message, ...], ...]

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)

    @property
    def per_node_bits(self) -> int:
        """Largest single broadcast by any node in any round."""
        return max((m.bits for rnd in self.rounds for m in rnd), default=0)

    def to_json_dict(self) -> dict:
        rounds = []
        for rnd in self.rounds:
            out = []
            for m in rnd:
                if isinstance(m.payload, NeighborList):
                    out.append({"kind": "neighbor_list",
                                "ids": list(m.payload.ids),
                                "bits": m.bits})
                else:
                    out.append({"kind": "degree_and_sketch",
                                "degree": m.payload.degree,
                                "sketch": str(m.payload.sketch),
                                "bits": m.bits})
            rounds.append(out)
        return {"rounds_used": self.rounds_used,
                "per_node_bits": self.per_node_bits,
                "rounds": rounds}


class Protocol:
    """Base class for node-symmetric round protocols run by run_protocol.

    Subclasses set name and round_budget and implement the four hooks.
    update returns (new_state, halt); the halt flag must be a function of
    the shared message history so every node reports the same value.
    """

    name = "?"
    round_budget = 1

    def initial_state(self, node: int, node_input):
        raise NotImplementedError

    def message(self, node: int, state, rnd: int) -> Message:
        raise NotImplementedError

    def update(self, node: int, state, rnd: int, messages: tuple[Message, ...]):
        return state, True

    def node_finished(self, node: int, state) -> bool:
        """Whether this node's state is terminal; checked when the budget
        runs out without an early halt."""
        return True

    def output(self, node: int, state):
        raise NotImplementedError


def run_protocol(protocol: Protocol, inputs: Sequence,
                 eval_order: Sequence[int] | None = None):
    """Run a protocol to completion and return (common output, transcript).

    eval_order only permutes the order node hooks are invoked in; messages
    are computed before any delivery, so it must never change the result
    (tests assert this).
    """
    n = len(inputs)
    if n < 1:
        raise BadParams("need at least one node")
    if protocol.round_budget < 1:
        raise ValueError("round budget must be >= 1")
    order = list(range(n)) if eval_order is None else list(eval_order)
    if sorted(order) != list(range(n)):
        raise ValueError("eval_order must be a permutation of the nodes")

    states = [None] * n
    for i in order:
        states[i] = protocol.initial_state(i, inputs[i])

    rounds: list[tuple[Message, ...]] = []
    halted = False
    for rnd in range(protocol.round_budget):
        msgs: list[Message | None] = [None] * n
        for i in order:
            msgs[i] = protocol.message(i, states[i], rnd)
        delivered = tuple(msgs)
        rounds.append(delivered)
        halts = [None] * n
        for i in order:
            states[i], halts[i] = protocol.update(i, states[i], rnd, delivered)
        if any(h != halts[0] for h in halts):
            raise OutputDivergence(f"{protocol.name}: halt flags diverged in round {rnd}")
        if halts[0]:
            halted = True
            break

    if not halted:
        unfinished = [i for i in range(n) if not protocol.node_finished(i, states[i])]
        if unfinished:
            raise RoundBudgetExceeded(
                f"{protocol.name}: nodes {unfinished} unfinished after "
                f"{protocol.round_budget} round(s)"
            )

    outputs = [protocol.output(i, states[i]) for i in range(n)]
    first = outputs[0]
    for i, out in enumerate(outputs):
        if out != first:
            raise OutputDivergence(f"{protocol.name}: node {i} output differs from node 0")
    return first, Transcript(tuple(rounds))
