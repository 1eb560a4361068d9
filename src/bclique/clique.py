"""Synchronous single-broadcast engine with exact bit accounting.

Every round, each node computes one message (Protocol.message) from its own
input and the public knowledge; the full ordered message vector then goes
to every node.  Since all nodes receive the same vector, one shared step
(Protocol.deliver) per round turns it into the next public knowledge.  The
engine returns the final public knowledge, and each protocol entry point
reads its answer off it.  Message sizes follow fixed encoding rules so
protocol budgets can be checked to the bit.

A node's input is what its model lets it see, with no wrapper: its sorted
neighbor row, g.rows[v] of a validated Graph (adjacency_inputs), or its
radius-r Ball (ball_inputs), the mask of the nodes within distance r over
the neighbor masks that all balls of the graph share.  The engine passes
inputs[v] to node v, so the position is the node id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import BadParams
# ball_inputs sits in graph beside the Ball format it builds and the search
# that reads it; it is re-exported here beside adjacency_inputs
from .graph import Graph, ball_inputs  # noqa: F401
from .intmath import ceil_log2


def adjacency_inputs(g: Graph) -> Graph:
    """Input of the adjacency model: the graph itself, of which node v
    holds row v.  The adjacency entry points take it whole, so that their
    rows are a validated Graph's."""
    return g


class NeighborList(NamedTuple):
    """A broadcast of neighbor ids, with its encoded size in bits."""

    ids: tuple[int, ...]
    bits: int

    @property
    def payload(self) -> NeighborList:
        """The record itself, for code that reads a message's payload field."""
        return self


class DegreeAndSketch(NamedTuple):
    """A broadcast of a degree and a sketch field element, with its encoded
    size in bits."""

    degree: int
    sketch: int
    bits: int

    @property
    def payload(self) -> DegreeAndSketch:
        """The record itself, for code that reads a message's payload field."""
        return self


# A broadcast is one of the two records; the alias is for annotations.
Message = NeighborList | DegreeAndSketch

# new_record(NeighborList, (ids, bits)) builds a record from one tuple of its
# fields without the Python-level __new__ that NamedTuple generates, which
# is the slower half of a record's construction.  Nothing checks the field
# count, so protocols pass exactly one value per field.
new_record = tuple.__new__


def message_bits(record: Message, n: int, p: int | None = None) -> int:
    """Exact encoded size of a message, from its kind and fields alone (the
    stored bits are ignored).

    NeighborList: a length field of ceil(log2(n+1)) bits plus ceil(log2 n)
    bits per id.  DegreeAndSketch: ceil(log2 n) bits for the degree plus
    ceil(log2 p) bits for the field element.
    """
    if n < 1:
        raise BadParams("node count must be >= 1")
    if isinstance(record, NeighborList):
        return ceil_log2(n + 1) + len(record.ids) * ceil_log2(n)
    if isinstance(record, DegreeAndSketch):
        if p is None:
            raise BadParams("DegreeAndSketch sizing needs the modulus p")
        return ceil_log2(n) + ceil_log2(p)
    raise TypeError(f"unknown message {record!r}")


def make_message(record: Message, n: int, p: int | None = None) -> Message:
    """The record with its bits set to message_bits."""
    return record._replace(bits=message_bits(record, n, p))


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
                if isinstance(m, NeighborList):
                    out.append({"kind": "neighbor_list",
                                "ids": list(m.ids),
                                "bits": m.bits})
                else:
                    out.append({"kind": "degree_and_sketch",
                                "degree": m.degree,
                                "sketch": str(m.sketch),
                                "bits": m.bits})
            rounds.append(out)
        return {"rounds_used": self.rounds_used,
                "per_node_bits": self.per_node_bits,
                "rounds": rounds}


class Protocol:
    """Base class for node-symmetric round protocols run by run_protocol.

    A node knows its own input plus the public knowledge `known`, which every
    node builds identically from the broadcasts; it is None before round 0.
    Only message sees a node; deliver sees the public knowledge alone, so
    all nodes agree on the halt flag and the final knowledge by
    construction.  Subclasses implement message, and set round_budget when
    one round is not enough.

    A protocol object holds only constants of the run, set when it is
    built.  deliver is a function of (known, messages) and message of
    (node, node_input, known); neither writes to the object, so a run
    leaves it unchanged, a second run repeats the first, and replaying a
    transcript is a fold of deliver over its rounds from None.

    A message is one immutable record, NeighborList(ids, bits) or
    DegreeAndSketch(degree, sketch, bits).  Its size depends only on its
    kind, n, p and its number of ids, so a protocol computes each size it
    needs once per run with message_bits, the single size formula, and
    builds each record with its bits directly.
    """

    round_budget = 1

    def message(self, node: int, node_input, known) -> Message:
        raise NotImplementedError

    def deliver(self, known, messages: tuple[Message, ...]):
        """(new public knowledge, halt) after one delivered message vector."""
        return known, True


def run_protocol(protocol: Protocol, inputs: Sequence):
    """Run a protocol and return (final public knowledge, transcript).

    The run stops when deliver halts or after round_budget rounds; whether
    a run that used its whole budget finished is the protocol's own check.
    """
    n = len(inputs)
    if n < 1:
        raise BadParams("need at least one node")
    if protocol.round_budget < 1:
        raise BadParams("round budget must be >= 1")

    known = None
    rounds: list[tuple[Message, ...]] = []
    for _ in range(protocol.round_budget):
        delivered = tuple([protocol.message(i, inputs[i], known) for i in range(n)])
        rounds.append(delivered)
        known, halt = protocol.deliver(known, delivered)
        if halt:
            break
    return known, Transcript(tuple(rounds))
