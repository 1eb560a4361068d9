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

A NeighborList of k ids takes ceil(log2(f + C(n, k))) bits, where f is
the index of the first k-set: the id sets of 0..n-1 are indexed one size
class after another, smallest class first (k = 0, n, 1, n - 1, 2, ...),
and by colex rank in the combinatorial number system within a class, since
the ids are a set and their ascending order carries nothing.  The index is
a bijection onto 0..2**n - 1.  For 2k < n, f is twice C(n, 0) + ... +
C(n, k - 1), which is at most C(n, k) for 4k <= n + 1, so a short list
takes at most one bit above ceil(log2 C(n, k)) and usually none above
ceil(log2(C(n, 0) + ... + C(n, k))); a list of n - k ids takes no more
bits than one of k + 1 ids, so the empty list and the full one take 0 and
1 bits, and only the classes near n / 2 take n.  A
DegreeAndSketch takes ceil(log2 n) + ceil(log2 p) bits.  pack and unpack
are the encoding that meets these sizes: every record packs into a word
below 2**bits, from which n and p alone read it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
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

    NeighborList of k ids: ceil(log2(f + C(n, k))) bits, where f is the
    index of the first k-set (see _id_set_classes).  For 4k <= n + 1 that
    is at most one bit above ceil(log2 C(n, k)), about
    k * ((1 - eps) * log2 n + 1.44) bits at k = n**eps, not k * log2 n, and
    n - k ids take no more than k + 1 ids; more than n ids raise BadParams.
    DegreeAndSketch: ceil(log2 n) bits for the degree plus ceil(log2 p)
    bits for the field element.
    """
    if n < 1:
        raise BadParams("node count must be >= 1")
    if isinstance(record, NeighborList):
        k = len(record.ids)
        if k > n:
            raise BadParams(f"a NeighborList on {n} nodes holds at most {n} ids, not {k}")
        c, first = _id_set_class(n, k)
        return ceil_log2(first + c)
    if isinstance(record, DegreeAndSketch):
        if p is None:
            raise BadParams("DegreeAndSketch sizing needs the modulus p")
        return ceil_log2(n) + ceil_log2(p)
    raise TypeError(f"unknown message {record!r}")


def _id_set_classes(n: int):
    """(k, C(n, k), the index of the first k-set) for each id count k, in
    index order: the classes of the id sets of 0..n-1 by size, smallest
    first, k = 0, n, 1, n - 1, 2, ..., each binomial from the last by
    C(n, j+1) = C(n, j) (n - j) / (j + 1).  The last class ends at 2**n."""
    first, c = 0, 1
    for j in range(n // 2 + 1):
        yield j, c, first
        first += c
        if 2 * j != n:
            yield n - j, c, first
            first += c
        c = c * (n - j) // (j + 1)


def _id_set_class(n: int, k: int) -> tuple[int, int]:
    """(C(n, k), the index of the first k-set), for 0 <= k <= n, after
    min(k, n - k) + 1 steps of _id_set_classes."""
    return next((c, first) for j, c, first in _id_set_classes(n) if j == k)


@lru_cache(maxsize=None)
def neighbor_list_sizes(n: int, most: int) -> tuple[int, ...]:
    """message_bits of a NeighborList of k ids on n nodes, for k in
    0..most, so that a protocol sizes each message by one lookup.

    The walk over _id_set_classes stops once it has met every k in
    0..most, after 2 * most + 1 classes for 2 * most < n and n + 1 at most,
    so a caller bounds most by the longest list it can send, never by n
    alone.
    """
    if n < 1:
        raise BadParams("node count must be >= 1")
    if not 0 <= most <= n:
        raise BadParams(f"id counts 0..{most} do not fit n = {n}")
    sizes = [0] * (most + 1)
    left = most + 1
    for k, c, first in _id_set_classes(n):
        if k <= most:
            sizes[k] = ceil_log2(first + c)
            left -= 1
            if not left:
                break
    return tuple(sizes)


def _id_rank(ids, n: int) -> int:
    """Colex rank sum(C(c_i, i)) of the strictly ascending ids c_1 < ... < c_k
    in 0..n-1: a bijection from the k-sets onto 0..C(n, k) - 1.

    a tracks C(x, i - 1), which is never 0 since x >= i - 1, through
    C(x+1, j) = C(x, j) (x + 1) / (x + 1 - j), and C(c, i) = C(c, i - 1)
    (c - i + 1) / i, so the walk takes n steps at most.
    """
    rank = 0
    a, x = 1, 0
    for i, c in enumerate(ids, start=1):
        if type(c) is not int or not x <= c < n:
            raise BadParams(f"ids {ids} are not strictly ascending ints in 0..{n - 1}")
        while x < c:
            x += 1
            a = a * x // (x - i + 1)
        rank += a * (c - i + 1) // i
        a = a * (c + 1) // i
        x = c + 1
    return rank


def _id_unrank(rank: int, k: int, n: int) -> tuple[int, ...]:
    """The k-set of 0..n-1 of colex rank rank, for 0 <= rank < C(n, k).

    Greedy from the top: c_k is the largest c with C(c, k) <= rank, then
    c_{k-1} the largest below it with C(c, k-1) <= rank - C(c_k, k), and so
    on.  b tracks C(c, i) through C(c-1, i) = C(c, i) (c - i) / c and
    C(c-1, i-1) = C(c, i) i / c, so the walk takes n steps at most.
    """
    ids = []
    c = n - 1
    b = comb(c, k)
    for i in range(k, 0, -1):
        while b > rank:  # b > 0, so c >= i >= 1
            b = b * (c - i) // c
            c -= 1
        ids.append(c)
        rank -= b
        if c:
            b = b * i // c
        c -= 1
    ids.reverse()
    return tuple(ids)


def pack(record: Message, n: int, p: int | None = None) -> int:
    """The record as one word below 2**record.bits.

    NeighborList of k ids: the index of the first k-set (see
    _id_set_classes) plus the colex rank of the ids among the k-sets.
    DegreeAndSketch: the degree in the low ceil(log2 n) bits, the sketch
    above it.  Ids that are not strictly ascending ints in 0..n-1, more ids
    than n, a degree outside 0..n-1, a sketch outside 0..p-1, or stored
    bits other than message_bits raise BadParams.
    """
    bits = message_bits(record, n, p)
    if record.bits != bits:
        raise BadParams(f"record stores {record.bits} bits, its encoding takes {bits}")
    if isinstance(record, NeighborList):
        ids = record.ids
        return _id_set_class(n, len(ids))[1] + _id_rank(ids, n)
    degree, sketch = record.degree, record.sketch
    if type(degree) is not int or not 0 <= degree < n:
        raise BadParams(f"degree {degree!r} outside 0..{n - 1}")
    if type(sketch) is not int or not 0 <= sketch < p:
        raise BadParams(f"sketch {sketch!r} outside 0..p-1")
    return degree | sketch << ceil_log2(n)


def unpack(word: int, kind: type, n: int, p: int | None = None) -> Message:
    """The record of the given kind (NeighborList or DegreeAndSketch) that
    pack turned into word, read from word, n and p alone.

    A NeighborList word holds k ids when it falls in the k-sets' run of
    indices, found by walking the classes of _id_set_classes; the rest
    above the run's start is the colex rank of the ids.  A word that is not
    an int, is negative or is not below 2**bits of the record it heads
    (2**n for a NeighborList), a degree at or above n and a sketch at or
    above p raise BadParams.
    """
    if type(word) is not int or word < 0:
        raise BadParams(f"word {word!r} is not a nonnegative int")
    if n < 1:
        raise BadParams("node count must be >= 1")
    if kind is NeighborList:
        if word >> n:
            raise BadParams(f"word {word} is not below 2**{n}, the number of id sets")
        # the classes end at 2**n, so some run holds the word
        for k, c, first in _id_set_classes(n):
            if word < first + c:
                return new_record(NeighborList,
                                  (_id_unrank(word - first, k, n), ceil_log2(first + c)))
    if kind is DegreeAndSketch:
        bits = message_bits(DegreeAndSketch(0, 0, 0), n, p)
        if word >> bits:
            raise BadParams(f"word {word} does not fit {bits} bits")
        width = ceil_log2(n)
        degree, sketch = word & ((1 << width) - 1), word >> width
        if degree >= n:
            raise BadParams(f"degree {degree} outside 0..{n - 1}")
        if sketch >= p:
            raise BadParams(f"sketch {sketch} outside 0..p-1")
        return new_record(DegreeAndSketch, (degree, sketch, bits))
    raise TypeError(f"unknown message kind {kind!r}")


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
    needs once per run, with message_bits, the single size formula, or
    neighbor_list_sizes, its table by id count, and builds each record
    with its bits directly.
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
