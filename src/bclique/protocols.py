"""The three broadcast protocols.

* spanning_forest_multiround: every node repeatedly announces a few neighbors
  in foreign supernodes; adjacent supernodes merge until each one is a
  connected component.  Runs within ceil(1/eps) rounds with messages of at
  most ceil(n**eps) ids.  Each round's merge is merge_step, one Kruskal pass
  over the announced edges.  The run halts in the round whose merge leaves
  all full senders (nodes that announced the full cap of ids) in one
  supernode, which proves no edge joins two supernodes.
* prune_one_round: one broadcast of (degree, sketched neighbor row) per node,
  then everyone peels low-degree nodes locally, editing the remaining
  sketches through linearity.
* connectivity_one_round_r: prune_one_round composed with a local step.
  Each node derives its row of the short-cycle-free subgraph from its
  radius-r ball, the pruning round at the sparsity bound s = ceil(n**(1/r))
  peels that subgraph to empty, so every node holds all its edges, and every
  node reads the same spanning forest off the peel with merge_step, the
  forest protocol's merge.  Both ends of an edge reach the same bit from
  their own balls, so the simulator searches each edge once, from its
  lower end's ball, and copies the bit to the upper end; it refuses balls
  that do not all come from one graph, where that copy would be wrong.

Each entry point checks its arguments, runs its protocol with run_protocol
and returns the final public knowledge as its answer, so a replay of a
transcript, a fold of deliver over its rounds, gives the same answer.  The
adjacency entry points take a Graph, whose rows its constructors have
validated (raw rows enter through Graph.from_rows), and the engine hands
node v only g.rows[v]; connectivity_one_round_r takes the balls of
graph.ball_inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Collection, Sequence

from . import sketch
from .clique import (DegreeAndSketch, NeighborList, Protocol, message_bits,
                     neighbor_list_sizes, new_record, run_protocol)
from .errors import (BadParams, DegeneracyExceeded, InvalidTranscript, NotDecodable,
                     RoundBudgetExceeded)
from .graph import Ball, Edge, Graph, tilde_row_local
from .intmath import nth_root_ceil, pow_ceil


# Largest eps numerator spanning_forest_multiround accepts: the neighbor cap
# ceil(n**eps) raises n to the numerator, so a larger one is refused before
# that work starts.  At n = 10**6 and eps = 65535/65536 the cap takes about
# 1.4 s on a 2-core host with Python 3.11.
MAX_EPS_NUMERATOR = 2**16


def forest_round_budget(eps: Fraction) -> int:
    """Rounds the spanning-forest protocol may use: ceil(1/eps)."""
    return -(-eps.denominator // eps.numerator)


def forest_neighbor_cap(n: int, eps: Fraction) -> int:
    """Most neighbors one node announces per forest round: ceil(n**eps), at least 1."""
    return max(1, pow_ceil(n, eps))


def merge_step(labels: tuple[int, ...], forest: tuple[Edge, ...],
               ids_of: Sequence[Sequence[int]], hiding: Collection[int]):
    """Merge supernodes joined by announced edges and return the new
    (labels, forest).

    ids_of[u] is the ascending sequence of ids node u announced an edge
    to, one entry per node: a forest round's message vector, or the
    peel's neighborhoods.  An edge may be announced from one end or from
    both.  An ids_of without one entry per node (an iterator included),
    or an id that is not an int or lies at or above n, in ids_of or in
    hiding, raises BadParams.  The order of each sequence is not checked,
    which would cost a comparison per announced id: both callers build
    ascending sequences.  labels[v] is the minimum member id of v's
    supernode; forest holds the original-graph edges whose announcement
    caused a merge, so it stays acyclic.  Edges are processed in ascending
    edge order; each one joining two distinct supernodes goes into the
    forest, so one call from an empty forest returns it ascending.  From
    singleton labels and every edge of a graph, this is Kruskal's
    algorithm in ascending edge order: the graph's components and
    canonical spanning forest.

    Ascending edge order is the order of one sweep over the senders u in
    ascending order, each with its ids above u in ascending order, so the
    edges need no sort.  Only the edges announced by their upper end alone
    are missing from that sweep.  A first pass buckets each sender x under
    every id w < x it announced that is in hiding, in ascending order
    since the senders are taken in order, and the sweep merges w's bucket
    into w's ids.  No membership test asks
    whether w announced x too: an edge announced from both ends then
    reaches the sweep twice, side by side, and its second copy finds both
    ends under one root, so it changes nothing (Kruskal ignores a repeated
    edge).  Each announced id is read at most twice, so the cost is linear
    in the announced ids; an empty hiding skips the pass.

    The rule holds per edge: Kruskal over all the announced edges of a
    forest round never takes an edge that only its upper end announced
    when its lower end is not full (has not announced cap ids), so the
    forest's deliver passes the round's full senders.  Say x alone announced
    (w, x), w < x, and w is not full.  A sender that is not full announced
    its smallest neighbor in every foreign supernode its row meets, and x
    is such a neighbor of w (x announced w, so their labels differ), so w
    announced some x' in x's supernode with x' <= x, and x' != x since w
    did not announce x.  Edge {w, x'} comes before (w, x) in ascending edge
    order, and x' and x share a label, so Kruskal finds w and x joined and
    never takes (w, x).  Dropping edges that Kruskal never takes changes
    neither labels nor forest: every edge it does take meets the same
    union-find state.  In round 0 such edges do not occur at all, since a
    sender that is not full announced its whole row.
    _OneRoundProtocol.deliver passes range(n): the peel's neighborhoods
    hold each edge once, from its earlier-peeled end, so any node's list
    can leave out an edge that Kruskal takes.

    The union-find runs over the labels themselves: parent is indexed by
    label, finds halve their paths, and a union links the larger root under
    the smaller.  So parent[x] <= x throughout, and the root of each merged
    set is its smallest label, which is the new minimum member id.  The
    sweep finds each sender's root once and keeps the smaller root after a
    union, which is the root of the merged set.  One ascending pass then
    points every entry straight at its root, and the new label of v is
    parent[labels[v]].
    """
    try:
        per_node = len(ids_of) == len(labels)
    except TypeError:  # an iterator, such as enumerate(rows)
        per_node = False
    if not per_node:
        raise BadParams(f"merge_step takes one id sequence per node, {len(labels)} in all")
    try:
        parent = list(range(len(labels)))
        forest = list(forest)
        upper_only: dict[int, list[int]] = {}
        if hiding:
            looked = [False] * len(labels)
            for w in hiding:
                looked[w] = True
            for x, ids in enumerate(ids_of):
                for w in ids:
                    if w >= x:
                        break
                    if looked[w]:
                        upper_only.setdefault(w, []).append(x)
        for u, ids in enumerate(ids_of):
            if u in upper_only:
                ids = sorted([*ids, *upper_only[u]])  # two ascending runs
            a = labels[u]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            for v in ids:
                if v <= u:
                    continue
                b = labels[v]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b:
                    if a < b:
                        parent[b] = a
                    else:
                        parent[a] = a = b
                    forest.append((u, v))
        for x in range(len(parent)):  # parent[x] <= x already points at its root
            parent[x] = parent[parent[x]]
    except (TypeError, IndexError):  # an (id, row) pair, or an id >= n
        raise BadParams("merge_step takes ascending int ids below n, per node") from None
    return tuple([parent[lbl] for lbl in labels]), tuple(forest)


class _SpanningForestProtocol(Protocol):
    """Public knowledge is (labels, forest, done), or None before round 0,
    when every node is its own supernode.  labels and forest are as
    merge_step returns them, the forest ascending, and done says whether
    the labels prove that no edge joins two supernodes.  The object holds
    constants only."""

    def __init__(self, n: int, cap: int, budget: int, max_degree: int):
        self.cap = cap
        self.round_budget = budget
        # sizes[k] is message_bits of k ids; no message holds more than cap
        # ids, nor more than the longest row
        self.sizes = neighbor_list_sizes(n, min(cap, max_degree))

    def message(self, node, row, known):
        """Announce the smallest neighbor in each of the cap smallest foreign
        supernodes, ids ascending.  row is node's sorted neighbor row.

        In round 0 every neighbor is the sole member of its own foreign
        supernode, so the message is row[:cap].
        """
        if known is None:
            ids = row[: self.cap]  # rows are tuples, so the slice is one
        else:
            labels = known[0]
            # Rows are sorted, so first holds the smallest neighbor per
            # label, inserted in ascending id order.
            first: dict[int, int] = {}
            for w in row:
                first.setdefault(labels[w], w)
            first.pop(labels[node], None)
            ids = tuple(sorted(first[lbl] for lbl in sorted(first)[: self.cap]))
        return new_record(NeighborList, (ids, self.sizes[len(ids)]))

    def deliver(self, known, messages):
        """Merge the announced edges and halt once the merged labels prove
        that no edge joins two supernodes.

        Call a sender full when its message holds cap ids.  A sender that
        is not full announced a neighbor in every foreign supernode its row
        meets, so the merge joins all of them to its own.  Hence an edge
        between two supernodes after the merge joins two full senders (rows
        are symmetric), and the run is done when every full sender has the
        same merged label, or when no sender is full.  merge_step looks for
        edges that only their upper end announced below the full senders
        alone (see merge_step for why no other lower end hides one).  Round
        0's merge returns the forest ascending; a later round's appends
        edges below earlier ones, so it is sorted.
        """
        cap = self.cap
        full = [u for u, m in enumerate(messages) if len(m.ids) == cap]
        ids_of = [m.ids for m in messages]
        if known is None:
            labels, forest = merge_step(tuple(range(len(messages))), (), ids_of, full)
        else:
            labels, forest = merge_step(known[0], known[1], ids_of, full)
            forest = tuple(sorted(forest))
        done = len({labels[u] for u in full}) <= 1
        return (labels, forest, done), done


def _require_graph(g, entry: str) -> None:
    """Refuse anything but a Graph as an adjacency entry point's input."""
    if not isinstance(g, Graph):
        raise BadParams(f"{entry} takes a Graph, not {type(g).__name__}; "
                        f"build one from raw rows with Graph.from_rows")


def spanning_forest_multiround(g: Graph, eps):
    """Connected components and a spanning forest of g in at most
    ceil(1/eps) rounds of at most ceil(n**eps) announced neighbors per node.

    Node v holds g.rows[v], its sorted neighbor row, which never holds v
    itself, so the first neighbor met in a supernode is its smallest, the
    one announced.  Anything but a Graph raises BadParams.

    eps is an exact rational in (0, 1]; pass a Fraction, an int, or a
    string such as "1/3" (floats are refused to keep round and cap counts
    exact).  A bool, an unparsable eps or a numerator above
    MAX_EPS_NUMERATOR raises BadParams.

    The run halts in the round that proves it is done (see
    _SpanningForestProtocol.deliver), which relies on the rows being
    symmetric, as a Graph's constructors guarantee.  If the run uses all
    ceil(1/eps) rounds without that proof and some node still has a
    neighbor in another supernode, it raises RoundBudgetExceeded.
    """
    _require_graph(g, "spanning_forest_multiround")
    if isinstance(eps, float):
        raise TypeError("pass eps as Fraction, int, or string, not float")
    if isinstance(eps, bool):  # Fraction(True) would run as eps 1
        raise BadParams(f"eps must be a Fraction, int, or string, not {eps!r}")
    try:
        eps = Fraction(eps)
    except (TypeError, ValueError, ZeroDivisionError):  # TypeError: None or a complex
        raise BadParams(f"cannot parse eps {eps!r}") from None
    if not 0 < eps <= 1:
        raise BadParams("eps must be in (0, 1]")
    if eps.numerator > MAX_EPS_NUMERATOR:
        raise BadParams(f"eps numerator {eps.numerator} exceeds {MAX_EPS_NUMERATOR}")
    n, rows = g.n, g.rows
    budget = forest_round_budget(eps)
    proto = _SpanningForestProtocol(n, forest_neighbor_cap(n, eps), budget, g.max_degree)
    (labels, forest, done), transcript = run_protocol(proto, rows)
    if not done:  # the run spent its budget without that proof
        unfinished = [v for v, row in enumerate(rows) if any(labels[w] != labels[v] for w in row)]
        if unfinished:
            raise RoundBudgetExceeded(f"spanning_forest_multiround: nodes {unfinished} "
                                      f"unfinished after {budget} round(s)")
    return labels, forest, transcript


@dataclass(frozen=True)
class PruningResult:
    """Outcome of a peel: the removal sequence with residual neighborhoods,
    whatever survived, and each survivor's residual degree.

    The sequence is the peel's only record of edges.  When nothing
    survived it holds every edge of the graph, once, from its
    earlier-peeled end, and reconstructed derives the graph from it.
    """

    sequence: tuple[tuple[int, tuple[int, ...]], ...]
    remaining: tuple[int, ...]
    residual_degrees: tuple[tuple[int, int], ...]

    @property
    def fully_reconstructed(self) -> bool:
        return not self.remaining

    @cached_property
    def reconstructed(self) -> Graph | None:
        """The peeled graph, rebuilt from the sequence on first read, or
        None when some node survived.

        Each edge is in the sequence once, from its earlier-peeled end k, so
        k joins each neighbor's row and the neighbors join row k.  The peel
        has already refused dead, self and negative-degree neighbors, so the
        rows need no second validation pass.
        """
        if self.remaining:
            return None
        rows: list[list[int]] = [[] for _ in self.sequence]
        for k, nbrs in self.sequence:
            for j in nbrs:
                rows[j].append(k)
            rows[k].extend(nbrs)
        return Graph(len(rows), tuple(tuple(sorted(r)) for r in rows))


def peel_from_messages(msgs, params: sketch.SketchParams) -> PruningResult:
    """Replay the peel at bound params.d locally from one (degree, sketch)
    entry per node.

    An entry is read as entry[0] and entry[1], so a DegreeAndSketch message
    and a plain pair both work.  An entry that cannot be read that way, or
    whose fields do not compare with integers, raises InvalidTranscript
    naming its node, as an out-of-range one does.

    Repeatedly takes the smallest live node with residual degree <= d,
    decodes its residual neighborhood from its sketch, and subtracts its
    basis encoding from each live neighbor's sketch.  Needs no further
    communication.  Any inconsistency (undecodable sketch, dead or
    self-referential neighbor, negative degree, or a survivor whose residual
    degree is not below the number of survivors, as every degree >= n is
    not) raises InvalidTranscript, as does a vector with no length.

    The decoder is params.walk, bound once per call: the top-down walk that
    decode_support runs, which refuses a sketch that is not an int or no
    encoding.  decode_support's own checks are not repeated per node: every
    residual sketch stays in 0..p-1 once the entries passed the range
    check, and the peel compares the decoded weight with the residual
    degree itself, which also refuses a weight above d, since the degree
    of an eligible node is at most d.

    Eligible nodes wait in a min-heap (the bucket idea of Matula & Beck's
    smallest-last ordering).  Residual degrees only fall, so a node stays
    eligible once it is; each node enters the heap once, at the start or
    when its degree falls to d, and popping the heap yields the smallest
    eligible id, as a scan over all nodes would.

    A node at residual degree 0 skips the decoder: the only encoding of
    weight 0 is 0, so its neighborhood is empty and any other sketch is
    inconsistent.  The loop records only the sequence; the reconstructed
    graph is derived from it when it is read.
    """
    n = params.n
    d = params.d
    p = params.p
    try:
        count = len(msgs)
    except TypeError:  # an iterator, or None
        raise InvalidTranscript(f"expected a vector of {n} messages, "
                                f"not {type(msgs).__name__}") from None
    if count != n:
        raise InvalidTranscript(f"expected {n} messages, got {count}")
    try:
        degrees = [m[0] for m in msgs]
        values = [m[1] for m in msgs]
        in_range = min(degrees) >= 0 and min(values) >= 0 and max(values) < p
    except (LookupError, TypeError):
        in_range = False
    if not in_range:
        # only a bad vector pays for this per-entry scan
        for v, m in enumerate(msgs):
            try:
                ok = m[0] >= 0 and 0 <= m[1] < p
            except (LookupError, TypeError):
                raise InvalidTranscript(f"message of node {v} is malformed") from None
            if not ok:
                raise InvalidTranscript(f"message of node {v} is out of range")
        raise InvalidTranscript("messages are malformed")
    live = [True] * n
    eligible = [v for v in range(n) if degrees[v] <= d]  # ascending, so a heap
    sequence: list[tuple[int, tuple[int, ...]]] = []
    heappop, heappush = heapq.heappop, heapq.heappush
    walk = params.walk
    powers = params.powers
    while eligible:
        k = heappop(eligible)
        degree = degrees[k]
        if degree:
            try:
                nbrs = walk(values[k])
            except NotDecodable as exc:
                raise InvalidTranscript(f"sketch of node {k} is inconsistent: {exc}") from exc
            if len(nbrs) != degree:
                raise InvalidTranscript(f"sketch of node {k} is inconsistent: decoded "
                                        f"weight {len(nbrs)} but {degree} was announced")
        elif values[k]:
            raise InvalidTranscript(f"sketch of node {k} is inconsistent: "
                                    f"{values[k]} is nonzero at residual degree 0")
        else:
            nbrs = ()
        live[k] = False
        basis_k = powers[k]  # encode_basis without its range check: k is a node id
        for j in nbrs:
            if not live[j]:
                raise InvalidTranscript(f"node {k} decoded dead or self neighbor {j}")
            dj = degrees[j] - 1
            if dj <= d:
                if dj < 0:
                    raise InvalidTranscript(f"residual degree of node {j} went negative")
                if dj == d:
                    heappush(eligible, j)
            degrees[j] = dj
            v = values[j] - basis_k
            values[j] = v + p if v < 0 else v
        sequence.append((k, nbrs))
    remaining = tuple(compress(range(n), live))
    residual = tuple((v, degrees[v]) for v in remaining)
    for v, degree in residual:
        if degree >= len(remaining):
            raise InvalidTranscript(f"node {v} survived at residual degree {degree}, "
                                    f"more than the other {len(remaining) - 1} survivors")
    return PruningResult(tuple(sequence), remaining, residual)


class _PruneProtocol(Protocol):
    """One round of (degree, sketch) messages, then the peel.  The object
    binds the sketch parameters, their powers and modulus, and the message
    size when it is built.

    A message's sketch is encode_support of the row, summed in place: the
    powers of the row's ids, reduced mod p once.  It runs no range check
    per id, since every row is a validated Graph's row or the one-round
    cut of one, whose ids all lie in 0..n-1.
    """

    def __init__(self, params: sketch.SketchParams):
        self.params = params
        self.powers = params.powers
        self.p = params.p
        self.bits = message_bits(DegreeAndSketch(0, 0, 0), params.n, params.p)

    def message(self, node, row, known):
        powers = self.powers
        total = 0
        for i in row:
            total += powers[i]
        return new_record(DegreeAndSketch, (len(row), total % self.p, self.bits))

    def deliver(self, known, messages):
        return peel_from_messages(messages, self.params), True


def prune_one_round(g: Graph, d: int):
    """One broadcast round of (degree, sketch) over g's rows, then a shared
    local peel.

    Anything but a Graph raises BadParams, as does a d that is not an int
    or lies outside 0..g.n, from the sketch parameters, which are keyed by
    type, so a warm cache refuses d = 2.0 as a cold one does."""
    _require_graph(g, "prune_one_round")
    return run_protocol(_PruneProtocol(sketch.cached_params(g.n, d)), g.rows)


class _OneRoundProtocol(_PruneProtocol):
    """The prune round at the sparsity bound, whose deliver reads the
    components and spanning forest off the peel.  Public knowledge is
    (labels, forest), as merge_step returns them."""

    def deliver(self, known, messages):
        """Peel, refuse a peel that stalls with DegeneracyExceeded, and read
        the forest off the peel: merge_step on singleton labels with each
        node's residual neighborhood, ascending as decode_support returns
        it, which holds every edge once, from its earlier-peeled end.  That
        is Kruskal in ascending edge order, the forest protocol's merge,
        and no call to the components_and_forest oracle it is checked
        against; the reconstructed graph is never built.
        """
        peel = peel_from_messages(messages, self.params)
        if peel.remaining:
            raise DegeneracyExceeded(f"peel stalled with {len(peel.remaining)} nodes left "
                                     f"at s={self.params.d}")
        n = self.params.n
        ids_of: list[tuple[int, ...]] = [()] * n
        for k, nbrs in peel.sequence:
            ids_of[k] = nbrs
        return merge_step(tuple(range(n)), (), ids_of, range(n)), True


def sparsity_parameter(n: int, r: int) -> int:
    """Smallest s >= 1 with s**r >= n.

    A graph on n nodes without cycles of length <= 2r cannot have a
    subgraph of minimum degree s + 1 (its radius-r tree would already hold
    more than s**r >= n nodes), so peeling at bound s always finishes.
    n and r must be ints (bools and floats such as 2.0 are refused).
    """
    if type(n) is not int or type(r) is not int:
        raise BadParams(f"n and r must be ints, not {n!r} and {r!r}")
    if n < 1:
        raise BadParams("n must be >= 1")
    if r < 1:
        raise BadParams("r must be >= 1")
    return nth_root_ceil(n, r)


def connectivity_one_round_r(balls: Sequence[Ball], r: int):
    """Connected components and a spanning forest from radius-r views in a
    single broadcast round of (degree, sketch) messages.

    Each node's row of the short-cycle-free subgraph is decided from the
    balls, without communication; prune_one_round at s = sparsity_parameter(n, r)
    then peels that subgraph to empty, so every node holds it whole and reads
    the forest off it (_OneRoundProtocol.deliver).

    Each edge is searched once, from its lower end's ball: the centers are
    taken in ascending order, tilde_row_local(b, upper=True) decides the
    center's neighbors above it, and each kept edge (v, u) is copied into
    row u.  That is the bit u's own ball gives: both ends' searches find
    exactly the cycles of length <= 2r whose largest edge is (v, u), which
    lie within distance r of either end, so both equal tilde_global's
    rule.  Row u receives its lower neighbors in ascending order before
    its own call appends the upper ones, so every row comes out ascending
    with no sort.

    A row thus reads other nodes' balls, and that argument holds only for
    balls of one graph, so the balls must share one n-entry neighbor-mask
    tuple (ball_inputs hands every ball the same one; the test is by
    identity first, then by equality) or BadParams is raised before any
    search runs.  Balls of two graphs would otherwise give each edge the
    lower end's graph's bit and return wrong labels without an error.

    The short-cycle-free rows go to the prune engine without Graph.from_rows
    or a Graph: each is part of a validated graph's row, cut by
    tilde_global's rule, which keeps or drops an edge at both of its ends.
    An r that is not an int (a bool, or a float such as 2.0, which a
    ball's radius compares equal to) raises BadParams.
    """
    if type(r) is not int or r < 1:
        raise BadParams(f"r must be an int >= 1, not {r!r}")
    n = len(balls)
    masks = balls[0].nbrs if n else ()
    if len(masks) != n:
        raise BadParams(f"ball 0 is from a graph on {len(masks)} nodes, not {n}")
    for v, b in enumerate(balls):
        if b.center != v or b.radius != r:
            raise BadParams(f"input {v} is not the radius-{r} ball of node {v}")
        if b.nbrs is not masks and b.nbrs != masks:
            raise BadParams(f"ball {v} is from another graph than ball 0")
    s = sparsity_parameter(n, r)
    rows: list[list[int]] = [[] for _ in range(n)]
    for v, b in enumerate(balls):
        upper = tilde_row_local(b, upper=True)
        rows[v].extend(upper)
        for u in upper:
            rows[u].append(v)
    proto = _OneRoundProtocol(sketch.cached_params(n, s))
    (labels, forest), transcript = run_protocol(proto, rows)
    return labels, forest, transcript
