"""Shared test helpers: independent oracles kept deliberately separate from
the package's own implementations."""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from fractions import Fraction

import networkx as nx

from bclique.clique import NeighborList, Transcript, run_protocol
from bclique import graph
from bclique.errors import BadParams, InvalidEdge, NotDecodable, ParseError
from bclique.graph import Edge, Graph, _decimal, _UnionFind, gen_graph, normalize_edge
from bclique.intmath import ceil_log2
from bclique.protocols import _SpanningForestProtocol, forest_neighbor_cap, forest_round_budget
from bclique.sketch import FieldElement, SketchParams


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def seeded_graph(idx: int) -> Graph:
    """Small deterministic graph for property tests."""
    kinds = ("path", "cycle", "star", "gnp", "random_forest", "random_degenerate", "complete")
    kind = kinds[idx % len(kinds)]
    n = 2 + (idx * 7) % 15
    if kind == "cycle":
        n = max(n, 3)
    if kind == "complete":
        n = min(n, 9)
    extras = {}
    if kind == "gnp":
        extras["q"] = (0.1, 0.25, 0.45)[idx % 3]
    if kind == "random_degenerate":
        extras["d"] = 1 + idx % 3
    return gen_graph(kind, n, seed=idx, **extras)


def bfs_component_labels(g: Graph) -> tuple[int, ...]:
    """Component labels (minimum member id) by plain BFS, no union-find."""
    labels = [-1] * g.n
    for start in range(g.n):
        if labels[start] != -1:
            continue
        queue = deque([start])
        labels[start] = start
        while queue:
            u = queue.popleft()
            for w in g.rows[u]:
                if labels[w] == -1:
                    labels[w] = start
                    queue.append(w)
    return tuple(labels)


def forest_ok(g: Graph, labels, forest) -> bool:
    """Maximal-spanning-forest validity via networkx."""
    edges = frozenset(g.edges())
    if any(e not in edges for e in forest):
        return False
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(forest)
    return nx.is_forest(h) and len(forest) == g.n - len(set(labels))


def reference_from_edges(n: int, edges) -> Graph:
    """Graph.from_edges as it was before it built rows with no test per
    edge: each edge checked in order, repeats found with a set of all
    normalized edges."""
    if n < 0:
        raise BadParams("node count must be >= 0")
    rows: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidEdge(f"edge ({u}, {v}) references a node outside 0..{n - 1}")
        if u == v:
            raise InvalidEdge(f"self-loop at node {u}")
        e = normalize_edge(u, v)
        if e in seen:
            raise InvalidEdge(f"duplicate edge {e}")
        seen.add(e)
        rows[u].append(v)
        rows[v].append(u)
    return Graph(n, tuple(tuple(sorted(r)) for r in rows))


def reference_load_graph(text: str) -> Graph:
    """load_graph as it was before it read plain edge lines in bulk: every
    line parsed on its own, then reference_from_edges."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        payload = raw.split("#", 1)[0].strip()
        if not payload:
            continue
        fields = payload.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError(f"line {lineno}: expected a single node count")
            try:
                n = _decimal(fields[0])
            except ValueError:
                raise ParseError(f"line {lineno}: node count is not an integer") from None
            if not 0 <= n <= graph.MAX_NODES:
                raise ParseError(f"line {lineno}: node count must be in 0..{graph.MAX_NODES}")
            continue
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = _decimal(fields[0]), _decimal(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: endpoints are not integers") from None
        edges.append((u, v))
    if n is None:
        raise ParseError("missing node count line")
    return reference_from_edges(n, edges)


def outcome(build, *args):
    """build(*args), or the type and message of the package error it raised."""
    try:
        return build(*args)
    except (BadParams, InvalidEdge, ParseError) as exc:
        return type(exc), str(exc)


def relabel(g: Graph, perm) -> Graph:
    """Graph with node v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def girth_leq(g: Graph, bound: int) -> bool:
    """Whether the shortest cycle has length <= bound, via networkx girth."""
    return nx.girth(to_nx(g)) <= bound


def short_cycles(g: Graph, bound: int):
    """Yield (cycle, largest edge) for every simple cycle of length 3..bound,
    once each, by exhaustive path extension.

    A cycle is its vertex tuple starting at its minimum vertex, oriented so
    the second vertex is smaller than the last.  Exponential in bound, so
    only for small test graphs.
    """
    def extend(path):
        root, last = path[0], path[-1]
        for w in g.rows[last]:
            if w == root and len(path) >= 3 and path[1] < path[-1]:
                yield tuple(path)
            elif w > root and w not in path and len(path) < bound:
                yield from extend(path + [w])

    for root in range(g.n):
        for cycle in extend([root]):
            pairs = zip(cycle, cycle[1:] + cycle[:1])
            yield cycle, max(tuple(sorted(pair)) for pair in pairs)


def short_cycle_top_edges(g: Graph, bound: int) -> frozenset:
    """Largest edge of every simple cycle of length <= bound."""
    return frozenset(top for _, top in short_cycles(g, bound))


def dropped_edges(g: Graph, tilde: Graph) -> frozenset:
    """Edges of g that the short-cycle-free subgraph tilde does not keep."""
    return frozenset(g.edges()) - frozenset(tilde.edges())


def shuffled_run(proto, inputs, seed):
    """Reference engine: run_protocol's loop, but each round calls the
    message hooks in a fresh shuffled node order.  Messages are all computed
    before the delivery, so the result must equal run_protocol's."""
    rng = random.Random(seed)
    n = len(inputs)
    known = None
    rounds = []
    for _ in range(proto.round_budget):
        msgs = [None] * n
        for i in rng.sample(range(n), n):
            msgs[i] = proto.message(i, inputs[i], known)
        delivered = tuple(msgs)
        rounds.append(delivered)
        known, halt = proto.deliver(known, delivered)
        if halt:
            break
    return known, Transcript(tuple(rounds))


# Reference for merge_step: a size-linked union-find over node ids, with a
# dict that maps each root to the first node met in id order.  It takes the
# announced (u, w) pairs one at a time, normalizes and sorts them, and never
# reads them grouped by announcing node.
def reference_merge_step(labels, forest, announced):
    uf = _UnionFind(len(labels))
    forest = list(forest)
    for u, v in sorted({normalize_edge(u, w) for u, w in announced}):
        if uf.union(labels[u], labels[v]):
            forest.append((u, v))
    first: dict[int, int] = {}
    return tuple(first.setdefault(uf.find(lbl), v) for v, lbl in enumerate(labels)), tuple(forest)


def former_neighbor_list_bits(n: int, k: int) -> int:
    """Size of a NeighborList of k ids by the former formula: a length field
    of ceil(log2(n+1)) bits plus ceil(log2 n) bits per id, as if the order
    of the ids carried information."""
    return ceil_log2(n + 1) + k * ceil_log2(n)


def length_field_neighbor_list_bits(n: int, k: int) -> int:
    """Size of a NeighborList of k ids by the length-field formula that came
    between the former one and the index over all id sets: ceil(log2(n+1))
    bits for the id count, then ceil(log2 C(n, k)) bits for the colex rank."""
    return ceil_log2(n + 1) + ceil_log2(math.comb(n, k))


def resized_by_former_formula(transcript: Transcript, n: int,
                              bits_of=former_neighbor_list_bits) -> Transcript:
    """The transcript with each NeighborList re-sized by bits_of(n, k),
    the former formula unless another is given."""
    return Transcript(tuple(
        tuple(m._replace(bits=bits_of(n, len(m.ids)))
              if isinstance(m, NeighborList) else m for m in rnd)
        for rnd in transcript.rounds))


class ReferenceForestProtocol(_SpanningForestProtocol):
    """Reference for the forest protocol's halting rule and message sizes:
    its former deliver, which halts only on a round in which nothing was
    announced, and its former sizes, ceil(log2 n) bits per id.  Every run
    that merges anything thus ends with one more round of empty messages,
    which the current rule proves unnecessary.  It merges with
    reference_merge_step, not with the merge it is checked against."""

    def __init__(self, n: int, cap: int, budget: int, max_degree: int):
        super().__init__(n, cap, budget, max_degree)
        self.n = n

    def message(self, node, row, known):
        ids = super().message(node, row, known).ids
        return NeighborList(ids, former_neighbor_list_bits(self.n, len(ids)))

    def deliver(self, known, messages):
        if known is None:
            known = tuple(range(len(messages))), ()
        if not any(m.ids for m in messages):
            return known, True
        pairs = [(u, w) for u, m in enumerate(messages) for w in m.ids]
        return reference_merge_step(*known, pairs), False


def reference_spanning_forest(g: Graph, eps):
    """spanning_forest_multiround's (labels, sorted forest, transcript) for
    the graph g, run with ReferenceForestProtocol."""
    eps = Fraction(eps)
    proto = ReferenceForestProtocol(g.n, forest_neighbor_cap(g.n, eps), forest_round_budget(eps),
                                    g.max_degree)
    (labels, forest), transcript = run_protocol(proto, g.rows)
    return labels, tuple(sorted(forest)), transcript


def residual_core(g: Graph, d: int) -> tuple[int, ...]:
    """Order-free fixpoint oracle for the set surviving a low-degree peel:
    simultaneously delete every node of degree <= d until stable."""
    alive = set(range(g.n))
    while True:
        doomed = {v for v in alive
                  if sum(1 for w in g.rows[v] if w in alive) <= d}
        if not doomed:
            return tuple(sorted(alive))
        alive -= doomed


def enumerated_table(n: int, d: int, x: int, p: int):
    """Value -> support-mask table of every Boolean n-vector of weight <= d
    under the evaluation point x, or None on the first collision, by direct
    enumeration of the supports with itertools.combinations."""
    powers = [pow(x, i, p) for i in range(n)]
    table = {}
    for w in range(d + 1):
        for support in itertools.combinations(range(n), w):
            value = sum(powers[i] for i in support) % p
            if value in table:
                return None
            table[value] = sum(1 << i for i in support)
    return table


def is_binary_shape(params: SketchParams) -> bool:
    """True when the encodings are plain binary numbers: xbar = 2 and
    2**n <= p."""
    return params.xbar == 2 and (1 << params.n) <= params.p


@functools.lru_cache(maxsize=None)
def enumerated_tops(n: int, d: int, x: int, p: int) -> dict[int, int]:
    """Value -> top-index table of the whole family of weight <= d, from
    enumerated_table: the empty support's 0 maps to -1."""
    return {value: mask.bit_length() - 1
            for value, mask in enumerated_table(n, d, x, p).items()}


# The decode_support of the full decode table, verbatim but for its name
# and its table: binary shapes by low-bit extraction, other shapes by the
# top-down walk over every support of the family, enumerated here.
def reference_decode_support(params: SketchParams, y: FieldElement) -> tuple[int, ...]:
    """Sorted support of the unique Boolean vector of weight <= d encoding
    to y, found without building the dense n-vector.

    Raises NotDecodable when y is not an int (a float that equals a key
    could walk to a wrong support once a subtraction rounds) or when no
    such vector exists, and BadParams when y is an int outside the field.
    """
    if not isinstance(y, int):
        raise NotDecodable(f"{y!r} is not an int")
    if not 0 <= y < params.p:
        raise BadParams(f"field element {y} outside 0..p-1")
    support = []
    rest = y
    if is_binary_shape(params):
        if y.bit_length() > params.n:
            raise NotDecodable(f"{y} is not a sparse Boolean encoding")
        while rest:
            low = rest & -rest
            support.append(low.bit_length() - 1)
            rest ^= low
    else:
        # Walk the support down from its top index: y - powers[top] mod p
        # encodes the rest of the support, whose top is smaller.  Every link
        # is looked up with get and the tops must fall, so a value that is
        # no encoding raises NotDecodable, never KeyError, and never loops.
        table = enumerated_tops(params.n, params.d, params.xbar, params.p)
        powers = params.powers
        p = params.p
        last = params.n
        while rest:
            top = table.get(rest, last)
            if top >= last:
                raise NotDecodable(f"{y} is not a sparse Boolean encoding")
            support.append(top)
            last = top
            rest = (rest - powers[top]) % p
        support.reverse()
    weight = len(support)
    if weight > params.d:
        raise NotDecodable(f"{y} encodes a vector of weight {weight} > d={params.d}")
    return tuple(support)


def edges_of_sequence(sequence):
    return {normalize_edge(k, j) for k, nbrs in sequence for j in nbrs}


# graph.core_peel as it was, verbatim but for its name: a scan from node 0
# at every step.  The reference for the eligible-mask peel.
def reference_core_peel(g: Graph, d: int):
    """Greedy low-degree peel: repeatedly delete the smallest-id node of
    residual degree <= d, recording its residual neighborhood.

    Returns (sequence, remaining).  The remaining set is the maximal
    subgraph of minimum degree > d and does not depend on the peel order.
    """
    if d < 0:
        raise BadParams("degree bound must be >= 0")
    adj = [set(row) for row in g.rows]
    live = [True] * g.n
    sequence: list[tuple[int, tuple[int, ...]]] = []
    while True:
        k = next((v for v in range(g.n) if live[v] and len(adj[v]) <= d), None)
        if k is None:
            break
        nbrs = tuple(sorted(adj[k]))
        sequence.append((k, nbrs))
        live[k] = False
        for j in nbrs:
            adj[j].discard(k)
        adj[k].clear()
    remaining = tuple(v for v in range(g.n) if live[v])
    return tuple(sequence), remaining


# graph.components_and_forest as it was, verbatim but for its name: a
# union over every edge of g.edges().  The reference for the row walk that
# stops once the forest spans.
def reference_components_and_forest(g: Graph) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    """Connected components plus a maximal spanning forest.

    Labels are the minimum node id of each component.  The forest is built
    by union-find over edges in ascending edge order, so it is canonical.
    """
    uf = _UnionFind(g.n)
    forest = [e for e in g.edges() if uf.union(*e)]
    label_of_root: dict[int, int] = {}
    labels = []
    for v in range(g.n):
        labels.append(label_of_root.setdefault(uf.find(v), v))
    return tuple(labels), tuple(forest)
