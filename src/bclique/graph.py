"""Undirected simple graphs: representation, generators, and brute-force oracles.

Edges are always normalized as (u, v) with u < v, and plain tuple comparison
on normalized edges is the single total edge order used everywhere (tie-break
order in the spanning-forest oracle, and the "largest edge of a short cycle"
rule that produces the short-cycle-free subgraph).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

from .errors import BadParams, IndexOutOfRange, InvalidEdge, ParseError, UnknownKind

Edge = tuple[int, int]

# Largest node count that load_graph and gen_graph accept.  Both check it
# before allocating a row per node, so an absurd header fails with the
# package's own error instead of exhausting memory.  An edgeless graph at
# the bound takes tens of megabytes, far past the sizes the protocols reach
# at desk scale.
MAX_NODES = 10**6

# Most node pairs that the generators visiting every pair (complete, gnp)
# accept, checked before a pair is built or a random number drawn; it
# admits n <= 3162.
MAX_PAIRS = 5 * 10**6


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Graph on nodes 0..n-1 stored as one sorted neighbor row per node."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 0:
            raise BadParams("node count must be >= 0")
        rows: list[list[int]] = [[] for _ in range(n)]
        seen: set[Edge] = set()
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

    def edges(self) -> tuple[Edge, ...]:
        """All edges, normalized and already in ascending edge order."""
        return tuple((u, w) for u in range(self.n) for w in self.rows[u] if w > u)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())


@dataclass(frozen=True)
class Ball:
    """Induced subgraph of everything within a fixed distance of one node.

    Node ids are the original ids; adj maps each contained node, in
    ascending id order, to its neighbors inside the ball.
    """

    center: int
    radius: int
    adj: dict[int, tuple[int, ...]]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        return True


# ---------------------------------------------------------------------------
# edge-list files


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(field: str) -> int:
    """A plain ASCII decimal integer.  int() alone also takes '1_0', '+1'
    and non-ASCII digits, which the file format does not allow."""
    if not _DECIMAL.fullmatch(field):
        raise ValueError(f"not a decimal integer: {field!r}")
    return int(field)


def load_graph(text: str) -> Graph:
    """Parse the edge-list format: first payload line is n, then "u v" lines.

    '#' starts a comment, blank lines are skipped, duplicate edges and
    self-loops are rejected.
    """
    n = None
    edges: list[Edge] = []
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
            if not 0 <= n <= MAX_NODES:
                raise ParseError(f"line {lineno}: node count must be in 0..{MAX_NODES}")
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
    return Graph.from_edges(n, edges)


def serialize_graph(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# oracles


def components_and_forest(g: Graph) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
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


def core_peel(g: Graph, d: int):
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


def ball(g: Graph, v: int, r: int) -> Ball:
    """Induced subgraph of all nodes at distance <= r from v.

    A member at depth < r has all its neighbors inside the ball, so its
    entry in adj is g.rows[u] itself, not a copy; only the depth-r members'
    rows are filtered.  Sharing is safe because rows are tuples: neither
    the graph nor a ball can change a row the other holds.
    """
    if not 0 <= v < g.n:
        raise IndexOutOfRange(f"node {v} outside 0..{g.n - 1}")
    if r < 1:
        raise BadParams("radius must be >= 1")
    rows = g.rows
    inside = {v}
    frontier = [v]
    for _ in range(r):
        if not frontier:
            break  # the whole component is in: further levels add nothing
        nxt = []
        for u in frontier:
            for w in rows[u]:
                if w not in inside:
                    inside.add(w)
                    nxt.append(w)
        frontier = nxt
    # frontier now holds the depth-r members, or nothing if the component
    # ran out first; replacing a key's value keeps the ascending key order
    adj = {u: rows[u] for u in sorted(inside)}
    keep = inside.__contains__
    for u in frontier:
        adj[u] = tuple(filter(keep, rows[u]))
    return Ball(center=v, radius=r, adj=adj)


def _closes_short_cycle(adj, u: int, w: int, hops: int) -> bool:
    """Whether edge (u, w) is the largest edge of a simple cycle of length
    <= hops + 1.

    That holds exactly when u reaches w in at most `hops` steps over edges
    smaller than (u, w): such a walk contains a simple path, which the edge
    closes into the cycle.  adj maps every node reached, and w, to its
    neighbors, and is symmetric, as a ball's induced subgraph is.

    The walk enters w from one of its entries: a neighbor other than u
    whose edge to w is smaller than (u, w).  A w with none, such as a leaf
    of the ball, closes nothing and returns at once, before any BFS; else the
    BFS runs hops - 1 levels and stops at the first entry it reaches, so it
    never builds the last, widest level and never steps onto u or w.  With
    (lo, hi) = sorted((u, w)), a step from a to any other node b is over an
    edge smaller than (u, w) exactly when b < cap(a): no bound for a < lo,
    hi for a == lo and lo for a > lo.  That is one integer comparison per
    neighbor, which builds no normalized tuple and reads no order of a row.
    """
    lo, hi = (u, w) if u < w else (w, u)
    entries = {b for b in adj[w] if b < (hi if w == lo else lo)}
    if not entries:
        return False
    seen = {u}
    frontier = [u]
    for _ in range(hops - 1):
        nxt = []
        for a in frontier:
            cap = math.inf if a < lo else hi if a == lo else lo
            for b in adj[a]:
                if b < cap and b not in seen:
                    if b in entries:
                        return True
                    seen.add(b)
                    nxt.append(b)
        if not nxt:
            break
        frontier = nxt
    return False


def has_short_cycle(g: Graph, length_bound: int) -> bool:
    """True iff g contains a simple cycle of length <= length_bound.

    Girth BFS from every root, sharing no code with the short-cycle search
    behind tilde_row_local and tilde_global.  An edge (a, b) outside the BFS
    tree closes a walk of length dist[a] + dist[b] + 1 through the root,
    which contains a cycle; from a root on a shortest cycle, one such walk
    is no longer than that cycle.  A node at depth k closes no walk shorter than 2k, so the
    search stops past depth length_bound // 2.  A simple graph has no cycle
    shorter than 3, and the search returns False for any bound below 3.
    """
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: root}
        frontier = [root]
        depth = 0
        while frontier and 2 * depth <= length_bound:
            nxt = []
            for a in frontier:
                for b in g.rows[a]:
                    if b not in dist:
                        dist[b] = depth + 1
                        parent[b] = a
                        nxt.append(b)
                    elif b != parent[a] and depth + dist[b] + 1 <= length_bound:
                        return True
            frontier = nxt
            depth += 1
    return False


def tilde_global(g: Graph, r: int) -> Graph:
    """Drop, for every simple cycle of length <= 2r, its largest edge.

    Edge (u, w) is dropped exactly when u reaches w in at most 2r-1 steps
    over edges smaller than (u, w).  The result has no cycle of length
    <= 2r and the same connected components as g.
    """
    if r < 1:
        raise BadParams("radius must be >= 1")
    return Graph.from_edges(
        g.n, (e for e in g.edges() if not _closes_short_cycle(g.rows, *e, 2 * r - 1)))


def tilde_row_local(b: Ball) -> tuple[int, ...]:
    """Row of the short-cycle-free subgraph at b's center, computed from
    that node's radius-r ball only.

    Edge (v, u) is dropped exactly when v reaches u in at most 2r-1 steps
    over edges smaller than (v, u), the rule tilde_global applies.  Such a
    walk closes a cycle of length <= 2r through v, and every node of that
    cycle is within distance r of v, so a search confined to the radius-r
    ball finds it and the row equals tilde_global's without any global
    knowledge.
    """
    if b.radius < 1:
        raise BadParams("radius must be >= 1")
    v = b.center
    return tuple(u for u in b.adj[v] if not _closes_short_cycle(b.adj, v, u, 2 * b.radius - 1))


# ---------------------------------------------------------------------------
# deterministic generators


def _gen_path(n, rng, params):
    return [(i, i + 1) for i in range(n - 1)]


def _gen_cycle(n, rng, params):
    if n < 3:
        raise BadParams("cycle needs n >= 3")
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _check_pairs(n):
    """Refuse to visit every node pair when there are more than MAX_PAIRS."""
    if n * (n - 1) // 2 > MAX_PAIRS:
        raise BadParams(f"{n} nodes have {n * (n - 1) // 2} node pairs, "
                        f"more than the bound {MAX_PAIRS}")


def _gen_complete(n, rng, params):
    _check_pairs(n)
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _gen_star(n, rng, params):
    return [(0, i) for i in range(1, n)]


def _gen_gnp(n, rng, params):
    q = params.pop("q", 0.3)
    if not isinstance(q, (int, float)) or not 0 <= q <= 1:
        raise BadParams(f"edge probability q={q!r} outside [0, 1]")
    _check_pairs(n)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < q]


def _gen_random_forest(n, rng, params):
    edges = []
    for i in range(1, n):
        j = rng.randrange(i + 1)
        if j < i:  # j == i starts a fresh tree
            edges.append((j, i))
    return edges


def _gen_random_degenerate(n, rng, params):
    d = params.pop("d", None)
    if not isinstance(d, int) or d < 0:
        raise BadParams("random_degenerate needs an integer d >= 0")
    edges = []
    for i in range(1, n):
        count = rng.randint(0, min(d, i))
        edges.extend((j, i) for j in rng.sample(range(i), count))
    return edges


_GENERATORS = {
    "path": _gen_path,
    "cycle": _gen_cycle,
    "complete": _gen_complete,
    "star": _gen_star,
    "gnp": _gen_gnp,
    "random_forest": _gen_random_forest,
    "random_degenerate": _gen_random_degenerate,
}


def gen_graph(kind: str, n: int, seed: int = 0, **params) -> Graph:
    """Build a named test graph; identical (kind, n, seed, params) always
    yield the identical graph."""
    builder = _GENERATORS.get(kind)
    if builder is None:
        raise UnknownKind(f"unknown generator {kind!r}; choose from {sorted(_GENERATORS)}")
    if not 0 <= n <= MAX_NODES:
        raise BadParams(f"node count must be in 0..{MAX_NODES}")
    rng = random.Random(seed)
    extras = dict(params)
    edges = builder(n, rng, extras)
    if extras:
        raise BadParams(f"unexpected parameters for {kind}: {sorted(extras)}")
    return Graph.from_edges(n, edges)
