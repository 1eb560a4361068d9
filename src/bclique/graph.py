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

from .errors import BadParams, InvalidEdge, ParseError, UnknownKind

Edge = tuple[int, int]

# Largest node count that load_graph and gen_graph accept.  Both check it
# before allocating a row per node, so an absurd header fails with the
# package's own error instead of exhausting memory.  An edgeless graph at
# the bound takes tens of megabytes, far past the sizes the protocols reach
# at desk scale.
MAX_NODES = 10**6

# Most node pairs that the generators visiting every pair (complete, gnp)
# accept, checked before a pair is built or a random number drawn, and that
# ball_inputs accepts before it allocates n masks of n bits; it admits
# n <= 3162.
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


@dataclass(frozen=True, slots=True)
class Ball:
    """Induced subgraph of everything within distance radius of center.

    members is the bitmask of the ball's nodes (bit u set for node u) and
    rim the mask of those at distance exactly radius.  rows is the graph's
    own row tuple, shared by every ball of the graph: a member inside the
    rim has all its neighbors in the ball, so its induced row is rows[u]
    itself, and only a rim member's row reaches past the ball and is read
    through members.

    Balls are built by ball_inputs from a Graph, whose rows from_edges,
    load_graph and gen_graph validate, so the induced subgraph is symmetric
    by construction.  A bare Graph(n, rows) is trusted input: nothing checks
    its rows, as no protocol entry point checks the rows it is given.
    """

    center: int
    radius: int
    rows: tuple[tuple[int, ...], ...]
    members: int
    rim: int


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


def ball_inputs(g: Graph, r: int) -> list[Ball]:
    """Node inputs of the radius-r model: node v holds its radius-r ball.

    One pass over the rows per radius builds every ball at once: the
    members of v within distance k are its members within k - 1, OR-ed with
    those of each neighbor.  The passes stop early once one adds no member
    to any ball, since no later pass can, so a radius far past the diameter
    costs no more than the diameter.  The masks take n bits per ball, n**2
    bits in all, so graphs with more than MAX_PAIRS node pairs (n > 3162)
    are refused before anything is allocated.
    """
    if r < 1:
        raise BadParams("radius must be >= 1")
    _check_pairs(g.n)
    rows = g.rows
    reach = [1 << v for v in range(g.n)]
    for _ in range(r):
        nxt = []
        for v, row in enumerate(rows):
            mask = reach[v]
            for u in row:
                mask |= reach[u]
            nxt.append(mask)
        if nxt == reach:
            inner = reach  # no ball grew: each holds its component, with no rim
            break
        inner, reach = reach, nxt
    return [Ball(v, r, rows, mask, mask ^ within)
            for v, (mask, within) in enumerate(zip(reach, inner))]


def _closes_short_cycle(rows, u: int, w: int, hops: int, ball: Ball | None = None) -> bool:
    """Whether edge (u, w) is the largest edge of a simple cycle of length
    <= hops + 1.

    That holds exactly when u reaches w in at most `hops` steps over edges
    smaller than (u, w): such a walk contains a simple path, which the edge
    closes into the cycle.  rows holds the neighbors of every node reached,
    and of w, and is symmetric, as a validated Graph's rows are.  Given a
    ball centered at u, the walk stays inside the ball's induced subgraph.

    The walk enters w from one of its entries: a neighbor other than u
    whose edge to w is smaller than (u, w).  A w with none, such as a leaf
    of the ball, closes nothing and returns at once, before any BFS.  Else
    the BFS runs hops - 2 levels, stopping at the first entry it reaches,
    and a last step from the final level looks only for an entry: the nodes
    it lands on are never expanded, so it records none of them.  It never
    steps onto u or w.  With (lo, hi) = sorted((u, w)), a step from a to
    any other node b is over an edge smaller than (u, w) exactly when
    b < cap(a): no bound for a < lo, hi for a == lo and lo for a > lo.
    That is one integer comparison per neighbor, which builds no normalized
    tuple and reads no order of a row.

    In a ball only a rim member has neighbors outside, and a node first met
    at BFS level i is within distance i of the center, so no rim member is
    expanded before level ball.radius.  From that level on, a step from a
    rim member onto a new node tests the node's bit in ball.members, and
    no other step tests membership.  So only members are expanded and no
    row outside the ball is read.  The last step needs no test: the entries
    lie within distance 2 of the center, and a radius-r ball is searched
    with 2r - 1 >= 2 hops only when r >= 2.
    """
    if hops < 2:
        return False  # a simple cycle has at least three edges
    lo, hi = (u, w) if u < w else (w, u)
    entries = {b for b in rows[w] if b < (hi if w == lo else lo)}
    if not entries:
        return False
    rim_level, rim, members = (ball.radius, ball.rim, ball.members) if ball else (0, 0, 0)
    seen = {u}
    frontier = [u]
    for level in range(hops - 2):
        at_rim = rim and level >= rim_level
        nxt = []
        for a in frontier:
            cap = math.inf if a < lo else hi if a == lo else lo
            leaves_ball = at_rim and rim >> a & 1
            for b in rows[a]:
                if b < cap and b not in seen:
                    if b in entries:
                        return True
                    if leaves_ball and not members >> b & 1:
                        continue
                    seen.add(b)
                    nxt.append(b)
        if not nxt:
            return False
        frontier = nxt
    for a in frontier:
        cap = math.inf if a < lo else hi if a == lo else lo
        for b in rows[a]:
            if b < cap and b in entries:
                return True
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
    knowledge.  The search reads only the rows of ball members, although
    the ball shares the whole graph's row tuple.
    """
    if b.radius < 1:
        raise BadParams("radius must be >= 1")
    v = b.center
    hops = 2 * b.radius - 1
    return tuple(u for u in b.rows[v] if not _closes_short_cycle(b.rows, v, u, hops, b))


# ---------------------------------------------------------------------------
# deterministic generators


def _gen_path(n, rng, params):
    return [(i, i + 1) for i in range(n - 1)]


def _gen_cycle(n, rng, params):
    if n < 3:
        raise BadParams("cycle needs n >= 3")
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _check_pairs(n):
    """Refuse quadratic work when there are more than MAX_PAIRS node pairs."""
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
