"""Undirected simple graphs: representation, generators, and brute-force oracles.

Edges are always normalized as (u, v) with u < v, and plain tuple comparison
on normalized edges is the single total edge order used everywhere (tie-break
order in the spanning-forest oracle, and the "largest edge of a short cycle"
rule that produces the short-cycle-free subgraph).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

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
    """Graph on nodes 0..n-1 stored as one sorted neighbor row per node.

    Build one with from_edges, from_rows, load_graph or gen_graph, which
    all validate their input, so the rows of a Graph they return are
    strictly ascending, in range, free of self ids and symmetric.  The bare
    Graph(n, rows) is trusted and internal: nothing checks its rows, and it
    is only for rows derived from a graph that was already validated.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows) -> "Graph":
        """The graph whose node v has the neighbor row rows[v].

        Each row is checked in node order; the first bad node is named in
        a BadParams.  A row is refused when it is not an iterable of ids (a
        str or bytes row counts as not one), or when it holds an id that is
        not an int (bools included), an id outside 0..n-1 (checked before
        the order, so a row with both faults reports the id), ids that are
        not strictly ascending, or the node's own id.  Then one transpose pass
        refuses rows that are not symmetric, naming the smallest node whose
        row differs from the nodes whose rows hold it.
        """
        rows = tuple(rows)
        n = len(rows)
        checked = []
        for v, row in enumerate(rows):
            if isinstance(row, (str, bytes, bytearray)):
                row = None  # it would iterate into characters or small ints
            try:
                row = tuple(row)
            except TypeError:
                raise BadParams(f"row of node {v} is not a sequence of ids") from None
            for w in row:
                if type(w) is not int:
                    raise BadParams(f"row of node {v} holds id {w!r}, which is not an int")
                if not 0 <= w < n:
                    raise BadParams(f"row of node {v} holds id {w} outside 0..{n - 1}")
            if any(a >= b for a, b in zip(row, row[1:])):
                raise BadParams(f"row of node {v} is not strictly ascending: {row}")
            if v in row:
                raise BadParams(f"row of node {v} holds its own id")
            checked.append(row)
        holders: list[list[int]] = [[] for _ in range(n)]
        for v, row in enumerate(checked):
            for w in row:
                holders[w].append(v)  # ascending, since v is
        for v, row in enumerate(checked):
            if list(row) != holders[v]:
                w = min(set(row).symmetric_difference(holders[v]))
                raise BadParams(f"rows are not symmetric: row of node {v} and row of "
                                f"node {w} disagree on edge {normalize_edge(v, w)}")
        return Graph(n, tuple(checked))

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """The graph on nodes 0..n-1 with the given (u, v) edges, in any
        order and orientation.  The first edge in input order that has an
        endpoint outside 0..n-1, is a self-loop or repeats an earlier edge
        raises InvalidEdge, which names it."""
        edges = list(edges)
        return Graph._from_endpoints(n, [u for u, _ in edges], [v for _, v in edges])

    @staticmethod
    def _from_endpoints(n: int, us: list, vs: list) -> "Graph":
        """from_edges for the edges (us[i], vs[i]).

        The rows are built with no test per edge: an endpoint outside
        -n..n-1, or not an int, fails the row lookup; a negative one in -n..-1
        indexes a row from the end, and the other endpoint's row then
        holds it; a self-loop or a repeated edge puts an id twice in a
        row.  So the sorted rows, checked for a negative first id and for
        a repeat, show whether any edge is bad, and only then does
        _refuse_edges walk the edges in order to name the first.
        """
        if n < 0:
            raise BadParams("node count must be >= 0")
        rows: list[list[int]] = [[] for _ in range(n)]
        try:
            for u, v in zip(us, vs):
                rows[u].append(v)
                rows[v].append(u)
        except (IndexError, TypeError):
            _refuse_edges(n, zip(us, vs))
            raise  # an id that is no index and passes the range test, such as 1.0
        for row in rows:
            row.sort()
        if any(row and (row[0] < 0 or len(set(row)) < len(row)) for row in rows):
            _refuse_edges(n, zip(us, vs))
        return Graph(n, tuple(map(tuple, rows)))

    def edges(self) -> tuple[Edge, ...]:
        """All edges, normalized and already in ascending edge order."""
        return tuple((u, w) for u in range(self.n) for w in self.rows[u] if w > u)

    @cached_property
    def max_degree(self) -> int:
        """Length of the longest row, 0 for no nodes, read once per graph."""
        return max(map(len, self.rows), default=0)


def _refuse_edges(n: int, edges) -> None:
    """Raise InvalidEdge for the first edge, in order, with an endpoint
    outside 0..n-1, a self-loop or a repeat of an earlier edge."""
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


@dataclass(frozen=True, slots=True)
class Ball:
    """Induced subgraph of everything within distance radius of center.

    members is the bitmask of the ball's nodes (bit u set for node u).
    nbrs is the graph's tuple of open-neighborhood masks (bit w of nbrs[u]
    set for each neighbor w of u), shared by every ball of the graph: a
    member's induced row is nbrs[u] & members, so the ball needs no rows of
    its own and no record of which members lie on its rim.

    Balls are built by ball_inputs from a Graph, whose rows from_edges,
    from_rows, load_graph and gen_graph validate, so the induced subgraph
    is symmetric by construction.  A bare Graph(n, rows) is trusted input:
    nothing checks its rows, so raw rows enter through Graph.from_rows.
    """

    center: int
    radius: int
    nbrs: tuple[int, ...]
    members: int


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


def _decimal(field: str) -> int:
    """A plain ASCII decimal integer: an optional '-', then ASCII digits.
    int() alone also takes '1_0', '+1' and non-ASCII digits, which the file
    format does not allow, and str.isdigit() alone takes '²', which int()
    refuses."""
    digits = field[1:] if field[:1] == "-" else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {field!r}")
    return int(field)


def _plain_endpoints(lines: list[str]):
    """(us, vs) of edge lines that are each two unsigned ASCII decimals
    with one space between them and nothing else, as serialize_graph
    writes them, read in bulk: one split of all lines, and one int() per
    distinct id rather than per token.  None when any line has another
    form, for the line-by-line parse, which also names the line at fault.
    """
    if not lines:
        return [], []
    if set(map(str.count, lines, itertools.repeat(" "))) != {1}:
        return None
    # each line holds one space, so its two fields are consecutive tokens;
    # a line that starts or ends with the space leaves an empty one
    tokens = " ".join(lines).split(" ")
    ids = dict.fromkeys(tokens)
    try:
        for token in ids:
            if not (token.isascii() and token.isdigit()):
                return None
            ids[token] = int(token)
    except ValueError:  # past int()'s limit on digits
        return None
    ends = list(map(ids.__getitem__, tokens))
    return ends[0::2], ends[1::2]


def load_graph(text: str) -> Graph:
    """Parse the edge-list format: first payload line is n, then "u v" lines.

    '#' starts a comment, blank lines are skipped, duplicate edges and
    self-loops are rejected.  The first line at fault is named; edges are
    checked only once every line has parsed.
    """
    lines = text.splitlines()
    n = None
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 1:
            raise ParseError(f"line {lineno}: expected a single node count")
        try:
            n = _decimal(fields[0])
        except ValueError:
            raise ParseError(f"line {lineno}: node count is not an integer") from None
        if not 0 <= n <= MAX_NODES:
            raise ParseError(f"line {lineno}: node count must be in 0..{MAX_NODES}")
        break
    if n is None:
        raise ParseError("missing node count line")
    body = lines[lineno:]
    ends = _plain_endpoints(body)
    if ends is None:
        ends = [], []
        for lineno, raw in enumerate(body, start=lineno + 1):
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'u v'")
            try:
                u, v = _decimal(fields[0]), _decimal(fields[1])
            except ValueError:
                raise ParseError(f"line {lineno}: endpoints are not integers") from None
            ends[0].append(u)
            ends[1].append(v)
    return Graph._from_endpoints(n, *ends)


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
    That order is one walk over the rows, node u's ids above u in its
    sorted row, so no edge tuple is built; the walk stops after the row
    that gives the forest n - 1 edges, since no later edge can join two
    trees of a spanning tree.  On the complete graph that is row 0.
    """
    n = g.n
    uf = _UnionFind(n)
    union = uf.union
    forest = []
    for u, row in enumerate(g.rows):
        if len(forest) == n - 1:
            break
        forest += [(u, v) for v in row if v > u and union(u, v)]
    label_of_root: dict[int, int] = {}
    labels = []
    for v in range(n):
        labels.append(label_of_root.setdefault(uf.find(v), v))
    return tuple(labels), tuple(forest)


def core_peel(g: Graph, d: int):
    """Greedy low-degree peel: repeatedly delete the smallest-id node of
    residual degree <= d, recording its residual neighborhood.

    Returns (sequence, remaining).  The remaining set is the maximal
    subgraph of minimum degree > d and does not depend on the peel order.

    The eligible nodes (live, residual degree <= d) are the set bits of one
    int mask, and each step takes the lowest, (mask & -mask).bit_length()
    - 1, with no rescan from node 0.  Residual degrees only fall, so a node
    joins the mask once, at the start or when its degree falls to d.  The
    protocol's peel keeps a heap instead, so the two mechanisms share no
    code.  Each step costs time linear in n for the mask: 1.3-1.9 s for the
    10**5 steps on random_degenerate with n = 10**5 and d = 1 (2-core host,
    Python 3.11); a rescan from node 0 at every step made the whole
    `bclique prune --d 1` command on that graph take about 109 s.
    """
    if d < 0:
        raise BadParams("degree bound must be >= 0")
    adj = [set(row) for row in g.rows]
    live = [True] * g.n
    eligible = 0
    for v, row in enumerate(g.rows):
        if len(row) <= d:
            eligible |= 1 << v
    sequence: list[tuple[int, tuple[int, ...]]] = []
    while eligible:
        lowest = eligible & -eligible
        eligible ^= lowest
        k = lowest.bit_length() - 1
        nbrs = tuple(sorted(adj[k]))
        sequence.append((k, nbrs))
        live[k] = False
        for j in nbrs:
            adj[j].discard(k)
            if len(adj[j]) == d:
                eligible |= 1 << j
        adj[k].clear()
    remaining = tuple(v for v in range(g.n) if live[v])
    return tuple(sequence), remaining


def neighbor_masks(g: Graph) -> tuple[int, ...]:
    """Open neighborhood of every node as a bitmask: bit w of the v-th mask
    is set exactly when w is a neighbor of v."""
    masks = []
    for row in g.rows:
        mask = 0
        for u in row:
            mask |= 1 << u
        masks.append(mask)
    return tuple(masks)


def ball_inputs(g: Graph, r: int) -> list[Ball]:
    """Node inputs of the radius-r model: node v holds its radius-r ball.

    The first pass over the rows builds every node's neighbor mask, which
    all the balls share; each further pass grows every ball at once: the
    members of v within distance k are its members within k - 1, OR-ed with
    those of each neighbor.  The passes stop early once one adds no member
    to any ball, since no later pass can, so a radius far past the diameter
    costs no more than the diameter.  The masks take n bits per ball, n**2
    bits in all, so graphs with more than MAX_PAIRS node pairs (n > 3162)
    are refused before anything is allocated.  r must be an int (bools and
    floats such as 2.0 are refused).
    """
    if type(r) is not int or r < 1:
        raise BadParams(f"radius must be an int >= 1, not {r!r}")
    _check_pairs(g.n)
    rows = g.rows
    nbrs = neighbor_masks(g)
    reach = [mask | 1 << v for v, mask in enumerate(nbrs)]
    for _ in range(r - 1):
        nxt = []
        for v, row in enumerate(rows):
            mask = reach[v]
            for u in row:
                mask |= reach[u]
            nxt.append(mask)
        if nxt == reach:
            break  # no ball grew: each holds its whole component
        reach = nxt
    return [Ball(v, r, nbrs, mask) for v, mask in enumerate(reach)]


def _closes_short_cycle(nbrs, u: int, w: int, hops: int, members: int) -> bool:
    """Whether edge (u, w) is the largest edge of a simple cycle of length
    <= hops + 1 whose nodes all lie in the mask members.

    That holds exactly when u reaches w in at most `hops` steps over edges
    smaller than (u, w) and nodes in members: such a walk contains a simple
    path, which the edge closes into the cycle.  u and w are members, and
    nbrs holds the neighbor mask of every member, symmetric as a validated
    Graph's masks are.

    The search is breadth-first from both ends at once, over masks.  With
    (lo, hi) = sorted((u, w)) and below the mask of the nodes under lo, a
    step from a to b is over an edge smaller than (u, w) exactly when
    b < lo, or a < lo, or a == lo and b < hi.  So lo's first step goes to
    its neighbors under hi and hi's to its neighbors in below; w's is taken
    first, so an edge into a leaf w reads nbrs[w] alone.  From then on, a
    frontier node below lo spreads to its whole mask and one above lo only
    to its mask & below, which leaves out the steps from lo < a < hi back
    onto lo: a path takes such an edge only as its first, out of lo.  Each
    new level keeps the members its own side has not seen, and the side
    with the smaller frontier grows next.  The sides meet within `hops`
    steps in all exactly when the path exists, and the search stops as soon
    as one side adds no node.  The seen masks start as the first steps,
    without u and w: a side reaches the other end only through a node of
    that end's first step, where the sides have met already, and a side
    that steps back onto its own end gains nothing new from it, since an
    end spreads only to its first step.  The last level is only tested
    against the other side, never stored.

    Masks are read for u, w and frontier nodes, all members, so no mask of
    a node outside members is read.
    """
    if hops < 2:
        return False  # a simple cycle has at least three edges
    if u < w:
        lo, hi = u, w
        below = (1 << lo) - 1
        far = nbrs[w] & below & members
        if not far:
            return False
        near = nbrs[u] & ((1 << hi) - 1) & members
    else:
        lo, hi = w, u
        far = nbrs[w] & ((1 << hi) - 1) & members
        if not far:
            return False
        below = (1 << lo) - 1
        near = nbrs[u] & below & members
    if not near:
        return False
    if near & far:
        return True  # a common neighbor closes a triangle
    seen_near, seen_far = near, far
    for left in range(hops - 3, -1, -1):
        if near.bit_count() > far.bit_count():
            near, far, seen_near, seen_far = far, near, seen_far, seen_near
        whole = capped = 0
        while near:
            a = near.bit_length() - 1
            if a < lo:
                whole |= nbrs[a]
            else:
                capped |= nbrs[a]
            near ^= 1 << a
        near = whole | (capped & below)
        if near & seen_far:
            return True
        if not left:
            return False
        near &= members
        near ^= near & seen_near
        if not near:
            return False
        seen_near |= near
    return False


def has_short_cycle(g: Graph, length_bound: int) -> bool:
    """True iff g contains a simple cycle of length <= length_bound.

    Girth BFS from every root, sharing no code with the short-cycle
    searches behind tilde_row_local and tilde_global.  An edge (a, b)
    outside the BFS tree closes a walk of length dist[a] + dist[b] + 1
    through the root, which contains a cycle; from a root on a shortest
    cycle, one such walk is no longer than that cycle.  A node at depth k
    closes no walk shorter than 2k, so the search stops past depth
    length_bound // 2.  A simple graph has no cycle shorter than 3, and
    the search returns False for any bound below 3.
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

    Each edge gets its own plain breadth-first search over g.rows, which
    compares normalized edge tuples and stops on reaching w.  It shares no
    code with the mask search behind tilde_row_local, so the self-check that
    holds the local rows against this graph tests one search by another.
    """
    if r < 1:
        raise BadParams("radius must be >= 1")
    rows = g.rows
    hops = 2 * r - 1

    def closes_short_cycle(u: int, w: int) -> bool:
        top = (u, w)
        seen = {u}
        frontier = [u]
        for _ in range(hops):
            nxt = []
            for a in frontier:
                for b in rows[a]:
                    if b not in seen and normalize_edge(a, b) < top:
                        if b == w:
                            return True
                        seen.add(b)
                        nxt.append(b)
            if not nxt:
                break
            frontier = nxt
        return False

    return Graph.from_edges(g.n, (e for e in g.edges() if not closes_short_cycle(*e)))


def tilde_row_local(b: Ball, *, upper: bool = False) -> tuple[int, ...]:
    """Row of the short-cycle-free subgraph at b's center, computed from
    that node's radius-r ball only.

    Edge (v, u) is dropped exactly when v reaches u in at most 2r-1 steps
    over edges smaller than (v, u), the rule tilde_global applies.  Such a
    walk closes a cycle of length <= 2r through v, and every node of that
    cycle is within distance r of v, so a search confined to the ball's
    members finds it and the row equals tilde_global's without any global
    knowledge.  The row is read off the bits of nbrs[v] in ascending order,
    and the search reads only the masks of ball members, although the ball
    shares the whole graph's mask tuple.

    upper=True decides only the neighbors above the center: the mask of
    nbrs[v] is cut below v + 1, and the result is the full row's part above
    v.  The same argument run from u shows that u's ball also finds such a
    cycle, so both ends of an edge get tilde_global's bit, and a caller that
    holds every ball of one graph can decide each edge once, at its lower
    end, and copy the bit into the upper end's row.
    """
    if b.radius < 1:
        raise BadParams("radius must be >= 1")
    v, nbrs, members = b.center, b.nbrs, b.members
    hops = 2 * b.radius - 1
    row = []
    mask = nbrs[v]
    if upper:
        mask = mask >> (v + 1) << (v + 1)
    while mask:
        low = mask & -mask
        u = low.bit_length() - 1
        mask ^= low
        if not _closes_short_cycle(nbrs, v, u, hops, members):
            row.append(u)
    return tuple(row)


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
    draw = rng.random
    return [(u, v) for u in range(n) for v in range(u + 1, n) if draw() < q]


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


def forest_tight(k: int) -> Graph:
    """A graph on n = cap**k nodes on which spanning_forest_multiround at
    eps = 1/k, whose neighbor cap is then ceil(n**(1/k)) = cap, uses all k
    rounds: the round budget ceil(1/eps) is tight.

    Blocks: Block_1 is a clique of cap + 1 core nodes plus a port joined to
    each of them; Block_j is a hub Block_{j-1} plus cap child Block_{j-1}s,
    the hub's root port joined to each child's root port; the graph joins
    two Block_{k-1}s by one bridge between their root ports, and pads with
    isolated nodes to cap**k.  A clique's address is its place in each
    block, innermost first: a digit 0..cap-1 for child i and cap for the
    hub at each level, then the side of the bridge.  Cliques take their
    core ids in ascending address order and all cores come before all
    ports.  So every port's cap smallest neighbors are cores of its own
    clique, and round 0 merges each Block_1.  A supernode's label is its
    smallest core id, so in round t the cap smallest foreign labels beside
    a hub port are those of its children at level t + 1: round t merges
    exactly the Block_{t+1}s, and the last round announces the bridge
    alone.

    cap is the smallest at which the 2 (cap+1)**(k-2) (cap+2) block nodes
    fit in cap**k; k must be an int >= 2, and a cap**k above MAX_NODES
    raises BadParams before anything is built.
    """
    if type(k) is not int or k < 2:
        raise BadParams(f"forest_tight needs an int k >= 2, not {k!r}")
    if k >= MAX_NODES.bit_length():  # then cap**k >= 2**k > MAX_NODES
        raise BadParams(f"forest_tight with k = {k} needs more than {MAX_NODES} nodes")

    def block_nodes(c):
        return 2 * (c + 1) ** (k - 2) * (c + 2)

    cap = 2
    while block_nodes(cap) > cap**k:
        cap += 1
    n = cap**k
    if n > MAX_NODES:
        raise BadParams(f"forest_tight with k = {k}, cap = {cap} has {n} nodes, "
                        f"more than {MAX_NODES}")
    hub = cap
    # itertools.product yields the addresses in ascending order
    cliques = list(itertools.product(*[range(cap + 1)] * (k - 2), range(2)))
    index = {a: i for i, a in enumerate(cliques)}
    ports = len(cliques) * (cap + 1)
    edges = []
    for i, a in enumerate(cliques):
        core = range(i * (cap + 1), (i + 1) * (cap + 1))
        edges.extend(itertools.combinations(core, 2))
        edges.extend((u, ports + i) for u in core)
        # the first child digit names the level at which a's port is a
        # child's root port, joined to that block's hub root port
        p = next((p for p, digit in enumerate(a[:-1]) if digit != hub), None)
        if p is not None:
            edges.append((ports + i, ports + index[(hub,) * (p + 1) + a[p + 1:]]))
    top = (hub,) * (k - 2)
    edges.append((ports + index[top + (0,)], ports + index[top + (1,)]))
    return Graph.from_edges(n, edges)


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
