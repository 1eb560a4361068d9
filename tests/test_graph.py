"""Graph representation, file format, generators, and brute-force oracles."""

import math
import re
from typing import NamedTuple

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bclique import graph, verify
from bclique.graph import (
    Ball,
    Graph,
    ball_inputs,
    components_and_forest,
    core_peel,
    gen_graph,
    has_short_cycle,
    load_graph,
    neighbor_masks,
    normalize_edge,
    serialize_graph,
    tilde_global,
    tilde_row_local,
)
from bclique.errors import (
    BadParams,
    InvalidEdge,
    ParseError,
    UnknownKind,
)
from bclique.protocols import sparsity_parameter

from conftest import (
    bfs_component_labels,
    dropped_edges,
    forest_ok,
    girth_leq,
    outcome,
    reference_components_and_forest,
    reference_core_peel,
    reference_from_edges,
    reference_load_graph,
    relabel,
    residual_core,
    seeded_graph,
    short_cycle_top_edges,
    to_nx,
)


graph_indices = st.integers(min_value=0, max_value=400)


# --- file format ---------------------------------------------------------------

def test_load_graph_examples():
    p3 = load_graph("3\n0 1\n1 2\n")
    assert p3 == gen_graph("path", 3)
    isolated = load_graph("2\n")
    assert isolated.n == 2 and isolated.edges() == ()
    with pytest.raises(InvalidEdge):
        load_graph("3\n0 0\n")


def test_load_graph_comments_and_blanks():
    text = "# a path\n\n3  # node count\n0 1\n\n1 2 # last edge\n"
    assert load_graph(text) == gen_graph("path", 3)


@pytest.mark.parametrize("text", ["", "#only comments\n", "x\n", "2 3\n", "3\n0\n", "3\n0 1 2\n", "3\na b\n",
                                  "1_0\n", "3\n+1 2\n", "4\n1 \u0663\n"])
def test_load_graph_parse_errors(text):
    with pytest.raises(ParseError):
        load_graph(text)


@pytest.mark.parametrize("field", ["\u00b2", "\u0661", "\uff11", "-", "--1", "+1", "1_0"])
def test_load_graph_refuses_fields_beyond_ascii_decimals(field):
    # the format takes an optional '-' and ASCII digits; int() also takes
    # '+1', '1_0' and non-ASCII digits, and str.isdigit() takes '²'
    for text in (f"{field}\n", f"3\n0 {field}\n"):
        with pytest.raises(ParseError):
            load_graph(text)


@pytest.mark.parametrize("text", ["3\n0 3\n", "3\n-1 2\n", "3\n0 1\n1 0\n", "3\n1 1\n"])
def test_load_graph_invalid_edges(text):
    with pytest.raises(InvalidEdge):
        load_graph(text)


@st.composite
def edge_files(draw):
    """Edge-list texts near the plain form that load_graph reads in bulk:
    lines of two unsigned ids with one space between them, some out of
    range, self-loops or repeats of an earlier line, and now and then a
    line of another form."""
    n = draw(st.integers(min_value=0, max_value=12))
    ids = st.integers(min_value=0, max_value=n + 1).map(str)
    lines = draw(st.lists(st.tuples(ids, ids).map(" ".join), max_size=30))
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    if draw(st.integers(0, 3)) == 0:
        odd = st.sampled_from(["", "1  2", "1\t2", " 1 2", "1 2 ", "# c", "1 2 # c", "1 2 3", "1",
                               "-1 2", "-0 1", "00 1", "x 1", "1 \u0663", "1 " + "9" * 5000])
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    return "\n".join([str(n), *lines]) + draw(st.sampled_from(["", "\n"]))


@given(edge_files())
@settings(max_examples=400, deadline=None)
def test_load_graph_matches_the_line_by_line_reference(text):
    # the same graph, or the same error naming the same line or edge: the
    # first line at fault, else the first bad edge in input order
    assert outcome(load_graph, text) == outcome(reference_load_graph, text)


@given(st.integers(min_value=0, max_value=8),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=20))
@settings(max_examples=400, deadline=None)
def test_from_edges_matches_the_reference(n, edges):
    # rows built with no test per edge find the same bad edge first
    assert outcome(Graph.from_edges, n, edges) == outcome(reference_from_edges, n, edges)


def test_from_edges_names_the_first_bad_edge_in_input_order():
    for edges, message in (([(0, 1), (2, 1), (1, 2), (3, 3)], "duplicate edge (1, 2)"),
                           ([(0, 1), (3, 3), (1, 0)], "self-loop at node 3"),
                           ([(0, -1), (1, 0), (0, 1)], "edge (0, -1) references"),
                           ([(0, 1), (1, 0), (0, 4)], "duplicate edge (0, 1)"),
                           ([(0, 4), (1, 0), (0, 1)], "edge (0, 4) references")):
        with pytest.raises(InvalidEdge, match=re.escape(message)):
            Graph.from_edges(4, edges)
        with pytest.raises(InvalidEdge, match=re.escape(message)):
            load_graph("4\n" + "".join(f"{u} {v}\n" for u, v in edges))


def test_node_counts_above_the_bound_are_refused(monkeypatch):
    # refused before a row is allocated, so an absurd count costs nothing
    for n in (graph.MAX_NODES + 1, 10**12):
        with pytest.raises(ParseError):
            load_graph(f"{n}\n0 1\n")
        with pytest.raises(BadParams):
            gen_graph("path", n)
    monkeypatch.setattr(graph, "MAX_NODES", 5)
    assert load_graph("5\n").n == gen_graph("cycle", 5).n == 5
    with pytest.raises(ParseError):
        load_graph("6\n")
    with pytest.raises(BadParams):
        gen_graph("cycle", 6)


def test_generators_refuse_quadratic_work_before_drawing(monkeypatch):
    # complete and gnp visit every node pair; above MAX_PAIRS they raise
    # before building a pair or drawing a random number
    for kind, extras in (("complete", {}), ("gnp", {"q": 0.5})):
        for n in (3163, graph.MAX_NODES):
            with pytest.raises(BadParams, match="node pairs"):
                gen_graph(kind, n, **extras)
    assert 3000 * 2999 // 2 <= graph.MAX_PAIRS < 3163 * 3162 // 2
    monkeypatch.setattr(graph, "MAX_PAIRS", 10)
    assert len(gen_graph("complete", 5).edges()) == 10
    with pytest.raises(BadParams):
        gen_graph("complete", 6)
    with pytest.raises(BadParams):
        gen_graph("gnp", 6, q=0.5)


@given(st.text(alphabet="0123456789 -+_.#x\n\r\t\x0b\u0663", max_size=60))
@settings(max_examples=300, deadline=None)
def test_load_graph_fuzz_raises_only_package_errors(text):
    # a lower node bound keeps a long digit run from allocating 10**6 rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "MAX_NODES", 1000)
        try:
            g = load_graph(text)
        except (ParseError, InvalidEdge):
            return
        assert load_graph(serialize_graph(g)) == g


@given(graph_indices)
@settings(max_examples=60, deadline=None)
def test_serialize_round_trip(idx):
    g = seeded_graph(idx)
    assert load_graph(serialize_graph(g)) == g


def test_serialize_is_sorted():
    g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 3)])
    assert serialize_graph(g) == "4\n0 1\n0 3\n2 3\n"


# --- Graph.from_rows -----------------------------------------------------------

@pytest.mark.parametrize("rows, message", [
    ([(0, 1), (0,)], "row of node 0 holds its own id"),
    ([(1,), ()], r"row of node 0 and row of node 1 disagree on edge \(0, 1\)"),
    ([(1, 2, 3), (), (), ()], r"row of node 0 and row of node 1 disagree on edge \(0, 1\)"),
    ([(2, 1), (0,), (0,)], r"row of node 0 is not strictly ascending: \(2, 1\)"),
    ([(1, 1), (0,)], r"row of node 0 is not strictly ascending: \(1, 1\)"),
    ([(1.0,), (0,)], "row of node 0 holds id 1.0, which is not an int"),
    ([(1,), (0,), ("1",)], "row of node 2 holds id '1', which is not an int"),
    ([(1,), (True,)], "row of node 1 holds id True, which is not an int"),
    ([(1,), (0, 2), (1, 2)], "row of node 2 holds its own id"),
    ([(), (2,), ()], r"row of node 1 and row of node 2 disagree on edge \(1, 2\)"),
    ([(), (0,), (1,)], r"row of node 0 and row of node 1 disagree on edge \(0, 1\)"),
    ([(), 5], "row of node 1 is not a sequence of ids"),
    (["", ""], "row of node 0 is not a sequence of ids"),
    ([b"\x01", b"\x00"], "row of node 0 is not a sequence of ids"),
])
def test_from_rows_names_the_first_bad_node(rows, message):
    with pytest.raises(BadParams, match=message):
        Graph.from_rows(rows)


@st.composite
def edge_lists(draw, min_n=0):
    """(n, edges) of a simple graph on at most 9 nodes, each edge in either
    orientation."""
    n = draw(st.integers(min_value=min_n, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, [e if draw(st.booleans()) else e[::-1] for e in edges]


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_from_rows_rebuilds_a_graph_from_its_rows(graph_edges):
    g = Graph.from_edges(*graph_edges)
    assert Graph.from_rows(g.rows) == g
    assert Graph.from_rows([list(row) for row in g.rows]) == g


@given(edge_lists(min_n=1), st.data())
@settings(max_examples=200, deadline=None)
def test_from_rows_refuses_every_one_id_mutation(graph_edges, data):
    # inserting, deleting or replacing one id of one valid row breaks the
    # order, the range, the type, the self rule or the symmetry
    rows = [list(row) for row in Graph.from_edges(*graph_edges).rows]
    n = len(rows)
    row = data.draw(st.sampled_from(rows))
    new_id = data.draw(st.integers(min_value=-2, max_value=n + 1)
                       | st.sampled_from([1.0, "1", True, None]))
    kind = data.draw(st.sampled_from(("insert", "delete", "replace") if row else ("insert",)))
    if kind == "insert":
        row.insert(data.draw(st.integers(min_value=0, max_value=len(row))), new_id)
    else:
        i = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
        if kind == "delete":
            del row[i]
        else:
            assume(not (type(new_id) is int and new_id == row[i]))
            row[i] = new_id
    with pytest.raises(BadParams):
        Graph.from_rows(rows)


# --- components + forest oracle ------------------------------------------------

def test_components_examples():
    labels, forest = components_and_forest(gen_graph("cycle", 4))
    assert labels == (0, 0, 0, 0)
    assert forest == ((0, 1), (0, 3), (1, 2))

    labels, forest = components_and_forest(Graph.from_edges(2, []))
    assert labels == (0, 1) and forest == ()

    labels, forest = components_and_forest(gen_graph("path", 3))
    assert labels == (0, 0, 0) and set(forest) == {(0, 1), (1, 2)}


@given(graph_indices)
@settings(max_examples=80, deadline=None)
def test_components_match_bfs_and_networkx(idx):
    g = seeded_graph(idx)
    labels, forest = components_and_forest(g)
    assert labels == bfs_component_labels(g)
    assert {frozenset(c) for c in nx.connected_components(to_nx(g))} == \
        {frozenset(i for i in range(g.n) if labels[i] == lbl) for lbl in set(labels)}
    assert forest_ok(g, labels, forest)


def _component_cases():
    """Corpus graphs, complete graphs and stars, whose forests span after
    their first row, and gnp graphs in several components."""
    yield from verify.protocol_corpus(40, (1, 2, 5, 9, 16, 30), base_seed=7)
    for n in (1, 2, 3, 10, 60):
        yield f"complete(n={n})", gen_graph("complete", n)
        yield f"star(n={n})", gen_graph("star", n)
    for seed in range(12):
        g = gen_graph("gnp", 80, seed=seed, q=0.02)
        yield f"gnp(n=80, seed={seed}, q=0.02)", g
    yield "edgeless(n=0)", Graph.from_edges(0, [])


def test_components_match_the_all_edges_reference():
    components = 0
    for tag, g in _component_cases():
        labels, forest = components_and_forest(g)
        assert (labels, forest) == reference_components_and_forest(g), tag
        components = max(components, len(set(labels)))
    assert components >= 10  # some gnp graph falls apart, so no early stop


def test_components_stop_once_the_forest_spans():
    # on K_n the forest is row 0's edges, and only row 1 is reached after it
    read = []

    class Rows(tuple):
        def __iter__(self):
            for u, row in enumerate(tuple.__iter__(self)):
                read.append(u)
                yield row

    g = Graph(50, Rows(gen_graph("complete", 50).rows))
    labels, forest = components_and_forest(g)
    assert labels == (0,) * 50 and forest == tuple((0, v) for v in range(1, 50))
    assert read == [0, 1]


def test_max_degree_is_the_longest_row_read_once():
    assert gen_graph("star", 6).max_degree == 5
    assert gen_graph("path", 1).max_degree == 0
    assert Graph.from_edges(0, []).max_degree == 0
    g = gen_graph("gnp", 30, seed=2, q=0.2)
    assert "max_degree" not in vars(g)
    assert g.max_degree == max(len(row) for row in g.rows)
    assert vars(g)["max_degree"] == g.max_degree  # cached on the graph
    assert g == gen_graph("gnp", 30, seed=2, q=0.2)  # the cache is no field


def _forest_is_valid_by_edge_set(g, labels, forest):
    """forest_is_valid as it was, with a set of every edge of g: the
    reference for its bisection."""
    edge_set = frozenset(g.edges())
    if any(e not in edge_set for e in forest):
        return False
    uf = graph._UnionFind(g.n)
    if any(not uf.union(u, v) for u, v in forest):
        return False
    return len(forest) == g.n - len(set(labels))


@given(graph_indices, st.data())
@settings(max_examples=150, deadline=None)
def test_forest_is_valid_matches_the_edge_set_check(idx, data):
    # forests drawn from the real edges, each maybe reversed, plus pairs
    # that are no edge, out of range or repeated
    g = seeded_graph(idx)
    labels, oracle_forest = components_and_forest(g)
    assert verify.forest_is_valid(g, labels, oracle_forest)
    pairs = st.tuples(st.integers(-1, g.n), st.integers(-1, g.n))
    edges = st.sampled_from(g.edges()) if g.edges() else pairs
    flipped = edges.map(lambda e: e[::-1])
    forest = tuple(data.draw(st.lists(st.one_of(edges, flipped, pairs), max_size=g.n + 1)))
    assert (verify.forest_is_valid(g, labels, forest)
            == _forest_is_valid_by_edge_set(g, labels, forest))
    if oracle_forest:  # the same forest with its edges not normalized
        assert not verify.forest_is_valid(g, labels, tuple(e[::-1] for e in oracle_forest))


# --- core peel -------------------------------------------------------------------

def test_core_peel_examples():
    seq, remaining = core_peel(gen_graph("path", 4), 1)
    assert seq == ((0, (1,)), (1, (2,)), (2, (3,)), (3, ()))
    assert remaining == ()

    seq, remaining = core_peel(gen_graph("cycle", 4), 1)
    assert seq == () and remaining == (0, 1, 2, 3)

    seq, remaining = core_peel(gen_graph("cycle", 4), 2)
    assert seq == ((0, (1, 3)), (1, (2,)), (2, (3,)), (3, ()))
    assert remaining == ()


def test_core_peel_rejects_negative_bound():
    with pytest.raises(BadParams):
        core_peel(gen_graph("path", 3), -1)


@given(graph_indices, st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_core_peel_properties(idx, d):
    g = seeded_graph(idx)
    seq, remaining = core_peel(g, d)
    # the surviving set matches the order-free fixpoint oracle
    assert remaining == residual_core(g, d)
    # replay: every peeled node had residual degree <= d, neighborhoods real
    alive = set(range(g.n))
    for k, nbrs in seq:
        assert set(nbrs) == {w for w in g.rows[k] if w in alive}
        assert len(nbrs) <= d
        alive.discard(k)
    assert alive == set(remaining)
    for v in remaining:
        assert sum(1 for w in g.rows[v] if w in alive) > d


@given(graph_indices, st.integers(min_value=0, max_value=2), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_core_peel_remaining_is_permutation_invariant(idx, d, rng):
    g = seeded_graph(idx)
    perm = list(range(g.n))
    rng.shuffle(perm)
    _, remaining = core_peel(g, d)
    _, remaining_perm = core_peel(relabel(g, perm), d)
    assert sorted(perm[v] for v in remaining) == sorted(remaining_perm)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_core_peel_matches_the_rescanning_reference_on_the_corpus(d):
    for tag, g in verify.protocol_corpus(60, (1, 3, 6, 12, 25, 40), base_seed=20 + d):
        assert core_peel(g, d) == reference_core_peel(g, d), tag


@given(graph_indices, st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_core_peel_matches_the_rescanning_reference(idx, d):
    g = seeded_graph(idx)
    assert core_peel(g, d) == reference_core_peel(g, d)


# --- balls ----------------------------------------------------------------------

def mask(nodes) -> int:
    return sum(1 << u for u in nodes)


def bits(m: int) -> tuple[int, ...]:
    return tuple(u for u in range(m.bit_length()) if m >> u & 1)


def induced_row(b: Ball, u: int) -> tuple[int, ...]:
    """Member u's row in b's induced subgraph."""
    return bits(b.nbrs[u] & b.members)


def induced_adj(b: Ball) -> dict[int, tuple[int, ...]]:
    """b's induced subgraph, members in ascending id order."""
    return {u: induced_row(b, u) for u in bits(b.members)}


def test_ball_examples():
    p4 = gen_graph("path", 4)
    balls = ball_inputs(p4, 1)
    b = balls[1]
    assert (b.center, b.radius) == (1, 1) and b.members == mask((0, 1, 2))
    assert b.nbrs == neighbor_masks(p4) == (mask((1,)), mask((0, 2)), mask((1, 3)), mask((2,)))
    assert all(other.nbrs is b.nbrs for other in balls)
    assert induced_adj(b) == {0: (1,), 1: (0, 2), 2: (1,)}

    whole = ball_inputs(p4, 5)[0]  # radius beyond the diameter
    assert whole.members == mask(range(4))
    assert induced_adj(whole) == {v: p4.rows[v] for v in range(4)}
    # passes past the last reached node are skipped, not walked
    assert ball_inputs(p4, 10**12)[0].members == ball_inputs(p4, p4.n)[0].members

    lonely = ball_inputs(Graph.from_edges(3, [(0, 1)]), 3)[2]
    assert (lonely.members, lonely.nbrs[2]) == (mask((2,)), 0)
    assert ball_inputs(Graph.from_edges(0, []), 2) == []


def test_ball_argument_checks():
    g = gen_graph("path", 4)
    with pytest.raises(ValueError):
        ball_inputs(g, 0)
    # the masks take n**2 bits in all, so the node-pair bound of the
    # quadratic generators applies: path 3163 is refused, 3162 is not
    with pytest.raises(BadParams):
        ball_inputs(gen_graph("path", 3163), 2)
    assert len(ball_inputs(gen_graph("path", 3162), 2)) == 3162


@given(graph_indices, st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_ball_matches_networkx_ego(idx, r):
    g = seeded_graph(idx)
    h = to_nx(g)
    for v, b in enumerate(ball_inputs(g, r)):
        ego = nx.ego_graph(h, v, radius=r)
        adj = induced_adj(b)
        assert set(adj) == set(ego.nodes)
        assert {normalize_edge(u, w) for u in adj for w in adj[u]} == \
            {normalize_edge(u, w) for u, w in ego.edges}


def reference_ball(g: Graph, v: int, r: int):
    """The per-node BFS that copied every member's row, which ball_inputs
    replaced.  Returns (adj, rim): each member, in ascending id order, with
    its row filtered to the members, and the members at distance exactly r."""
    if r < 1:
        raise BadParams("radius must be >= 1")
    inside = {v}
    frontier = [v]
    for _ in range(r):
        if not frontier:
            break  # the whole component is in: further levels add nothing
        nxt = []
        for u in frontier:
            for w in g.rows[u]:
                if w not in inside:
                    inside.add(w)
                    nxt.append(w)
        frontier = nxt
    adj = {u: tuple(w for w in g.rows[u] if w in inside) for u in sorted(inside)}
    return adj, set(frontier)


BALL_GRAPHS = [("path", 12, {}), ("cycle", 13, {}), ("star", 9, {}), ("complete", 7, {}),
               ("gnp", 40, {"q": 0.08}), ("gnp", 64, {"q": 0.05}), ("random_forest", 30, {}),
               ("random_degenerate", 40, {"d": 3})]


@pytest.mark.parametrize("kind, n, extras", BALL_GRAPHS, ids=[k for k, _, _ in BALL_GRAPHS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ball_matches_the_copying_reference(kind, n, extras, seed):
    g = gen_graph(kind, n, seed=seed, **extras)
    for r in (1, 2, 3, 4, n, 10**12):
        balls = ball_inputs(g, r)
        assert len(balls) == n
        # every ball shares one tuple of the graph's neighbor masks
        assert balls[0].nbrs == tuple(mask(row) for row in g.rows)
        for v, b in enumerate(balls):
            adj, _ = reference_ball(g, v, r)
            assert (b.center, b.radius) == (v, r)
            assert b.nbrs is balls[0].nbrs
            assert b.members == mask(adj), (v, r)
            assert list(induced_adj(b).items()) == list(adj.items()), (v, r)


# --- short cycles and the pruned subgraph ----------------------------------------

def test_has_short_cycle_examples():
    c4 = gen_graph("cycle", 4)
    assert not has_short_cycle(c4, 3)
    assert has_short_cycle(c4, 4)
    forest = gen_graph("random_forest", 20, seed=3)
    for bound in (3, 4, 5, 6):
        assert not has_short_cycle(forest, bound)
    # a simple graph has no cycle shorter than 3, whatever the bound
    for bound in (-1, 0, 1, 2):
        assert not has_short_cycle(c4, bound)
        assert not has_short_cycle(gen_graph("complete", 5), bound)


@given(graph_indices, st.integers(min_value=3, max_value=6))
@settings(max_examples=80, deadline=None)
def test_has_short_cycle_matches_girth(idx, bound):
    g = seeded_graph(idx)
    assert has_short_cycle(g, bound) == girth_leq(g, bound)


def mutate_short_cycle_search(monkeypatch, extra_hops):
    """Patch the mask search behind tilde_row_local to search
    extra_hops more (or, below 0, fewer) steps than it is asked to."""
    real = graph._closes_short_cycle
    monkeypatch.setattr(graph, "_closes_short_cycle",
                        lambda nbrs, u, w, hops, members:
                        real(nbrs, u, w, hops + extra_hops, members))


def test_verify_catches_a_short_cycle_search_one_hop_short(monkeypatch):
    # the shipped self-check must not trust the search it checks: with the
    # search behind tilde_row_local cut one hop short, the 4-cycle keeps
    # its largest edge (2, 3) in the local rows, while tilde_global, whose
    # own search is untouched, drops it
    mutate_short_cycle_search(monkeypatch, -1)
    c4 = gen_graph("cycle", 4)
    assert dropped_edges(c4, tilde_global(c4, 2)) == {(2, 3)}
    assert tilde_row_local(ball_inputs(c4, 2)[2]) == (1, 3)
    assert verify.run_suite("small")["passed"] is False


def test_verify_catches_a_short_cycle_search_one_hop_long(monkeypatch):
    # one hop too long, the local rows drop the largest edge of a cycle one
    # longer than 2r, which keeps the components and leaves no short cycle;
    # only the comparison with tilde_global's own search sees it
    mutate_short_cycle_search(monkeypatch, 1)
    c5 = gen_graph("cycle", 5)
    assert tilde_global(c5, 2) == c5
    assert tilde_row_local(ball_inputs(c5, 2)[4]) == (0,)
    report = verify.run_suite("small")
    assert report["passed"] is False
    failed = {c["name"] for c in report["cases"] if not c["ok"]}
    assert "one_round_r2" in failed


# Reference for the searches behind both tilde functions: a plain BFS of
# `hops` levels that compares normalized edge tuples and stops on reaching w.
# tilde_global runs the same rule in code of its own; this copy checks both
# it and the mask search behind tilde_row_local.
def reference_closes_short_cycle(adj, u, w, hops):
    top = normalize_edge(u, w)
    seen = {u}
    frontier = [u]
    for _ in range(hops):
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b not in seen and normalize_edge(a, b) < top:
                    if b == w:
                        return True
                    seen.add(b)
                    nxt.append(b)
        if not nxt:
            break
        frontier = nxt
    return False


def reference_row(g: Graph, v: int, r: int) -> tuple[int, ...]:
    """v's short-cycle-free row, searched in reference_ball's copied rows."""
    adj, _ = reference_ball(g, v, r)
    return tuple(u for u in adj[v] if not reference_closes_short_cycle(adj, v, u, 2 * r - 1))


def reference_removed(g: Graph, r: int) -> frozenset:
    return frozenset(e for e in g.edges()
                     if reference_closes_short_cycle(g.rows, *e, 2 * r - 1))


@given(graph_indices, st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_short_cycle_search_matches_reference(idx, r):
    g = seeded_graph(idx)
    assert dropped_edges(g, tilde_global(g, r)) == reference_removed(g, r)
    for v, b in enumerate(ball_inputs(g, r)):
        assert tilde_row_local(b) == reference_row(g, v, r)


def assert_upper_rows_cut_the_full_rows(g: Graph, r: int) -> None:
    """tilde_row_local(b, upper=True), which decides only the neighbors
    above the center, is the full row's part above it at every node."""
    for v, b in enumerate(ball_inputs(g, r)):
        full = tilde_row_local(b)
        assert tilde_row_local(b, upper=True) == tuple(u for u in full if u > v), (v, r)


@given(graph_indices, st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_upper_row_is_the_full_row_above_the_center(idx, r):
    assert_upper_rows_cut_the_full_rows(seeded_graph(idx), r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_upper_row_is_the_full_row_above_the_center_on_the_corpus(r):
    for tag, g in verify.one_round_corpus(r, 14):
        assert_upper_rows_cut_the_full_rows(g, r)


# The row-based search that the mask search replaced, copied whole; only its
# name and the type of its ball changed.  Its ball mode reads radius, members
# and rim, the mask of the members at distance exactly radius.
class RowBall(NamedTuple):
    radius: int
    members: int
    rim: int


def row_closes_short_cycle(rows, u: int, w: int, hops: int, ball: RowBall | None = None) -> bool:
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


@given(graph_indices)
@settings(max_examples=60, deadline=None)
def test_mask_search_matches_the_row_search(idx):
    g = seeded_graph(idx)
    nbrs = neighbor_masks(g)
    everyone = (1 << g.n) - 1
    for u, w in g.edges():
        for a, b in ((u, w), (w, u)):
            for hops in range(10):
                assert graph._closes_short_cycle(nbrs, a, b, hops, everyone) is \
                    row_closes_short_cycle(g.rows, a, b, hops), (a, b, hops)
    for r in range(1, 6):
        for v, ball in enumerate(ball_inputs(g, r)):
            adj, rim = reference_ball(g, v, r)
            induced = [adj.get(x, ()) for x in range(g.n)]
            row_ball = RowBall(r, ball.members, mask(rim))
            for u in adj[v]:
                for hops in range(10):
                    got = graph._closes_short_cycle(nbrs, v, u, hops, ball.members)
                    # on the ball's induced rows the row search stays in the
                    # ball at every hop count, from either end of the edge
                    assert got is row_closes_short_cycle(induced, v, u, hops), (v, u, r, hops)
                    assert graph._closes_short_cycle(nbrs, u, v, hops, ball.members) is \
                        row_closes_short_cycle(induced, u, v, hops), (u, v, r, hops)
                    # its ball mode does too, except at r = 1, where a search
                    # of 3 or more hops may step onto a neighbor of u outside
                    if r > 1 or hops <= 2:
                        assert got is row_closes_short_cycle(g.rows, v, u, hops, row_ball), \
                            (v, u, r, hops)
    for r in range(1, 5):
        assert dropped_edges(g, tilde_global(g, r)) == frozenset(
            e for e in g.edges() if row_closes_short_cycle(g.rows, *e, 2 * r - 1)), r


class _RecordingMasks(tuple):
    """A mask tuple that records every node whose mask is read."""

    def __new__(cls, masks):
        self = super().__new__(cls, masks)
        self.reads = []
        return self

    def __getitem__(self, node):
        self.reads.append(node)
        return super().__getitem__(node)


def recording(b: Ball) -> Ball:
    """b with its shared mask tuple replaced by a recording copy."""
    return Ball(b.center, b.radius, _RecordingMasks(b.nbrs), b.members)


@pytest.mark.parametrize("kind, n", [("star", 1), ("star", 2), ("star", 6),
                                     ("path", 2), ("path", 7)])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_leaf_edges_are_kept_without_a_search(kind, n, r):
    g = gen_graph(kind, n)
    assert tilde_global(g, r) == g
    assert reference_removed(g, r) == frozenset()
    for v, b in enumerate(ball_inputs(g, r)):
        assert tilde_row_local(b) == reference_row(g, v, r) == g.rows[v]
        # an edge into a leaf of the ball reads the leaf's mask and nothing
        # else; at r = 1 no cycle is short enough, so nothing is read
        for u in g.rows[v]:
            if len(induced_row(b, u)) == 1:
                rec = recording(b)
                assert graph._closes_short_cycle(rec.nbrs, v, u, 2 * r - 1, rec.members) is False
                assert rec.nbrs.reads == ([u] if r > 1 else [])


@pytest.mark.parametrize("kind, n, extras", [("gnp", 40, {"q": 0.1}), ("gnp", 64, {"q": 0.05}),
                                             ("cycle", 11, {}), ("complete", 7, {})],
                         ids=["gnp40", "gnp64", "cycle", "complete"])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_local_row_reads_only_ball_members(kind, n, extras, r):
    # a ball shares the whole graph's mask tuple, so the radius-r model rests
    # on the search reading no mask of a node outside the ball
    g = gen_graph(kind, n, seed=3, **extras)
    tilde = tilde_global(g, r)
    for v, b in enumerate(ball_inputs(g, r)):
        rec = recording(b)
        assert tilde_row_local(rec) == tilde.rows[v], (v, r)
        assert rec.nbrs.reads, (v, r)
        assert all(b.members >> u & 1 for u in rec.nbrs.reads), (v, r)


def distances_from(g: Graph, v: int) -> dict[int, int]:
    dist = {v: 0}
    frontier = [v]
    while frontier:
        nxt = []
        for a in frontier:
            for b in g.rows[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return dist


@given(graph_indices, st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=80, deadline=None)
def test_local_row_ignores_edges_beyond_the_ball(idx, r, data):
    # locality: edges with no endpoint within distance r - 1 of v, added or
    # deleted, leave v's short-cycle-free row unchanged
    g = seeded_graph(idx)
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    dist = distances_from(g, v)
    far = [u for u in range(g.n) if dist.get(u, r) >= r]
    if len(far) < 2:
        return
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(far), st.sampled_from(far)),
                               max_size=10))
    toggled = {normalize_edge(a, b) for a, b in pairs if a != b}
    h = Graph.from_edges(g.n, frozenset(g.edges()) ^ toggled)
    row = tilde_row_local(ball_inputs(g, r)[v])
    assert tilde_row_local(ball_inputs(h, r)[v]) == row
    assert row == tilde_global(h, r).rows[v]


def test_short_cycle_search_examples_against_reference():
    # the cycle closes only when its largest edge is tested, from either end
    c5 = gen_graph("cycle", 5)
    nbrs = neighbor_masks(c5)
    for u, w in c5.edges():
        for a, b in ((u, w), (w, u)):
            for hops in range(1, 6):
                expected = (u, w) == (3, 4) and hops >= 4
                assert graph._closes_short_cycle(nbrs, a, b, hops, mask(range(5))) is expected
                assert row_closes_short_cycle(c5.rows, a, b, hops) is expected
                assert reference_closes_short_cycle(c5.rows, a, b, hops) is expected


def test_tilde_examples():
    c4 = gen_graph("cycle", 4)
    tilde = tilde_global(c4, 2)
    assert dropped_edges(c4, tilde) == frozenset({(2, 3)})
    assert tilde.edges() == ((0, 1), (0, 3), (1, 2))

    c5 = gen_graph("cycle", 5)
    assert tilde_global(c5, 2) == c5

    triangle = gen_graph("cycle", 3)
    assert tilde_global(triangle, 1) == triangle


@given(graph_indices, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_tilde_properties(idx, r):
    g = seeded_graph(idx)
    tilde = tilde_global(g, r)
    # a subgraph on the same nodes
    assert tilde.n == g.n
    assert frozenset(tilde.edges()) <= frozenset(g.edges())
    # short-cycle-free at the stated bound
    if 2 * r >= 3:
        assert not girth_leq(tilde, 2 * r)
    # same components
    assert bfs_component_labels(tilde) == bfs_component_labels(g)


@given(graph_indices, st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_tilde_local_rows_match_global(idx, r):
    g = seeded_graph(idx)
    tilde = tilde_global(g, r)
    for v, b in enumerate(ball_inputs(g, r)):
        assert tilde_row_local(b) == tilde.rows[v]


@given(graph_indices, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_tilde_matches_cycle_enumeration(idx, r):
    g = seeded_graph(idx)
    dropped = short_cycle_top_edges(g, 2 * r)
    assert dropped_edges(g, tilde_global(g, r)) == dropped
    for v, b in enumerate(ball_inputs(g, r)):
        row = tuple(u for u in g.rows[v] if tuple(sorted((u, v))) not in dropped)
        assert tilde_row_local(b) == row


def test_tilde_global_beyond_enumeration_scale():
    g = gen_graph("gnp", 200, seed=1, q=0.05)
    tilde = tilde_global(g, 3)
    assert nx.girth(to_nx(tilde)) > 6
    assert components_and_forest(tilde)[0] == components_and_forest(g)[0]


def test_tilde_local_examples():
    c4 = gen_graph("cycle", 4)
    assert tilde_row_local(ball_inputs(c4, 2)[2]) == (1,)
    assert tilde_row_local(ball_inputs(c4, 2)[0]) == (1, 3)
    c5 = gen_graph("cycle", 5)
    assert tilde_row_local(ball_inputs(c5, 2)[0]) == (1, 4)


def test_tilde_local_argument_checks():
    # a radius-0 ball holds its center alone; ball_inputs refuses to build one
    with pytest.raises(BadParams):
        tilde_row_local(Ball(center=0, radius=0, nbrs=(0,), members=1))


def test_degeneracy_bound_at_64_nodes():
    # after removing short cycles the graph peels down at the radius bound
    for r in (1, 2, 3):
        s = sparsity_parameter(64, r)
        for seed in range(6):
            g = gen_graph("gnp", 64, seed=seed, q=0.08)
            tilde = tilde_global(g, r)
            _, remaining = core_peel(tilde, s)
            assert remaining == (), (r, seed)


# --- generators -------------------------------------------------------------------

def test_generator_shapes():
    assert gen_graph("path", 4).edges() == ((0, 1), (1, 2), (2, 3))
    assert gen_graph("cycle", 4).edges() == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert gen_graph("star", 4).edges() == ((0, 1), (0, 2), (0, 3))
    assert gen_graph("complete", 4).edges() == tuple(
        (u, v) for u in range(4) for v in range(u + 1, 4))
    assert gen_graph("path", 1).edges() == ()


def test_generators_are_deterministic():
    for kind, extras in [("gnp", {"q": 0.3}), ("random_forest", {}), ("random_degenerate", {"d": 2})]:
        a = gen_graph(kind, 20, seed=11, **extras)
        b = gen_graph(kind, 20, seed=11, **extras)
        assert a == b
        assert a != gen_graph(kind, 20, seed=12, **extras)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_random_forest_is_acyclic(n, seed):
    g = gen_graph("random_forest", n, seed=seed)
    assert nx.is_forest(to_nx(g))


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=50),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_random_degenerate_peels_empty(n, seed, d):
    g = gen_graph("random_degenerate", n, seed=seed, d=d)
    _, remaining = core_peel(g, d)
    assert remaining == ()


def test_generator_errors():
    with pytest.raises(UnknownKind):
        gen_graph("hypercube", 8)
    with pytest.raises(BadParams):
        gen_graph("cycle", 2)
    with pytest.raises(BadParams):
        gen_graph("gnp", 5, q=1.5)
    with pytest.raises(BadParams):
        gen_graph("random_degenerate", 5)  # d missing
    with pytest.raises(BadParams):
        gen_graph("path", 5, q=0.5)  # parameter not accepted by this kind
    with pytest.raises(BadParams):
        gen_graph("path", -1)
