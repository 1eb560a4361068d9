"""Self-check suites: protocol runs compared against brute-force oracles on
deterministic seeded graph corpora.  The command line exposes these as
`verify --suite small|full`; the heavier acceptance tests reuse the corpora.

prune_ok, forest_ok and one_round_ok decide whether one protocol run met
its guarantees.  The suites call them on every corpus case, and the protocol
commands of the command line call them for `oracle_agreement`.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from fractions import Fraction

from . import sketch
from .clique import ball_inputs
from .errors import BcliqueError
from .graph import (
    Graph,
    _UnionFind,
    components_and_forest,
    core_peel,
    gen_graph,
    has_short_cycle,
    tilde_global,
    tilde_row_local,
)
from .intmath import ceil_log2
from .protocols import (
    connectivity_one_round_r,
    forest_neighbor_cap,
    forest_round_budget,
    prune_one_round,
    spanning_forest_multiround,
    sparsity_parameter,
)

_KINDS = ("path", "cycle", "star", "complete", "gnp", "random_forest", "random_degenerate")


def protocol_corpus(count: int, sizes, base_seed: int = 0, *,
                    gnp_probs=(0.05, 0.1, 0.2, 0.35, 0.5),
                    complete_cap: int = 16,
                    degenerate_ds=(1, 2, 3)) -> list[tuple[str, Graph]]:
    """Deterministic mixed corpus of `count` seeded graphs."""
    graphs = []
    for idx in range(count):
        rng = random.Random(base_seed * 1_000_003 + idx)
        kind = _KINDS[idx % len(_KINDS)]
        n = rng.choice(list(sizes))
        extras = {}
        if kind == "cycle":
            n = max(n, 3)
        elif kind == "complete":
            n = min(n, complete_cap)
        elif kind == "gnp":
            extras["q"] = rng.choice(list(gnp_probs))
        elif kind == "random_degenerate":
            extras["d"] = rng.choice(list(degenerate_ds))
        g = gen_graph(kind, n, seed=idx, **extras)
        tag = f"{kind}(n={n}, seed={idx}"
        if extras:
            tag += ", " + ", ".join(f"{k}={v}" for k, v in sorted(extras.items()))
        graphs.append((tag + ")", g))
    return graphs


# radius-specific corpora: node counts are capped so the sketch table of the
# sparsity bound s = ceil(n**(1/r)) stays under its cap
ONE_ROUND_SIZES = {
    1: (2, 3, 4, 5, 6, 7, 8, 9, 10),
    2: (4, 5, 7, 9, 12, 16, 20, 25, 30, 33, 36),
    3: (5, 8, 14, 22, 27, 33, 40, 64),
}
_ONE_ROUND_GNP = {1: (0.2, 0.35, 0.5), 2: (0.08, 0.15, 0.3), 3: (0.03, 0.05, 0.08)}
_ONE_ROUND_COMPLETE_CAP = {1: 10, 2: 12, 3: 8}


def one_round_corpus(r: int, count: int, base_seed: int = 0, *,
                     max_n: int | None = None) -> list[tuple[str, Graph]]:
    sizes = ONE_ROUND_SIZES[r]
    if max_n is not None:
        sizes = tuple(n for n in sizes if n <= max_n)
    return protocol_corpus(
        count, sizes, base_seed=base_seed + 7_000 * r,
        gnp_probs=_ONE_ROUND_GNP[r],
        complete_cap=_ONE_ROUND_COMPLETE_CAP[r],
        degenerate_ds=(1, 2),
    )


def forest_is_valid(g: Graph, labels, forest) -> bool:
    """Acyclic, made of real edges, and maximal for the given labeling.

    An edge (u, v) is real when u < v and v is in u's sorted row, found by
    bisection, so the check builds no set of the graph's edges; an edge
    not normalized as (u, v) with u < v is refused."""
    rows = g.rows
    for u, v in forest:
        if not 0 <= u < v < g.n:
            return False
        row = rows[u]
        i = bisect_left(row, v)
        if i == len(row) or row[i] != v:
            return False
    uf = _UnionFind(g.n)
    if any(not uf.union(u, v) for u, v in forest):
        return False  # a repeated union means a cycle
    return len(forest) == g.n - len(set(labels))


def check_sketch_grid(max_n: int, max_d: int, extra_shapes=()):
    """Exhaustive injectivity, round-trip, and size bound over the (n, d)
    grid up to (max_n, max_d) plus `extra_shapes`."""
    collisions = 0
    roundtrip_failures = 0
    size_violations = 0
    grid = [(n, d) for n in range(1, max_n + 1) for d in range(0, min(max_d, n) + 1)]
    for n, d in grid + list(extra_shapes):
        params = sketch.cached_params(n, d)
        if params.p_bits > sketch.sketch_bits_bound(n, d):
            size_violations += 1
        seen = {}
        for support in itertools.chain.from_iterable(
                itertools.combinations(range(n), w) for w in range(d + 1)):
            vec = tuple(1 if i in support else 0 for i in range(n))
            y = sketch.encode(params, vec)
            if y in seen:
                collisions += 1
            seen[y] = vec
            w = len(support)
            try:
                ok = (sketch.decode(params, y, expected_weight=w) == vec
                      and sketch.decode_support(params, y, expected_weight=w) == support
                      and sketch.encode_support(params, support) == y)
            except BcliqueError:
                ok = False
            roundtrip_failures += not ok
    ok = collisions == 0 and roundtrip_failures == 0 and size_violations == 0
    shapes = f" and {list(extra_shapes)}" if extra_shapes else ""
    detail = (f"n<= {max_n}, d<= {max_d}{shapes}: {collisions} collisions, "
              f"{roundtrip_failures} round-trip failures, {size_violations} size violations")
    return ok, detail


def _sketch_message_bound(n: int, d: int) -> int:
    """Analytic bits of one (degree, sketch) message: degree, then sketch."""
    return ceil_log2(n) + sketch.sketch_bits_bound(n, d)


def prune_ok(g: Graph, d: int, result, transcript) -> bool:
    """Whether one prune_one_round run on g at bound d met the paper's
    guarantee: the greedy peel's sequence and survivors, the whole graph
    when nothing survives, one round, and (degree, sketch) messages within
    the analytic bound."""
    seq, remaining = core_peel(g, d)
    ok = (result.sequence == seq
          and result.remaining == remaining
          and transcript.rounds_used == 1
          and transcript.per_node_bits <= _sketch_message_bound(g.n, d))
    if ok and not remaining:
        ok = result.fully_reconstructed and result.reconstructed == g
    return ok


def forest_ok(g: Graph, eps, labels, forest, transcript) -> bool:
    """Whether one spanning_forest_multiround run on g at eps found the
    components and a spanning forest of them within ceil(1/eps) rounds of
    capped neighbor lists, each of at most k = min(cap, longest row) ids,
    cap = ceil(n**eps), since no node announces more ids than its row
    holds.  The id sets are indexed one size class after another, smallest
    first (0, n, 1, n - 1, ...), so for 2k < n every set of at most k ids
    has an index below 2 (C(n, 0) + ... + C(n, k - 1)) + C(n, k), and the
    bound is ceil(log2) of that; for 2k >= n the classes near n / 2 end at
    2**n, and the bound is n.  The count is at most 2 (k + 1) n**k <=
    (n + 1) n**k for 2k < n, so the bound implies the paper-shaped length
    field of ceil(log2(n+1)) bits plus cap * ceil(log2 n) bits for the ids.
    It is computed here by its own binomial recurrence, one step per id
    count below k, without the size table or the message_bits formula that
    sized the messages."""
    eps = Fraction(eps)
    n = g.n
    k = min(forest_neighbor_cap(n, eps), g.max_degree)
    if 2 * k >= n:
        bound = n
    else:
        below, c = 0, 1  # C(n, 0) + ... + C(n, j - 1) and C(n, j), from j = 0
        for j in range(k):
            below += c
            c = c * (n - j) // (j + 1)
        bound = ceil_log2(2 * below + c)
    return (labels == components_and_forest(g)[0]
            and forest_is_valid(g, labels, forest)
            and transcript.rounds_used <= forest_round_budget(eps)
            and transcript.per_node_bits <= bound)


def one_round_ok(g: Graph, r: int, labels, forest, transcript) -> bool:
    """Whether one connectivity_one_round_r run on g at radius r found the
    components and a spanning forest of the short-cycle-free subgraph in one
    round of (degree, sketch) messages within the analytic bound; also checks
    each node's local row, and the degree its message announced, against
    the global subgraph, which must keep the components and have no cycle
    of length <= 2r.  tilde_global finds that subgraph by its own search,
    which shares no code with the one behind tilde_row_local."""
    oracle_labels, _ = components_and_forest(g)
    tilde = tilde_global(g, r)
    local_rows = tuple(map(tilde_row_local, ball_inputs(g, r)))
    s = sparsity_parameter(g.n, r)
    return (labels == oracle_labels
            and transcript.rounds_used == 1
            and transcript.per_node_bits <= _sketch_message_bound(g.n, s)
            and [m.degree for m in transcript.rounds[0]] == list(map(len, tilde.rows))
            and local_rows == tilde.rows
            and components_and_forest(tilde)[0] == oracle_labels
            and forest_is_valid(g, labels, forest)
            and set(forest) <= set(tilde.edges())
            and not has_short_cycle(tilde, 2 * r))


def _check_cases(run, cases):
    """Run run(*args) for every (name, args) case.  A case fails when run
    returns False or raises a BcliqueError, whose class the detail names."""
    failures = []
    total = 0
    for name, args in cases:
        total += 1
        try:
            if run(*args):
                continue
        except BcliqueError as exc:
            name = f"{name}: {type(exc).__name__}"
        failures.append(name)
    return not failures, _detail(total, failures)


def _run_prune(g, d):
    return prune_ok(g, d, *prune_one_round(g, d))


def _run_forest(g, eps):
    return forest_ok(g, eps, *spanning_forest_multiround(g, eps))


def _run_one_round(g, r):
    return one_round_ok(g, r, *connectivity_one_round_r(ball_inputs(g, r), r))


def _detail(total: int, failures: list[str]) -> str:
    if not failures:
        return f"{total} cases ok"
    shown = "; ".join(failures[:5])
    return f"{len(failures)}/{total} cases failed: {shown}"


_SUITES = {
    "small": {
        # the grid reaches the table decode path only at (1, 1); the extra
        # shapes have 2**n > p, so they decode through the table
        "sketch_grid": (8, 2, ((12, 1), (24, 2), (30, 2))),
        "corpus": (14, (2, 3, 4, 6, 8, 12, 16, 24), 100),
        "ds": (0, 1, 2),
        "eps": ("1", "1/2"),
        "one_round": {1: 4, 2: 6},
        "one_round_max_n": None,
    },
    "full": {
        "sketch_grid": (16, 3, ((24, 2), (30, 2), (40, 3))),
        "corpus": (40, (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 63, 64), 200),
        "ds": (0, 1, 2, 3),
        "eps": ("1", "1/2", "1/3"),
        "one_round": {1: 8, 2: 10, 3: 10},
        "one_round_max_n": 40,
    },
}


def run_suite(name: str) -> dict:
    """Run one named suite and return {passed, cases: [{name, ok, detail}]}."""
    if name not in _SUITES:
        raise BcliqueError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    cfg = _SUITES[name]
    cases = []

    ok, detail = check_sketch_grid(*cfg["sketch_grid"])
    cases.append({"name": "sketch_injectivity_roundtrip_size", "ok": ok, "detail": detail})

    count, sizes, seed = cfg["corpus"]
    graphs = protocol_corpus(count, sizes, base_seed=seed)

    # sketch parameters require d <= n
    ok, detail = _check_cases(_run_prune, ((f"{tag} d={d}", (g, d))
                                           for tag, g in graphs for d in cfg["ds"] if d <= g.n))
    cases.append({"name": "prune_matches_core_peel", "ok": ok, "detail": detail})

    ok, detail = _check_cases(_run_forest, ((f"{tag} eps={Fraction(eps)}", (g, Fraction(eps)))
                                            for tag, g in graphs for eps in cfg["eps"]))
    cases.append({"name": "multiround_matches_components", "ok": ok, "detail": detail})

    for r, cnt in sorted(cfg["one_round"].items()):
        corpus = one_round_corpus(r, cnt, base_seed=seed, max_n=cfg["one_round_max_n"])
        ok, detail = _check_cases(_run_one_round, ((f"{tag} r={r}", (g, r)) for tag, g in corpus))
        cases.append({"name": f"one_round_r{r}", "ok": ok, "detail": detail})

    return {"passed": all(c["ok"] for c in cases), "cases": cases}
