"""Command line: build or load graphs, run the protocols, check the oracles.

Every command writes one JSON document to stdout.  Exit codes: 0 success,
1 verification failure or any module error (reported in an "error" field),
2 usage problems.  Stdout is byte-identical across repeated invocations;
wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import verify
from .clique import ball_inputs
from .errors import BadParams, BcliqueError, ParseError
from .graph import forest_tight, gen_graph, load_graph, serialize_graph
from .intmath import nth_root_ceil
from .protocols import (
    connectivity_one_round_r,
    forest_neighbor_cap,
    forest_round_budget,
    prune_one_round,
    spanning_forest_multiround,
    sparsity_parameter,
)
from .sketch import cached_params, sketch_bits_bound

SCHEMA_VERSION = 1


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return load_graph(text)


def _parse_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse eps {text!r}") from None
    if not 0 < eps <= 1:
        raise argparse.ArgumentTypeError("eps must be in (0, 1]")
    return eps


def _cmd_params(args) -> tuple[dict, int]:
    params = cached_params(args.n, args.d)
    return {
        "n": args.n,
        "d": args.d,
        "p": str(params.p),
        "xbar": params.xbar,
        "p_bits": params.p_bits,
        "p_bits_bound": sketch_bits_bound(args.n, args.d),
        "domain_size": params.domain_size,
        "table_entries": params.table_entries,
    }, 0


def _cmd_prune(args) -> tuple[dict, int]:
    g = _read_graph(args.graph)
    t0 = time.perf_counter()
    result, transcript = prune_one_round(g, args.d)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    params = cached_params(g.n, args.d)
    return _finish(
        args, "prune_one_round", g, {"d": args.d}, transcript, wall_ms,
        verify.prune_ok(g, args.d, result, transcript),
        labels=None,
        forest=None,
        p=str(params.p),
        xbar=params.xbar,
        sequence=[[node, list(nbrs)] for node, nbrs in result.sequence],
        remaining=list(result.remaining),
        residual_degrees=[[v, deg] for v, deg in result.residual_degrees],
        fully_reconstructed=result.fully_reconstructed,
    )


def _cmd_components(args) -> tuple[dict, int]:
    g = _read_graph(args.graph)
    t0 = time.perf_counter()
    labels, forest, transcript = spanning_forest_multiround(g, args.eps)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return _finish(
        args, "spanning_forest_multiround", g, {"eps": str(args.eps)},
        transcript, wall_ms,
        verify.forest_ok(g, args.eps, labels, forest, transcript),
        labels=list(labels),
        forest=[list(e) for e in forest],
        component_count=len(set(labels)),
        round_budget=forest_round_budget(args.eps),
        neighbor_cap=forest_neighbor_cap(g.n, args.eps),
    )


def _cmd_one_round(args) -> tuple[dict, int]:
    g = _read_graph(args.graph)
    t0 = time.perf_counter()
    # the sketch shape is refused (CapExceeded) before any ball is built
    s = sparsity_parameter(g.n, args.r)
    params = cached_params(g.n, s)
    labels, forest, transcript = connectivity_one_round_r(ball_inputs(g, args.r), args.r)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    # each node sketched its row of the short-cycle-free subgraph
    kept_edges = sum(m.degree for m in transcript.rounds[0]) // 2
    return _finish(
        args, "connectivity_one_round_r", g, {"r": args.r, "s": s},
        transcript, wall_ms,
        verify.one_round_ok(g, args.r, labels, forest, transcript),
        labels=list(labels),
        forest=[list(e) for e in forest],
        p=str(params.p),
        xbar=params.xbar,
        component_count=len(set(labels)),
        removed_edge_count=len(g.edges()) - kept_edges,
    )


def _finish(args, protocol: str, g, parameters: dict, transcript,
            wall_ms: float, agree: bool, **fields) -> tuple[dict, int]:
    """The report of one protocol run.  wall_ms goes to stderr, so repeated
    runs print byte-identical documents."""
    doc = {
        "protocol": protocol,
        "n": g.n,
        "parameters": parameters,
        "rounds_used": transcript.rounds_used,
        "per_node_bits": transcript.per_node_bits,
        "oracle_agreement": agree,
        **fields,
    }
    if args.transcript:
        doc["transcript"] = transcript.to_json_dict()
    print(f"elapsed_ms={wall_ms:.1f}", file=sys.stderr)
    if not agree:
        doc["error"] = {"type": "OracleMismatch",
                        "message": "protocol output disagrees with the brute-force oracle"}
        return doc, 1
    return doc, 0


def _cmd_gen(args) -> tuple[dict, int]:
    extras = {name: getattr(args, name) for name in ("q", "d", "k")
              if getattr(args, name) is not None}
    if args.kind == "forest_tight":
        if args.k is None or set(extras) != {"k"}:
            raise BadParams("forest_tight takes --k K and no other size; "
                            "its node count is cap**k")
        g = forest_tight(args.k)
        extras["cap"] = nth_root_ceil(g.n, args.k)
    elif args.n is None:
        raise BadParams(f"{args.kind} takes --n; --k is for forest_tight")
    else:
        g = gen_graph(args.kind, args.n, seed=args.seed, **extras)
    text = serialize_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return {
        "kind": args.kind,
        "n": g.n,
        "seed": args.seed,
        "extras": extras,
        "edge_count": len(g.edges()),
        "out": args.out,
        "graph": None if args.out else text,
    }, 0


def _cmd_verify(args) -> tuple[dict, int]:
    result = verify.run_suite(args.suite)
    doc = {
        "suite": args.suite,
        "passed": result["passed"],
        "case_count": len(result["cases"]),
        "cases": result["cases"],
    }
    return doc, 0 if result["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bclique",
        description="Deterministic single-broadcast graph protocols with oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print sketch parameters for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_params)

    p = sub.add_parser("prune", help="one-round low-degree pruning")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--transcript", action="store_true", help="embed the full transcript")
    p.set_defaults(handler=_cmd_prune)

    p = sub.add_parser("components", help="multi-round spanning forest")
    p.add_argument("--graph", required=True)
    p.add_argument("--eps", type=_parse_eps, required=True,
                   help="rational in (0,1], e.g. 0.5 or 1/3")
    p.add_argument("--transcript", action="store_true")
    p.set_defaults(handler=_cmd_components)

    p = sub.add_parser("one-round", help="one-round connectivity from radius-r views")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--transcript", action="store_true")
    p.set_defaults(handler=_cmd_one_round)

    p = sub.add_parser("gen", help="write a deterministic test graph")
    p.add_argument("--kind", required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int)
    size.add_argument("--k", type=int, help="rounds for forest_tight, which has cap**k nodes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=float, default=None, help="edge probability for gnp")
    p.add_argument("--d", type=int, default=None, help="back-degree for random_degenerate")
    p.add_argument("--out", default=None, help="output file (default: inline in the report)")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("verify", help="run the oracle-equivalence suites")
    p.add_argument("--suite", choices=("small", "full"), default="small")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        doc, code = args.handler(args)
    except BcliqueError as exc:
        doc, code = {"error": {"type": type(exc).__name__, "message": str(exc)}}, 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit({"schema_version": SCHEMA_VERSION, "command": args.command, **doc})
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
