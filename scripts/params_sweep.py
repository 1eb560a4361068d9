#!/usr/bin/env python3
"""Sweep sketch parameters over an (n, d) grid and report the observed
modulus, evaluation point, and element size against the analytic bound.

Usage:
    python3 scripts/params_sweep.py [--max-n 16] [--max-d 3] [--json]
"""

import argparse
import json

from bclique.protocols import sketch_bits_bound
from bclique.sketch import cached_params


def sweep(max_n: int, max_d: int) -> list[dict]:
    rows = []
    for n in range(1, max_n + 1):
        for d in range(0, min(max_d, n) + 1):
            params = cached_params(n, d)
            rows.append({
                "n": n,
                "d": d,
                "p": str(params.p),
                "xbar": params.xbar,
                "p_bits": params.p_bits,
                "p_bits_bound": sketch_bits_bound(n, d),
                "domain_size": params.domain_size,
            })
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=16)
    ap.add_argument("--max-d", type=int, default=3)
    ap.add_argument("--json", action="store_true", help="emit one JSON document")
    args = ap.parse_args()

    rows = sweep(args.max_n, args.max_d)
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    print(f"{'n':>4} {'d':>3} {'xbar':>5} {'bits':>5} {'bound':>6} {'|domain|':>9}  p")
    for row in rows:
        p = row["p"] if len(row["p"]) <= 24 else row["p"][:21] + "..."
        print(f"{row['n']:>4} {row['d']:>3} {row['xbar']:>5} {row['p_bits']:>5} "
              f"{row['p_bits_bound']:>6} {row['domain_size']:>9}  {p}")


if __name__ == "__main__":
    main()
