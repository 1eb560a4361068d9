"""Run one bclique benchmark workload and print its metrics.

    python3 bench/run.py --workload prune_mixed --seed 1 --seconds 30 --trace 0

Run from a checkout: the package is imported from the checkout's ``src/``
and nowhere else.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment, raw wall times, the corpus digest and any
failures.  Both, with every call's (entry, wall time, reference time), are
also written to ``.bench_out/`` in the checkout, next to the span file of a
traced run.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Exit code 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "bclique" / "__init__.py").is_file():
        print(f"bench: no bclique sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bclique
    if not Path(bclique.__file__).resolve().is_relative_to(SRC):
        print(f"bench: bclique was imported from {bclique.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from harness import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, report, calls, tracer = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        report["spans_file"] = f"{stem}.spans.tsv.gz"
        tracer.write(OUT / report["spans_file"])
    (OUT / f"{stem}.json").write_text(
        json.dumps({"report": report, "result": result, "calls": calls}) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
