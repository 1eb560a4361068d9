"""Set up one workload, time its protocol calls, gate every call on the
oracles and turn the measurements into the benchmark's metrics.

The loop is closed: one caller, and the next call starts only after the
previous one has been checked.  Only the protocol call itself is timed;
``gc.collect()``, the oracle and the digest run between calls, outside the
timer, and GC stays enabled during the call.

Timing metrics are in units of a reference loop.  On a shared 2-core host
the same call takes up to 1.7 times as long while a neighbour is busy, in
spells from under a second to minutes, so raw wall times of identical work
differ by 20-50% between runs.  Two runs of a fixed pure-Python loop,
independent of bclique, are timed before every call, and each call's wall
time is divided by the mean reference time of the calls around it.  A
change to bclique moves the numerator only.  Raw milliseconds stay in the
report.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time

from bclique import protocols, sketch

import tracing
from workloads import Workload, digest_line

SETUP_REPEATS = 5
WINDOW = 2  # calls on each side whose reference times normalise a call
LAYERS = ("protocols", "clique", "graph", "sketch")

END_TO_END = {
    "run_ref.p50": "ref",
    "run_ref.p90": "ref",
    "runs_per_kref": "1/kref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bits_per_node.mean": "bit",
    "rounds.max": "count",
}

# Counts and self times are per protocol call, so runs that fit a different
# number of calls into their time stay comparable.
PER_LAYER = {
    "protocols.peel_from_messages.calls": "count/run",
    "protocols.peel_from_messages.self_s": "s/run",
    "protocols.peel_steps": "count/run",
    "protocols.peel_replays_per_run": "count/run",
    "sketch.decode.calls": "count/run",
    "sketch.decode.self_s": "s/run",
    "sketch.encode_basis.calls": "count/run",
    "sketch.encode.calls": "count/run",
    "sketch.encode.self_s": "s/run",
    "protocols.merge_step.calls": "count/run",
    "protocols.merge_step.self_s": "s/run",
    "protocols.merge_step.calls_per_round": "count/round",
    "clique.run_protocol.self_s": "s/run",
    "graph.tilde_row_local.calls": "count/run",
    "graph.tilde_row_local.self_s": "s/run",
    "graph.components_and_forest.calls": "count/run",
    "graph.components_and_forest.self_s": "s/run",
    "sketch.build_params.s": "s",
    "sketch.table_entries": "count",
    "clique.messages": "count/run",
    "clique.bits_total": "bit/run",
    "trace.overhead_frac": "frac",
    "share.protocols": "frac",
    "share.clique": "frac",
    "share.graph": "frac",
    "share.sketch": "frac",
    "timed.cpu_per_wall": "frac",
}


@dataclass
class Build:
    """How long one setup took, in total and for the sketch parameters, and
    the size of the decode table it built."""

    total_s: float
    params_s: float
    table_entries: int


def build(workload: Workload, seed: int):
    """Set up from scratch: the corpus with its per-node inputs, and the
    sketch parameters.  Clears the parameter cache first, so the protocol's
    own ``cached_params`` lookup then hits this build.  Returns (entries,
    Build)."""
    sketch.cached_params.cache_clear()
    gc.collect()
    t0 = perf_counter()
    entries = workload.entries(seed)
    t1 = perf_counter()
    shape = workload.sketch_shape()
    params = sketch.cached_params(*shape) if shape is not None else None
    t2 = perf_counter()
    table = getattr(params, "_table", None)
    return entries, Build(t2 - t0, t2 - t1 if params is not None else 0.0,
                          len(table) if table else 0)


def _reference() -> int:
    """Fixed pure-Python work, independent of bclique: dict inserts, tuples
    and big-integer arithmetic, as in the protocols."""
    table = {}
    x = 1
    for i in range(6000):
        table[i] = (i, i * 3)
        x = (x * 1000003 + i) % 340282366920938463463374607431768211507
    return sum(v[1] for v in table.values()) + x


def _timed_reference() -> float:
    t0 = perf_counter()
    _reference()
    return perf_counter() - t0


@dataclass
class Outcome:
    """One protocol call: its result or exception, and its times."""

    output: list | None
    transcript: object
    error: BaseException | None
    wall: float
    cpu: float


def _call(workload: Workload, entry) -> Outcome:
    fn = getattr(protocols, workload.function)  # looked up per call: may be a wrapper
    gc.collect()
    c0 = process_time()
    t0 = perf_counter()
    try:
        *output, transcript = fn(entry.inputs, entry.arg)
        error = None
    except Exception as exc:  # a failing call is counted, not fatal
        output, transcript, error = None, None, exc
    t1 = perf_counter()
    c1 = process_time()
    return Outcome(output, transcript, error, t1 - t0, c1 - c0)


@dataclass
class Gate:
    """Oracle answers and per-entry digests, filled as entries are seen."""

    workload: Workload
    entries: list
    oracles: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def check(self, idx: int, out: Outcome) -> str | None:
        """None when the call is correct; otherwise why it is not."""
        if out.error is not None:
            return f"{type(out.error).__name__}: {out.error}"
        entry = self.entries[idx]
        if idx not in self.oracles:
            self.oracles[idx] = self.workload.oracle(entry)
        problem = self.workload.check(entry, self.oracles[idx], out.output, out.transcript)
        if problem is not None:
            return problem
        line = digest_line(self.workload, out.output, out.transcript)
        digest = hashlib.sha256(line.encode()).hexdigest()
        if self.digests.setdefault(idx, digest) != digest:
            return "output or transcript differs from an earlier call on this entry"
        return None

    def corpus_digest(self) -> str:
        """sha256 over the per-entry digests of the whole corpus, in order."""
        joined = "\n".join(self.digests.get(i, "missing") for i in range(len(self.entries)))
        return hashlib.sha256(joined.encode()).hexdigest()


def _merging_rounds(transcript) -> int:
    return sum(1 for rnd in transcript.rounds
               if any(getattr(m.payload, "ids", ()) for m in rnd))


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            max_calls: int | None = None, setup_repeats: int = SETUP_REPEATS):
    """Run one workload; return (result, report, calls, tracer or None).

    result is the benchmark's final JSON object.  Calls cycle through the
    corpus until `seconds` have passed and, untraced, every entry has been
    timed once (or until `max_calls` were made).  The setup is repeated at
    evenly spaced times in that interval.  With `trace`, each call is made
    twice, untraced and traced, alternating which goes first; the run then
    reports the per-layer metrics instead of the end-to-end ones.
    """
    if tracing.wrapped_attributes():
        raise RuntimeError("tracing wrappers are installed outside a traced call")
    tracer = tracing.Tracer() if trace else None
    gate = Gate(workload, [])
    builds: list[Build] = []

    def rebuild():
        gate.entries = None  # free the old corpus before building the next
        gate.entries, timing = build(workload, seed)
        builds.append(timing)

    rebuild()

    attempted = failed = 0
    failures: list[str] = []
    calls = []                          # (entry, wall, mean reference) of untraced calls
    cpu = 0.0
    ok: set[int] = set()                # entries whose every call was correct
    bad: set[int] = set()
    best_traced: dict[int, float] = {}  # entry -> fastest correct traced call
    best_plain: dict[int, float] = {}
    shape: dict[int, tuple] = {}        # entry -> (bits per node, rounds, messages, bits)
    merging_rounds = 0                  # rounds that merged anything, over traced calls

    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if max_calls is not None and attempted >= max_calls:
            break
        if attempted and elapsed >= seconds and (trace or attempted >= len(gate.entries)):
            break
        if len(builds) < setup_repeats and elapsed >= seconds * len(builds) / setup_repeats:
            rebuild()
        idx = attempted % len(gate.entries)
        entry = gate.entries[idx]
        ref = (_timed_reference() + _timed_reference()) / 2
        if tracer is None:
            plain, traced = _call(workload, entry), None
        else:
            tracer.call_id = attempted
            if attempted % 2:
                plain = _call(workload, entry)
            with tracer.installed():
                traced = _call(workload, entry)
            if not attempted % 2:
                plain = _call(workload, entry)
        attempted += 1
        calls.append((idx, plain.wall, ref))
        cpu += plain.cpu
        problem = gate.check(idx, plain)
        if problem is None and traced is not None:
            problem = gate.check(idx, traced)
            if problem is None:
                best_traced[idx] = min(traced.wall, best_traced.get(idx, traced.wall))
                best_plain[idx] = min(plain.wall, best_plain.get(idx, plain.wall))
                merging_rounds += _merging_rounds(traced.transcript)
            else:
                problem = "traced call: " + problem
        if problem is not None:
            failed += 1
            bad.add(idx)
            failures.append(f"entry {idx}: {problem}")
            continue
        ok.add(idx)
        if idx not in shape:
            t = plain.transcript
            shape[idx] = (t.per_node_bits, t.rounds_used,
                          sum(len(rnd) for rnd in t.rounds),
                          sum(m.bits for rnd in t.rounds for m in rnd))
    while len(builds) < setup_repeats:
        rebuild()
    entries = gate.entries

    # Entries the timed loop never reached are still run once, untimed, so
    # the digest always covers the whole corpus.
    unreached_failed = 0
    for idx in range(attempted, len(entries)):
        problem = gate.check(idx, _call(workload, entries[idx]))
        if problem is not None:
            unreached_failed += 1
            failures.append(f"entry {idx} (untimed): {problem}")

    walls = [wall for _, wall, _ in calls]
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": _nproc(),
        "cpu_per_wall": cpu / sum(walls),
        "calls": attempted,
        "corpus": len(entries),
        "wall_ms.p50": statistics.median(walls) * 1000.0,
        "reference_ms.mean": statistics.fmean(r for _, _, r in calls) * 1000.0,
        "setup_s.all": [b.total_s for b in builds],
        "digest": gate.corpus_digest(),
        "failed_frac": failed / attempted,
        "failures": failures[:10],
    }
    if tracer is None:
        metrics = _end_to_end(calls, ok - bad, builds, shape)
    else:
        metrics = _per_layer(tracer, attempted - failed, builds, report["cpu_per_wall"],
                             best_plain, best_traced, shape, merging_rounds)
    result = {
        "correct": failed == 0 and unreached_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report, calls, tracer


def _metric(value, unit):
    return {"value": value, "unit": unit}


def entry_times(calls, good) -> list[float]:
    """Per entry, the median over its calls of wall time divided by the mean
    reference time of the calls within WINDOW on either side."""
    refs = [r for _, _, r in calls]
    per: dict[int, list[float]] = {}
    for i, (idx, wall, _) in enumerate(calls):
        near = refs[max(0, i - WINDOW): i + WINDOW + 1]
        per.setdefault(idx, []).append(wall * len(near) / sum(near))
    return sorted(statistics.median(v) for idx, v in per.items() if idx in good)


def _end_to_end(calls, good, builds, shape):
    times = entry_times(calls, good) or [0.0]  # empty when every call failed
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    mean = statistics.fmean(times)
    values = {
        "run_ref.p50": statistics.median(times),
        "run_ref.p90": p90,
        "runs_per_kref": 1000.0 / mean if mean > 0 else 0.0,
        "setup_s": statistics.median(b.total_s for b in builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
        "bits_per_node.mean": statistics.fmean(v[0] for v in shape.values()) if shape else 0.0,
        "rounds.max": max((v[1] for v in shape.values()), default=0),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def _per_layer(tracer, verified, builds, cpu_per_wall, best_plain, best_traced, shape,
               merging_rounds):
    runs = max(verified, 1)
    totals = tracer.totals()
    values = {}
    for name, (count, self_s) in totals.items():
        values[f"{name}.calls"] = count / runs
        values[f"{name}.self_s"] = self_s / runs
    values["protocols.peel_steps"] = tracer.counts["protocols.peel_steps"] / runs
    values["protocols.peel_replays_per_run"] = totals["protocols.peel_from_messages"][0] / runs
    merge_calls = totals["protocols.merge_step"][0]
    values["protocols.merge_step.calls_per_round"] = (
        merge_calls / merging_rounds if merging_rounds else 0.0)
    values["sketch.build_params.s"] = statistics.median(b.params_s for b in builds)
    values["sketch.table_entries"] = builds[-1].table_entries
    values["clique.messages"] = statistics.fmean(v[2] for v in shape.values()) if shape else 0.0
    values["clique.bits_total"] = statistics.fmean(v[3] for v in shape.values()) if shape else 0.0
    plain = sum(best_plain.values())
    values["trace.overhead_frac"] = (
        sum(best_traced.values()) / plain - 1.0 if plain > 0 else 0.0)
    self_total = sum(s for _, s in totals.values())
    for layer in LAYERS:
        layer_s = sum(s for name, (_, s) in totals.items() if name.split(".")[0] == layer)
        values[f"share.{layer}"] = layer_s / self_total if self_total > 0 else 0.0
    values["timed.cpu_per_wall"] = cpu_per_wall
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}
