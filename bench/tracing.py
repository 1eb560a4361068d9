"""Per-layer spans for the bclique package, recorded from outside it.

The traced run swaps the package's public functions for timing wrappers by
reassigning module attributes.  A protocol finds a function either through a
module (``sketch.decode``) or through a name it imported (``run_protocol`` in
``protocols``); every ``bclique`` module attribute that refers to a target is
swapped, so both routes are covered.  Nothing in the package is edited, and
the wrappers exist only inside ``Tracer.installed()``.

A span's layer is the module that defines the function, so the call of
``tilde_row_local`` made by ``protocols`` is recorded as ``graph.tilde_row_local``.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
from array import array
from time import perf_counter

from bclique import clique, graph, protocols, sketch

# (layer module, function).  The layers are the package modules whose work a
# protocol call consists of; verify, cli and intmath are not timed.
TARGETS = (
    (protocols, "prune_one_round"),
    (protocols, "spanning_forest_multiround"),
    (protocols, "connectivity_one_round_r"),
    (protocols, "peel_from_messages"),
    (protocols, "merge_step"),
    (clique, "run_protocol"),
    (clique, "make_message"),
    (graph, "tilde_row_local"),
    (graph, "components_and_forest"),
    (sketch, "cached_params"),
    (sketch, "encode"),
    (sketch, "encode_basis"),
    (sketch, "decode"),
)

# Counts taken from a span's return value: span name -> (counter, function).
RESULT_COUNTS = {
    "protocols.peel_from_messages": ("protocols.peel_steps", lambda res: len(res.sequence)),
}

_MARK = "__bench_trace_wrapper__"


def span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def _package_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "bclique" or key.startswith("bclique."))]


def wrapped_attributes() -> list[str]:
    """Names of ``bclique`` module attributes that currently hold a wrapper."""
    return [f"{m.__name__}.{key}" for m in _package_modules()
            for key, value in vars(m).items() if getattr(value, _MARK, False)]


class Tracer:
    """Spans and counts of the traced calls, kept in memory until `write`.

    A span is (name, parent span, call id, start, end); spans of one
    protocol call share its call id.  Self time is a span's duration minus
    the time its child spans cover, accumulated per name as spans close.
    """

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {counter: 0 for counter, _ in RESULT_COUNTS.values()}
        self.call_id = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # open spans: [span id, seconds covered by children]
        self._patches = []
        for module, attr in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(span_name(module, attr), original)
            for mod in _package_modules():
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        counter, count = RESULT_COUNTS.get(name, (None, None))
        stack = self._stack
        names, parents, call_ids = self.span_name, self.span_parent, self.span_call
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            call_ids.append(self.call_id)
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                ends[sid] = end
                if stack:
                    stack[-1][1] += duration
                self.self_s[nid] += duration - frame[1]
                self.calls[nid] += 1
            if counter is not None:
                self.counts[counter] += count(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        setattr(traced, _MARK, True)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the body of the ``with`` block only."""
        swapped = 0
        try:
            for mod, key, _, wrapper in self._patches:
                setattr(mod, key, wrapper)
                swapped += 1
            yield self
        finally:
            for mod, key, original, _ in reversed(self._patches[:swapped]):
                setattr(mod, key, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self seconds)."""
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as gzipped tab-separated text, times in seconds
        from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tcall\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                out.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_call[sid]}\t"
                          f"{names[self.span_name[sid]]}\t"
                          f"{self.span_start[sid] - t0:.9f}\t{self.span_end[sid] - t0:.9f}\n")
