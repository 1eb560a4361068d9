"""The benchmark's workloads: seeded corpora, the protocol call, the oracle
gate and the canonical record that goes into the output digest.

Each workload is a fixed corpus built with ``gen_graph`` from the workload
seed; the protocol only ever sees the generated per-node inputs.  Every
corpus has at least 100 entries, so the p90 over entries has ten above it,
and sizes are chosen so that one pass takes 15-30 s on a 2-core machine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from bclique import adjacency_inputs, ball_inputs, components_and_forest, core_peel, gen_graph
from bclique.verify import forest_is_valid


def _clog2(x: int) -> int:
    """Smallest b with 2**b >= x, for x >= 1."""
    return (x - 1).bit_length()


def _ceil_pow(n: int, eps: Fraction) -> int:
    """ceil(n**eps) in integers: the smallest c with c**den >= n**num."""
    target = n ** eps.numerator
    c = 1
    while c ** eps.denominator < target:
        c += 1
    return c


def sketch_message_bits(n: int, d: int) -> int:
    """Documented budget of one (degree, sketch) message: ceil(log2 n) bits
    of degree plus a field element of at most 2d*ceil(log2(n+1)) +
    ceil(log2 n) + 2 bits (README; acceptance criterion 2)."""
    return _clog2(n) + 2 * d * _clog2(n + 1) + _clog2(n) + 2


@dataclass(frozen=True)
class Entry:
    """One corpus item: the graph (for the oracle only), the per-node
    inputs the protocol receives, and the protocol's numeric argument."""

    graph: object
    inputs: list
    arg: object


@dataclass(frozen=True)
class Workload:
    name: str
    function: str         # the protocols function that is timed
    n: int
    size: int             # corpus entries per seed

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")

    def entries(self, seed: int) -> list[Entry]:
        raise NotImplementedError

    def sketch_shape(self):
        """(n, d) of the sketch parameters the protocol looks up, or None."""
        return None

    def oracle(self, entry: Entry):
        """Oracle answer for an entry; deterministic, so computed once."""
        return components_and_forest(entry.graph)[0]

    def check(self, entry: Entry, expected, output, transcript) -> str | None:
        """None when the call agrees with the oracle and stays in budget."""
        raise NotImplementedError

    def record(self, output) -> dict:
        raise NotImplementedError


def _labels_forest_record(output) -> dict:
    labels, forest = output
    return {"labels": list(labels), "forest": [list(e) for e in forest]}


class PruneMixed(Workload):
    d = 3
    gnp_q = 0.06

    def entries(self, seed: int) -> list[Entry]:
        rng = self.rng(seed)
        out = []
        for i in range(self.size):
            gseed = rng.randrange(1 << 31)
            # one graph in four is gnp, whose peel stalls on a 4-core; the
            # rest peel to empty, so p50 stays inside the majority mode
            if i % 4 == 3:
                g = gen_graph("gnp", self.n, seed=gseed, q=self.gnp_q)
            else:
                g = gen_graph("random_degenerate", self.n, seed=gseed, d=self.d)
            out.append(Entry(g, adjacency_inputs(g), self.d))
        return out

    def sketch_shape(self):
        return (self.n, self.d)

    def oracle(self, entry):
        return core_peel(entry.graph, entry.arg)

    def check(self, entry, expected, output, transcript):
        (result,) = output
        sequence, remaining = expected
        if result.sequence != sequence or result.remaining != remaining:
            return "peel differs from core_peel"
        if not remaining and not (result.fully_reconstructed
                                  and result.reconstructed == entry.graph):
            return "graph not reconstructed"
        if transcript.rounds_used != 1:
            return f"{transcript.rounds_used} rounds, budget 1"
        budget = sketch_message_bits(self.n, entry.arg)
        if transcript.per_node_bits > budget:
            return f"{transcript.per_node_bits} bits per node, budget {budget}"
        return None

    def record(self, output):
        (r,) = output
        return {"sequence": [[k, list(nbrs)] for k, nbrs in r.sequence],
                "remaining": list(r.remaining),
                "residual_degrees": [list(p) for p in r.residual_degrees],
                "fully_reconstructed": r.fully_reconstructed,
                "reconstructed": None if r.reconstructed is None
                else [list(row) for row in r.reconstructed.rows]}


class ForestGnp(Workload):
    mean_degree = 3
    eps_values = (Fraction(1, 2), Fraction(1, 3))

    def entries(self, seed):
        rng = self.rng(seed)
        q = self.mean_degree / (self.n - 1)
        out = []
        for i in range(self.size):
            g = gen_graph("gnp", self.n, seed=rng.randrange(1 << 31), q=q)
            out.append(Entry(g, adjacency_inputs(g), self.eps_values[i % 2]))
        return out

    def check(self, entry, expected, output, transcript):
        labels, forest = output
        if labels != expected:
            return "labels differ from components_and_forest"
        if not forest_is_valid(entry.graph, labels, forest):
            return "forest is not a valid spanning forest"
        eps = entry.arg
        rounds = -(-eps.denominator // eps.numerator)
        if transcript.rounds_used > rounds:
            return f"{transcript.rounds_used} rounds, budget {rounds}"
        cap = max(1, _ceil_pow(self.n, eps))
        budget = _clog2(self.n + 1) + cap * _clog2(self.n)
        if transcript.per_node_bits > budget:
            return f"{transcript.per_node_bits} bits per node, budget {budget}"
        return None

    def record(self, output):
        return _labels_forest_record(output)


class OneRoundR(Workload):
    r = 3
    q_values = (0.05, 0.06)

    def s(self) -> int:
        return _ceil_pow(self.n, Fraction(1, self.r))

    def entries(self, seed):
        rng = self.rng(seed)
        out = []
        for i in range(self.size):
            q = self.q_values[i % len(self.q_values)]
            g = gen_graph("gnp", self.n, seed=rng.randrange(1 << 31), q=q)
            out.append(Entry(g, ball_inputs(g, self.r), self.r))
        return out

    def sketch_shape(self):
        return (self.n, self.s())

    def check(self, entry, expected, output, transcript):
        labels, forest = output
        if labels != expected:
            return "labels differ from components_and_forest"
        if not forest_is_valid(entry.graph, labels, forest):
            return "forest is not a valid spanning forest"
        if transcript.rounds_used != 1:
            return f"{transcript.rounds_used} rounds, budget 1"
        budget = sketch_message_bits(self.n, self.s())
        if transcript.per_node_bits > budget:
            return f"{transcript.per_node_bits} bits per node, budget {budget}"
        return None

    def record(self, output):
        return _labels_forest_record(output)


WORKLOADS = {w.name: w for w in (
    PruneMixed("prune_mixed", "prune_one_round", n=112, size=100),
    ForestGnp("forest_gnp", "spanning_forest_multiround", n=256, size=100),
    OneRoundR("oneround_r3", "connectivity_one_round_r", n=64, size=120),
)}


def digest_line(workload: Workload, output, transcript) -> str:
    """Canonical JSON of one call's output and transcript."""
    doc = {"output": workload.record(output), "transcript": transcript.to_json_dict()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
