"""Deterministic single-broadcast graph protocols with verifiable sketches.

Three synchronous protocols where every node broadcasts one identical
message per round: a multi-round spanning forest, a one-round low-degree
pruning based on sparse linear sketches, and a one-round connectivity
protocol for nodes that see their radius-r neighborhood.  Each comes with
exact bit accounting and a brute-force oracle for its output.
"""

from .clique import (
    DegreeAndSketch,
    Message,
    NeighborList,
    Protocol,
    Transcript,
    adjacency_inputs,
    make_message,
    message_bits,
    pack,
    run_protocol,
    unpack,
)
from .errors import (
    BadParams,
    BcliqueError,
    CapExceeded,
    DegeneracyExceeded,
    InvalidEdge,
    InvalidTranscript,
    NotDecodable,
    ParseError,
    RoundBudgetExceeded,
    UnknownKind,
)
from .graph import (
    Ball,
    Graph,
    ball_inputs,
    components_and_forest,
    core_peel,
    gen_graph,
    has_short_cycle,
    load_graph,
    normalize_edge,
    serialize_graph,
    tilde_global,
    tilde_row_local,
)
from .protocols import (
    PruningResult,
    connectivity_one_round_r,
    peel_from_messages,
    prune_one_round,
    spanning_forest_multiround,
    sparsity_parameter,
)
from .sketch import (
    FieldElement,
    SketchParams,
    build_params,
    cached_params,
    decode,
    decode_support,
    encode,
    encode_basis,
    encode_support,
    smallest_prime_above,
)

__version__ = "0.1.0"
