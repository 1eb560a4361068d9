"""Deterministic sparse linear sketches over a prime field.

The compression map sends an integer vector v of dimension n to
``sum_i v[i] * xbar**i  mod p``.  With p the smallest prime above
``(1+n)**(2d) * n`` and xbar the smallest evaluation point that separates
all Boolean vectors with at most d ones, the map is linear and invertible
on that domain: a single field element can carry a sparse neighborhood
exactly, and neighborhoods can be edited in compressed form by adding or
subtracting basis encodings.

Decoding walks a support down from its top index: y - powers[top] mod p
encodes the rest.  At xbar = 2 a support whose indices all lie below
``low = min(n, p.bit_length() - 1)`` encodes to its own binary value, so
its top is the highest set bit.  A table, built in weight layers, maps the
encoding of every other support of weight <= d (top index >= low) to its
top.  A binary shape (``2**n <= p``) has low = n and an empty table; at any
other point low is 0 and the table holds every non-empty support.  Shapes
whose family C(n, <=d) exceeds ``DEFAULT_TABLE_CAP`` raise CapExceeded
unless they are binary.
The walk exists once, as the walk of each SketchParams: a closure bound to
its table, powers and modulus when the parameters are built.
decode_support wraps it in the checks of its arguments and of the weight;
the peel calls it directly, once per peeled node of nonzero degree.
Building the table takes about 0.07 s at (n, d) = (112, 3), 0.13 s at
(64, 4) and 0.6 s at (200, 3), and the built table holds about 17, 21 and
84 MB (tracemalloc), on a 2-core host with Python 3.11.  Shapes whose
modulus may exceed ``MAX_MODULUS_BITS`` bits raise CapExceeded before any
work, as the prime search would run for hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import graph
from .errors import (
    BadParams,
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    NotDecodable,
    WeightMismatch,
)
from .intmath import ceil_log2, is_prime

# Field elements are plain unbounded ints, always reduced modulo the owning
# params' p.
FieldElement = int

DEFAULT_TABLE_CAP = 5_000_000

# Largest sketch_bits_bound that build_params accepts; it admits d = n up to
# n = 340.  n = d = 300 (5,411 bits) takes about 47 s, while at n = d = 1000
# one modular exponentiation on a 19,945-bit prime candidate takes 22 s, and
# hundreds of candidates need one (2-core host, Python 3.11).
MAX_MODULUS_BITS = 6144


def sketch_bits_bound(n: int, d: int) -> int:
    """Analytic bound on the bits of one sketch element for (n, d)."""
    return 2 * d * ceil_log2(n + 1) + ceil_log2(n) + 2


def smallest_prime_above(m: int) -> int:
    """Least prime strictly greater than m, for m >= 1."""
    if m < 1:
        raise BadParams("m must be >= 1")
    c = m + 1
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True, slots=True, eq=False)
class SketchParams:
    """Frozen parameters of one sketch: dimension n, sparsity bound d,
    modulus p, evaluation point xbar, and the power table xbar**i mod p.

    Construct through :func:`build_params`, which also builds the
    value->top-index decode table.  Supports with every index below low
    encode to their own binary value (xbar = 2) and are not stored; the
    table maps the encoding of each other support of weight <= d to its
    largest index.  walk, built with the instance, recovers the rest of the
    support from y - powers[top] (see _decode_walk).  Instances are
    immutable and safe to share across threads.
    """

    n: int
    d: int
    p: int
    xbar: int
    powers: tuple[int, ...] = field(repr=False)
    domain_size: int = field(repr=False)
    # 2**low, with low = min(n, p.bit_length() - 1) at xbar == 2 and 0
    # otherwise: a support whose indices all lie below low encodes to its
    # own binary value, below 2**low <= p.  A residue below _binary with at
    # most _binary_ones ones is such a value: _binary_ones is d, or n on a
    # binary shape (low == n), whose table is empty.
    _binary: int = field(repr=False)
    _binary_ones: int = field(repr=False)
    _table: dict[int, int] = field(repr=False)
    # the decode walk, bound once to the fields above (see _decode_walk)
    walk: Callable[[FieldElement], tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "walk", _decode_walk(self))

    @property
    def p_bits(self) -> int:
        """Bits needed to transmit one field element."""
        return ceil_log2(self.p)

    @property
    def table_entries(self) -> int:
        """Entries stored in the decode table: the supports of weight <= d
        with top index >= low, so 0 on a binary shape."""
        return len(self._table)


def _binary_low(n: int, x: int, p: int) -> int:
    """Index bound below which supports encode to plain binary at x."""
    return min(n, p.bit_length() - 1) if x == 2 else 0


def _injective_at(n: int, d: int, x: int, p: int, low: int):
    """Return (table, powers) if x separates the whole sparse Boolean
    family, or None on the first collision: table maps the value of each
    support with top index >= low to that index, and powers is the tuple
    of x**i mod p, computed as a running product.

    low is _binary_low(n, x, p): a support below it encodes to its own
    binary value, which needs no entry.  A stored value therefore collides
    if it is already stored, or if it is below 2**low with at most d ones,
    as it is then the encoding of a binary support; so x is refused exactly
    when the full family collides.  At low = 0 that second test is the
    empty support's 0.

    Built in weight layers: each weight-w support extends a weight-(w-1)
    support (value, top) by one index i above top, so every support is
    reached once, in the lexicographic order of itertools.combinations, at
    the cost of one addition.  Supports of weight below d are all kept as
    sources, but only weight-d supports with top >= low are generated.  The
    index is a small int that the layer loop already holds, so an entry
    allocates no int besides its key.
    """
    table = {}
    powers = [1 % p] * n
    for i in range(1, n):
        powers[i] = powers[i - 1] * x % p
    powers = tuple(powers)
    if low >= n:
        # every support is binary: distinct values below 2**n <= p
        return table, powers
    binary = 1 << low
    layer = [(0, -1)]
    for w in range(1, d + 1):
        grown = []
        for value, top in layer:
            if w < d:
                # binary supports, kept only as sources: their values are
                # plain sums below 2**low
                grown += [(value + powers[i], i) for i in range(top + 1, low)]
            for i in range(max(top + 1, low), n):
                s = value + powers[i]
                # an int sum keeps a spare digit; the subtraction allocates
                # an exact-size key, so the table takes no more memory
                s = s - p if s >= p else s - 0
                if s in table or (s < binary and s.bit_count() <= d):
                    return None
                table[s] = i
                if w < d:
                    grown.append((s, i))
        layer = grown
    return table, powers


def _check_table_cap(n: int, d: int, domain_size: int) -> None:
    if domain_size > DEFAULT_TABLE_CAP:
        raise CapExceeded(
            f"{domain_size} sparse vectors exceed the table cap {DEFAULT_TABLE_CAP} "
            f"for n={n}, d={d}"
        )


def build_params(n: int, d: int) -> SketchParams:
    """Derive (p, xbar, powers) for dimension n and sparsity bound d.

    p is the smallest prime above (1+n)**(2d) * n and xbar the smallest
    evaluation point under which all Boolean vectors of weight <= d map to
    distinct field elements.  The search always terminates: the number of
    pairwise difference polynomials times their degree stays below p.
    n and d must be ints (bools and floats such as 2.0 are refused).
    """
    if type(n) is not int or type(d) is not int:
        raise BadParams(f"n and d must be ints, not {n!r} and {d!r}")
    if n < 1:
        raise BadParams("n must be >= 1")
    if n > graph.MAX_NODES:
        # refused before the prime search or the domain count allocates
        raise BadParams(f"n must be <= {graph.MAX_NODES}")
    if not 0 <= d <= n:
        raise BadParams("d must satisfy 0 <= d <= n")
    bound = sketch_bits_bound(n, d)
    if bound > MAX_MODULUS_BITS:
        # refused before the domain count and the prime search
        raise CapExceeded(f"the modulus for n={n}, d={d} may take {bound} bits, "
                          f"more than the bound {MAX_MODULUS_BITS}")
    domain_size = sum(math.comb(n, w) for w in range(d + 1))
    m = (1 + n) ** (2 * d) * n
    # 2**n <= p exactly when n < p.bit_length(); comparing bit lengths
    # never builds 2**n.  p, the least prime above m, is below 2m, so a
    # shape with n > m.bit_length() is not binary, and its table is refused
    # before the prime search, which took 52 s at (20000, 142) on a 2-core
    # host.
    if n > m.bit_length():
        _check_table_cap(n, d, domain_size)
    p = smallest_prime_above(m)
    # Binary shapes store no table entries and are never capped: for
    # n >= 2 and d >= 1, x = 0 and x = 1 collide within the first three
    # supports, and x = 2 has low = n.
    if n >= p.bit_length():
        _check_table_cap(n, d, domain_size)
    for xbar in range(p):
        low = _binary_low(n, xbar, p)
        found = _injective_at(n, d, xbar, p, low)
        if found is not None:
            break
    else:  # impossible by the counting argument above
        raise RuntimeError(f"no separating point below p for n={n}, d={d}")
    table, powers = found
    return SketchParams(n, d, p, xbar, powers, domain_size,
                        1 << low, d if low < n else n, table)


# Protocols share parameter sets per (n, d); building them is deterministic,
# so caching is observationally pure.  typed=True keys on the argument types
# too: 2.0 and True hash and compare equal to 2 and 1, so an untyped cache
# would return the int shape's parameters for them once that shape is
# cached, while build_params refuses them on a cold cache.  Keyed by type,
# they always reach build_params, and a refusal is never cached.
cached_params = lru_cache(maxsize=None, typed=True)(build_params)


def encode(params: SketchParams, v: Sequence[int]) -> FieldElement:
    """Compress an integer n-vector to one field element.

    Linear: encode(u + v) == (encode(u) + encode(v)) mod p, exactly.
    """
    if len(v) != params.n:
        raise DimensionMismatch(f"expected dimension {params.n}, got {len(v)}")
    return sum(c * w for c, w in zip(v, params.powers) if c) % params.p


def encode_support(params: SketchParams, support: Iterable[int]) -> FieldElement:
    """Encoding of the Boolean vector whose ones sit at `support`: the sum of
    powers[i] mod p, equal to encode on the dense vector and O(len(support)).

    Raises IndexOutOfRange for an index outside 0..n-1; a negative index
    must not wrap around to the end of the power table.
    """
    n = params.n
    powers = params.powers
    total = 0
    for i in support:
        if not 0 <= i < n:
            raise IndexOutOfRange(f"support index {i} outside 0..{n - 1}")
        total += powers[i]
    return total % params.p


def encode_basis(params: SketchParams, k: int) -> FieldElement:
    """Encoding of the k-th standard basis vector (just powers[k])."""
    if not 0 <= k < params.n:
        raise IndexOutOfRange(f"basis index {k} outside 0..{params.n - 1}")
    return params.powers[k]


def _decode_walk(params: SketchParams):
    """The top-down decode walk of params, built once per SketchParams as
    its walk: a function from a field element y to the ascending support of
    a Boolean vector that encodes to y, the unique one when its weight is
    at most d.

    y - powers[top] mod p encodes the rest of the support.  A residue below
    2**low with at most _binary_ones ones is the binary encoding of a
    support below low, whose top is its highest set bit; on a binary shape
    (low = n, nothing stored) every residue below 2**n is.  Any other
    residue's top is the table's entry.  The tops must fall, so a value
    that is no encoding raises NotDecodable, never KeyError, and never
    loops; so does a y that is not an int, as a float that equals a key
    could walk to a wrong support once a subtraction rounds.  The walk
    checks neither the range of y nor the weight against d: decode_support
    and the peel do that.
    """
    get = params._table.get
    powers = params.powers
    p = params.p
    n = params.n
    binary = params._binary
    ones = params._binary_ones

    def walk(y: FieldElement) -> tuple[int, ...]:
        if not isinstance(y, int):
            raise NotDecodable(f"{y!r} is not an int")
        support = []
        rest = y
        last = n
        while rest:
            if rest < binary and rest.bit_count() <= ones:
                top = rest.bit_length() - 1
            else:
                top = get(rest, last)
            if top >= last:
                raise NotDecodable(f"{y} is not a sparse Boolean encoding")
            support.append(top)
            last = top
            rest = (rest - powers[top]) % p
        support.reverse()
        return tuple(support)

    return walk


def decode_support(params: SketchParams, y: FieldElement,
                   expected_weight: int | None = None) -> tuple[int, ...]:
    """Sorted support of the unique Boolean vector of weight <= d encoding
    to y, found without building the dense n-vector: params.walk(y), the
    top-down walk of _decode_walk, between the checks of its arguments and
    of the weight.

    Raises NotDecodable when y is not an int (a float that equals a key
    could walk to a wrong support once a subtraction rounds) or when no
    such vector exists, BadParams when y is an int outside the field and
    WeightMismatch when the vector exists but its weight differs from
    expected_weight.
    """
    # a y that is not an int is refused by the walk, as NotDecodable
    if isinstance(y, int) and not 0 <= y < params.p:
        raise BadParams(f"field element {y} outside 0..p-1")
    support = params.walk(y)
    weight = len(support)
    if weight > params.d:
        raise NotDecodable(f"{y} encodes a vector of weight {weight} > d={params.d}")
    if expected_weight is not None and weight != expected_weight:
        raise WeightMismatch(
            f"decoded weight {weight} but {expected_weight} was announced"
        )
    return support


def decode(params: SketchParams, y: FieldElement,
           expected_weight: int | None = None) -> tuple[int, ...]:
    """Recover the unique Boolean vector of weight <= d encoding to y, as a
    dense n-tuple of 0/1 entries.

    Raises what decode_support raises.
    """
    bits = [0] * params.n
    for i in decode_support(params, y, expected_weight):
        bits[i] = 1
    return tuple(bits)
