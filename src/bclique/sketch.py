"""Deterministic sparse linear sketches over a prime field.

The compression map sends an integer vector v of dimension n to
``sum_i v[i] * xbar**i  mod p``.  With p the smallest prime above
``(1+n)**(2d) * n`` and xbar the smallest evaluation point that separates
all Boolean vectors with at most d ones, the map is linear and invertible
on that domain: a single field element can carry a sparse neighborhood
exactly, and neighborhoods can be edited in compressed form by adding or
subtracting basis encodings.

Decoding walks a support down from its top index: y - powers[top] mod p
encodes the rest.  When ``2**n <= p`` the evaluation point is 2 and the top
is the highest set bit.  Otherwise a table of all C(n, <=d) sparse vectors,
built in weight layers, maps each encoding to its top index; shapes whose
table would exceed ``DEFAULT_TABLE_CAP`` entries raise CapExceeded, and
binary shapes are never capped.
Building it takes about 0.1 s at (n, d) = (112, 3), 0.4 s at (64, 4) and
0.8 s at (200, 3), and the built table holds about 17, 41 and 81 MB
(tracemalloc), on a 2-core host with Python 3.11.  Shapes whose modulus
may exceed ``MAX_MODULUS_BITS`` bits raise CapExceeded before any work, as
the prime search would run for hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

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
    value->top-index decode table (None on binary shapes, where the top
    index is the highest set bit).  The table maps the encoding of each
    support of weight <= d to its largest index, and 0 to -1;
    decode_support recovers the rest of the support from y - powers[top].
    Instances are immutable and safe to share across threads.
    """

    n: int
    d: int
    p: int
    xbar: int
    powers: tuple[int, ...] = field(repr=False)
    domain_size: int = field(repr=False)
    # None on the binary path: xbar == 2 with 2**n <= p, so encodings are
    # plain binary values and the top index of one is its highest set bit.
    _table: dict[int, int] | None = field(repr=False)

    @property
    def p_bits(self) -> int:
        """Bits needed to transmit one field element."""
        return ceil_log2(self.p)

    @property
    def table_entries(self) -> int:
        """Size of the decode table: C(n, <=d), or 0 on the binary path,
        which never builds one."""
        return len(self._table) if self._table is not None else 0


def _injective_at(n: int, d: int, x: int, p: int):
    """Return the value->top-index table if x separates the whole sparse
    Boolean family, or None on the first collision.

    Each encoding maps to the largest index of its support, and the empty
    support's 0 to -1.  Built in weight layers: each weight-w entry extends
    a weight-(w-1) entry (value, top) by one index i above top, so every
    support is reached once, in the lexicographic order of
    itertools.combinations, at the cost of one addition.  The index is a
    small int that the layer loop already holds, so an entry allocates no
    int besides its key.
    """
    powers = [pow(x, i, p) for i in range(n)]
    table = {0: -1}
    layer = [(0, -1)]
    for w in range(1, d + 1):
        grown = []
        for value, top in layer:
            for i in range(top + 1, n):
                s = value + powers[i]
                # an int sum keeps a spare digit; the subtraction allocates
                # an exact-size key, so the table takes no more memory
                s = s - p if s >= p else s - 0
                if s in table:
                    return None
                table[s] = i
                if w < d:
                    grown.append((s, i))
        layer = grown
    return table


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
    """
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
    binary = n < p.bit_length()
    # Binary shapes never build a table: for n >= 2 and d >= 1, x = 0 and
    # x = 1 collide within the first three supports, and x = 2 needs none.
    if not binary:
        _check_table_cap(n, d, domain_size)
    for xbar in range(p):
        if xbar == 2 and binary:
            # encodings are distinct binary numbers below p: injective,
            # and decoding never needs a table
            table = None
            break
        table = _injective_at(n, d, xbar, p)
        if table is not None:
            break
    else:  # impossible by the counting argument above
        raise RuntimeError(f"no separating point below p for n={n}, d={d}")
    powers = tuple(pow(xbar, i, p) for i in range(n))
    return SketchParams(n, d, p, xbar, powers, domain_size, table)


# Protocols share parameter sets per (n, d); building them is deterministic,
# so caching is observationally pure.
cached_params = lru_cache(maxsize=None)(build_params)


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


def decode_support(params: SketchParams, y: FieldElement,
                   expected_weight: int | None = None) -> tuple[int, ...]:
    """Sorted support of the unique Boolean vector of weight <= d encoding
    to y, found without building the dense n-vector.

    Walks the support down from its top index (a binary shape's highest
    set bit, or the table's entry): y - powers[top] mod p encodes the rest.
    The tops must fall, so a value that is no encoding raises NotDecodable,
    never KeyError, and never loops.

    Raises NotDecodable when y is not an int (a float that equals a key
    could walk to a wrong support once a subtraction rounds) or when no
    such vector exists, BadParams when y is an int outside the field and
    WeightMismatch when the vector exists but its weight differs from
    expected_weight.
    """
    if not isinstance(y, int):
        raise NotDecodable(f"{y!r} is not an int")
    if not 0 <= y < params.p:
        raise BadParams(f"field element {y} outside 0..p-1")
    table = params._table
    powers = params.powers
    p = params.p
    support = []
    rest = y
    last = params.n
    while rest:
        top = rest.bit_length() - 1 if table is None else table.get(rest, last)
        if top >= last:
            raise NotDecodable(f"{y} is not a sparse Boolean encoding")
        support.append(top)
        last = top
        rest = (rest - powers[top]) % p
    support.reverse()
    weight = len(support)
    if weight > params.d:
        raise NotDecodable(f"{y} encodes a vector of weight {weight} > d={params.d}")
    if expected_weight is not None and weight != expected_weight:
        raise WeightMismatch(
            f"decoded weight {weight} but {expected_weight} was announced"
        )
    return tuple(support)


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
