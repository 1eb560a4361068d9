"""Sketch map: prime search, parameter derivation, encode/decode laws."""

import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bclique import graph, intmath, sketch, verify
from bclique.errors import (
    BadParams,
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    NotDecodable,
    WeightMismatch,
)
from bclique.intmath import ceil_log2, is_prime, nth_root_ceil, pow_ceil
from bclique.sketch import (
    DEFAULT_TABLE_CAP,
    build_params,
    cached_params,
    decode,
    decode_support,
    encode,
    encode_basis,
    encode_support,
    smallest_prime_above,
)

from conftest import enumerated_table, enumerated_tops, is_binary_shape, reference_decode_support


# --- independent oracles -----------------------------------------------------

def next_prime_trial_division(m: int) -> int:
    """Trial division over 2..floor(sqrt(k)), the brute-force reference."""
    k = m + 1
    while True:
        if k >= 2 and all(k % q for q in range(2, int(k**0.5) + 1)):
            return k
        k += 1


def naive_sparse_vectors(n: int, d: int):
    for w in range(d + 1):
        for support in itertools.combinations(range(n), w):
            yield tuple(1 if i in support else 0 for i in range(n))


def naive_xbar(n: int, d: int, p: int) -> int:
    """Smallest x whose evaluation map separates the sparse Boolean family,
    found by direct pairwise comparison."""
    vectors = list(naive_sparse_vectors(n, d))
    for x in range(p):
        values = [sum(b[i] * x**i for i in range(n)) % p for b in vectors]
        if len(set(values)) == len(values):
            return x
    raise AssertionError("no separating point found")


# --- smallest_prime_above ----------------------------------------------------

@pytest.mark.parametrize("m, expected", [(1, 2), (18, 19), (100, 101), (2, 3), (2500, 2503)])
def test_smallest_prime_above_examples(m, expected):
    assert smallest_prime_above(m) == expected
    assert next_prime_trial_division(m) == expected


@given(st.integers(min_value=1, max_value=50_000))
@settings(max_examples=200)
def test_smallest_prime_above_matches_trial_division(m):
    assert smallest_prime_above(m) == next_prime_trial_division(m)


@pytest.mark.parametrize("n", [10, 17, 25, 32, 40])
def test_smallest_prime_above_matches_sympy_on_full_degree_moduli(n):
    # the moduli of full-degree shapes lie far above 2**12, so is_prime
    # screens each candidate with its gcd filter before Miller-Rabin
    m = (1 + n) ** (2 * n) * n
    assert smallest_prime_above(m) == sympy.nextprime(m)


def test_smallest_prime_above_rejects_zero():
    with pytest.raises(BadParams):
        smallest_prime_above(0)


def test_is_prime_matches_sympy_at_scale():
    rng = random.Random(20240811)
    for _ in range(120):
        k = rng.randrange(2, 10**6)
        assert is_prime(k) == sympy.isprime(k), k
    # beyond the proven Miller-Rabin bound the extended base set must agree too
    for _ in range(25):
        k = rng.randrange(10**25, 10**26)
        assert is_prime(k) == sympy.isprime(k), k


def test_is_prime_matches_trial_division_across_the_lookup_bound():
    # -5..10,000 covers the set lookup below 2**12 and the gcd filter above
    for k in range(-5, 10_001):
        expected = k >= 2 and all(k % q for q in range(2, int(k**0.5) + 1))
        assert is_prime(k) == expected, k


def test_is_prime_rules_out_small_factors_without_miller_rabin(monkeypatch):
    def no_miller_rabin(k, base):
        raise AssertionError(f"Miller-Rabin ran on {k}")

    monkeypatch.setattr(intmath, "_strong_probable_prime", no_miller_rabin)
    # 4091 and 4093 are the two largest primes below 2**12; 2**12 + 1 is
    # 17 * 241
    assert not is_prime(4091 * 4093)
    assert not is_prime(2**12 + 1)


def _least_power_at_least(x, k):
    s = 0
    while s**k < x:
        s += 1
    return s


def test_integer_roots_match_brute_force():
    # k runs past x.bit_length(), where the answer is 2 for every x >= 2
    for x in range(70):
        for k in range(1, 10):
            assert nth_root_ceil(x, k) == _least_power_at_least(x, k), (x, k)
    for base in range(12):
        for num in range(4):
            for den in range(1, 6):
                assert pow_ceil(base, Fraction(num, den)) == \
                    _least_power_at_least(base**num, den), (base, num, den)


def test_integer_roots_of_huge_order_are_immediate():
    assert nth_root_ceil(10**6, 10**12) == 2
    assert nth_root_ceil(1, 10**12) == 1 and nth_root_ceil(0, 10**12) == 0
    assert pow_ceil(40, Fraction(1, 10**12)) == 2


# --- build_params ------------------------------------------------------------

@pytest.mark.parametrize("n, d, p, xbar", [(2, 1, 19, 2), (4, 1, 101, 2), (4, 2, 2503, 2)])
def test_build_params_examples(n, d, p, xbar):
    params = build_params(n, d)
    assert (params.p, params.xbar) == (p, xbar)
    assert repr(params) == f"SketchParams(n={n}, d={d}, p={p}, xbar={xbar})"
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.p = 7
    assert params.powers == tuple(pow(xbar, i, p) for i in range(n))


def test_build_params_matches_naive_oracle():
    for n in range(1, 7):
        for d in range(0, min(n, 2) + 1):
            params = build_params(n, d)
            assert params.p == next_prime_trial_division((1 + n) ** (2 * d) * n)
            assert params.xbar == naive_xbar(n, d, params.p)


def test_build_params_encode_value_sets():
    params = build_params(2, 1)
    values = {encode(params, b) for b in naive_sparse_vectors(2, 1)}
    assert values == {0, 1, 2}
    params = build_params(4, 1)
    values = {encode(params, b) for b in naive_sparse_vectors(4, 1)}
    assert values == {0, 1, 2, 4, 8}


def test_build_params_is_deterministic():
    a = build_params(9, 2)
    b = build_params(9, 2)
    assert (a.p, a.xbar, a.powers) == (b.p, b.xbar, b.powers)
    assert cached_params(9, 2) is cached_params(9, 2)


def test_build_params_cap_exceeded():
    # table shapes: 2**n > p, and the cap counts the whole C(n, <=d) family
    with pytest.raises(CapExceeded):
        build_params(200, 4)


@pytest.mark.parametrize("n, d", [(200, 4), (20000, 142)])
def test_build_params_refuses_the_table_before_the_prime_search(monkeypatch, n, d):
    # p < 2 * (1+n)**(2d) * n, so n past that bound's bit length settles
    # 2**n > p without p; (20000, 142) would search primes for about 50 s
    def no_prime_search(m):
        raise AssertionError("prime search reached")
    monkeypatch.setattr(sketch, "smallest_prime_above", no_prime_search)
    with pytest.raises(CapExceeded, match="table cap"):
        build_params(n, d)


@pytest.mark.parametrize("n, d, cap", [(64, 8, DEFAULT_TABLE_CAP),
                                       (100, 10, DEFAULT_TABLE_CAP),
                                       (64, 5, DEFAULT_TABLE_CAP)])
def test_build_params_cap_spares_binary_shapes(n, d, cap):
    # 2**n <= p: encodings are binary numbers and the table stores nothing,
    # so the domain size may exceed the cap
    params = build_params(n, d)
    assert params.domain_size > cap
    assert params.table_entries == 0 and params.xbar == 2
    support = tuple(range(0, n, n // d))[:d]
    assert decode_support(params, encode_support(params, support)) == support


def test_build_params_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_params(0, 0)
    with pytest.raises(ValueError):
        build_params(4, 5)
    with pytest.raises(ValueError):
        build_params(4, -1)


def test_build_params_refuses_n_above_max_nodes(monkeypatch):
    # refused before the prime search, so no power of n is ever built
    def no_prime_search(m):
        raise AssertionError("prime search reached")
    monkeypatch.setattr(sketch, "smallest_prime_above", no_prime_search)
    with pytest.raises(BadParams, match="n must be <="):
        build_params(graph.MAX_NODES + 1, 1)


@pytest.mark.parametrize("n", [341, 10**5])
def test_build_params_refuses_moduli_above_the_bound(monkeypatch, n):
    # full-degree shapes past the bound would take minutes to hours in the
    # domain count and the prime search; both come after the refusal
    def no_prime_search(m):
        raise AssertionError("prime search reached")
    monkeypatch.setattr(sketch, "smallest_prime_above", no_prime_search)
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match="more than the bound"):
        build_params(n, n)
    assert time.perf_counter() - t0 < 1.0


def test_modulus_bound_admits_full_degree_up_to_340(monkeypatch):
    assert sketch.sketch_bits_bound(300, 300) == 5411
    assert sketch.sketch_bits_bound(340, 340) <= sketch.MAX_MODULUS_BITS
    assert sketch.sketch_bits_bound(341, 341) > sketch.MAX_MODULUS_BITS

    # (340, 340) passes the check and reaches the prime search, stopped here
    class Reached(Exception):
        pass

    def stop(m):
        raise Reached
    monkeypatch.setattr(sketch, "smallest_prime_above", stop)
    with pytest.raises(Reached):
        build_params(340, 340)


def test_binary_shape_bit_length_test_matches_the_shift():
    # 2**n > p exactly when n >= p.bit_length(), and y >= 2**n exactly when
    # y.bit_length() > n; build_params and decode_support use the bit
    # lengths, which never build 2**n
    for n in range(1, 65):
        for d in range(min(n, 3) + 1):
            p = smallest_prime_above((1 + n) ** (2 * d) * n)
            assert ((1 << n) > p) == (n >= p.bit_length()), (n, d)
            for y in ((1 << n) - 1, 1 << n, (1 << n) + 1, p - 1):
                assert (y >= (1 << n)) == (y.bit_length() > n), (n, y)
            if n >= 2 and d >= 1:
                # table shapes are exactly the ones the shift calls non-binary
                params = cached_params(n, d)
                assert (params.table_entries != 0) == ((1 << n) > p), (n, d)
                if params.table_entries == 0:
                    # the least field element with a bit at index n or above
                    with pytest.raises(NotDecodable):
                        decode_support(params, 1 << n)


def test_degenerate_parameters():
    # d = 0: only the zero vector is decodable
    params = build_params(5, 0)
    assert params.xbar == 0
    assert decode(params, 0) == (0, 0, 0, 0, 0)
    assert decode(params, 0, expected_weight=0) == (0, 0, 0, 0, 0)
    # n = 1 admits x = 0 because the constant term already separates
    params = build_params(1, 1)
    assert params.xbar == 0
    assert decode(params, encode(params, (1,))) == (1,)


# --- encode ------------------------------------------------------------------

def test_encode_examples():
    params = cached_params(4, 1)
    assert encode(params, (0, 0, 0, 0)) == 0
    assert encode(params, (0, 0, 1, 0)) == 4
    assert encode(params, (1, 0, 1, 0)) == 5


def test_encode_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        encode(cached_params(4, 1), (1, 0, 0))


def test_encode_accepts_negative_entries():
    params = cached_params(4, 1)
    assert encode(params, (-1, 0, 0, 0)) == (params.p - 1)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_encode_linearity(data):
    n = data.draw(st.integers(min_value=1, max_value=10), label="n")
    d = data.draw(st.integers(min_value=0, max_value=min(n, 2)), label="d")
    params = cached_params(n, d)
    entries = st.integers(min_value=-n, max_value=n)
    u = data.draw(st.lists(entries, min_size=n, max_size=n), label="u")
    v = data.draw(st.lists(entries, min_size=n, max_size=n), label="v")
    total = [a + b for a, b in zip(u, v)]
    diff = [a - b for a, b in zip(u, v)]
    assert encode(params, total) == (encode(params, u) + encode(params, v)) % params.p
    assert encode(params, diff) == (encode(params, u) - encode(params, v)) % params.p


# --- encode_support -----------------------------------------------------------

def test_encode_support_rejects_out_of_range_indices():
    params = cached_params(4, 1)
    for bad in (-1, 4):
        with pytest.raises(IndexOutOfRange):
            encode_support(params, (0, bad))
    assert encode_support(params, ()) == 0


# --- encode_basis ------------------------------------------------------------

def test_encode_basis_examples():
    assert encode_basis(cached_params(4, 1), 0) == 1
    assert encode_basis(cached_params(4, 1), 3) == 8
    assert encode_basis(cached_params(2, 1), 1) == 2


def test_encode_basis_out_of_range():
    with pytest.raises(IndexOutOfRange):
        encode_basis(cached_params(4, 1), 4)
    with pytest.raises(IndexOutOfRange):
        encode_basis(cached_params(4, 1), -1)


def test_encode_basis_matches_encode():
    params = cached_params(6, 2)
    for k in range(6):
        e_k = tuple(1 if i == k else 0 for i in range(6))
        assert encode_basis(params, k) == encode(params, e_k)


# --- decode ------------------------------------------------------------------

def test_decode_examples():
    params = cached_params(4, 2)
    assert decode(params, 0) == (0, 0, 0, 0)
    assert decode(params, 5) == (1, 0, 1, 0)
    with pytest.raises(NotDecodable):
        decode(params, 7)  # encodes a weight-3 vector, outside the domain


def test_decode_weight_mismatch():
    params = cached_params(4, 2)
    with pytest.raises(WeightMismatch):
        decode(params, 5, expected_weight=1)


def test_decode_rejects_out_of_field_values():
    params = cached_params(4, 1)
    for y in (params.p, -1):
        with pytest.raises(BadParams):
            decode(params, y)
        with pytest.raises(BadParams):
            decode_support(params, y)


def test_decode_not_decodable_on_table_path():
    # (16, 1) has p = 4637 < 2**16, so decoding goes through the lookup table
    params = cached_params(16, 1)
    assert params.table_entries != 0
    with pytest.raises(NotDecodable):
        decode(params, 3)  # 1 + 2 is a weight-2 encoding, outside d = 1


def test_both_decode_paths_round_trip():
    table_path = cached_params(16, 1)
    binary_path = cached_params(16, 3)
    assert table_path.table_entries != 0 and binary_path.table_entries == 0
    for params in (table_path, binary_path):
        for k in range(16):
            e_k = tuple(1 if i == k else 0 for i in range(16))
            assert decode(params, encode(params, e_k), expected_weight=1) == e_k


def test_round_trip_and_injectivity_small_grid():
    for n in range(1, 11):
        for d in range(0, min(n, 2) + 1):
            params = cached_params(n, d)
            seen = set()
            for b in naive_sparse_vectors(n, d):
                y = encode(params, b)
                assert y not in seen, (n, d, b)
                seen.add(y)
                assert decode(params, y, expected_weight=sum(b)) == b


def test_support_functions_agree_with_dense_ones_on_both_paths():
    paths = set()
    for n in range(1, 17):
        for d in range(0, min(n, 2) + 1):
            params = cached_params(n, d)
            paths.add(params.table_entries == 0)
            for w in range(d + 1):
                for support in itertools.combinations(range(n), w):
                    vec = tuple(1 if i in support else 0 for i in range(n))
                    y = encode(params, vec)
                    assert encode_support(params, support) == y, (n, d, support)
                    assert decode_support(params, y, expected_weight=w) == support
                    assert decode(params, y, expected_weight=w) == vec
    assert paths == {True, False}


def test_decode_support_errors_match_decode():
    table_path = cached_params(16, 1)
    binary_path = cached_params(4, 2)
    for params, y in ((table_path, 3), (binary_path, 7), (binary_path, 16)):
        for fn in (decode, decode_support):
            with pytest.raises(NotDecodable):
                fn(params, y)
    for fn in (decode, decode_support):
        with pytest.raises(WeightMismatch):
            fn(binary_path, 5, expected_weight=1)


def _decode_outcome(decoder, params, y, expected_weight=None):
    try:
        return decoder(params, y, expected_weight)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


# The grid's shapes by kind, written out so that collecting the tests runs
# no prime search; test_shape_lists_split_the_grid_by_kind checks them
# against the parameters.  Binary shapes (xbar = 2, 2**n <= p) store no
# table entries; the others store every support with top index >= low.
BINARY_SHAPES = [(n, d) for n in range(2, 11) for d in range(1, min(n, 3) + 1)]
TABLE_SHAPES = (sorted([(n, 0) for n in range(1, 17)] + [(1, 1)] + [(n, 1) for n in range(11, 17)])
                + [(24, 2), (40, 3)])


def test_shape_lists_split_the_grid_by_kind():
    grid = [(n, d) for n in range(1, 17) for d in range(0, min(n, 3) + 1)]
    binary = [(n, d) for n, d in grid if is_binary_shape(cached_params(n, d))]
    assert [shape for shape in binary if shape[0] <= 10] == BINARY_SHAPES
    assert [shape for shape in grid if shape not in binary] + [(24, 2), (40, 3)] == TABLE_SHAPES


@pytest.mark.parametrize("n, d", BINARY_SHAPES)
def test_binary_decode_matches_the_reference(n, d):
    params = cached_params(n, d)
    assert params.table_entries == 0
    assert params.xbar == 2
    for y in range(2 ** (n + 2)):
        for w in (None, *range(d + 2)):
            assert (_decode_outcome(decode_support, params, y, w)
                    == _decode_outcome(reference_decode_support, params, y, w)), (y, w)


@pytest.mark.parametrize("n, d", [(12, 1), (24, 2), (30, 2)])
def test_table_decode_matches_the_reference(n, d):
    params = cached_params(n, d)
    assert params.table_entries != 0
    rng = random.Random(n * 100 + d)
    # every encoding of the family, stored or binary, and its neighbours
    ys = {y + delta for y in enumerated_table(n, d, params.xbar, params.p)
          for delta in (-1, 0, 1)}
    ys.update(rng.randrange(params.p) for _ in range(2000))
    for y in sorted(ys):
        for w in (None, d):
            assert (_decode_outcome(decode_support, params, y, w)
                    == _decode_outcome(reference_decode_support, params, y, w)), (y, w)


@pytest.mark.parametrize("n, d", [(4, 2), (7, 3), (12, 1), (30, 2)])
def test_decode_of_a_non_field_value_matches_the_reference(n, d):
    params = cached_params(n, d)
    p = params.p
    for y in (-1, -2, -p, p, p + 1, 0.0, 1.0, 2.5, float(p), True, False):
        assert (_decode_outcome(decode_support, params, y)
                == _decode_outcome(reference_decode_support, params, y)), y


def test_xbar_is_minimal():
    # full acceptance grid: every point below xbar must collide somewhere
    for n in range(1, 17):
        for d in range(0, min(n, 3) + 1):
            params = cached_params(n, d)
            for x in range(params.xbar):
                values = [sum(b[i] * x**i for i in range(n)) % params.p
                          for b in naive_sparse_vectors(n, d)]
                assert len(set(values)) < len(values), (n, d, x)


def binary_low(n: int, x: int, p: int) -> int:
    """Index bound below which supports encode to their binary value at x:
    at x = 2 every sum of distinct powers 2**i with i < low is below
    2**low <= p, so no reduction happens."""
    return min(n, p.bit_length() - 1) if x == 2 else 0


def stored_part(n, d, x, p, low):
    """The enumerated value -> top table of the supports with top >= low."""
    return {value: top for value, top in enumerated_tops(n, d, x, p).items() if top >= low}


@pytest.mark.parametrize("n, d", TABLE_SHAPES)
def test_layered_table_matches_enumeration(n, d):
    params = cached_params(n, d)
    p = params.p
    low = binary_low(n, params.xbar, p)
    assert sketch._binary_low(n, params.xbar, p) == low
    assert params._binary == 1 << low
    table, powers = sketch._injective_at(n, d, params.xbar, p, low)
    assert powers == params.powers
    # the oracle's masks in the decode table's layout, each value mapped to
    # its support's top index, restricted to the tops the table stores
    expected = stored_part(n, d, params.xbar, p, low)
    assert (len(expected) == 0) == (d == 0)
    assert list(table.items()) == list(expected.items())
    assert params._table == expected
    for x in range(params.xbar):
        assert sketch._injective_at(n, d, x, p, binary_low(n, x, p)) is None, x
        assert enumerated_table(n, d, x, p) is None, x


@pytest.mark.parametrize("n, d", [(5, 0), (1, 1), (2, 2), (12, 1), (64, 4), (112, 3),
                                  (100000, 1)])
def test_powers_are_those_of_xbar(n, d):
    # the point search computes each candidate's powers as a running
    # product and returns the chosen one's; (5, 0) and (1, 1) separate at
    # x = 0, whose zeroth power is 1, and (100000, 1) at x = 2 after x = 0
    # and x = 1 collide
    params = build_params(n, d)
    assert params.powers == tuple(pow(params.xbar, i, params.p) for i in range(n))


def test_table_at_two_separates_exactly_when_the_family_does():
    # The paper's primes all separate at x = 2, so only smaller primes q
    # reach the collisions: a stored value that equals another stored one,
    # or one that equals a binary value below 2**low with at most d ones.
    # Collisions of the second kind alone are counted, so the check against
    # binary values is seen to matter.
    refused = accepted = binary_only = 0
    for q in (q for q in range(3, 200) if sympy.isprime(q)):
        for n in range(1, 11):
            low = binary_low(n, 2, q)
            for d in range(min(n, 4) + 1):
                found = sketch._injective_at(n, d, 2, q, low)
                full = enumerated_table(n, d, 2, q)
                assert (found is None) == (full is None), (q, n, d)
                if full is not None:
                    accepted += 1
                    assert found[0] == stored_part(n, d, 2, q, low), (q, n, d)
                    continue
                refused += 1
                stored = [sum(pow(2, i, q) for i in s) % q
                          for w in range(1, d + 1)
                          for s in itertools.combinations(range(n), w) if s[-1] >= low]
                binary_only += len(set(stored)) == len(stored)
    assert refused and accepted and binary_only, (refused, accepted, binary_only)


@pytest.mark.parametrize("n, d", TABLE_SHAPES)
def test_every_table_entry_decodes_to_its_enumerated_support(n, d):
    params = cached_params(n, d)
    oracle = enumerated_table(n, d, params.xbar, params.p)
    assert len(oracle) == params.domain_size
    for value, mask in oracle.items():
        support = tuple(i for i in range(n) if mask >> i & 1)
        assert decode_support(params, value, expected_weight=len(support)) == support


def test_float_keys_raise_only_not_decodable():
    # (64, 4) has a 55-bit p, so most keys are exact as floats, but the
    # walk's float subtractions would round on some of them and land on
    # another key.  A float is no field element: every one is refused,
    # including those equal to a key, so none decodes to a wrong support.
    params = cached_params(64, 4)
    exact = 0
    for value in itertools.islice(params._table, 0, None, 7):
        if float(value) != value:
            continue
        exact += 1
        with pytest.raises(NotDecodable):
            decode_support(params, float(value))
    assert exact > 0
    # the support that a float walk once decoded as (1, 53, 55)
    with pytest.raises(NotDecodable):
        decode_support(params, float(encode_support(params, (53, 55))))
    for value in (0.0, 0.5, params.powers[1] + 0.5, params.powers[40] + 0.5, -1.0,
                  float(params.p)):
        with pytest.raises(NotDecodable):
            decode_support(params, value)
    binary = cached_params(3, 1)
    assert binary.table_entries == 0
    for value in (0.0, 1.0, 2.0):
        with pytest.raises(NotDecodable):
            decode_support(binary, value)


@pytest.fixture
def broken_decode_table(monkeypatch):
    """Every decode table built while active has its last support and the
    last support with a different top index decoding to each other's top.

    At d >= 2 the last two supports share top n-1, so swapping them would
    change nothing that the walk reads; a table whose supports all share
    one top is left as it is."""
    real = sketch._injective_at

    def broken(n, d, x, p, low):
        found = real(n, d, x, p, low)
        table = found[0] if found else None
        if table:
            keys = list(table)
            y = keys[-1]
            z = next((k for k in reversed(keys) if table[k] != table[y]), None)
            if z is not None:
                table[y], table[z] = table[z], table[y]
        return found

    monkeypatch.setattr(sketch, "_injective_at", broken)
    sketch.cached_params.cache_clear()
    yield
    sketch.cached_params.cache_clear()


def test_verify_catches_a_broken_decode_table(broken_decode_table):
    # the shipped self-check encodes with encode and tracks collisions in
    # its own dict, so its small suite fails on a table built wrong
    ok, detail = verify.check_sketch_grid(*verify._SUITES["small"]["sketch_grid"])
    assert not ok, detail


def test_verify_counts_a_raising_protocol_as_a_failed_case(broken_decode_table):
    # the peel raises InvalidTranscript on the broken table; the suite
    # records those cases as failed and still reports every other case
    result = verify.run_suite("small")
    assert result["passed"] is False
    assert {c["name"] for c in result["cases"]} >= {
        "prune_matches_core_peel", "multiround_matches_components", "one_round_r2"}
    prune = next(c for c in result["cases"] if c["name"] == "prune_matches_core_peel")
    assert not prune["ok"] and ": InvalidTranscript" in prune["detail"], prune


def test_size_bound_small_grid():
    for n in range(1, 13):
        for d in range(0, min(n, 3) + 1):
            params = cached_params(n, d)
            assert params.p_bits <= 2 * d * ceil_log2(n + 1) + ceil_log2(n) + 2
