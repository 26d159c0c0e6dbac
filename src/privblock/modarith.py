"""Modular arithmetic on machine words: the one kernel every layer uses.

Every share, slot and plaintext value is a canonical representative below
its modulus M, which is either the prime p or the ring modulus 2^k.  All of
them live in uint64 arrays; lifts to signed values live in int64.

``mulmod``, ``matmod``, the NTT and the ``rlwe`` backend reduce with ``mod``,
x - (x // m) * m: numpy divides by a fixed divisor (a scalar, or one modulus
per row) with libdivide, several times faster than its ``%`` on 64-bit
integers.

Products mod p split one factor at 19 bits, so the high partial product
a * (b >> 19) must stay below 2^64: ``mulmod`` and ``matmod`` are exact for
p below 2^MAX_MODULUS_BITS, and parameter sets with a wider p are rejected.
Where one product cannot wrap (p below 2^32 in ``mulmod``; inner dimension
times the largest entries below 2^64 in ``matmod``) they take it unsplit.
``mulmod`` needs only its second factor reduced: the first may be anything
below ``mulmod_limit(p)``, which the lazy NTT butterflies rely on.  Sums and
differences of two representatives stay far below 2^63.
"""

from __future__ import annotations

import numpy as np

MAX_MODULUS_BITS = 41
_SPLIT = 19
_LOW = np.uint64((1 << _SPLIT) - 1)


def mod(x, m) -> np.ndarray:
    """x - (x // m) * m: uint64 x by an int, a 0-d or an (L, 1) uint64 m, or
    int64 x by an int64 m (floored, so in [0, m)).  int64 by uint64 is
    rejected: numpy takes that quotient in float64."""
    r = np.asarray(x // m)
    if r.dtype.kind not in "iu":
        raise TypeError(f"mod of {np.asarray(x).dtype} by {np.asarray(m).dtype}")
    r *= m
    return np.subtract(x, r, out=r)


def mulmod_limit(p: int) -> int:
    """A bound on a below which mulmod(a, b, p) is exact for every b < p:
    a (p - 1), or on the split path a ((p - 1) >> 19) and
    ((p - 1) << 19) + a (2^19 - 1), stay below 2^64."""
    if p < 1 << 32:
        return (1 << 64) // (p - 1)
    return min((1 << 64) // ((p - 1) >> _SPLIT), ((1 << 64) - ((p - 1) << _SPLIT)) >> _SPLIT)


def mulmod(a, b, p) -> np.ndarray:
    """Elementwise (a * b) mod p for uint64 b below p < 2^41 and a below
    ``mulmod_limit(p)``.  ``p`` is an int, or a uint64 column that gives
    each row of a and b its own modulus (the RNS limbs of a ciphertext)."""
    p64 = np.asarray(p, dtype=np.uint64)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if (p if isinstance(p, int) else p64.max()) < 1 << 32:  # one product fits
        return mod(a * b, p64)
    hi = b >> np.uint64(_SPLIT)
    lo = b & _LOW
    return mod((mod(a * hi, p64) << np.uint64(_SPLIT)) + a * lo, p64)


def matmod(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Exact (a @ b) mod p for uint64 matrices with entries below p < 2^41
    and an inner dimension below 2^19, so every int64 partial sum of the
    split products stays below 2^63.  ``p`` is an int, or a column that
    gives each row of the product its own modulus (``rlwe`` maps limb
    residues from one RNS basis to another this way).

    When the inner dimension times the largest entries of a and b stays
    below 2^64, no sum can wrap, and one uint64 product and one ``mod``
    suffice: every ``rlwe`` base extension and scaling (at most 8 terms of
    30 by 30 bits).  The 37-bit share products take the split."""
    if a.shape[-1] * int(a.max(initial=0)) * int(b.max(initial=0)) < 1 << 64:
        return mod(a @ b, np.asarray(p, dtype=np.uint64))
    p = np.asarray(p, dtype=np.int64)  # int64 // uint64 would be float64
    ah = (a >> np.uint64(_SPLIT)).astype(np.int64)
    al = (a & _LOW).astype(np.int64)
    bh = (b >> np.uint64(_SPLIT)).astype(np.int64)
    bl = (b & _LOW).astype(np.int64)
    # Horner in 2^19: hh * 2^38 + (hl + lh) * 2^19 + ll; each sum < 2^62
    acc = mod(ah @ bh, p)
    acc = mod((acc << _SPLIT) + ah @ bl + al @ bh, p)
    acc = mod((acc << _SPLIT) + al @ bl, p)
    return acc.astype(np.uint64)


def signed_lift(values, modulus: int) -> np.ndarray:
    """Map canonical representatives to int64 values in (-M/2, M/2]."""
    v = np.asarray(values, dtype=np.uint64).astype(np.int64)
    return np.where(v > modulus >> 1, v - modulus, v)


def round_shift(values, modulus: int, shift: int) -> np.ndarray:
    """signed_lift(v) / 2^shift rounded half up, as int64; shift >= 0."""
    return (signed_lift(values, modulus) + ((1 << shift) >> 1)) >> shift


def lift_shift(values, p: int, value_bits: int, shift: int) -> np.ndarray:
    """Masked-decrypt rescale: recover the exact integer w = value - mask
    from (value - mask) mod p and return floor(w / 2^shift) as int64.
    Valid when 0 <= value <= 2^value_bits and 0 <= mask < p - 2^value_bits."""
    v = np.asarray(values, dtype=np.uint64).astype(np.int64)
    return np.where(v <= 1 << value_bits, v, v - p) >> shift
