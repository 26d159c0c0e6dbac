"""Modular arithmetic on machine words: the one kernel every layer uses.

Every share, slot and plaintext value is a canonical representative below
its modulus M, which is either the prime p or the ring modulus 2^k.  All of
them live in uint64 arrays; lifts to signed values live in int64.

``mulmod``, ``matmod``, the NTT and the ``rlwe`` backend reduce with ``mod``,
x - (x // m) * m: numpy divides by a fixed divisor (a scalar, or one modulus
per row) with libdivide, several times faster than its ``%`` on 64-bit
integers.  A sum of many products reduces lazily: ``lazy_terms`` is how many
bounded terms a reduced uint64 sum takes before it could wrap.

Products mod p split one factor at 19 bits, so the high partial product
a * (b >> 19) must stay below 2^64: ``mulmod`` and ``matmod`` are exact for
p below 2^MAX_MODULUS_BITS, and parameter sets with a wider p are rejected.
Where one product cannot wrap (p below 2^32 in ``mulmod``; inner dimension
times the largest entries below 2^64 in ``matmod``) they take it unsplit.
``mulmod`` needs only its second factor reduced: the first may be anything
below ``mulmod_limit(p)``, which the lazy NTT butterflies rely on.  An int
second factor c is the exception: it takes a first factor below p, and one
product and one ``mod`` when its centered value times p stays below 2^64.
Sums and differences of two representatives stay far below 2^63, and
``addmod``/``submod`` reduce them by one conditional subtraction,
min(s, s - m), with no division: 10.6 us on 8,192 values against 18.6 us
for ``mod`` of the sum.

Against a scalar modulus, ``mulmod``, ``addmod``, ``submod`` and the
lifts walk an array of more than ``WALK_ABOVE`` values in blocks of
``BLOCK`` into one new array.  Every temporary is then a block long: it
stays in cache and reuses the same heap pages, where a pass over a whole
array of a few MB takes fresh pages from the system and faults each one
in.  ``mulmod`` took 6.2 ms in one pass and 2.1 ms in blocks of 2^14 on
393,216 values, 31.3 and 8.8 ms on 1,572,864; blocks of 2^13 and of 2^16
to 2^17 were slower, and up to 2^15 values one pass was as fast or
faster (2-vCPU Xeon, numpy 2.4).  ``mod`` keeps one pass: its only new
array is its result, and walking it adds a copy.  So does ``mulmod`` by
an ``(L, 1)`` column of moduli (the rlwe limbs), whose rows are N long.
"""

from __future__ import annotations

import numpy as np

MAX_MODULUS_BITS = 41
BLOCK = 1 << 14  # values per pass of a walked kernel
WALK_ABOVE = 2 * BLOCK  # the longest array a kernel takes in one pass
SPLIT = 19
LOW = np.uint64((1 << SPLIT) - 1)


def _blockwise(kernel, *arrays) -> np.ndarray:
    """The elementwise ``kernel`` over ``arrays`` of one shape: in one call
    for up to ``WALK_ABOVE`` values, else block by block into one new
    array."""
    size = arrays[0].size
    if size <= WALK_ABOVE:
        return kernel(*arrays)
    flats = [a.reshape(-1) for a in arrays]
    first = kernel(*(f[:BLOCK] for f in flats))
    out = np.empty(arrays[0].shape, first.dtype)
    dest = out.reshape(-1)
    dest[:BLOCK] = first
    for i in range(BLOCK, size, BLOCK):
        dest[i:i + BLOCK] = kernel(*(f[i:i + BLOCK] for f in flats))
    return out


def _is_column(m) -> bool:
    return isinstance(m, np.ndarray) and m.ndim > 0


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
    return min((1 << 64) // ((p - 1) >> SPLIT), ((1 << 64) - ((p - 1) << SPLIT)) >> SPLIT)


def lazy_terms(term: int, modulus: int) -> int:
    """The most uint64 terms, each at most ``term``, that a sum reduced
    below ``modulus`` can take before its next reduction without wrapping:
    (modulus - 1) + k term < 2^64."""
    return ((1 << 64) - modulus) // term


def _mulmod(a, b, p, one_product: bool) -> np.ndarray:
    if one_product:
        return mod(a * b, p)
    hi = b >> SPLIT
    lo = b & LOW
    return mod((mod(a * hi, p) << SPLIT) + a * lo, p)


def _mul_scalar(a, c: int, p: int) -> np.ndarray:
    """(a * c) mod p for a below p: one product when the centered c, of
    magnitude h, keeps h p below 2^64 (a negative c as (p - a) h, which is
    -a h mod p), else the split product."""
    if c * p < 1 << 64:
        return mod(a * c, p)
    if (p - c) * p < 1 << 64:
        return mod((p - a) * (p - c), p)
    return _mulmod(a, np.uint64(c), p, False)


def mulmod(a, b, p) -> np.ndarray:
    """Elementwise (a * b) mod p for uint64 b below p < 2^41 and a below
    ``mulmod_limit(p)``.  ``p`` is an int, or a uint64 column that gives
    each row of a and b its own modulus (the RNS limbs of a ciphertext).
    Against an int p, an int b takes a below p."""
    a = np.asarray(a, dtype=np.uint64)
    if isinstance(b, (int, np.integer)) and not _is_column(p):
        c, p = int(b), int(p)
        return _blockwise(lambda x: _mul_scalar(x, c, p), a)
    b = np.asarray(b, dtype=np.uint64)
    one_product = (p if isinstance(p, int) else np.max(p)) < 1 << 32
    p = np.asarray(p, dtype=np.uint64)
    if a.size > WALK_ABOVE and not p.ndim and a.shape == b.shape:
        return _blockwise(lambda x, y: _mulmod(x, y, p, one_product), a, b)
    return _mulmod(a, b, p, one_product)


def _with_operand(a, b, vector, scalar) -> np.ndarray:
    """``vector(a, b)`` on uint64 a, or ``scalar(a, b)`` for an int b:
    block by block for an int b or an array of a's shape, in one broadcast
    pass for any other b."""
    a = np.asarray(a, dtype=np.uint64)
    if isinstance(b, (int, np.integer)):
        c = int(b)
        return _blockwise(lambda x: scalar(x, c), a)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        return vector(a, b)
    return _blockwise(vector, a, b)


def _reduce_once(s, m: int) -> np.ndarray:
    """s mod m for s below 2m <= 2^64: the smaller of s and s - m, which
    wraps past s when s < m."""
    r = s - m
    return np.minimum(s, r, out=r)


def addmod(a, b, m: int) -> np.ndarray:
    """(a + b) mod m for uint64 a below m and b an array below m or any
    int, by one conditional subtraction: no division."""
    return _with_operand(a, b, lambda x, y: _reduce_once(x + y, m),
                         lambda x, c: _reduce_once(x + c % m, m))


def submod(a, b, m: int) -> np.ndarray:
    """(a - b) mod m for uint64 a below m and b an array below m or any
    int, by one conditional subtraction: no division."""
    return _with_operand(a, b, lambda x, y: _reduce_once(x + (m - y), m),
                         lambda x, c: _reduce_once(x + (m - c % m), m))


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
    ah = (a >> np.uint64(SPLIT)).astype(np.int64)
    al = (a & LOW).astype(np.int64)
    bh = (b >> np.uint64(SPLIT)).astype(np.int64)
    bl = (b & LOW).astype(np.int64)
    # Horner in 2^19: hh * 2^38 + (hl + lh) * 2^19 + ll; each sum < 2^62
    acc = mod(ah @ bh, p)
    acc = mod((acc << SPLIT) + ah @ bl + al @ bh, p)
    acc = mod((acc << SPLIT) + al @ bl, p)
    return acc.astype(np.uint64)


def _lift(values, modulus: int, top: int) -> np.ndarray:
    """values as int64, less ``modulus`` where they exceed ``top``."""
    v = values.astype(np.int64)
    v -= (v > top) * modulus
    return v


def signed_lift(values, modulus: int) -> np.ndarray:
    """Map canonical representatives to int64 values in (-M/2, M/2]."""
    return _blockwise(lambda v: _lift(v, modulus, modulus >> 1),
                      np.asarray(values, dtype=np.uint64))


def round_shift(values, modulus: int, shift: int) -> np.ndarray:
    """signed_lift(v) / 2^shift rounded half up, as int64; shift >= 0."""
    half = (1 << shift) >> 1
    return _blockwise(lambda v: (_lift(v, modulus, modulus >> 1) + half) >> shift,
                      np.asarray(values, dtype=np.uint64))


def lift_shift(values, p: int, value_bits: int, shift: int) -> np.ndarray:
    """Masked-decrypt rescale: recover the exact integer w = value - mask
    from (value - mask) mod p and return floor(w / 2^shift) as int64.
    Valid when 0 <= value <= 2^value_bits and 0 <= mask < p - 2^value_bits."""
    return _blockwise(lambda v: _lift(v, p, 1 << value_bits) >> shift,
                      np.asarray(values, dtype=np.uint64))
