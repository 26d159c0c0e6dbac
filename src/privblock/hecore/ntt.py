"""Negacyclic number-theoretic transforms over NTT-friendly primes.

Transforms are length-N over Z_prime with X^N + 1 reduction folded in via
powers of a primitive 2N-th root of unity psi.  The forward transform is
Cooley-Tukey with bit-reversed output: entry i is sum_j a_j psi^(j (2 brv(i)
+ 1)).  The inverse runs the same butterflies as decimation in time on the
bit-reversed input, with powers of psi^-2, and ends with one multiply by
n^-1 psi^-j.  Pointwise products of two forward transforms correspond to
negacyclic polynomial products, which is exactly the slot algebra the SIMD
scheme needs.  Tables are cached per (prime, N).

Butterflies are lazy (Harvey, "Faster arithmetic for number-theoretic
transforms", J. Symb. Comput. 2014): u + v and u + prime - v are left
unreduced, so each stage raises the entry bound by one prime, and the row
is reduced (``modarith.mod``) only where the next multiply could reach
``modarith.mulmod_limit``.  A 30-bit prime grows to at most 14 primes
< 2^34 over the 13 stages at N = 8192 and is reduced once, at the end; a
41-bit prime is reduced about every stage.  ``mulmod`` is exact for every
prime below 2^MAX_MODULUS_BITS: the 30-bit RNS limbs and the plaintext
modulus p.
"""

from __future__ import annotations

import numpy as np

from ..modarith import mod, mulmod, mulmod_limit

_TABLES: dict = {}


def _find_generator(p: int) -> int:
    # factor p-1 (small prime sets here: p-1 = 2^a * odd with small factors)
    n = p - 1
    factors = set()
    d = 2
    m = n
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    g = 2
    while True:
        if all(pow(g, n // f, p) != 1 for f in factors):
            return g
        g += 1


def _bit_reverse(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


class NttPlan:
    """Cached twiddle tables for one (prime, N)."""

    def __init__(self, prime: int, n: int):
        if (prime - 1) % (2 * n) != 0:
            raise ValueError(f"prime {prime} is not 1 mod 2N for N={n}")
        self.prime = prime
        self.n = n
        g = _find_generator(prime)
        psi = pow(g, (prime - 1) // (2 * n), prime)
        if pow(psi, n, prime) != prime - 1:
            raise ValueError("not a primitive 2N-th root")
        psi_inv = pow(psi, 2 * n - 1, prime)
        rev = _bit_reverse(n)
        powers = np.array([pow(psi, int(i), prime) for i in range(n)],
                          dtype=np.uint64)
        ipowers = np.array([pow(psi_inv, int(i), prime) for i in range(n)],
                           dtype=np.uint64)
        self.psi_rev = powers[rev]
        self.limit = mulmod_limit(prime)
        halves = [1 << k for k in range(n.bit_length() - 1)]
        # stage h of the forward transform: h blocks, block b twiddled by
        # psi_rev[h + b]; of the inverse: blocks of 2h, entry k of each half
        # twiddled by psi^(-2 k n / 2h)
        self._forward = [((h, 2, n // (2 * h)), self.psi_rev[h:2 * h, None])
                         for h in halves]
        self._inverse = [((n // (2 * h), 2, h), ipowers[:n:n // h]) for h in halves]
        self._unscale = mulmod(ipowers, pow(n, -1, prime), prime)

    def _butterflies(self, values: np.ndarray, stages) -> np.ndarray:
        """Cooley-Tukey stages on a reduced copy of ``values``: each stage
        views the row as (blocks, 2, half) and maps (u, v) to (u + w v,
        u - w v).  Returns entries below ``self.limit``, not reduced."""
        p = np.uint64(self.prime)
        a = mod(np.asarray(values, dtype=np.uint64), p)
        bound = self.prime  # every entry is below it
        for shape, w in stages:
            if bound > self.limit:
                a, bound = mod(a, p), self.prime
            view = a.reshape(shape)
            v = mulmod(view[:, 1], w, self.prime)
            np.add(view[:, 0], p - v, out=view[:, 1])
            view[:, 0] += v
            bound += self.prime
        return mod(a, p) if bound > self.limit else a

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients -> NTT values (bit-reversed order)."""
        return mod(self._butterflies(coeffs, self._forward), np.uint64(self.prime))

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """NTT values (bit-reversed order) -> coefficients."""
        return mulmod(self._butterflies(values, self._inverse), self._unscale, self.prime)


def get_plan(prime: int, n: int) -> NttPlan:
    key = (prime, n)
    plan = _TABLES.get(key)
    if plan is None:
        plan = NttPlan(prime, n)
        _TABLES[key] = plan
    return plan

