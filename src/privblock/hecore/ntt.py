"""Negacyclic number-theoretic transforms over NTT-friendly primes.

Transforms are length-N over Z_prime with X^N + 1 reduction folded in via
powers of a primitive 2N-th root of unity (forward: Cooley-Tukey with
bit-reversed output; inverse: Gentleman-Sande).  Pointwise products of two
forward transforms correspond to negacyclic polynomial products, which is
exactly the slot algebra the SIMD scheme needs.  Tables are cached per
(prime, N).

Butterfly products go through ``modarith.mulmod``, exact for every prime
below 2^MAX_MODULUS_BITS: the 30-bit RNS limbs and the plaintext modulus p.
"""

from __future__ import annotations

import numpy as np

from ..modarith import mulmod

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
        self.ipsi_rev = ipowers[rev]
        self.n_inv = np.uint64(pow(n, prime - 2, prime))

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients -> NTT values (bit-reversed order)."""
        p = np.uint64(self.prime)
        a = np.ascontiguousarray(coeffs % p, dtype=np.uint64).copy()
        n = self.n
        t = n
        m = 1
        while m < n:
            t >>= 1
            view = a.reshape(m, 2, t)
            s = self.psi_rev[m:2 * m].reshape(m, 1)
            u = view[:, 0, :]
            v = mulmod(view[:, 1, :], s, self.prime)
            lo = (u + v) % p
            hi = (u + p - v) % p
            view[:, 0, :] = lo
            view[:, 1, :] = hi
            m <<= 1
        return a

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """NTT values (bit-reversed order) -> coefficients."""
        p = np.uint64(self.prime)
        a = np.ascontiguousarray(values % p, dtype=np.uint64).copy()
        n = self.n
        t = 1
        m = n
        while m > 1:
            h = m >> 1
            view = a.reshape(h, 2, t)
            s = self.ipsi_rev[h:m].reshape(h, 1)
            u = view[:, 0, :]
            v = view[:, 1, :]
            lo = (u + v) % p
            hi = mulmod((u + p - v) % p, s, self.prime)
            view[:, 0, :] = lo
            view[:, 1, :] = hi
            t <<= 1
            m = h
        return mulmod(a, self.n_inv, self.prime)


def get_plan(prime: int, n: int) -> NttPlan:
    key = (prime, n)
    plan = _TABLES.get(key)
    if plan is None:
        plan = NttPlan(prime, n)
        _TABLES[key] = plan
    return plan

