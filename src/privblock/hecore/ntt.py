"""Negacyclic number-theoretic transforms over NTT-friendly primes.

Transforms are length-N over Z_prime with X^N + 1 reduction folded in via
powers of a primitive 2N-th root of unity psi.  The forward transform is
Cooley-Tukey with bit-reversed output: entry i is sum_j a_j psi^(j (2 brv(i)
+ 1)).  The inverse runs the same butterflies as decimation in time on the
bit-reversed input, with powers of psi^-2, and ends with one multiply by
n^-1 psi^-j.  Pointwise products of two forward transforms correspond to
negacyclic polynomial products, which is exactly the slot algebra the SIMD
scheme needs.  A plan transforms a stack (..., N) of rows in one call: the
stages slice the last axis and the twiddles broadcast over the leading
ones.  Tables are cached per (prime, N), built once even when two threads
ask at the same time.

The stages follow Pease's constant-geometry schedule ("An adaptation of the
fast Fourier transform for parallel processing", J. ACM 1968): every stage
multiplies one half-length row by a twiddle row and writes its butterflies
into a second buffer, so no stage iterates a short inner axis.  The forward
transform reads the two halves and writes the even and odd entries, which
rotates the bits of the in-place index by one place a stage; after log2 N
stages the order is the in-place one again, so the outputs are those of the
in-place schedule.  The inverse reads the even and odd entries and writes
the halves.  At forward stage h the twiddles have period h: psi_rev[h:2h],
tiled to 64 entries (at most N/2) while h is shorter.  At inverse stage h
they come in runs of N/2h: an (h, 1) column while the runs are at least 64
long, a stored half-length row for shorter runs, and every other psi^-j
in the last stage.  A plan at N = 8192 keeps 355 KiB of tables.

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

import threading

import numpy as np

from ..modarith import mod, mulmod, mulmod_limit

_TABLES: dict = {}
_LOCK = threading.Lock()
_ROW = 64  # the shortest inner axis a stage multiplies along


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


def _halves(x: np.ndarray):
    half = x.shape[-1] // 2
    return x[..., :half], x[..., half:]


def _pairs(x: np.ndarray):
    return x[..., 0::2], x[..., 1::2]


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
        half = n // 2
        hs = [1 << k for k in range(n.bit_length() - 1)]
        # forward stage h twiddles entry k of the top half by psi_rev[h + k mod h]:
        # a row of c = min(max(h, 64), N/2) entries over an (N/2c, c) view
        self._forward = []
        for h in hs:
            c = min(max(h, _ROW), half)
            row = self.psi_rev[h:2 * h]
            self._forward.append(((half // c, c), row if c == h else np.tile(row, c // h)))
        # inverse stage h twiddles odd entry k by psi^(-n/h (k // r)), in runs
        # of r = N/2h: an (h, 1) column while the runs are at least 64 long,
        # a stored half-length row for the stages after that but the last
        self._inverse = []
        for h in hs:
            w, runs = ipowers[:n:n // h], half // h
            self._inverse.append(((h, runs), w[:, None]) if runs >= _ROW
                                 else ((half,), np.repeat(w, runs) if runs > 1 else w))
        self._unscale = mulmod(ipowers, pow(n, -1, prime), prime)

    def _butterflies(self, values: np.ndarray, stages, forward: bool) -> np.ndarray:
        """Constant-geometry Cooley-Tukey stages on a reduced copy of each
        row of ``values``.  Each stage reads two half-length rows u and v, and
        writes u + w v and u - w v to the other buffer: forward reads the
        halves and writes the even and odd entries, the inverse reads the
        even and odd entries and writes the halves.  Returns entries below
        ``self.limit``, not reduced."""
        p = np.uint64(self.prime)
        read, write = (_halves, _pairs) if forward else (_pairs, _halves)
        a = mod(np.asarray(values, dtype=np.uint64), p)
        b = np.empty_like(a)
        bound = self.prime  # every entry is below it
        for shape, w in stages:
            if bound > self.limit:
                a, bound = mod(a, p), self.prime
            (u, v), (top, bottom) = read(a), write(b)
            wv = mulmod(v.reshape(v.shape[:-1] + shape), w, self.prime).reshape(u.shape)
            np.add(u, wv, out=top)
            np.subtract(p, wv, out=wv)
            np.add(u, wv, out=bottom)
            a, b = b, a
            bound += self.prime
        return mod(a, p) if bound > self.limit else a

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient rows (..., N) -> NTT values (bit-reversed order)."""
        return mod(self._butterflies(coeffs, self._forward, True), np.uint64(self.prime))

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """NTT value rows (..., N), bit-reversed order -> coefficients."""
        return mulmod(self._butterflies(values, self._inverse, False), self._unscale, self.prime)


def get_plan(prime: int, n: int) -> NttPlan:
    with _LOCK:  # both parties' set-up threads ask for the same plans
        key = (prime, n)
        plan = _TABLES.get(key)
        if plan is None:
            plan = _TABLES[key] = NttPlan(prime, n)
        return plan

