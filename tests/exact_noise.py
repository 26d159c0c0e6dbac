"""Exact Python-integer instrumentation of the rlwe backend's noise.

The program computes in machine words only; these helpers reconstruct the
exact centered phase of a ciphertext in Python ints, for the tests that
hold the noise estimate above the measured noise and for the exact
reference in ``test_rns.py``.
"""

import math

import numpy as np


def crt_reconstruct_centered(residues, primes):
    """Combine per-prime residue vectors into centered Python integers in
    [-(M-1)/2, (M-1)/2] for the odd product M of the primes."""
    M = math.prod(int(p) for p in primes)
    acc = np.zeros(len(residues[0]), dtype=object)
    for r, p in zip(residues, primes):
        mi = M // int(p)
        gi = (mi * pow(mi, -1, int(p))) % M
        acc = acc + r.astype(object) * gi
    acc %= M
    half = M >> 1
    return np.where(acc > half, acc - M, acc)


def measured_noise_bits(be, ct, kp) -> float:
    """True residual noise of ``ct`` under the rlwe backend ``be``: the
    distance of the exact centered phase to its code point, at the modulus
    of the limbs ``ct`` has (a reply's fewer)."""
    primes = be.qs[:ct.limbs]
    q = math.prod(primes)
    phi = crt_reconstruct_centered(be._phase(ct, kp), primes)
    m = (2 * be.p * phi + q) // (2 * q)
    r = phi - (m * q + be.p // 2) // be.p
    return math.log2(max(int(np.abs(r).max()), 1))
