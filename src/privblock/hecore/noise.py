"""Shared noise-budget model (log2 domain).

High-probability canonical-style growth estimates, mirrored by both backends
so the clear backend exhausts exactly when the real one would.  Estimates
are validated empirically against measured RLWE noise in the test suite,
replies among them.  A reply's bits are measured against its own modulus
Q_l, whose budget is ``hecore.noise_budget_bits(params, bits, l)``.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA = 3.2


def log2add(a: float, b: float) -> float:
    return float(np.logaddexp2(a, b))


def fresh_bits(params) -> float:
    """A fresh encryption under either key.  Public key: e1 + e*u + e2*s
    with ternary u, s (~ sigma*sqrt(2N)); secret key: one Gaussian e, which
    that term covers.  Both add the floor(q/p) rounding term, which scales
    with the message, can reach q mod p and dominates at the default
    parameters."""
    base = math.log2(SIGMA) + 0.5 * math.log2(2 * params.n) + 2.0
    rt = params.q % params.p
    return log2add(base, math.log2(max(rt, 1))) + 0.5


def add_ct_bits(n1: float, n2: float) -> float:
    return log2add(n1, n2)


def add_pt_bits(params, n1: float) -> float:
    # plaintext add can inject a (q mod p)-scaled wrap term
    rt = params.q % params.p
    return log2add(n1, math.log2(max(rt, 1)))


def mul_pt_bits(params, n1: float, operand) -> float:
    """A plaintext multiply, bounded from public data only: an int operand c
    (the constant polynomial) by its centered |c|, any vector by (p - 1)/2
    whatever its values, so no estimate tracks the weight party's data."""
    p = params.p
    bound = (p - 1) // 2 if np.ndim(operand) else min(int(operand), p - int(operand))
    return n1 + 0.5 * math.log2(params.n) + math.log2(max(bound, 1)) + 1.0


def switch_bits(params) -> float:
    """The rounding a modulus switch adds to the phase: tau0 + tau1 s, each
    tau coefficient within 1/2 and s ternary, so at most (N + 1)/2."""
    return math.log2((params.n + 1) / 2)


def reply_bits(params, n1: float, limbs: int) -> float:
    """A reply at ``limbs`` limbs: the mask's add_pt at the whole modulus,
    then, below every limb, the switch, which divides that noise by the
    dropped limbs' product and adds its rounding term."""
    nb = add_pt_bits(params, n1)
    if limbs == params.limbs:
        return nb
    dropped = math.log2(math.prod(params.q_primes[limbs:]))
    return log2add(nb - dropped, switch_bits(params))


def relin_bits(params) -> float:
    # sum of limb-decomposed products with the switching-key errors
    return (math.log2(params.limbs) + 30.0 + math.log2(SIGMA)
            + 0.5 * math.log2(params.n) + 1.0)


def mul_ct_bits(params, pairs) -> float:
    """A sum of ct*ct products, relinearized once; ``pairs`` holds the noise
    bits (n1, n2) of each product's inputs."""
    # growth pad calibrated against measured depth-2 chains (tests hold the
    # estimate above the measurement with a few bits to spare)
    grow = [math.log2(params.p) + 0.5 * math.log2(3 * params.n) + 5.0 + log2add(n1, n2)
            for n1, n2 in pairs]
    return log2add(float(np.logaddexp2.reduce(grow)), relin_bits(params))
