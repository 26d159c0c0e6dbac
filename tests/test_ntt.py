"""The constant-geometry NTT kernel against a direct Python-integer evaluation.

Entry i of the forward transform is sum_j a_j psi^(j (2 brv(i) + 1)) mod the
prime.  Every prime ``rlwe`` transforms under at N = 8192 is checked: the
default q limbs, the auxiliary primes of ct*ct and the plaintext modulus p.
A 41-bit prime takes the branch that reduces between stages.  Small N, down
to N/2 below the 64-entry twiddle rows the stages broadcast, runs under one
q limb and p: the toy parameters and the packed matmul encoder use it.  The
twiddle tables a plan keeps stay small, because every party's set-up builds
one plan per prime, and the two parties' set-up threads share them.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from privblock.hecore import ntt
from privblock.hecore.ntt import NttPlan, get_plan
from privblock.modarith import MAX_MODULUS_BITS
from privblock.params import AUX_PRIMES, DEFAULT_P, DEFAULT_Q_PRIMES, HeParams

N = 8192
# rlwe's auxiliary basis: the fewest leading AUX_PRIMES with P > 4 p N Q
_BOUND = 4 * DEFAULT_P * N * math.prod(DEFAULT_Q_PRIMES)
USED_AUX = next(AUX_PRIMES[:k] for k in range(1, len(AUX_PRIMES) + 1)
                if math.prod(AUX_PRIMES[:k]) > _BOUND)
P41_1024 = 2199023251457  # largest 41-bit prime = 1 mod 2 * 1024
SMALL_N = (8, 16, 32, 128, 512)
CASES = ([(q, N) for q in DEFAULT_Q_PRIMES] + [(q, N) for q in USED_AUX]
         + [(DEFAULT_P, N), (P41_1024, 1024)]
         + [(q, n) for q in (DEFAULT_Q_PRIMES[0], DEFAULT_P) for n in SMALL_N])
PLAN_BYTES_LIMIT = 448 << 10  # the tables of one NttPlan at N = 8192


def _inputs(prime, n, rng):
    """All (prime - 1); random residues; random words below 2^63."""
    return {"top": np.full(n, prime - 1, dtype=np.uint64),
            "residues": rng.integers(0, prime, size=n, dtype=np.uint64),
            "words": rng.integers(0, 1 << 63, size=n, dtype=np.uint64)}


def _direct(values, psi, prime, rows):
    """sum_j a_j psi^(j (2 brv(i) + 1)) for each i in ``rows``, by Horner."""
    bits = len(values).bit_length() - 1
    coeffs = [int(v) % prime for v in values][::-1]
    out = []
    for i in rows:
        root = pow(psi, 2 * int(format(i, f"0{bits}b")[::-1], 2) + 1, prime)
        acc = 0
        for c in coeffs:
            acc = (acc * root + c) % prime
        out.append(acc)
    return out


def test_cases_cover_the_backend_primes():
    params = HeParams()
    assert params.n == N and params.q_primes == DEFAULT_Q_PRIMES and params.p == DEFAULT_P
    assert len(USED_AUX) == 8
    assert P41_1024.bit_length() == MAX_MODULUS_BITS and (P41_1024 - 1) % 2048 == 0


@pytest.mark.parametrize("prime,n", CASES, ids=[f"{p}-{n}" for p, n in CASES])
def test_forward_is_the_negacyclic_evaluation_and_inverse_undoes_it(prime, n):
    rng = np.random.default_rng(prime % 1000)
    plan = NttPlan(prime, n)
    psi = int(plan.psi_rev[n // 2])  # psi_rev[brv(1)] = psi^1
    assert pow(psi, n, prime) == prime - 1  # a primitive 2N-th root
    if prime == P41_1024:  # the lazy bound is under the 11 primes of 10 stages
        assert plan.limit < 3 * prime
    rows = rng.choice(n, size=min(16, n), replace=False)
    inputs = _inputs(prime, n, rng)
    for name, x in inputs.items():
        y = plan.forward(x)
        assert y.dtype == np.uint64 and int(y.max()) < prime, name
        assert [int(y[i]) for i in rows] == _direct(x, psi, prime, rows), name
        assert np.array_equal(plan.inverse(y), x % np.uint64(prime)), name
        # the inverse does not need its input reduced either
        z = plan.inverse(x)
        assert int(z.max()) < prime, name
        assert np.array_equal(plan.forward(z), x % np.uint64(prime)), name
    # a (3, n) stack of the inputs transforms row by row in one call
    stack = np.stack(list(inputs.values()))
    for fn in (plan.forward, plan.inverse):
        assert np.array_equal(fn(stack), np.stack([fn(x) for x in stack])), fn.__name__


def _held_bytes(plan) -> int:
    """Bytes of the distinct arrays ``plan``'s attributes keep alive."""
    held = {}
    todo = list(vars(plan).values())
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            held[id(x)] = x.nbytes
    return sum(held.values())


def test_plan_tables_stay_small():
    plan = NttPlan(DEFAULT_Q_PRIMES[0], N)
    assert _held_bytes(plan) >= 3 * N * 8  # psi_rev, psi^-j and the unscale row
    assert _held_bytes(plan) <= PLAN_BYTES_LIMIT


def test_two_threads_get_one_plan(monkeypatch):
    """Both parties' set-up threads ask for the same plans on a cleared
    cache; each (prime, N) is built once and every thread gets that object."""
    built = []

    class SlowPlan(NttPlan):
        def __init__(self, prime, n):
            built.append((prime, n))
            time.sleep(0.05)  # the other threads would miss the cache meanwhile
            super().__init__(prime, n)

    monkeypatch.setattr(ntt, "_TABLES", {})
    monkeypatch.setattr(ntt, "NttPlan", SlowPlan)
    got = []
    threads = [threading.Thread(target=lambda: got.append(get_plan(DEFAULT_P, 64)))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 and all(plan is got[0] for plan in got)
    assert built == [(DEFAULT_P, 64)]
