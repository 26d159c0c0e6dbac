"""The full-RNS rlwe backend against the exact Python-integer reference.

The reference computes in exact integers: centered CRT reconstruction of
every coefficient, a negacyclic tensor over an auxiliary basis large enough
for the exact integer product, round(p d / Q) on Python ints, and
relinearization digits d2 mod q_i.  The RNS path must give the same
ciphertext words.

Float ties.  Both RNS roundings decide with a float.  The Q -> P extension
of ct*ct errs only for a coefficient within about 2^-50 Q of +-Q/2, and the
scaling by p/Q only within about 2^-50 of a rounding tie (a single float sum
there errs by up to 2^-21, which would part from the reference in about 2%
of N = 8192 products).  For uniform coefficients that is below 2^-33 per
ct*ct product at N = 8192.  The edge value +-(Q-1)/2 lies 1/(2Q) from such a tie,
which no float resolves; ``test_edge_coefficients`` pins what happens there.
"""

import hashlib
import math

import numpy as np
import pytest

import exact_noise
from exact_noise import crt_reconstruct_centered
from privblock.hecore import create_backend, rlwe
from privblock.hecore.ntt import NttPlan, get_plan
from privblock.modarith import mulmod
from privblock.params import AUX_PRIMES, HeParams, toy_he_params

TOY = toy_he_params(n=64, p=12289, limbs=3)
TOY_P37 = toy_he_params(n=64, p=137438822401, limbs=6)


# -- the exact reference ---------------------------------------------------------
def _col(values):
    return np.array([int(v) for v in values], dtype=np.uint64).reshape(-1, 1)


def _to_ntt(coeffs, plans):
    return np.stack([pl.forward(np.asarray(coeffs % pl.prime, dtype=np.uint64))
                     for pl in plans])


def _centered(be, rows):
    """Exact centered Python-int coefficients of one (L, N) NTT polynomial."""
    return crt_reconstruct_centered([pl.inverse(r) for pl, r in zip(be.plans, rows)],
                                    be.qs)


def _round_pq(be, v):
    """round(p v / Q), halves up, on Python ints."""
    return (2 * be.p * v + be.q) // (2 * be.q)


def ref_tensor(be, a_comps, b_comps):
    """Exact integer tensor (d0, d1, d2) over the fewest auxiliary primes
    whose product exceeds 4 N Q^2."""
    primes = next(AUX_PRIMES[:k] for k in range(1, len(AUX_PRIMES) + 1)
                  if math.prod(AUX_PRIMES[:k]) > 4 * be.n * be.q ** 2)
    plans = [get_plan(pr, be.n) for pr in primes]
    m = _col(primes)
    a0, a1 = (_to_ntt(c, plans) for c in a_comps)
    b0, b1 = (_to_ntt(c, plans) for c in b_comps)
    d1 = (mulmod(a0, b1, m) + mulmod(a1, b0, m)) % m
    return [crt_reconstruct_centered([pl.inverse(r) for pl, r in zip(plans, d)], primes)
            for d in (mulmod(a0, b0, m), d1, mulmod(a1, b1, m))]


def ref_mul_ct(be, a, b, public):
    """The ciphertext words of the product of two ciphertexts whose
    components have the integer coefficients a and b, relinearized."""
    d0, d1, d2 = (_round_pq(be, d) for d in ref_tensor(be, a, b))
    acc = np.stack([_to_ntt(d0, be.plans), _to_ntt(d1, be.plans)])
    for i, qi in enumerate(be.qs):
        w = _to_ntt((d2 % qi).astype(np.uint64), be.plans)
        acc = (acc + mulmod(public.rlk[i], w, be.q_col)) % be.q_col
    return acc


def _lifts(be, ct):
    return [_centered(be, c) for c in ct.data]


def ref_decrypt(be, ct, kp):
    phase = (ct.data[0] + mulmod(ct.data[1], kp._s, be.q_col)) % be.q_col
    m = _round_pq(be, _centered(be, phase)) % be.p
    return be.plan_p.forward(m.astype(np.uint64))


def ref_encrypt(be, slots, public):
    """Encrypt with one NTT per limb for each of m, u, e1 and e2."""
    m_ntt = _to_ntt(be.plan_p.inverse(np.asarray(slots, dtype=np.uint64)), be.plans)
    dm = mulmod(m_ntt, be.delta_col, be.q_col)
    u, e1, e2 = (_to_ntt(f(), be.plans) for f in (be._ternary, be._gauss, be._gauss))
    return (mulmod(public.pk, u, be.q_col) + np.stack([e1 + dm, e2])) % be.q_col


def ref_expand_a(seed, qs, n):
    """The NTT-form ``a`` of a seed, one word at a time: limb i keeps the
    first n little-endian 4-byte words of shake_128(seed || i), each cut to
    the bit length of q_i, that fall below q_i."""
    rows = []
    for i, q in enumerate(qs):
        stream = hashlib.shake_128(seed + bytes([i])).digest(8 * n)
        words = (int.from_bytes(stream[j:j + 4], "little") & ((1 << q.bit_length()) - 1)
                 for j in range(0, len(stream), 4))
        rows.append([w for w in words if w < q][:n])
    return np.array(rows, dtype=np.uint64)


def ref_sk_encrypt(be, slots, kp):
    """Encrypt (e + floor(q/p) m - a s, a) under the secret key, with one NTT
    per limb for each of m and e, and a expanded from a 32-byte seed."""
    m_ntt = _to_ntt(be.plan_p.inverse(np.asarray(slots, dtype=np.uint64)), be.plans)
    e = _to_ntt(be._gauss(), be.plans)
    a = ref_expand_a(be.rng.bytes(32), be.qs, be.n)
    body = e + mulmod(m_ntt, be.delta_col, be.q_col) + be.q_col - mulmod(a, kp._s, be.q_col)
    return np.stack([body % be.q_col, a])


# -- comparisons -----------------------------------------------------------------
def _pair(params, seed):
    """Two backends on the same seed: one runs the RNS path, one the reference."""
    return (create_backend(params, "rlwe", np.random.default_rng(seed)),
            create_backend(params, "rlwe", np.random.default_rng(seed)))


def _ct(be, coeffs, owner="A", noise_bits=1.0):
    """A hand-built ciphertext from signed Python-int coefficient rows."""
    data = np.stack([_to_ntt(np.array([int(v) for v in row], dtype=object), be.plans)
                     for row in coeffs])
    return rlwe.RlweCiphertext(data, owner, noise_bits)


@pytest.mark.parametrize("params", [TOY, TOY_P37, HeParams()], ids=["toy", "toy_p37", "n8192"])
def test_ops_equal_the_exact_reference(params):
    be, ref = _pair(params, 21)
    kp = be.keygen("A")
    ref.keygen("A")  # keeps the two generators in step
    rng = np.random.default_rng(22)
    ms = [rng.integers(0, params.p, size=params.n, dtype=np.uint64) for _ in range(3)]
    cts = []
    for m in ms:
        ct = be.encrypt(m, kp.public)
        assert np.array_equal(ct.data, ref_encrypt(ref, m, kp.public))
        cts.append(ct)
        sk = be.encrypt(m, kp)
        assert np.array_equal(sk.data, ref_sk_encrypt(ref, m, kp))
        assert np.array_equal(be.decrypt(sk, kp), m)
    x, y, z = cts
    prod = be.mul_ct_sum([(x, y)], kp.public)
    assert np.array_equal(prod.data, ref_mul_ct(be, _lifts(be, x), _lifts(be, y), kp.public))
    sq = be.mul_ct_sum([(z, z)], kp.public)
    assert np.array_equal(sq.data, ref_mul_ct(be, _lifts(be, z), _lifts(be, z), kp.public))
    for ct in (x, prod, sq):
        assert np.array_equal(be.decrypt(ct, kp), ref_decrypt(be, ct, kp))


def _near_tie(be, v):
    """Where p v / Q lies within 2^-40 of a rounding tie (Python ints)."""
    return np.array([abs(2 * (be.p * int(t) % be.q) - be.q) < be.q >> 39 for t in v])


@pytest.mark.parametrize("params", [TOY, TOY_P37], ids=["toy", "toy_p37"])
def test_edge_coefficients(params):
    """Coefficients 0, +-1 and +-(Q-1)/2 in every component.

    Inputs of 0 and +-1 multiply exactly.  With +-(Q-1)/2 the extension
    keeps every coefficient but possibly -(Q-1)/2, which it may take as
    (Q+1)/2 (at 3 limbs it does, at 6 it does not): the same value mod Q.
    Their tensor lands on near-ties p d / Q = k + 1/2 +- O(p N / Q), and
    there the scaling may round one below the reference (3, 4 and 6 of the
    64 coefficients of d0, d1, d2 here); nowhere else.  Decrypt of a phase
    coefficient -(Q-1)/2, p/(2Q) above the tie p/2, rounds down: one below
    the reference; every other coefficient decrypts exactly."""
    be, _ = _pair(params, 23)
    kp = be.keygen("A")
    half = (be.q - 1) // 2
    rng = np.random.default_rng(24)
    small = rng.choice([0, 1, -1], size=(4, be.n)).astype(object)
    edge = rng.choice([0, 1, -1, half, -half], size=(4, be.n)).astype(object)
    x, y = _ct(be, small[:2]), _ct(be, small[2:])
    assert np.array_equal(be.mul_ct_sum([(x, y)], kp.public).data,
                          ref_mul_ct(be, list(small[:2]), list(small[2:]), kp.public))

    coeffs = rlwe._transform(_ct(be, edge).data, be.plans, inverse=True)
    taken = [crt_reconstruct_centered(list(ext), be.ps) for ext in be.q_to_p(coeffs)]
    for got, want in zip(taken, edge):
        moved = got != want
        assert (want[moved] == -half).all() and (got[moved] == half + 1).all()
    for d in ref_tensor(be, taken[:2], taken[2:]):
        res = np.stack([(d % m).astype(np.uint64) for m in be.qs + be.ps])
        r = be.scale_qp(res[:be.L]) + mulmod(res[be.L:], be.lam_col, be.p_col)
        off = crt_reconstruct_centered(list(r % be.p_col), be.ps) - _round_pq(be, d)
        assert set(off.tolist()) <= {0, -1} and _near_tie(be, d[off != 0]).all()

    for rows in (small, edge):
        ct = _ct(be, [rows[0], np.zeros(be.n, dtype=object)])  # phase = rows[0]
        got = be.plan_p.inverse(be.decrypt(ct, kp)).astype(object)
        want = be.plan_p.inverse(ref_decrypt(be, ct, kp)).astype(object)
        low = rows[0] == -half
        assert np.array_equal(got[~low], want[~low])
        assert np.array_equal(got[low], (want[low] - 1) % be.p)


# -- machine words and the NTT budget -------------------------------------------------
def test_protocol_ops_stay_in_machine_words(monkeypatch):
    """No protocol op reconstructs a coefficient as a Python int, and each
    op's count of transformed rows is pinned (default parameters: 6 limbs,
    8 in P), as is its count of plan calls, which transform a stack of rows
    each."""
    def refuse(*args):
        raise AssertionError("CRT reconstruction on a protocol path")

    monkeypatch.setattr(exact_noise, "crt_reconstruct_centered", refuse)
    counts = {"forward": 0, "inverse": 0, "forward_calls": 0, "inverse_calls": 0}
    for name in ("forward", "inverse"):
        def counted(self, values, _name=name, _fn=getattr(NttPlan, name)):
            counts[_name] += math.prod(np.shape(values)[:-1])
            counts[_name + "_calls"] += 1
            return _fn(self, values)
        monkeypatch.setattr(NttPlan, name, counted)

    params = HeParams(n=1024, q_primes=HeParams().q_primes, p=HeParams().p)
    be = create_backend(params, "rlwe", np.random.default_rng(25))
    kp = be.keygen("A")
    m = np.arange(params.n, dtype=np.uint64)

    def run(op):
        for name in counts:
            counts[name] = 0
        out = op()
        return out, dict(counts)

    x, c = run(lambda: be.encrypt(m, kp.public))
    assert c == {"forward": 18, "inverse": 1, "forward_calls": 6, "inverse_calls": 1}
    # the own-key (secret-key) encrypt: e and the message share one row
    _, c = run(lambda: be.encrypt(m, kp))
    assert c == {"forward": 6, "inverse": 1, "forward_calls": 6, "inverse_calls": 1}
    y = be.encrypt(m[::-1].copy(), kp.public)
    for op in (lambda: be.add_pt(x, m), lambda: be.sub_pt(x, m),
               lambda: be.mul_pt(x, m), lambda: be.add_ct(x, y)):
        run(op)
    # a scalar operand is the constant polynomial: no transform at all
    for op in (be.add_pt, be.sub_pt, be.mul_pt):
        _, c = run(lambda: op(x, 12345))
        assert c == dict.fromkeys(counts, 0)
    prod, c = run(lambda: be.mul_ct_sum([(x, y)], kp.public))
    assert c["forward"] <= 80 and c["inverse"] <= 66
    assert c["forward_calls"] + c["inverse_calls"] <= 40
    # a 2-pair sum shares the inverse transforms, scaling and
    # relinearization: fewer rows than two products
    _, c = run(lambda: be.mul_ct_sum([(x, y), (y, x)], kp.public))
    assert c["forward"] + c["inverse"] < 2 * (80 + 66)
    assert c["forward"] <= 112 and c["inverse"] <= 90
    sq, c = run(lambda: be.mul_ct_sum([(x, x)], kp.public))
    assert c["forward"] <= 64 and c["inverse"] <= 54
    assert c["forward_calls"] + c["inverse_calls"] <= 40
    got, _ = run(lambda: be.decrypt(prod, kp))
    assert np.array_equal(got.astype(object), m.astype(object) * m[::-1] % params.p)
    got, _ = run(lambda: be.decrypt(sq, kp))
    assert np.array_equal(got.astype(object), m.astype(object) ** 2 % params.p)


@pytest.mark.parametrize("params", [TOY_P37, HeParams()], ids=["toy_p37", "n8192"])
def test_seed_expansion(params):
    """``a`` of a seeded ciphertext is the word-by-word reference expansion
    of its seed alone: two backends on different RNGs expand a seed alike,
    every entry lies below its limb prime, another seed gives another
    ``a``, and a first read too short for any limb, which takes the
    extension path, gives the same ``a``."""
    be = create_backend(params, "rlwe", np.random.default_rng(30))
    other = create_backend(params, "rlwe", np.random.default_rng(31))
    kp = be.keygen("A")
    ct = be.encrypt(np.arange(params.n, dtype=np.uint64), kp)
    a = ct.data[1]
    assert len(ct.seed) == 32
    assert np.array_equal(a, other._expand_a(ct.seed))
    assert np.array_equal(a, ref_expand_a(ct.seed, be.qs, be.n))
    assert (a < be.q_col).all()
    assert not np.array_equal(a, be._expand_a(bytes(32)))
    other.a_words = [be.n // 2] * be.L
    assert np.array_equal(a, other._expand_a(ct.seed))
    other.a_words = [1] * be.L
    assert np.array_equal(a, other._expand_a(ct.seed))
    # the receiver's re-expansion restores the sender's ciphertext
    back = other.deserialize(be.serialize(ct), seeded=True)
    assert np.array_equal(back.data, ct.data) and back.seed == ct.seed
    assert np.array_equal(be.decrypt(back, kp), np.arange(params.n) % params.p)
