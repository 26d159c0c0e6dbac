import socket
import struct

import numpy as np
import pytest

from exact_noise import measured_noise_bits
from privblock import fixedpoint as fp
from privblock import hecore
from privblock.hecore import (FRESH, HEADER_BYTES, SEED_BYTES, KeyMismatch, MalformedBytes,
                              MissingRelinKey, NoiseExhausted, create_backend, ct_bytes,
                              noise, pack_slots, parse_header)
from privblock.hecore.clear import ClearBackend
from privblock.hecore.rlwe import RlweBackend
from privblock.model import BlockWeights, infer_block, toy_block_config
from privblock.params import Config, HeParams, ParamError, toy_he_params
from privblock.protocols import (LnParams, ShapeMismatch, pi_gelu, pi_ln,
                                 pi_matmul, pi_matmul_shared, pi_softmax)
from privblock.channel import FRAME_OVERHEAD, PROFILES, TcpSession, make_pair, run_pair
from privblock.protocols import common, make_party
from privblock.protocols.common import PartyCtx
from privblock.sharing import reconstruct, share

TOY = toy_he_params(n=64, p=12289, limbs=3)


def backends(params=TOY, seed=0):
    rng = np.random.default_rng(seed)
    rng2 = np.random.default_rng(seed)
    return (create_backend(params, "rlwe", rng),
            create_backend(params, "clear", rng2))


def test_param_validation():
    with pytest.raises(ParamError):
        HeParams(n=64, q_primes=TOY.q_primes, p=12347)  # prime, not 1 mod 2N
    with pytest.raises(ParamError):
        HeParams(n=48, q_primes=TOY.q_primes, p=12289)  # not a power of two
    with pytest.raises(ParamError, match="2 limbs"):
        HeParams(n=64, q_primes=TOY.q_primes[:1], p=12289)


def test_keygen_roundtrip_zero_and_random():
    be, _ = backends()
    kp = be.keygen("A")
    zero = np.zeros(64, dtype=np.uint64)
    assert np.array_equal(be.decrypt(be.encrypt(zero, kp.public), kp), zero)
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = rng.integers(0, TOY.p, size=64, dtype=np.uint64)
        assert np.array_equal(be.decrypt(be.encrypt(m, kp.public), kp), m)


def test_wrong_key_rejected():
    """Both backends fail the same way on ciphertexts that do not belong
    together: another party's key, another backend's wire form."""
    for be, other in zip(backends(), backends()[::-1]):
        ka, kb = be.keygen("A"), be.keygen("B")
        ct = be.encrypt(np.arange(64, dtype=np.uint64), ka.public)
        with pytest.raises(KeyMismatch):
            be.decrypt(ct, kb)
        with pytest.raises(KeyMismatch):
            be.add_ct(ct, be.encrypt(np.arange(64, dtype=np.uint64), kb.public))
        with pytest.raises(MalformedBytes):
            be.deserialize(other.serialize(other.encrypt(np.arange(64, dtype=np.uint64),
                                                         other.keygen("A"))))


def test_simd_plaintext_pack():
    slots = pack_slots([1, 2, 3], TOY)
    assert slots.size == 64 and slots[3:].sum() == 0
    with pytest.raises(ParamError):
        pack_slots(np.full(65, 1), TOY)
    with pytest.raises(ParamError):
        pack_slots([TOY.p], TOY)


@pytest.mark.parametrize("op", ["encrypt", "add_pt", "sub_pt", "mul_pt"])
def test_every_plaintext_is_packed_and_checked(op):
    """Both backends reject a slot >= p and more than N values in every
    plaintext they take, instead of reducing or padding it their own way."""
    for be in backends():
        pub = be.keygen("A").public
        ct = be.encrypt(np.arange(64, dtype=np.uint64), pub)
        apply = ((lambda v: be.encrypt(v, pub)) if op == "encrypt"
                 else (lambda v: getattr(be, op)(ct, v)))
        for bad in (np.full(4, TOY.p + 5, dtype=np.uint64),
                    np.ones(TOY.n + 1, dtype=np.uint64), TOY.p + 5, -1):
            with pytest.raises(ParamError):
                apply(bad)


# a product and a square are one-pair sums, (x, y) and (x, x)
OPS = ("add_pt", "sub_pt", "mul_pt", "add_ct", "mul_ct", "square", "neg_ct")


def test_differential_random_programs():
    """Random op sequences decrypt bit-identically on both backends."""
    rbe, cbe = backends(seed=3)
    kr, kc = rbe.keygen("A"), cbe.keygen("A")
    rng = np.random.default_rng(4)
    prog_rng = np.random.default_rng(5)
    for _ in range(12):
        m0 = rng.integers(0, TOY.p, size=64, dtype=np.uint64)
        ctr, ctc = rbe.encrypt(m0, kr.public), cbe.encrypt(m0, kc.public)
        exhausted = False
        for _ in range(4):
            op = OPS[prog_rng.integers(0, len(OPS))]
            try:
                if op in ("add_pt", "sub_pt", "mul_pt"):
                    arg = rng.integers(0, TOY.p, size=64, dtype=np.uint64)
                    ctr = getattr(rbe, op)(ctr, arg)
                    ctc = getattr(cbe, op)(ctc, arg)
                elif op in ("add_ct", "mul_ct"):
                    m2 = rng.integers(0, TOY.p, size=64, dtype=np.uint64)
                    otr, otc = rbe.encrypt(m2, kr.public), cbe.encrypt(m2, kc.public)
                    if op == "add_ct":
                        ctr, ctc = rbe.add_ct(ctr, otr), cbe.add_ct(ctc, otc)
                    else:
                        ctr = rbe.mul_ct_sum([(ctr, otr)], kr.public)
                        ctc = cbe.mul_ct_sum([(ctc, otc)], kc.public)
                elif op == "square":
                    ctr = rbe.mul_ct_sum([(ctr, ctr)], kr.public)
                    ctc = cbe.mul_ct_sum([(ctc, ctc)], kc.public)
                else:
                    ctr, ctc = rbe.neg_ct(ctr), cbe.neg_ct(ctc)
            except NoiseExhausted:
                # both backends must run out of budget on the same op
                with pytest.raises(NoiseExhausted):
                    cbe.mul_ct_sum([(ctc, ctc if op == "square" else otc)], kc.public)
                exhausted = True
                break
        if not exhausted:
            assert np.array_equal(rbe.decrypt(ctr, kr), cbe.decrypt(ctc, kc))


def test_slotwise_identities():
    be, _ = backends(seed=6)
    kp = be.keygen("A")
    rng = np.random.default_rng(7)
    m = rng.integers(0, TOY.p, size=64, dtype=np.uint64)
    c = rng.integers(0, TOY.p, size=64, dtype=np.uint64)
    ones = np.ones(64, dtype=np.uint64)
    assert np.array_equal(be.decrypt(be.mul_pt(be.encrypt(ones, kp.public), c), kp), c)
    ct = be.encrypt(m, kp.public)
    assert np.array_equal(be.decrypt(be.add_pt(ct, np.zeros(64, dtype=np.uint64)), kp), m)
    assert np.array_equal(be.decrypt(be.add_ct(ct, be.encrypt(np.zeros(64, dtype=np.uint64), kp.public)), kp), m)
    ct = be.encrypt(np.arange(64, dtype=np.uint64), kp.public)
    sq = be.decrypt(be.mul_ct_sum([(ct, ct)], kp.public), kp)
    assert np.array_equal(sq.astype(object), (np.arange(64, dtype=object) ** 2) % TOY.p)


def test_missing_relin_key():
    be, cbe = backends(seed=8)
    kp = be.keygen("A", with_relin=False)
    ct = be.encrypt(np.arange(64, dtype=np.uint64), kp.public)
    with pytest.raises(MissingRelinKey):
        be.mul_ct_sum([(ct, ct)], kp.public)
    ckp = cbe.keygen("A", with_relin=False)
    cct = cbe.encrypt(np.arange(64, dtype=np.uint64), ckp.public)
    with pytest.raises(MissingRelinKey):
        cbe.mul_ct_sum([(cct, cct)], ckp.public)


@pytest.mark.parametrize("kind", ["clear", "rlwe"])
def test_product_under_a_peer_key_without_relinearization(kind):
    """A key blob carries its relinearization flag on both backends: A's
    copy of B's key, which B builds without one, refuses a product of B's
    ciphertexts with ``MissingRelinKey``, and B's copy of A's key admits
    it."""
    be_a, be_b = (create_backend(TOY, kind, np.random.default_rng(seed)) for seed in (21, 22))
    kp_a, kp_b = be_a.keygen("A", with_relin=True), be_b.keygen("B", with_relin=False)
    b_at_a = be_a.parse_public_key(kp_b.public.to_bytes())
    a_at_b = be_b.parse_public_key(kp_a.public.to_bytes())
    assert (b_at_a.has_relin, a_at_b.has_relin) == (False, True)
    m = np.arange(64, dtype=np.uint64)
    ct_b = be_a.deserialize(be_b.serialize(be_b.encrypt(m, kp_b)), seeded=True)
    with pytest.raises(MissingRelinKey):
        be_a.mul_ct_sum([(ct_b, ct_b)], b_at_a)
    ct_a = be_b.deserialize(be_a.serialize(be_a.encrypt(m, kp_a)), seeded=True)
    got = be_a.decrypt(be_b.mul_ct_sum([(ct_a, ct_a)], a_at_b), kp_a)
    assert np.array_equal(got.astype(object), (m.astype(object) ** 2) % TOY.p)


def test_serialize_roundtrip_and_malformed():
    for be in backends(seed=9):
        kp = be.keygen("A")
        m = np.random.default_rng(10).integers(0, TOY.p, size=64, dtype=np.uint64)
        ct = be.encrypt(m, kp.public)
        blob = be.serialize(ct)
        assert np.array_equal(be.decrypt(be.deserialize(blob), kp), m)
        assert be.serialize(be.deserialize(blob)) == blob
        with pytest.raises(MalformedBytes):
            be.deserialize(blob[:-7])
        with pytest.raises(MalformedBytes):
            be.deserialize(b"XXXX" + blob[4:])


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
def test_deserialize_rejects_component_counts_and_noise_fields(backend):
    """A blob of the right length for 0 or 3 components, or whose noise
    field is NaN, infinite or negative, is ``MalformedBytes`` on both
    backends, not a ciphertext that fails later or escapes the budget
    gates."""
    be = create_backend(TOY, backend, np.random.default_rng(14))
    blob = bytearray(be.serialize(be.encrypt(np.arange(64, dtype=np.uint64),
                                             be.keygen("A").public)))
    for ncomp in (0, 3):
        bad = blob[:HEADER_BYTES] + bytes(ncomp * TOY.limbs * TOY.n * 4)
        bad[8] = ncomp
        with pytest.raises(MalformedBytes, match="components"):
            be.deserialize(bytes(bad))
    for noise_bits in (float("nan"), float("inf"), float("-inf"), -1.0):
        bad = blob[:12] + struct.pack(">f", noise_bits) + blob[16:]
        with pytest.raises(MalformedBytes, match="noise"):
            be.deserialize(bytes(bad))
    blob[12:16] = struct.pack(">f", 0.0)
    assert be.deserialize(bytes(blob)).noise_bits == 0.0


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
def test_flags_byte_and_seed_are_checked(backend, monkeypatch):
    """A secret-key encryption serializes seeded (flag bit 0, the seed,
    then c0 alone) and parses back only where a seeded ciphertext is
    expected; a public-key one serializes whole.  A flipped flag, a flags
    byte no rule defines, a cut seed, and a seeded blob where an unseeded
    one is expected (and the reverse) raise ``MalformedBytes`` on both
    backends before the body is parsed: no buffer is read past the
    header."""
    be = create_backend(TOY, backend, np.random.default_rng(16))
    kp = be.keygen("A")
    m = np.arange(64, dtype=np.uint64)
    ct = be.encrypt(m, kp)
    seeded, whole = be.serialize(ct), be.serialize(be.encrypt(m, kp.public))
    assert len(seeded) == ct_bytes(TOY, seeded=True) == \
        HEADER_BYTES + SEED_BYTES + TOY.limbs * TOY.n * 4
    assert len(whole) == ct_bytes(TOY) and seeded[11] == 1 and whole[11] == 0
    assert seeded[HEADER_BYTES:HEADER_BYTES + SEED_BYTES] == ct.seed
    assert parse_header(seeded, TOY)[3] and not parse_header(whole, TOY)[3]
    back = be.deserialize(seeded, seeded=True)
    assert back.seed == ct.seed and be.serialize(back) == seeded
    assert np.array_equal(be.decrypt(back, kp), m)
    # an operation's result is unseeded, and serializes whole
    assert be.add_pt(ct, 0).seed is None and len(be.serialize(be.add_pt(ct, 0))) == len(whole)

    def flagged(blob, flags):
        return blob[:11] + bytes([flags]) + blob[12:]

    bad = [(flagged(seeded, 0), True, "unseeded ciphertext where a seeded"),
           (flagged(seeded, 0), False, "truncated"),
           (flagged(whole, 1), False, "seeded ciphertext where an unseeded"),
           (flagged(whole, 1), True, "truncated"),
           (seeded, False, "seeded ciphertext where an unseeded"),
           (whole, True, "unseeded ciphertext where a seeded"),
           (seeded[:HEADER_BYTES + 10], True, "truncated"),
           (seeded[:HEADER_BYTES + 10] + seeded[HEADER_BYTES + SEED_BYTES:], True,
            "truncated")]
    bad += [(flagged(blob, flags), want, "undefined ciphertext flags")
            for flags in (2, 3, 0x80, 0xFF) for blob, want in ((seeded, True), (whole, False))]

    def no_body(*args, **kwargs):
        raise AssertionError("the body was parsed")

    monkeypatch.setattr(hecore.np, "frombuffer", no_body)
    for blob, want, match in bad:
        with pytest.raises(MalformedBytes, match=match):
            be.deserialize(blob, seeded=want)


def test_wire_sizes_match_across_backends():
    rbe, cbe = backends(seed=11)
    kr, kc = rbe.keygen("A"), cbe.keygen("A")
    m = np.arange(64, dtype=np.uint64)
    assert len(rbe.serialize(rbe.encrypt(m, kr.public))) == \
        len(cbe.serialize(cbe.encrypt(m, kc.public))) == ct_bytes(TOY)


def test_default_params_ct_size_bracket():
    params = HeParams()
    be = create_backend(params, "rlwe", np.random.default_rng(12))
    kp = be.keygen("A", with_relin=False)
    ct = be.encrypt(np.arange(params.n, dtype=np.uint64), kp.public)
    size = len(be.serialize(ct))
    assert 300 * 1024 <= size <= 400 * 1024


def test_depth2_chain_default_params():
    params = HeParams()
    be = create_backend(params, "rlwe", np.random.default_rng(13))
    kp = be.keygen("A")
    rng = np.random.default_rng(14)
    m1 = rng.integers(0, params.p, size=params.n, dtype=np.uint64)
    m2 = rng.integers(0, params.p, size=params.n, dtype=np.uint64)
    ct = be.mul_ct_sum([(be.encrypt(m1, kp.public), be.encrypt(m2, kp.public))], kp.public)
    ct = be.mul_ct_sum([(ct, ct)], kp.public)
    want = ((m1.astype(object) * m2.astype(object)) ** 2) % params.p
    assert np.array_equal(be.decrypt(ct, kp).astype(object), want)
    assert measured_noise_bits(be, ct, kp) <= ct.noise_bits


def test_noise_monotone_and_loud_exhaustion():
    rbe, cbe = backends(seed=15)
    for be in (rbe, cbe):
        kp = be.keygen("A")
        m = np.full(64, 3, dtype=np.uint64)
        ct = be.encrypt(m, kp.public)
        prev = ct.noise_bits
        with pytest.raises(NoiseExhausted):
            for _ in range(20):
                ct = be.mul_ct_sum([(ct, ct)], kp.public)
                assert ct.noise_bits > prev
                prev = ct.noise_bits


def test_noise_estimate_dominates_measurement():
    be, _ = backends(seed=16)
    kp = be.keygen("A")
    rng = np.random.default_rng(17)
    m = rng.integers(0, TOY.p, size=64, dtype=np.uint64)
    ct = be.encrypt(m, kp.public)
    assert measured_noise_bits(be, ct, kp) <= ct.noise_bits
    ct2 = be.mul_ct_sum([(ct, ct)], kp.public)
    assert measured_noise_bits(be, ct2, kp) <= ct2.noise_bits
    # the secret-key encryption, under the same estimate
    sk = be.encrypt(m, kp)
    assert np.array_equal(be.decrypt(sk, kp), m) and sk.noise_bits == ct.noise_bits
    assert measured_noise_bits(be, sk, kp) <= sk.noise_bits
    # the cross-term chain of layernorm and softmax: two fresh own-key
    # ciphertexts, each times a full-range vector, added, then a vector
    # add_pt and sub_pt; at the toy and the default parameters
    for params in (TOY, HeParams()):
        be, _ = backends(params, seed=18)
        kp = be.keygen("B")
        x, y, u, v, c, r = (rng.integers(0, params.p, size=params.n, dtype=np.uint64)
                            for _ in range(6))
        cross = be.add_ct(be.mul_pt(be.encrypt(x, kp), u), be.mul_pt(be.encrypt(y, kp), v))
        chain = be.sub_pt(be.add_pt(cross, c), r)
        want = (x.astype(object) * u + y.astype(object) * v + c.astype(object) - r) % params.p
        assert np.array_equal(be.decrypt(chain, kp).astype(object), want)
        assert measured_noise_bits(be, chain, kp) <= chain.noise_bits
        # replies, switched down to 2 limbs: of a fresh ciphertext, of the
        # cross-term chain and of a depth-2 ct*ct product, each decrypting
        # exactly under an estimate above the noise measured at Q_2
        xy = be.mul_ct_sum([(be.encrypt(x, kp.public), be.encrypt(y, kp.public))],
                           kp.public)
        depth2 = be.mul_ct_sum([(xy, xy)], kp.public)
        sq = (x.astype(object) * y) ** 2
        assert hecore.reply_limbs(params) == 2
        for ct, value in ((be.encrypt(x, kp), x.astype(object)), (chain, want),
                          (depth2, sq)):
            got = be.reply(ct, r)
            assert got.limbs == 2 and got.noise_bits < ct.noise_bits
            assert np.array_equal(be.decrypt(got, kp).astype(object), (value - r) % params.p)
            assert measured_noise_bits(be, got, kp) <= got.noise_bits
            assert hecore.noise_budget_bits(params, got.noise_bits, 2) > 0


@pytest.mark.parametrize("params", [TOY, HeParams()], ids=["toy", "n8192"])
def test_mul_ct_sum(params):
    """A sum of k products decrypts to the k products added one by one, on
    both backends, under one estimate that dominates the measured noise; a
    fan-in above the cap the auxiliary basis sets, an empty sum and mixed
    keys raise on both."""
    rng = np.random.default_rng(26)
    rbe, cbe = backends(params, seed=27)
    kr, kc = rbe.keygen("A"), cbe.keygen("A")
    assert rbe.max_fan_in == cbe.max_fan_in >= 4
    k = 4 if params.n == TOY.n else 2
    ms = [rng.integers(0, params.p, size=params.n, dtype=np.uint64) for _ in range(2 * k)]
    idx = [(2 * i, 2 * i + 1) for i in range(k - 1)] + [(2 * k - 2, 2 * k - 2)]  # a square
    want = sum(ms[i].astype(object) * ms[j] for i, j in idx) % params.p
    sums = []
    for be, kp in ((rbe, kr), (cbe, kc)):
        cts = [be.encrypt(m, kp) for m in ms]
        pairs = [(cts[i], cts[j]) for i, j in idx]
        got = be.mul_ct_sum(pairs, kp.public)
        one_by_one = be.mul_ct_sum(pairs[:1], kp.public)
        for pair in pairs[1:]:
            one_by_one = be.add_ct(one_by_one, be.mul_ct_sum([pair], kp.public))
        assert np.array_equal(be.decrypt(got, kp).astype(object), want)
        assert np.array_equal(be.decrypt(got, kp), be.decrypt(one_by_one, kp))
        assert got.noise_bits <= one_by_one.noise_bits
        sums.append(got)
        with pytest.raises(ParamError):
            be.mul_ct_sum([pairs[0]] * (be.max_fan_in + 1), kp.public)
        with pytest.raises(ParamError):
            be.mul_ct_sum([], kp.public)
        other = be.encrypt(ms[0], be.keygen("B"))
        with pytest.raises(KeyMismatch):
            be.mul_ct_sum([pairs[0], (other, other)], kp.public)
    assert sums[0].noise_bits == sums[1].noise_bits
    assert measured_noise_bits(rbe, sums[0], kr) <= sums[0].noise_bits


def test_scalar_operand_is_the_constant_polynomial():
    """An int operand c is the constant polynomial c: on rlwe the same
    ciphertext words as the vector with c in every slot, on clear the same
    slots.  Add and subtract estimates agree; a multiply's estimate uses |c|
    centered for the int and (p - 1)/2 for the vector, on both backends."""
    rbe, cbe = backends(seed=28)
    kr, kc = rbe.keygen("A"), cbe.keygen("A")
    m = np.random.default_rng(29).integers(0, TOY.p, size=64, dtype=np.uint64)
    xr, xc = rbe.encrypt(m, kr), cbe.encrypt(m, kc)
    for c in (0, 1, 5, TOY.p // 2, TOY.p // 2 + 1, TOY.p - 1):
        full = np.full(TOY.n, c, dtype=np.uint64)
        for op in ("add_pt", "sub_pt", "mul_pt"):
            got, ref = getattr(rbe, op)(xr, c), getattr(rbe, op)(xr, full)
            assert np.array_equal(got.data, ref.data)
            if op == "mul_pt":
                assert got.noise_bits == noise.mul_pt_bits(TOY, xr.noise_bits,
                                                           min(c, TOY.p - c))
                assert ref.noise_bits == noise.mul_pt_bits(TOY, xr.noise_bits,
                                                           (TOY.p - 1) // 2)
            else:
                assert got.noise_bits == ref.noise_bits
            got_c, ref_c = getattr(cbe, op)(xc, c), getattr(cbe, op)(xc, full)
            assert np.array_equal(got_c.slots, ref_c.slots)
            assert got_c.noise_bits == got.noise_bits and ref_c.noise_bits == ref.noise_bits
            assert np.array_equal(cbe.decrypt(got_c, kc), rbe.decrypt(got, kr))


WIDE = toy_he_params(n=256, p=137438822401, limbs=6)


def test_clear_int_operand_at_a_wide_prime():
    """At the 37-bit default p an int operand takes every route of the
    scalar multiply (one product, one product of the negated operand, the
    split product): each op's slots equal the vector with c in every slot,
    its estimate equals rlwe's for the same int, and c >= p still raises."""
    rbe, cbe = backends(WIDE, seed=30)
    kr, kc = rbe.keygen("A"), cbe.keygen("A")
    p = WIDE.p
    m = np.random.default_rng(31).integers(0, p, size=WIDE.n, dtype=np.uint64)
    m[:3] = [0, 1, p - 1]
    xr, xc = rbe.encrypt(m, kr), cbe.encrypt(m, kc)
    for c in (0, 1, p - 1, p // 2, p // 2 + 1, (1 << 26) - 1, (1 << 26) + 1,
              p - (1 << 26), np.uint64(77), np.int64(p - 3)):
        full = np.full(WIDE.n, c, dtype=np.uint64)
        for op in ("add_pt", "sub_pt", "mul_pt"):
            got, ref = getattr(cbe, op)(xc, c), getattr(cbe, op)(xc, full)
            assert np.array_equal(got.slots, ref.slots), (op, c)
            assert got.noise_bits == getattr(rbe, op)(xr, c).noise_bits
            if op != "mul_pt":
                assert got.noise_bits == ref.noise_bits
        want = [int(v) * int(c) % p for v in m]
        assert cbe.mul_pt(xc, c).slots.tolist() == want
    for bad in (p, p + 5, (1 << 64) - 1, -1):
        for op in ("add_pt", "sub_pt", "mul_pt"):
            with pytest.raises(ParamError):
                getattr(cbe, op)(xc, bad)


def _data(ct):
    return ct.data if hasattr(ct, "data") else ct.slots


def _chain(be, terms):
    """The per-term chain a ``pt_sum`` replaces: mul_pt, then add_ct."""
    out = be.mul_pt(*terms[0])
    for x, pt in terms[1:]:
        out = be.add_ct(out, be.mul_pt(x, pt))
    return out


def _summed(be, terms):
    total = be.pt_sum()
    for x, pt in terms:
        total.add(x, pt)
    return total.result()


def _same(got, want):
    assert np.array_equal(_data(got), _data(want))
    assert got.noise_bits == want.noise_bits and got.owner == want.owner
    assert got.limbs == want.limbs and got.seed is None


@pytest.mark.parametrize("operand", ["vector", "int", "mixed"])
@pytest.mark.parametrize("backend,count", [("clear", 600), ("rlwe", 40)])
def test_pt_sum_is_the_chain_bit_for_bit(backend, count, operand):
    """A sum of ciphertext*plaintext products over more than ``lazy_terms``
    terms (256 on clear at the 37-bit p, 16 on rlwe at 30-bit limbs), and
    of one term, equals the mul_pt/add_ct chain bit for bit: the same
    residues and the same noise estimate, folded in the same order."""
    be = create_backend(WIDE, backend, np.random.default_rng(40))
    kp = be.keygen("A")
    assert be.pt_sum().lazy_terms == {"clear": 256, "rlwe": 16}[backend] < count
    rng = np.random.default_rng(41)
    p = WIDE.p
    xs = [be.encrypt(rng.integers(0, p, size=WIDE.n, dtype=np.uint64), kp)
          for _ in range(count)]
    ints = [int(c) for c in rng.integers(0, p, size=count)]
    vecs = [rng.integers(0, p, size=WIDE.n - 5 * (i % 2), dtype=np.uint64)
            for i in range(count)]
    pts = {"vector": vecs, "int": ints,
           "mixed": [v if i % 3 else c for i, (v, c) in enumerate(zip(vecs, ints))]}[operand]
    terms = list(zip(xs, pts))
    _same(_summed(be, terms), _chain(be, terms))
    _same(_summed(be, terms[:1]), be.mul_pt(*terms[0]))


def _largest_prime(n: int) -> int:
    """The largest p below 2^41 (the widest the kernels take) with p = 1
    mod 2N: the largest plaintext modulus parameters of degree N allow."""
    from privblock.params import _is_prime
    return next(c for c in range((1 << 41) - 2 * n + 1, 0, -2 * n) if _is_prime(c))


@pytest.mark.parametrize("p,lazy", [(137438822401, 256), (_largest_prime(64), 2)],
                         ids=["p37", "p41"])
def test_clear_pt_sum_worst_case_wraps_nothing(p, lazy):
    """Every slot p - 1 times the largest plaintext halves a 19-bit split
    can give (p - 1, and the largest value below p whose low 19 bits are
    all ones), over three reductions' worth of terms: no uint64 sum wraps,
    at the default 37-bit p and at the largest p the kernels allow."""
    params = toy_he_params(n=64, p=p, limbs=3)
    be = create_backend(params, "clear", np.random.default_rng(42))
    assert be.pt_sum().lazy_terms == lazy
    x = be.encrypt(np.full(params.n, p - 1, dtype=np.uint64), be.keygen("A"))
    low_ones = ((p >> 19) << 19) - 1
    for pt in (p - 1, np.full(params.n, p - 1, dtype=np.uint64),
               np.full(params.n, low_ones, dtype=np.uint64)):
        terms = [(x, pt)] * (3 * lazy + 1)
        got = _summed(be, terms)
        _same(got, _chain(be, terms))
        want = (p - 1) * int(np.max(pt)) * len(terms) % p
        assert (got.slots == want).all()


def test_rlwe_pt_sum_worst_case_wraps_nothing():
    """Every residue q_i - 1 times the int p - 1, whose constant
    polynomial is -1, q_i - 1 in every limb: each product is (q_i - 1)^2,
    the largest a limb takes, and 40 of them (more than twice
    ``lazy_terms``) sum as the chain does."""
    be = create_backend(WIDE, "rlwe", np.random.default_rng(43))
    q = np.array(WIDE.q_primes, dtype=np.uint64).reshape(-1, 1)
    data = np.broadcast_to(q - 1, (2, WIDE.limbs, WIDE.n)).copy()
    x = type(be.encrypt(0, be.keygen("A")))(data, "A", 20.0)
    assert np.array_equal(be._pt_ntt(WIDE.p - 1), q - 1)
    terms = [(x, WIDE.p - 1)] * 40
    _same(_summed(be, terms), _chain(be, terms))


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
def test_pt_sum_fails_as_the_chain_does(backend):
    """A reply operand (``LevelMismatch``), ciphertexts under two keys
    (``KeyMismatch``) and a plaintext at or above p or longer than N
    (``ParamError``) raise what the chain raises; a sum of no terms is a
    ``ParamError``."""
    be = create_backend(TOY, backend, np.random.default_rng(44))
    ka, kb = be.keygen("A"), be.keygen("B")
    m = np.random.default_rng(45).integers(0, TOY.p, size=TOY.n, dtype=np.uint64)
    xa, xb = be.encrypt(m, ka), be.encrypt(m, kb)
    rep = be.reply(be.mul_pt(xa, 3), m)
    too_big = np.full(TOY.n, TOY.p, dtype=np.uint64)
    for terms, error in (([(rep, m)], hecore.LevelMismatch),
                         ([(xa, m), (rep, m)], hecore.LevelMismatch),
                         ([(xa, m), (xb, m)], KeyMismatch),
                         ([(xa, m), (xa, too_big)], ParamError),
                         ([(xa, TOY.p)], ParamError),
                         ([(xa, np.ones(TOY.n + 1, dtype=np.uint64))], ParamError)):
        with pytest.raises(error):
            _chain(be, terms)
        with pytest.raises(error):
            _summed(be, terms)
    with pytest.raises(ParamError):
        be.pt_sum().result()


def test_encrypted_vector_pt_sum(toy_cfg, rlwe_toy_cfg, pair_runner):
    """``CtVec.mul_pt_sum`` over vectors of two blocks equals the chain of
    ``mul_pt`` and ``add_ct`` block for block, and a plaintext or a vector
    of another size raises ``ShapeMismatch`` as the chain does."""
    def fa(ctx):
        n, p = ctx.he_params.n, ctx.he_params.p
        rng = np.random.default_rng(46)
        a, b = (ctx.encrypt(rng.integers(0, p, size=n + 3, dtype=np.uint64))
                for _ in range(2))
        u = rng.integers(0, p, size=n + 3, dtype=np.uint64)
        got = common.CtVec.mul_pt_sum([(a, u), (b, 7), (a, u)])
        want = a.mul_pt(u).add_ct(b.mul_pt(7)).add_ct(a.mul_pt(u))
        assert len(got.cts) == 2 and got.size == n + 3
        for g, w in zip(got.cts, want.cts):
            _same(g, w)
        short = ctx.encrypt(np.arange(n, dtype=np.uint64))
        for bad in (lambda: common.CtVec.mul_pt_sum([(a, u[:-1])]),
                    lambda: common.CtVec.mul_pt_sum([(a, u), (short, 1)]),
                    lambda: a.mul_pt(u[:-1]), lambda: a.add_ct(short)):
            with pytest.raises(ShapeMismatch):
                bad()

    for cfg in (toy_cfg, rlwe_toy_cfg):
        pair_runner(cfg, fa, lambda ctx: None)


def test_no_rotation_anywhere():
    """The rotation operation is absent from the API by design."""
    rbe, cbe = backends(seed=18)
    for be in (rbe, cbe):
        names = [n.lower() for n in dir(be)]
        assert not any("rot" in n or "galois" in n or "shift" in n for n in names)


def test_encrypted_vector_blocks_and_shapes(toy_cfg, rlwe_toy_cfg, pair_runner):
    """A CtVec spans ceil(size/N) blocks, applies an int operand to every
    slot of every block, tail slots included (the backend's constant
    polynomial), and rejects operands of another size; on both backends."""
    p = toy_cfg.fixedpoint.p

    def fa(ctx):
        n = ctx.he_params.n
        vec = ctx.encrypt(np.arange(n + 3, dtype=np.uint64))
        assert len(vec.cts) == 2
        with pytest.raises(ShapeMismatch):
            vec.add_ct(ctx.encrypt(np.arange(n, dtype=np.uint64)))
        with pytest.raises(ShapeMismatch):
            vec.mul_pt(np.ones(n, dtype=np.uint64))
        out = common.CtVec.mul_ct_sum([(vec.add_pt(5), vec.neg_ct())])
        want = (p - (np.arange(n + 3) + 5) * np.arange(n + 3) % p) % p
        assert np.array_equal(ctx.decrypt(out), want.astype(np.uint64))
        assert not ctx.backend.decrypt(out.cts[1], ctx.keypair)[3:].any()
        tail = ctx.backend.decrypt(vec.add_pt(5).cts[1], ctx.keypair)[3:]
        assert (tail == 5).all()

    for cfg in (toy_cfg, rlwe_toy_cfg):
        pair_runner(cfg, fa, lambda ctx: None)


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
def test_share_conversions_round_trip(pair_runner, backend):
    """At N=64, on vectors of 3 and 2 blocks: ``send_masked`` and
    ``recv_decrypted`` leave shares of the encrypted values,
    ``send_encrypted`` and ``recv_added`` a vector that decrypts to the sum
    of the shares, and a mask drawn with ``bits`` stays below
    p - 2^(bits+1)."""
    cfg = Config(he=toy_he_params(n=64, p=137438822401, limbs=6), he_backend=backend)
    p, bits = cfg.fixedpoint.p, 34
    rng = np.random.default_rng(6)
    x, sa, sb = ([rng.integers(0, p, size=size, dtype=np.uint64) for size in (150, 70)]
                 for _ in range(3))

    def fa(ctx):
        ctx.send_cts("values", map(ctx.encrypt, x), 150, 70, forms=(FRESH, FRESH))
        shares = ctx.recv_decrypted("masked", 150, 70)
        [bounded] = ctx.recv_decrypted("bounded", 70)
        ctx.send_encrypted("shares", *sa)
        return shares, bounded, [ctx.decrypt(v) for v in ctx.recv_cts("sums", 150, 70)]

    def fb(ctx):
        vecs = list(ctx.recv_cts("values", 150, 70, forms=(FRESH, FRESH)))
        assert [len(v.cts) for v in vecs] == [3, 2]
        masks = ctx.send_masked("masked", iter(vecs), 150, 70)
        [bounded] = ctx.send_masked("bounded", vecs[1:], 70, bits=bits)
        ctx.send_cts("sums", ctx.recv_added("shares", *sb), 150, 70)
        return masks, bounded, ctx.mask(5000, bits=bits)

    (shares, bounded_a, sums), (masks, bounded_b, many) = pair_runner(cfg, fa, fb)
    for want, a, b in zip(x, shares, masks):
        assert np.array_equal((a + b) % np.uint64(p), want)
    assert np.array_equal((bounded_a + bounded_b) % np.uint64(p), x[1])
    for total, a, b in zip(sums, sa, sb):
        assert np.array_equal(total, (a + b) % np.uint64(p))
    high = p - (1 << (bits + 1))
    assert bounded_b.max() < high and many.max() < high
    assert many.max() > high - high // 100  # uniform up to the bound


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
def test_send_cts_frame_is_the_serialized_ciphertexts(backend, monkeypatch):
    """The chunks ``send_cts`` hands to a TCP session hold whole
    ciphertexts, as many as fit in ``CHUNK_BYTES`` (at least one), and
    join to the ciphertexts' ``serialize`` output end to end; the pair gets
    the frame as one chunk; ``serialize(ct, out)`` writes only its own
    slice of a larger buffer.  The fresh vectors go seeded.  A list of
    another count of vectors than sizes, or holding a seeded ciphertext in
    a vector not flagged fresh, or the reverse, is rejected before anything
    is sent; an iterator is checked as it is read, so the chunks before the
    one holding the bad ciphertext are handed over."""
    cfg = Config(he=toy_he_params(n=64, p=137438822401, limbs=6), he_backend=backend)
    width = ct_bytes(cfg.he, seeded=True)
    monkeypatch.setattr(common, "CHUNK_BYTES", 2 * width + 1)
    ours, theirs = socket.socketpair()
    sa = TcpSession("A", PROFILES["lan"], ours)
    ctx = PartyCtx("A", sa, cfg, seed=5)
    ctx.keypair = ctx.backend.keygen("A")
    vecs = [ctx.encrypt(np.arange(size, dtype=np.uint64)) for size in (100, 150)]
    assert [len(vec.cts) for vec in vecs] == [2, 3]
    sent = []

    def capture(label, chunks, metered=True, length=None):
        sent.append((label, length, []))
        for chunk in chunks:
            sent[-1][2].append(bytes(chunk))

    monkeypatch.setattr(sa, "send", capture)
    forms = (FRESH, FRESH)
    ctx.send_cts("x", vecs, 100, 150, forms=forms)
    blobs = [ctx.backend.serialize(ct) for vec in vecs for ct in vec.cts]
    [(label, length, chunks)] = sent
    assert (label, length) == ("x", 5 * width)
    assert [len(chunk) for chunk in chunks] == [2 * width, 2 * width, width]
    assert b"".join(chunks) == b"".join(blobs)

    monkeypatch.setattr(common, "CHUNK_BYTES", 1)  # still one ciphertext a chunk
    sent.clear()
    ctx.send_cts("x", vecs[:1], 100, forms=[FRESH])
    assert sent[0][2] == blobs[:2]

    pair, _ = make_pair(PROFILES["lan"])
    monkeypatch.setattr(pair, "send", capture)
    ctx.session = pair
    sent.clear()
    ctx.send_cts("x", vecs, 100, 150, forms=forms)
    assert sent == [("x", 5 * width, [b"".join(blobs)])]
    ctx.session = sa

    buf = np.zeros(width + 16, np.uint8)
    buf[:8] = buf[-8:] = 0xA5
    ctx.backend.serialize(vecs[0].cts[1], buf[8:-8])
    assert (buf[:8] == 0xA5).all() and (buf[-8:] == 0xA5).all()
    assert buf[8:-8].tobytes() == blobs[1]

    monkeypatch.setattr(common, "CHUNK_BYTES", 2 * width)
    bad = [vecs[0], vecs[1].add_pt(1)]
    sent.clear()
    with pytest.raises(ShapeMismatch, match="more than 1 encrypted vectors"):
        ctx.send_cts("y", vecs, 100, forms=[FRESH])
    with pytest.raises(ShapeMismatch, match="fewer than 2 encrypted vectors"):
        ctx.send_masked("y", vecs[:1], 100, 150)
    with pytest.raises(ShapeMismatch, match="a seeded ciphertext in a non-fresh vector"):
        ctx.send_cts("y", vecs, 100, 150)
    with pytest.raises(ShapeMismatch, match="an unseeded ciphertext in a fresh vector"):
        ctx.send_cts("y", bad, 100, 150, forms=forms)
    assert sent == []
    with pytest.raises(ShapeMismatch, match="an unseeded ciphertext in a fresh vector"):
        ctx.send_cts("y", iter(bad), 100, 150, forms=forms)
    assert sent == [("y", 5 * width, [b"".join(blobs[:2])])]
    ours.close()
    theirs.close()


def test_tail_slots_hold_only_public_values(toy_cfg, rlwe_toy_cfg, pair_runner,
                                            monkeypatch):
    """Every tail slot of every vector either party decrypts in gelu and ln
    holds zero or a value computed from public constants: the tails are the
    same on both backends and for two different inputs and seeds."""
    tails = []
    decrypt = PartyCtx.decrypt

    def recording(ctx, vec):
        slots = np.concatenate([ctx.backend.decrypt(ct, ctx.keypair) for ct in vec.cts])
        tails.append((ctx.role, slots[vec.size:].tobytes()))
        return decrypt(ctx, vec)

    monkeypatch.setattr(PartyCtx, "decrypt", recording)
    fpc = toy_cfg.fixedpoint

    def run(cfg, seed):
        rng = np.random.default_rng(seed)
        ga, gb = share(fp.encode_int(rng.uniform(-8, 8, size=(2, 40)), fpc, "field",
                                     fpc.s).ravel(), "field", fpc, rng)
        la, lb = share(fp.encode_int(rng.normal(0, 1, size=(4, 20)), fpc, "ring",
                                     fpc.s).ravel(), "ring", fpc, rng)
        ln = LnParams(rng.uniform(0.5, 1.5, 20), rng.uniform(-1, 1, 20))
        tails.clear()
        pair_runner(cfg, lambda c: pi_gelu(c, ga, (2, 40)), lambda c: pi_gelu(c, gb, (2, 40)),
                    seed=seed)
        pair_runner(cfg, lambda c: pi_ln(c, la, (4, 20), None),
                    lambda c: pi_ln(c, lb, (4, 20), ln), seed=seed)
        return sorted(tails)

    got = [run(cfg, seed) for cfg in (toy_cfg, rlwe_toy_cfg) for seed in (30, 31)]
    assert len(got[0]) > 10 and all(g == got[0] for g in got)
    values = {int(v) for _, t in got[0] for v in np.frombuffer(t, dtype=np.uint64)}
    assert 0 in values and len(values) > 1  # zero tails and constant ones


def test_block_headers_are_public(toy_cfg, rlwe_toy_cfg, pair_runner, monkeypatch):
    """Every ciphertext either party sends in a toy block carries the same
    header estimate on clear and on rlwe and for two weight sets, so the
    header tells its reader nothing about the weights; the outputs are the
    same on both backends."""
    sent = {}
    send_cts = PartyCtx.send_cts

    def recording(ctx, label, vecs, *sizes, **kwargs):
        vecs = list(vecs)
        for i, ct in enumerate(ct for vec in vecs for ct in vec.cts):
            header = parse_header(ctx.backend.serialize(ct), ctx.he_params)
            sent[ctx.role].append((label, i, header[2]))
        return send_cts(ctx, label, vecs, *sizes, **kwargs)

    monkeypatch.setattr(PartyCtx, "send_cts", recording)
    bc = toy_block_config()
    x = np.random.default_rng(40).normal(0, 1.0, size=(bc.d_s, bc.d_m))

    def run(cfg, weight_seed):
        weights = BlockWeights.random(bc, np.random.default_rng(weight_seed))
        sent.update(A=[], B=[])
        ra, rb = pair_runner(cfg, lambda c: infer_block(c, x, None, bc),
                             lambda c: infer_block(c, None, weights, bc), seed=3)
        return dict(sent), reconstruct(ra.share, rb.share)

    runs = [run(cfg, ws) for ws in (41, 42) for cfg in (toy_cfg, rlwe_toy_cfg)]
    headers = runs[0][0]
    assert len(headers["A"]) > 20 and len(headers["B"]) > 20
    assert all(h == headers for h, _ in runs)
    assert np.array_equal(runs[0][1], runs[1][1]) and np.array_equal(runs[2][1], runs[3][1])


def test_protocols_match_across_backends(toy_cfg, rlwe_toy_cfg, pair_runner):
    """Every protocol and the toy block reconstruct bit-identically, at the
    same per-phase cost, on clear and on rlwe at the default 37-bit p: at
    N=256, where each vector fits one block, and at N=64, where each spans
    two or more blocks, most ending in a partial one, and the packed
    product spans several partitions.  Only the key exchange
    differs: the key blobs are backend-specific."""
    cfg = toy_cfg.fixedpoint
    rng = np.random.default_rng(21)

    def shares(x, domain):
        return share(fp.encode_int(x, cfg, domain, cfg.s).ravel(), domain, cfg, rng)

    def cases(mm, q_shape, k_shape, sm_shape, ln_shape, gelu_shape):
        m, n, h = mm
        a = rng.integers(0, 1 << 20, size=(m, n), dtype=np.uint64)
        b = rng.integers(0, 1 << 20, size=(n, h), dtype=np.uint64)
        qa, qb = share(rng.integers(0, 1 << 24, size=q_shape[0] * q_shape[1],
                                    dtype=np.uint64), "field", cfg, rng)
        ka, kb = share(rng.integers(0, 1 << 24, size=k_shape[0] * k_shape[1],
                                    dtype=np.uint64), "field", cfg, rng)
        sa, sb = shares(rng.normal(0, 2, size=sm_shape), "ring")
        la, lb = shares(rng.normal(0, 1, size=ln_shape), "ring")
        ln = LnParams(rng.uniform(0.5, 1.5, ln_shape[1]), rng.uniform(-1, 1, ln_shape[1]))
        ga, gb = shares(rng.uniform(-8, 8, size=gelu_shape), "field")
        return {
            "matmul": (lambda c: pi_matmul(c, a, mm), lambda c: pi_matmul(c, b, mm)),
            "packed": (lambda c: pi_matmul(c, a, mm, packed=True),
                       lambda c: pi_matmul(c, b, mm, packed=True)),
            "mmshared": (lambda c: pi_matmul_shared(c, qa, ka, q_shape, k_shape),
                         lambda c: pi_matmul_shared(c, qb, kb, q_shape, k_shape)),
            "softmax": (lambda c: pi_softmax(c, sa, sm_shape, "max"),
                        lambda c: pi_softmax(c, sb, sm_shape, "max")),
            "ln": (lambda c: pi_ln(c, la, ln_shape, None),
                   lambda c: pi_ln(c, lb, ln_shape, ln)),
            "gelu": (lambda c: pi_gelu(c, ga, gelu_shape),
                     lambda c: pi_gelu(c, gb, gelu_shape)),
        }

    one_block = cases((4, 8, 6), (4, 3), (5, 3), (4, 8), (4, 16), (2, 32))
    bc = toy_block_config()
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1, size=(bc.d_s, bc.d_m))
    one_block["block"] = (lambda c: infer_block(c, x, None, bc),
                          lambda c: infer_block(c, None, weights, bc))
    n64 = [Config(he=toy_he_params(n=64, p=toy_cfg.he.p, limbs=6), he_backend=kind)
           for kind in ("clear", "rlwe")]
    lanes = [((toy_cfg, rlwe_toy_cfg), one_block),
             (n64, cases((8, 5, 12), (8, 6), (10, 6), (8, 16), (8, 24), (4, 40)))]
    for backend_cfgs, lane in lanes:
        for name, (fa, fb) in lane.items():
            got = []
            for backend_cfg in backend_cfgs:
                ra, rb, rep, _ = pair_runner(backend_cfg, fa, fb, seed=5,
                                             want_reports=True)
                rep.phases.pop("keyexchange")
                got.append((reconstruct(ra.share, rb.share).tobytes(), rep.phases))
            assert got[0] == got[1], (backend_cfgs[0].he.n, name)


@pytest.mark.parametrize("kind", ["clear", "rlwe"])
def test_public_key_blob_is_checked(kind):
    """A key blob parses only whole, with an owner of A or B and a
    relinearization flag of 0 or 1, which the parsed key keeps; a cut,
    padded, bad-flag or bad-owner blob of either flag value raises
    MalformedBytes on both backends.  An rlwe blob holds no ``pk``, and
    with the flag set each row's seed and its c0 limbs at 4 B a residue,
    from which the reader restores the owner's relinearization key bit for
    bit."""
    be = create_backend(TOY, kind, np.random.default_rng(19))
    L, N = TOY.limbs, TOY.n
    for relin in (True, False):
        key = be.keygen("B", with_relin=relin).public
        blob = key.to_bytes()
        got = be.parse_public_key(blob)
        assert got.owner == "B" and got.has_relin == relin and got.to_bytes() == blob
        if kind == "rlwe":
            assert len(blob) == 6 + relin * L * (SEED_BYTES + 4 * L * N)
            assert got.pk is None
            assert not relin or np.array_equal(got.rlk, key.rlk)
        bad = [blob[:-9], blob[:-1], blob[:4], blob + b"\0\0", blob + b"\1",
               blob[:4] + b"C" + blob[5:], blob[:4] + b"\0" + blob[5:]]
        bad += [blob[:5] + bytes([flag]) + blob[6:] for flag in (2, 255)]
        if kind == "rlwe":
            bad.append(blob[:5] + bytes([1 - blob[5]]) + blob[6:])
            if relin:  # no key, or its seeds alone
                bad += [blob[:6], blob[:6 + L * SEED_BYTES]]
        for cut in bad:
            with pytest.raises(MalformedBytes):
                be.parse_public_key(cut)


@pytest.mark.parametrize("he", [toy_he_params(n=256, p=137438822401, limbs=6), HeParams()],
                         ids=["toy", "default"])
def test_setup_sends_only_the_relinearization_key_of_a(he):
    """Set-up sends exactly the key material a protocol reads: on rlwe, A's
    seeded relinearization key (gelu's selector sum is B's one ct*ct
    product, under A's key) and no ``pk``, so ``keyexchange`` is two
    frames in two rounds of 2 * 8 + 6 + 6 + L (32 + 4 L N) bytes,
    1,179,868 at the defaults.  B's copy of A's key holds A's rows bit for
    bit; B's key pair and A's copy of B's key hold none.  On clear each
    blob is ``CLRK``, the owner and the flag: 2 * 8 + 6 + 6 = 28 B."""
    def setup(role, cfg):
        def run(sess):
            return make_party(role, sess, cfg, seed=3), sess.report()
        return run

    L, N = he.limbs, he.n
    want = {"clear": 2 * FRAME_OVERHEAD + 6 + 6,
            "rlwe": 2 * FRAME_OVERHEAD + 6 + 6 + L * (SEED_BYTES + 4 * L * N)}
    for kind in ("clear", "rlwe"):
        cfg = Config(he=he, he_backend=kind)
        (ca, rep), (cb, _) = run_pair(setup("A", cfg), setup("B", cfg), PROFILES["lan"])
        kx = rep.phases["keyexchange"]
        assert (kx["messages"], kx["rounds"]) == (2, 2)
        assert rep.bytes_for("keyexchange") == want[kind]
        if kind == "rlwe":
            assert np.array_equal(cb.peer_public.rlk, ca.keypair.public.rlk)
            assert not cb.keypair.public.has_relin and not ca.peer_public.has_relin
    if he == HeParams():
        assert want["rlwe"] == 1_179_868


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
def test_reply_is_switched_down_and_only_decrypted(backend):
    """A reply leaves at ``reply_limbs`` (2 of 3 at TOY), one header, size
    and estimate on both backends; it parses back only where that limb
    count is expected, a header limb count outside 2 to L is malformed,
    and no op but serialize and decrypt takes it.  A reply whose estimate
    would not fit raises ``NoiseExhausted`` at its sender."""
    be = create_backend(TOY, backend, np.random.default_rng(20))
    other = create_backend(TOY, "rlwe" if backend == "clear" else "clear",
                           np.random.default_rng(20))
    kp = be.keygen("A")
    m, mask = np.random.default_rng(21).integers(0, TOY.p, size=(2, 64), dtype=np.uint64)
    ct = be.mul_pt(be.encrypt(m, kp.public), 3)
    rep = be.reply(ct, mask)
    twin = other.reply(other.mul_pt(other.encrypt(m, other.keygen("A").public), 3), mask)
    blob = be.serialize(rep)
    assert rep.limbs == hecore.reply_limbs(TOY) == 2 and rep.seed is None
    assert len(blob) == ct_bytes(TOY, limbs=2) == HEADER_BYTES + 2 * 2 * 64 * 4
    assert parse_header(blob, TOY)[4] == 2 and blob[8] == 0x22
    assert rep.noise_bits == twin.noise_bits == noise.reply_bits(TOY, ct.noise_bits, 2)
    want = (3 * m.astype(object) - mask) % TOY.p
    back = be.deserialize(blob, limbs=2)
    assert np.array_equal(be.decrypt(back, kp).astype(object), want)
    assert be.serialize(back) == blob
    with pytest.raises(MalformedBytes, match="2 limbs where 3 are expected"):
        be.deserialize(blob)
    for layout in (0x12, 0x42, 0xF2):
        with pytest.raises(MalformedBytes, match="limbs, expected 2 to 3"):
            be.deserialize(blob[:8] + bytes([layout]) + blob[9:], limbs=2)
    public = kp.public
    for op in (lambda: be.add_ct(rep, ct), lambda: be.add_ct(ct, rep),
               lambda: be.mul_pt(rep, m), lambda: be.add_pt(rep, 1),
               lambda: be.sub_pt(rep, m), lambda: be.neg_ct(rep),
               lambda: be.mul_ct_sum([(rep, ct)], public),
               lambda: be.mul_ct_sum([(rep, rep)], public),
               lambda: be.mul_ct_sum([(ct, ct), (ct, rep)], public),
               lambda: be.reply(rep, mask)):
        with pytest.raises(hecore.LevelMismatch):
            op()
    whole = be.reply(ct, mask, whole=True)
    assert whole.limbs == TOY.limbs and len(be.serialize(whole)) == ct_bytes(TOY)
    assert np.array_equal(be.decrypt(whole, kp).astype(object), want)
    ct.noise_bits = 80.0  # past the 75-bit budget: no reply fits in 45 bits
    with pytest.raises(NoiseExhausted, match="at 2 limbs"):
        be.reply(ct, mask)


def test_toy_block_replies_leave_switched_down(toy_cfg, rlwe_toy_cfg, pair_runner,
                                               monkeypatch):
    """A walk of the toy block's transcript on both backends: every
    ciphertext a party sends under its receiver's key came out of the
    backend's ``reply``, and it goes at reply width, except softmax's
    ``denominator`` and ``result``, which stay whole; the metered bytes of
    each such frame are its ciphertexts'."""
    frames = []
    send_cts = PartyCtx.send_cts
    replies = {}  # id -> every ciphertext ``reply`` returned, kept alive

    def recording(ctx, label, vecs, *sizes, **kwargs):
        vecs = list(vecs)
        theirs = [ct for vec in vecs for ct in vec.cts if ct.owner != ctx.role]
        assert all(replies.get(id(ct)) is ct for ct in theirs), label
        frames.append((ctx.session._qualify(label), ctx.role,
                       [ct.limbs for ct in theirs],
                       sum(len(ctx.backend.serialize(ct)) for vec in vecs for ct in vec.cts)))
        return send_cts(ctx, label, vecs, *sizes, **kwargs)

    def kept(reply):
        def run(self, *args):
            out = reply(self, *args)
            replies[id(out)] = out
            return out
        return run

    monkeypatch.setattr(PartyCtx, "send_cts", recording)
    for backend in (ClearBackend, RlweBackend):
        monkeypatch.setattr(backend, "reply", kept(backend.reply))
    bc = toy_block_config()
    rng = np.random.default_rng(43)
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))
    whole = ("head/softmax/denominator", "head/softmax/result")
    for cfg in (toy_cfg, rlwe_toy_cfg):
        frames.clear()
        _, _, rep, _ = pair_runner(cfg, lambda c: infer_block(c, x, None, bc),
                                   lambda c: infer_block(c, None, weights, bc), seed=4,
                                   want_reports=True)
        replied = set()
        for label, role, limbs, nbytes in frames:
            ph = rep.phases[label]
            assert ph["bytes_a" if role == "A" else "bytes_b"] - FRAME_OVERHEAD == nbytes
            if not limbs:
                continue
            replied.add(label.rsplit("/", 1)[1])
            want = cfg.he.limbs if label in whole else hecore.reply_limbs(cfg.he)
            assert limbs == [want] * len(limbs), label
        assert {label for label, _, limbs, _ in frames if limbs} >= set(whole)
        assert replied == {"masked_product", "denominator", "result", "masked_square",
                           "masked_ratio", "input_and_squares", "masked_powers"}
