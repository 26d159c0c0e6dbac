import socket
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from privblock import fixedpoint as fp
from privblock.channel import FRAME_OVERHEAD, PROFILES, connect
from privblock.hecore import ct_bytes, reply_limbs
from privblock.hecore.clear import ClearBackend
from privblock.hecore.ntt import get_plan
from privblock.model import toy_block_config
from privblock.params import Config, toy_he_params
from privblock.protocols import (CapacityExceeded, ShapeMismatch, common, costs,
                                 make_party, pi_matmul, pi_matmul_shared)
from privblock.protocols.matmul import _Packed, matmod, packed_partition
from privblock.sharing import reconstruct, share

P = 137438822401


def _phase_bytes(report, prefix):
    return {k.split("/", 1)[1]: v["bytes_a"] + v["bytes_b"]
            for k, v in report.phases.items() if k.startswith(prefix + "/")}


def test_matmod_vs_object_matmul(rng):
    a = rng.integers(0, P, size=(7, 5), dtype=np.uint64)
    b = rng.integers(0, P, size=(5, 9), dtype=np.uint64)
    want = (a.astype(object) @ b.astype(object)) % P
    assert np.array_equal(matmod(a, b, P).astype(object), want)


def test_identity_times_matrix(toy_cfg, pair_runner):
    a = fp.encode_int(np.eye(2), toy_cfg.fixedpoint, "field", 0)
    b = fp.encode_int([[5, 6], [7, 8]], toy_cfg.fixedpoint, "field", 0)
    ra, rb = pair_runner(toy_cfg,
                         lambda ctx: pi_matmul(ctx, a, (2, 2, 2)),
                         lambda ctx: pi_matmul(ctx, b, (2, 2, 2)))
    got = reconstruct(ra.share, rb.share).reshape(2, 2)
    assert np.array_equal(got, np.array([[5, 6], [7, 8]], dtype=np.uint64))


@pytest.mark.parametrize("shape", [(3, 4, 2), (1, 1, 1), (8, 5, 7), (2, 9, 3)])
def test_random_exact_mod_p(toy_cfg, pair_runner, shape):
    rng = np.random.default_rng(sum(shape))
    m, n, h = shape
    a = rng.integers(0, P, size=(m, n), dtype=np.uint64)
    b = rng.integers(0, P, size=(n, h), dtype=np.uint64)
    ra, rb = pair_runner(toy_cfg,
                         lambda ctx: pi_matmul(ctx, a, shape),
                         lambda ctx: pi_matmul(ctx, b, shape))
    got = reconstruct(ra.share, rb.share).reshape(m, h).astype(object)
    assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % P)
    assert ra.scale == 2 * toy_cfg.fixedpoint.s


def test_multi_block_packing(pair_runner):
    """Output larger than one ciphertext: the row-block layout spans blocks
    and the ciphertext count matches the analytic formula."""
    cfg = Config(he=toy_he_params(n=64, p=137438822401, limbs=6), he_backend="clear")
    rng = np.random.default_rng(5)
    m, n, h = 12, 7, 9  # m*h = 108 -> 2 blocks of 64
    a = rng.integers(0, P, size=(m, n), dtype=np.uint64)
    b = rng.integers(0, P, size=(n, h), dtype=np.uint64)
    ra, rb, rep, _ = pair_runner(cfg,
                                 lambda ctx: pi_matmul(ctx, a, (m, n, h)),
                                 lambda ctx: pi_matmul(ctx, b, (m, n, h)),
                                 want_reports=True)
    got = reconstruct(ra.share, rb.share).reshape(m, h).astype(object)
    assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % P)
    assert _phase_bytes(rep, "matmul") == costs.matmul_bytes(cfg, m, n, h)


def test_transcript_shape(toy_cfg, pair_runner):
    a = np.ones((2, 3), dtype=np.uint64)
    b = np.ones((3, 2), dtype=np.uint64)
    _, _, _, tr = pair_runner(toy_cfg,
                              lambda ctx: pi_matmul(ctx, a, (2, 3, 2)),
                              lambda ctx: pi_matmul(ctx, b, (2, 3, 2)),
                              want_transcript=True)
    labels = [(d, l) for k, d, l in tr if l.startswith("matmul/")]
    assert labels == [("A", "matmul/inputs"), ("B", "matmul/masked_product")]


def test_shape_mismatch(toy_cfg, pair_runner):
    a = np.ones((2, 3), dtype=np.uint64)
    b = np.ones((3, 2), dtype=np.uint64)
    with pytest.raises(ShapeMismatch):
        pair_runner(toy_cfg,
                    lambda ctx: pi_matmul(ctx, a, (2, 4, 2)),
                    lambda ctx: pi_matmul(ctx, b, (2, 4, 2)))


def test_wrong_size_ciphertext_frame(toy_cfg, pair_runner):
    """A frame holding more ciphertexts than the product needs is rejected,
    not truncated into a share."""
    a = np.ones((2, 2), dtype=np.uint64)

    def fake_b(ctx):
        with ctx.session.phase("matmul"):
            ctx.session.recv("inputs")
            ct = ctx.backend.encrypt(np.zeros(4, dtype=np.uint64), ctx.public_of("A"))
            ctx.session.send("masked_product", ctx.backend.serialize(ct) * 2)

    with pytest.raises(ShapeMismatch):
        pair_runner(toy_cfg, lambda ctx: pi_matmul(ctx, a, (2, 2, 2)), fake_b)


def test_serialize_runs_on_the_sending_party_thread(toy_cfg, pair_runner, monkeypatch):
    """On the pair transport every ciphertext a party sends is serialized
    on that party's own thread, so per-party CPU stays with the party that
    did the work."""
    monkeypatch.setattr(common, "CHUNK_BYTES", 2 * ct_bytes(toy_cfg.he))
    calls, threads = [], {}
    serialize = ClearBackend.serialize

    def recording(self, ct, out=None):
        calls.append(threading.get_ident())
        return serialize(self, ct, out)

    monkeypatch.setattr(ClearBackend, "serialize", recording)

    def party(mat):
        def run(ctx):
            threads[ctx.role] = threading.get_ident()
            return pi_matmul(ctx, mat, (2, 9, 3))
        return run

    pair_runner(toy_cfg, party(np.ones((2, 9), dtype=np.uint64)),
                party(np.ones((9, 3), dtype=np.uint64)))
    # A sends 9 inputs, B one masked product
    assert Counter(calls) == {threads["A"]: 9, threads["B"]: 1}


def test_streamed_matmul_memory_is_bounded_by_chunks(toy_cfg, monkeypatch):
    """A clear product over TCP loopback whose input frame spans 16 chunks
    allocates less than half that frame, across both parties, while it
    runs: neither side ever holds the whole frame."""
    m, n, h = 4, 64, 8
    width = ct_bytes(toy_cfg.he)
    monkeypatch.setattr(common, "CHUNK_BYTES", 4 * width)
    rng = np.random.default_rng(17)
    mats = {"A": rng.integers(0, 1 << 20, size=(m, n), dtype=np.uint64),
            "B": rng.integers(0, 1 << 20, size=(n, h), dtype=np.uint64)}
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        endpoint = probe.getsockname()
    base = []
    after_setup = threading.Barrier(
        2, action=lambda: (tracemalloc.reset_peak(),
                           base.append(tracemalloc.get_traced_memory()[0])))
    out = {}

    def party(role):
        sess = connect(role, endpoint, PROFILES["lan"], toy_cfg.fingerprint())
        ctx = make_party(role, sess, toy_cfg, seed=4)
        after_setup.wait(timeout=30)
        out[role] = pi_matmul(ctx, mats[role], (m, n, h))
        sess.close()

    tracemalloc.start()
    try:
        threads = [threading.Thread(target=party, args=(role,)) for role in "BA"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        peak = tracemalloc.get_traced_memory()[1] - base[0]
    finally:
        tracemalloc.stop()
    assert not any(t.is_alive() for t in threads)
    got = reconstruct(out["A"].share, out["B"].share).reshape(m, h)
    assert np.array_equal(got, matmod(mats["A"], mats["B"], P))
    assert peak < n * width / 2


def test_capacity_guard(toy_cfg, pair_runner):
    big = (600, 1, 600)  # 360000 values > 64 blocks at N=256
    with pytest.raises(CapacityExceeded):
        pair_runner(toy_cfg,
                    lambda ctx: pi_matmul(ctx, np.ones((600, 1), dtype=np.uint64), big),
                    lambda ctx: pi_matmul(ctx, np.ones((1, 600), dtype=np.uint64), big))


def test_shared_degenerate_split(toy_cfg, pair_runner):
    """Q shared as (Q, 0) and K as (K, 0) reduces to the local product."""
    rng = np.random.default_rng(9)
    q = rng.integers(0, 1 << 20, size=(4, 3), dtype=np.uint64)
    k = rng.integers(0, 1 << 20, size=(5, 3), dtype=np.uint64)
    zero_q = np.zeros(q.size, dtype=np.uint64)
    zero_k = np.zeros(k.size, dtype=np.uint64)

    def fa(ctx):
        return pi_matmul_shared(ctx, ctx.field_share(q.ravel()),
                                ctx.field_share(k.ravel()), (4, 3), (5, 3))

    def fb(ctx):
        return pi_matmul_shared(ctx, ctx.field_share(zero_q),
                                ctx.field_share(zero_k), (4, 3), (5, 3))

    ra, rb = pair_runner(toy_cfg, fa, fb)
    got = reconstruct(ra.share, rb.share).reshape(4, 5).astype(object)
    assert np.array_equal(got, (q.astype(object) @ k.astype(object).T) % P)


def test_shared_random_and_allzero(toy_cfg, pair_runner):
    rng = np.random.default_rng(10)
    for trial in range(3):
        q = rng.integers(0, 1 << 24, size=(4, 3), dtype=np.uint64)
        k = rng.integers(0, 1 << 24, size=(5, 3), dtype=np.uint64)
        if trial == 2:
            q = np.zeros_like(q)
        qa, qb = share(q.ravel(), "field", toy_cfg.fixedpoint, rng)
        ka, kb = share(k.ravel(), "field", toy_cfg.fixedpoint, rng)
        ra, rb = pair_runner(
            toy_cfg,
            lambda ctx: pi_matmul_shared(ctx, qa, ka, (4, 3), (5, 3)),
            lambda ctx: pi_matmul_shared(ctx, qb, kb, (4, 3), (5, 3)))
        got = reconstruct(ra.share, rb.share).reshape(4, 5).astype(object)
        want = (q.astype(object) @ k.astype(object).T) % P
        assert np.array_equal(got, want)
        if trial == 2:
            assert not got.astype(np.uint64).any()


def test_shared_cost_formula(toy_cfg, pair_runner):
    rng = np.random.default_rng(11)
    q = rng.integers(0, 1 << 20, size=(4, 3), dtype=np.uint64)
    k = rng.integers(0, 1 << 20, size=(5, 3), dtype=np.uint64)
    qa, qb = share(q.ravel(), "field", toy_cfg.fixedpoint, rng)
    ka, kb = share(k.ravel(), "field", toy_cfg.fixedpoint, rng)
    _, _, rep, _ = pair_runner(
        toy_cfg,
        lambda ctx: pi_matmul_shared(ctx, qa, ka, (4, 3), (5, 3)),
        lambda ctx: pi_matmul_shared(ctx, qb, kb, (4, 3), (5, 3)),
        want_reports=True)
    assert _phase_bytes(rep, "mmshared") == costs.matmul_shared_bytes(toy_cfg, 4, 3, 5)


@pytest.mark.parametrize("cfg_name", ["toy_cfg", "rlwe_toy_cfg"])
def test_shared_transcript_is_the_cross_terms(cfg_name, pair_runner, request):
    """A shared product sends the two cross terms' ciphertext frames and
    nothing else, no raw share array, and is exact mod p on both backends."""
    cfg = request.getfixturevalue(cfg_name)
    rng = np.random.default_rng(12)
    q = rng.integers(0, P, size=(4, 3), dtype=np.uint64)
    k = rng.integers(0, P, size=(5, 3), dtype=np.uint64)
    qa, qb = share(q.ravel(), "field", cfg.fixedpoint, rng)
    ka, kb = share(k.ravel(), "field", cfg.fixedpoint, rng)
    ra, rb, rep, transcript = pair_runner(
        cfg,
        lambda ctx: pi_matmul_shared(ctx, qa, ka, (4, 3), (5, 3)),
        lambda ctx: pi_matmul_shared(ctx, qb, kb, (4, 3), (5, 3)),
        want_transcript=True)
    got = reconstruct(ra.share, rb.share).reshape(4, 5).astype(object)
    assert np.array_equal(got, (q.astype(object) @ k.astype(object).T) % P)
    frames = [(sender, label) for kind, sender, label in transcript
              if label.startswith("mmshared/")]
    assert frames == [("A", "mmshared/cross_ab/inputs"),
                      ("B", "mmshared/cross_ab/masked_product"),
                      ("B", "mmshared/cross_ba/inputs"),
                      ("A", "mmshared/cross_ba/masked_product")]
    assert all(kind == "frame" for kind, _, _ in transcript)
    # one ciphertext a frame: the inputs fresh and seeded, the products
    # replies, switched down
    one = {"inputs": FRAME_OVERHEAD + ct_bytes(cfg.he, seeded=True),
           "masked_product": FRAME_OVERHEAD + ct_bytes(cfg.he, limbs=reply_limbs(cfg.he))}
    for _, label in frames:
        assert (rep.phases[label]["bytes_a"] + rep.phases[label]["bytes_b"]
                == one[label.rsplit("/", 1)[1]])


@pytest.mark.parametrize("kind", ["clear", "rlwe"])
@pytest.mark.parametrize("heads", [1, 2, 3])
def test_shared_over_heads_is_one_exchange(pair_runner, kind, heads):
    """A stack of heads in one shared product reconstructs equal to one
    call per head, moves ``costs.matmul_shared_bytes(..., heads=h)``, and
    sends each label as one message, in 3 rounds.  At N=64 each head's
    cross terms span several ciphertexts each way."""
    cfg = _n64(kind)
    m, n, h = 9, 40, 13
    rng = np.random.default_rng(20 + heads)
    q = rng.integers(0, P, size=(heads, m, n), dtype=np.uint64)
    k = rng.integers(0, P, size=(heads, h, n), dtype=np.uint64)
    qa, qb = share(q.ravel(), "field", cfg.fixedpoint, rng)
    ka, kb = share(k.ravel(), "field", cfg.fixedpoint, rng)

    def batched(qs, ks):
        return lambda ctx: pi_matmul_shared(ctx, qs, ks, (heads, m, n), (heads, h, n))

    def per_head(qs, ks):
        def run(ctx):
            rows = zip(qs.payload.reshape(heads, -1), ks.payload.reshape(heads, -1))
            return np.concatenate([
                pi_matmul_shared(ctx, ctx.field_share(qi), ctx.field_share(ki),
                                 (m, n), (h, n)).share.payload for qi, ki in rows])
        return run

    ra, rb, rep, transcript = pair_runner(cfg, batched(qa, ka), batched(qb, kb),
                                          want_transcript=True)
    pa, pb = pair_runner(cfg, per_head(qa, ka), per_head(qb, kb))
    got = reconstruct(ra.share, rb.share)
    assert ra.shape == (heads, m, h)
    assert np.array_equal(got, (pa + pb) % P)
    want = np.stack([(qi.astype(object) @ ki.astype(object).T) % P for qi, ki in zip(q, k)])
    assert np.array_equal(got.reshape(heads, m, h).astype(object), want)
    assert (_phase_bytes(rep, "mmshared")
            == costs.matmul_shared_bytes(cfg, m, n, h, heads=heads))
    labels = [label for _, _, label in transcript if label.startswith("mmshared/")]
    assert len(labels) == 4 and all(rep.phases[lbl]["messages"] == 1 for lbl in labels)
    assert sum(rep.phases[lbl]["rounds"] for lbl in labels) == 3


def test_determinism(toy_cfg, pair_runner):
    a = np.arange(6, dtype=np.uint64).reshape(2, 3)
    b = np.arange(6, dtype=np.uint64).reshape(3, 2)

    def run():
        ra, rb, rep, _ = pair_runner(toy_cfg,
                                     lambda ctx: pi_matmul(ctx, a, (2, 3, 2)),
                                     lambda ctx: pi_matmul(ctx, b, (2, 3, 2)),
                                     seed=77, want_reports=True)
        return ra.share.payload.tobytes(), rb.share.payload.tobytes(), rep.to_dict()

    r1, r2 = run(), run()
    assert r1[0] == r2[0] and r1[1] == r2[1] and r1[2] == r2[2]


# -- the coefficient-packed layout ------------------------------------------------

def _n64(kind):
    return Config(he=toy_he_params(n=64, p=P, limbs=6), he_backend=kind)


@pytest.mark.parametrize("kind", ["clear", "rlwe"])
@pytest.mark.parametrize("data_party", ["A", "B"])
@pytest.mark.parametrize("shape", [(8, 32, 16), (9, 40, 13), (70, 5, 3)])
def test_packed_exact_mod_p(pair_runner, kind, data_party, shape, monkeypatch):
    """Packed products over several blocks of n and h ((70, 5, 3) also of m)
    equal the Python-int product, and their phase bytes the packed formula.
    Each block of L and of R is packed once, not once per product."""
    cfg = _n64(kind)
    m, n, h = shape
    blocks = [-(-d // w) for d, w in zip(shape, packed_partition(m, n, h, 64))]
    assert blocks[1] > 1 and blocks[2] > 1 and (m < 64 or blocks[0] > 1)
    packed = []
    poly = _Packed._poly
    monkeypatch.setattr(_Packed, "_poly",
                        lambda self, *args, **kw: packed.append(1) or poly(self, *args, **kw))
    rng = np.random.default_rng(m * n * h)
    a = rng.integers(0, P, size=(m, n), dtype=np.uint64)
    b = rng.integers(0, P, size=(n, h), dtype=np.uint64)

    def party(ctx):
        mine = a if ctx.role == data_party else b
        return pi_matmul(ctx, mine, shape, data_party=data_party, packed=True)

    ra, rb, rep, _ = pair_runner(cfg, party, party, want_reports=True)
    got = reconstruct(ra.share, rb.share).reshape(m, h).astype(object)
    assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % P)
    assert ra.scale == 2 * cfg.fixedpoint.s
    assert _phase_bytes(rep, "matmul") == costs.matmul_bytes(cfg, m, n, h, packed=True)
    bm, bn, bh = blocks
    assert len(packed) == bm * bn + bn * bh


def test_packed_weight_party_holds_one_row_block_of_plaintexts(pair_runner, monkeypatch):
    """The weight party encodes each row block of R as its inputs arrive:
    with bn = 20 row blocks of bh = 13 plaintexts, no more than the row in
    use and the one being built (2 bh) are ever alive at once, not all
    bn bh of them."""
    cfg = _n64("clear")
    shape = (70, 40, 13)
    bm, bn, bh = (-(-d // w) for d, w in zip(shape, packed_partition(*shape, 64)))
    assert bm > 1 and bn >= 10
    live, peak = [], []
    poly = _Packed._poly

    def counted(self, block, rows, cols, flip):
        out = poly(self, block, rows, cols, flip)
        if flip:  # the weight party's plaintexts
            live[:] = [ref for ref in live if ref() is not None] + [weakref.ref(out)]
            peak.append(len(live))
        return out

    monkeypatch.setattr(_Packed, "_poly", counted)
    rng = np.random.default_rng(3)
    a = rng.integers(0, P, size=shape[:2], dtype=np.uint64)
    b = rng.integers(0, P, size=shape[1:], dtype=np.uint64)
    ra, rb = pair_runner(cfg, lambda ctx: pi_matmul(ctx, a, shape, packed=True),
                         lambda ctx: pi_matmul(ctx, b, shape, packed=True))
    got = reconstruct(ra.share, rb.share).reshape(70, 13).astype(object)
    assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % P)
    assert len(peak) == bn * bh and max(peak) <= 2 * bh


def test_packed_weight_party_frees_a_row_block_before_the_next(pair_runner, monkeypatch):
    """The weight party's terms are held by nothing once added, so a row
    block's bh plaintexts are freed before the next row block's are built:
    with bn = 20 row blocks of bh = 13, at most bh + 1 are alive at once
    (the last one added stays bound until the next row block is in use)."""
    cfg = _n64("clear")
    shape = (70, 40, 13)
    bh = -(-shape[2] // packed_partition(*shape, 64)[2])
    live, peak = [], []
    poly = _Packed._poly

    def counted(self, block, rows, cols, flip):
        out = poly(self, block, rows, cols, flip)
        if flip:
            live[:] = [ref for ref in live if ref() is not None] + [weakref.ref(out)]
            peak.append(len(live))
        return out

    monkeypatch.setattr(_Packed, "_poly", counted)
    rng = np.random.default_rng(4)
    a = rng.integers(0, P, size=shape[:2], dtype=np.uint64)
    b = rng.integers(0, P, size=shape[1:], dtype=np.uint64)
    ra, rb = pair_runner(cfg, lambda ctx: pi_matmul(ctx, a, shape, packed=True),
                         lambda ctx: pi_matmul(ctx, b, shape, packed=True))
    got = reconstruct(ra.share, rb.share).reshape(70, 13).astype(object)
    assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % P)
    assert bh == 13 and max(peak) == bh + 1


def test_packed_partition_desk_and_toy():
    """At N=8192 the desk products need 56, 192, 384, 384, 24 and (the
    block's one qkv product) 192 + 144 = 336 ciphertexts in plus out, and
    every toy-block product fits one partition."""
    desk = {(128, 768, 64): (128, 32, 2), (128, 768, 768): (128, 8, 8),
            (128, 768, 3072): (128, 4, 16), (128, 3072, 768): (128, 16, 4),
            (128, 64, 128): (128, 8, 8), (128, 768, 2304): (128, 4, 16)}
    cts = []
    for shape, widths in desk.items():
        assert packed_partition(*shape, 8192) == widths
        bm, bn, bh = (-(-d // w) for d, w in zip(shape, widths))
        cts.append(bm * (bn + bh))
    assert cts == [56, 192, 384, 384, 24, 336]
    bc = toy_block_config()
    cfg = Config(he_backend="clear")
    one = FRAME_OVERHEAD + ct_bytes(cfg.he, limbs=reply_limbs(cfg.he))
    fresh = FRAME_OVERHEAD + ct_bytes(cfg.he, seeded=True)
    for m, n, h in {(bc.d_s, bc.d_m, 3 * bc.d_m),
                    (bc.d_s, bc.d_m, bc.d_k), (bc.d_s, bc.d_k, bc.d_s),
                    (bc.d_s, bc.d_s, bc.d_k), (bc.d_s, bc.d_m, bc.d_m),
                    (bc.d_s, bc.d_m, bc.d_f), (bc.d_s, bc.d_f, bc.d_m)}:
        assert packed_partition(m, n, h, 8192) == (m, n, h)
        assert costs.matmul_bytes(cfg, m, n, h, packed=True) == {
            "inputs": fresh, "masked_product": one}


def test_packed_masks_every_coefficient(pair_runner):
    """With zero inputs every product coefficient is 0, so each coefficient
    the data party decrypts is the weight party's mask alone: all of them,
    not only the ones that carry C, must be nonzero and distinct."""
    cfg = _n64("clear")
    shape = (9, 40, 13)
    seen = []

    def data(ctx):
        decrypt = ctx.decrypt
        ctx.decrypt = lambda vec: seen.append(decrypt(vec)) or seen[-1]
        return pi_matmul(ctx, np.zeros((9, 40), dtype=np.uint64), shape, packed=True)

    ra, rb = pair_runner(cfg, data, lambda ctx: pi_matmul(
        ctx, np.zeros((40, 13), dtype=np.uint64), shape, packed=True))
    assert not reconstruct(ra.share, rb.share).any()
    plan = get_plan(P, 64)
    bm, _, bh = (-(-d // w) for d, w in zip(shape, packed_partition(*shape, 64)))
    assert len(seen) == bm * bh > 1
    for slots in seen:
        coeffs = plan.inverse(slots)
        assert coeffs.all() and len(set(coeffs.tolist())) == 64
