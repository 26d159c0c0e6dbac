import numpy as np
import pytest

from privblock import fixedpoint as fp
from privblock.params import Config, toy_he_params
from privblock.protocols import (CapacityExceeded, ShapeMismatch, costs,
                                 pi_matmul, pi_matmul_shared)
from privblock.protocols.matmul import matmod
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
                         lambda ctx: pi_matmul(ctx, a, (2, 2, 2), scale=0),
                         lambda ctx: pi_matmul(ctx, b, (2, 2, 2), scale=0))
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
