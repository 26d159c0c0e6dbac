import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privblock import fixedpoint as fp
from privblock.params import FixedPointConfig
from privblock.sharing import FIELD, RING, GadgetProvider, Share, reconstruct, share

CFG = FixedPointConfig()


def test_encode_examples():
    assert fp.encode(0.0, CFG, RING).value == 0
    assert fp.encode(1.5, CFG, RING).value == 6144
    assert fp.encode(-0.5, CFG, RING).value == 2 ** 37 - 2048


def test_encode_overflow():
    with pytest.raises(OverflowError):
        fp.encode(2.0 ** (CFG.k - CFG.s - 1), CFG, RING)



@pytest.mark.parametrize("domain", [RING, FIELD])
def test_encode_int_rejects_values_decode_int_cannot_recover(domain):
    mod = CFG.ring_mod if domain == RING else CFG.p
    half = mod >> 1
    edges = np.array([half - mod + 1, half], dtype=np.float64) / 2 ** 5
    enc = fp.encode_int(edges, CFG, domain, 5)
    assert fp.decode_int(enc, CFG, domain, 5).tolist() == edges.tolist()
    for bad in (half + 1, half - mod, 2.0 ** 70, float("nan")):
        with pytest.raises(OverflowError):
            fp.encode_int([0.0, bad / 2 ** 5], CFG, domain, 5)
        with pytest.raises(OverflowError):
            fp.encode([0.0, float("nan")], CFG, domain)

def test_decode_examples():
    assert fp.decode(6144, CFG, RING, 12) == 1.5
    assert fp.decode(0, CFG, RING) == 0.0
    assert fp.decode(CFG.p - 4096, CFG, FIELD, 12) == -1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0 ** 20, 2.0 ** 20, allow_nan=False))
def test_roundtrip_quantization(x):
    for domain in (RING, FIELD):
        got = fp.decode(fp.encode(x, CFG, domain), CFG)
        assert abs(got - x) <= 2.0 ** (-CFG.s - 1)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1000, 1000), st.floats(-1000, 1000))
def test_additive_homomorphism(x, y):
    ex = fp.encode(x, CFG, FIELD).value
    ey = fp.encode(y, CFG, FIELD).value
    s = (ex + ey) % CFG.p
    want = fp.decode(ex, CFG, FIELD) + fp.decode(ey, CFG, FIELD)
    assert fp.decode(s, CFG, FIELD) == want


def test_convert_small_positive():
    cfg = CFG
    rng = np.random.default_rng(0)
    sa, sb = share(np.array([5], dtype=np.uint64), RING, cfg, rng)
    fa = fp.convert_share(sa, FIELD, cfg)
    fb = fp.convert_share(sb, FIELD, cfg)
    assert int(reconstruct(fa, fb)[0]) == 5


def test_convert_negative_roundtrip_toy():
    """Brute force over every share split at k=8, p=251: for a negative
    secret the fast path is correct exactly when the share sum does not
    wrap the ring, and the error rate matches the |x|/2^k bound."""
    cfg = FixedPointConfig(k=8, s=2, p=251)
    secret = (-3) % 256
    bad = 0
    for a in range(256):
        sa = Share(RING, "A", np.array([a], dtype=np.uint64), 256)
        sb = Share(RING, "B", np.array([(secret - a) % 256], dtype=np.uint64), 256)
        fa = fp.convert_share(sa, FIELD, cfg)
        fb = fp.convert_share(sb, FIELD, cfg)
        ok = int(reconstruct(fa, fb)[0]) == 251 - 3
        wraps = a + ((secret - a) % 256) >= 256
        assert ok == (not wraps)
        bad += not ok
    assert bad <= 3  # documented failure probability |x|/2^k


def test_convert_exhaustive_tiny_domain():
    """All 16 secrets x 16 splits at k=4, p=13: the fast path reconstructs
    the signed value exactly when the share-sum wrap matches the sign."""
    cfg = FixedPointConfig(k=4, s=1, p=13)
    for secret in range(16):
        signed = secret - 16 if secret > 8 else secret
        for a in range(16):
            sa = Share(RING, "A", np.array([a], dtype=np.uint64), 16)
            sb = Share(RING, "B", np.array([(secret - a) % 16], dtype=np.uint64), 16)
            fa = fp.convert_share(sa, FIELD, cfg)
            fb = fp.convert_share(sb, FIELD, cfg)
            got = int(reconstruct(fa, fb)[0])
            wraps = a + ((secret - a) % 16) >= 16
            good_split = wraps if signed >= 0 else not wraps
            assert (got == signed % 13) == good_split


def test_convert_fast_statistical():
    """Fast-path conversion holds on 10^4 seeded trials at magnitudes far
    below the ring (failure probability |x|/2^k ~ 2^-20 per element)."""
    rng = np.random.default_rng(7)
    vals = rng.integers(-(2 ** 17), 2 ** 17, size=10_000).astype(object) % (2 ** 37)
    sa, sb = share(np.asarray(vals, dtype=np.uint64), RING, CFG, rng)
    fa = fp.convert_share(sa, FIELD, CFG)
    fb = fp.convert_share(sb, FIELD, CFG)
    got = reconstruct(fa, fb).astype(object)
    want = np.asarray([(int(v) - 2 ** 37 if v > 2 ** 36 else int(v)) % CFG.p
                       for v in vals], dtype=object)
    assert np.array_equal(got, want)


def test_convert_strict_exact(toy_cfg, pair_runner):
    rng = np.random.default_rng(8)
    vals = rng.integers(-(2 ** 30), 2 ** 30, size=500).astype(object) % (2 ** 37)
    sa, sb = share(np.asarray(vals, dtype=np.uint64), RING, toy_cfg.fixedpoint, rng)
    ra, rb = pair_runner(
        toy_cfg,
        lambda ctx: fp.convert_share(sa, FIELD, ctx.fp, ctx.provider, mode="strict"),
        lambda ctx: fp.convert_share(sb, FIELD, ctx.fp, ctx.provider, mode="strict"))
    got = reconstruct(ra, rb).astype(object)
    want = np.asarray([(int(v) - 2 ** 37 if v > 2 ** 36 else int(v)) % CFG.p
                       for v in vals], dtype=object)
    assert np.array_equal(got, want)


def test_field_to_ring(toy_cfg, pair_runner):
    rng = np.random.default_rng(9)
    vals = rng.integers(-(2 ** 30), 2 ** 30, size=400).astype(object) % CFG.p
    sa, sb = share(np.asarray(vals, dtype=np.uint64), FIELD, toy_cfg.fixedpoint, rng)
    ra, rb = pair_runner(
        toy_cfg,
        lambda ctx: fp.convert_share(sa, RING, ctx.fp, ctx.provider),
        lambda ctx: fp.convert_share(sb, RING, ctx.fp, ctx.provider))
    got = reconstruct(ra, rb).astype(object)
    want = np.asarray([(int(v) - CFG.p if v > CFG.p // 2 else int(v)) % 2 ** 37
                       for v in vals], dtype=object)
    assert np.array_equal(got, want)


def test_truncate_exact_power():
    rng = np.random.default_rng(1)
    x = np.array([6144 * 4096], dtype=np.uint64)
    a, b = share(x, RING, CFG, rng)
    ta = fp.truncate_shares(a, 12, CFG, mode="local")
    tb = fp.truncate_shares(b, 12, CFG, mode="local")
    assert abs(int(reconstruct(ta, tb)[0]) - 6144) <= 1


def test_truncate_local_error_bound():
    """10^5 random secrets: local truncation is within 1 ulp of the floor
    oracle (secrets kept well under the ring bound)."""
    rng = np.random.default_rng(2)
    vals = rng.integers(-(2 ** 15), 2 ** 15, size=100_000).astype(object) % (2 ** 37)
    sa, sb = share(np.asarray(vals, dtype=np.uint64), RING, CFG, rng)
    ta = fp.truncate_shares(sa, CFG.s, CFG, mode="local")
    tb = fp.truncate_shares(sb, CFG.s, CFG, mode="local")
    got = reconstruct(ta, tb).astype(object)
    bad = 0
    for g, v in zip(got, vals):
        signed = int(v) - 2 ** 37 if v > 2 ** 36 else int(v)
        want = signed >> CFG.s
        gs = int(g) - 2 ** 37 if g > 2 ** 36 else int(g)
        bad += abs(gs - want) > 1
    assert bad == 0


def test_truncate_gadget_exhaustive(pair_runner):
    """Gadget-mode truncation equals the floor oracle on the full k=10 ring."""
    from privblock.params import Config, toy_he_params
    cfg = Config(he=toy_he_params(n=256, p=137438822401, limbs=6), he_backend="clear")
    tiny = FixedPointConfig(k=10, s=4, p=661)
    vals = np.arange(1024, dtype=np.uint64)
    rng = np.random.default_rng(3)
    sa, sb = share(vals, RING, tiny, rng)

    def run(sh):
        def body(ctx):
            prov = GadgetProvider(ctx.session, tiny, ctx.provider.costs)
            return prov.trunc_faithful(sh, 4)
        return body

    ra, rb = pair_runner(cfg, run(sa), run(sb))
    got = reconstruct(ra, rb).astype(object)
    for g, v in zip(got, vals):
        signed = int(v) - 1024 if v > 512 else int(v)
        assert int(g) == (signed >> 4) % 1024
