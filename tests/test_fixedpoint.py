import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privblock import fixedpoint as fp
from privblock.params import FixedPointConfig
from privblock.sharing import FIELD, RING, DomainMismatch, Share, reconstruct, share

CFG = FixedPointConfig()
S = CFG.s


def test_encode_examples():
    assert fp.encode_int(0.0, CFG, RING, S) == 0
    assert fp.encode_int(1.5, CFG, RING, S) == 6144
    assert fp.encode_int(-0.5, CFG, RING, S) == 2 ** 37 - 2048


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


def test_decode_examples():
    assert fp.decode_int(6144, CFG, RING, S) == 1.5
    assert fp.decode_int(0, CFG, RING, S) == 0.0
    assert fp.decode_int(CFG.p - 4096, CFG, FIELD, S) == -1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0 ** 20, 2.0 ** 20, allow_nan=False))
def test_roundtrip_quantization(x):
    for domain in (RING, FIELD):
        got = fp.decode_int(fp.encode_int(x, CFG, domain, S), CFG, domain, S)
        assert abs(got - x) <= 2.0 ** (-S - 1)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1000, 1000), st.floats(-1000, 1000))
def test_additive_homomorphism(x, y):
    ex = fp.encode_int(x, CFG, FIELD, S)
    ey = fp.encode_int(y, CFG, FIELD, S)
    s = (ex + ey) % CFG.p
    want = fp.decode_int(ex, CFG, FIELD, S) + fp.decode_int(ey, CFG, FIELD, S)
    assert fp.decode_int(s, CFG, FIELD, S) == want


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


def test_field_to_ring(toy_cfg, pair_runner):
    """The provider's conversion without a shift maps field shares to ring
    shares of the same signed value."""
    rng = np.random.default_rng(9)
    vals = rng.integers(-(2 ** 30), 2 ** 30, size=400).astype(object) % CFG.p
    sa, sb = share(np.asarray(vals, dtype=np.uint64), FIELD, toy_cfg.fixedpoint, rng)
    ra, rb = pair_runner(
        toy_cfg,
        lambda ctx: ctx.provider.convert(sa, RING),
        lambda ctx: ctx.provider.convert(sb, RING))
    got = reconstruct(ra, rb).astype(object)
    want = np.asarray([(int(v) - CFG.p if v > CFG.p // 2 else int(v)) % 2 ** 37
                       for v in vals], dtype=object)
    assert np.array_equal(got, want)


def test_convert_share_is_ring_to_field_only():
    """The local conversion goes one way; field -> ring is the provider's
    gadget, and a same-domain request is a caller error."""
    sa, sb = share(np.array([5], dtype=np.uint64), FIELD, CFG, np.random.default_rng(0))
    for sh, to in ((sa, RING), (sb, FIELD)):
        with pytest.raises(DomainMismatch):
            fp.convert_share(sh, to, CFG)
