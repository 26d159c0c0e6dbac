import math
import socket
import threading

import numpy as np
import pytest
from scipy import stats

from privblock import fixedpoint as fp
from privblock.channel import PROFILES, CapacityExceeded, PeerClosed, TcpSession, make_pair
from privblock.params import FixedPointConfig, GadgetCostTable, toy_he_params
from privblock.protocols import make_party, pi_gelu
from privblock.protocols.common import GADGET_FAN_IN, MAX_BLOCKS, max_frame
from privblock.sharing import (BOOL, FIELD, RING, DomainError, DomainMismatch,
                               GadgetProvider, GadgetUnavailable, RangeError,
                               Share, not_share, reconstruct, share, xor_shares)

CFG = FixedPointConfig()
S = CFG.s


def test_share_zero_reconstructs():
    rng = np.random.default_rng(0)
    for domain in (RING, FIELD, BOOL):
        sa, sb = share(np.zeros(16, dtype=np.uint64), domain, CFG, rng)
        assert not reconstruct(sa, sb).any()


def test_share_roundtrip_bulk():
    rng = np.random.default_rng(1)
    vals = rng.integers(0, CFG.p, size=10_000, dtype=np.uint64)
    sa, sb = share(vals, FIELD, CFG, rng)
    assert np.array_equal(reconstruct(sa, sb), vals)
    ring_vals = rng.integers(0, 2 ** 37, size=10_000, dtype=np.uint64)
    sa, sb = share(ring_vals, RING, CFG, rng)
    assert np.array_equal(reconstruct(sa, sb), ring_vals)


def test_share_domain_check():
    rng = np.random.default_rng(2)
    with pytest.raises(DomainMismatch):
        share(np.array([CFG.p], dtype=np.uint64), FIELD, CFG, rng)


def test_share_marginal_uniformity():
    """Chi-square on party A's share over an 8-bit toy ring at alpha=0.01."""
    tiny = FixedPointConfig(k=8, s=2, p=251)
    rng = np.random.default_rng(3)
    secret = np.full(20_000, 77, dtype=np.uint64)
    sa, _ = share(secret, RING, tiny, rng)
    counts = np.bincount(sa.payload.astype(int), minlength=256)
    _, pval = stats.chisquare(counts)
    assert pval > 0.01


def test_xor_composition_exhaustive():
    for x in (0, 1):
        for y in (0, 1):
            rng = np.random.default_rng(4)
            xa, xb = share(np.array([x], dtype=np.uint64), BOOL, CFG, rng)
            ya, yb = share(np.array([y], dtype=np.uint64), BOOL, CFG, rng)
            za, zb = xor_shares(xa, ya), xor_shares(xb, yb)
            assert int(reconstruct(za, zb)[0]) == x ^ y


def test_not_share():
    rng = np.random.default_rng(5)
    for b in (0, 1):
        sa, sb = share(np.array([b], dtype=np.uint64), BOOL, CFG, rng)
        assert int(reconstruct(not_share(sa), not_share(sb))[0]) == 1 - b


def _gadget_pair(pair_runner, cfg, fn_a, fn_b, seed=0):
    return pair_runner(cfg, fn_a, fn_b, seed=seed)


def _mk_shares(vals, domain, cfg=CFG, seed=0):
    rng = np.random.default_rng(seed)
    return share(np.asarray(vals, dtype=np.uint64), domain, cfg, rng)


def test_lt_paper_value(toy_cfg, pair_runner):
    xs = np.array([(-6 * 4096) % 2 ** 37, 0], dtype=np.uint64)
    sa, sb = _mk_shares(xs, RING)
    c = int(round(-5.075 * 4096))
    ra, rb = pair_runner(toy_cfg,
                         lambda ctx: ctx.provider.lt(sa, c),
                         lambda ctx: ctx.provider.lt(sb, c))
    assert list(reconstruct(ra, rb)) == [1, 0]
    # strict boundary: x = 0 vs c = 0
    ra, rb = pair_runner(toy_cfg,
                         lambda ctx: ctx.provider.lt(sa, 0),
                         lambda ctx: ctx.provider.lt(sb, 0))
    assert list(reconstruct(ra, rb)) == [1, 0]


def test_lt_exhaustive_10bit(toy_cfg, pair_runner):
    tiny = FixedPointConfig(k=10, s=4, p=661)
    vals = np.arange(1024, dtype=np.uint64)
    sa, sb = _mk_shares(vals, RING, tiny, seed=6)
    for c in (-300, -1, 0, 17, 400):
        def f(sh):
            return lambda ctx: GadgetProvider(ctx.session, tiny,
                                              ctx.provider.costs).lt(sh, c)
        ra, rb = pair_runner(toy_cfg, f(sa), f(sb))
        got = reconstruct(ra, rb)
        signed = np.where(vals > 512, vals.astype(np.int64) - 1024,
                          vals.astype(np.int64))
        assert np.array_equal(got.astype(np.int64), (signed < c).astype(np.int64))


def test_b2a_offset_convention(toy_cfg, pair_runner):
    for bit in (0, 1):
        for seed in range(10):
            sa, sb = _mk_shares([bit], BOOL, seed=seed)
            ra, rb = pair_runner(toy_cfg,
                                 lambda ctx: ctx.provider.b2a(sa, FIELD),
                                 lambda ctx: ctx.provider.b2a(sb, FIELD))
            got = int(reconstruct(ra, rb)[0])
            assert got == bit * 2 ** S + 2 ** S


def test_rexp_values(toy_cfg, pair_runner):
    xs = np.array([0, (-4096) % 2 ** 37], dtype=np.uint64)  # 0 and -1
    sa, sb = _mk_shares(xs, RING, seed=7)
    ra, rb = pair_runner(toy_cfg,
                         lambda ctx: ctx.provider.rexp(sa),
                         lambda ctx: ctx.provider.rexp(sb))
    got = reconstruct(ra, rb)
    assert int(got[0]) == 4096
    assert abs(int(got[1]) - round(math.exp(-1) * 4096)) <= 2


def test_rexp_sweep(toy_cfg, pair_runner):
    rng = np.random.default_rng(8)
    x = rng.uniform(-16, 0, size=10_000)
    xe = np.asarray(np.round(x * 4096).astype(object) % 2 ** 37, dtype=np.uint64)
    sa, sb = _mk_shares(xe, RING, seed=8)
    ra, rb = pair_runner(toy_cfg,
                         lambda ctx: ctx.provider.rexp(sa),
                         lambda ctx: ctx.provider.rexp(sb))
    got = reconstruct(ra, rb).astype(np.float64)
    want = np.exp(np.round(x * 4096) / 4096) * 4096
    assert np.abs(got - want).max() <= 2.0


def test_rexp_range_error(toy_cfg, pair_runner):
    sa, sb = _mk_shares([4096], RING, seed=9)  # x = +1
    with pytest.raises(RangeError):
        pair_runner(toy_cfg,
                    lambda ctx: ctx.provider.rexp(sa),
                    lambda ctx: ctx.provider.rexp(sb))


def test_invsqrt_values(toy_cfg, pair_runner):
    xs = np.array([4 * 4096, 4096], dtype=np.uint64)
    sa, sb = _mk_shares(xs, RING, seed=10)
    ra, rb = pair_runner(
        toy_cfg,
        lambda ctx: ctx.provider.invsqrt(sa, scale=S, out_scale=S),
        lambda ctx: ctx.provider.invsqrt(sb, scale=S, out_scale=S))
    got = reconstruct(ra, rb)
    assert int(got[0]) == 2048   # 1/sqrt(4) = 0.5
    assert int(got[1]) == 4096   # 1/sqrt(1) = 1


def test_invsqrt_sweep(toy_cfg, pair_runner):
    rng = np.random.default_rng(11)
    x = rng.uniform(2.0 ** -S, 2.0 ** S, size=10_000)
    xe = np.asarray(np.round(x * 4096), dtype=np.uint64)
    sa, sb = _mk_shares(xe, RING, seed=11)
    ra, rb = pair_runner(
        toy_cfg,
        lambda ctx: ctx.provider.invsqrt(sa, scale=S, out_scale=S),
        lambda ctx: ctx.provider.invsqrt(sb, scale=S, out_scale=S))
    got = reconstruct(ra, rb).astype(np.float64)
    want = 4096.0 / np.sqrt(np.round(x * 4096) / 4096)
    assert np.abs(got - want).max() <= 2.0


def test_invsqrt_domain_error(toy_cfg, pair_runner):
    sa, sb = _mk_shares([0], RING, seed=12)
    with pytest.raises(DomainError):
        pair_runner(toy_cfg,
                    lambda ctx: ctx.provider.invsqrt(sa, scale=S, out_scale=S),
                    lambda ctx: ctx.provider.invsqrt(sb, scale=S, out_scale=S))


def test_gadget_output_marginal_uniform(toy_cfg, pair_runner):
    """Each party's view of a gadget output is marginally uniform."""
    tiny = FixedPointConfig(k=8, s=2, p=251)
    vals = np.full(20_000, 100, dtype=np.uint64)
    sa, sb = _mk_shares(vals, RING, tiny, seed=13)

    def f(sh):
        return lambda ctx: GadgetProvider(ctx.session, tiny,
                                          ctx.provider.costs).row_max(sh, 1)

    ra, rb = pair_runner(toy_cfg, f(sa), f(sb))
    for out in (ra, rb):
        counts = np.bincount(out.payload.astype(int), minlength=256)
        _, pval = stats.chisquare(counts)
        assert pval > 0.01


def test_gadget_costs_charged(toy_cfg, pair_runner):
    sa, sb = _mk_shares(np.zeros(100, dtype=np.uint64), RING, seed=14)
    ra, rb, rep_a, rep_b = pair_runner(toy_cfg,
                                       lambda ctx: ctx.provider.lt(sa, 5),
                                       lambda ctx: ctx.provider.lt(sb, 5),
                                       want_reports=True)
    want, rounds, _ = GadgetCostTable().cost("lt", 100)
    assert rep_a.phases["gadget:lt"]["bytes_a"] + rep_a.phases["gadget:lt"]["bytes_b"] == want
    assert rep_a.phases["gadget:lt"]["rounds"] == rounds
    assert rep_a.to_dict() == rep_b.to_dict()


LT_CONSTS = [-300, -1, 0, 17, 400]


def test_lt_over_constants_is_one_call(toy_cfg, pair_runner):
    """lt against k constants is one call: one ``gadget:lt`` ledger entry
    with the bytes of k single calls in the rounds of one, and its bits,
    constant-major, reconstruct equal to the k single calls'."""
    vals = np.arange(1024, dtype=np.uint64)
    got, mod, charges = _tiny_gadget(toy_cfg, pair_runner, vals, RING,
                                     lambda g, x: g.lt(x, LT_CONSTS), seed=18)
    assert mod == 2 and charges == ["gadget:lt"]
    singles = [_tiny_gadget(toy_cfg, pair_runner, vals, RING,
                            lambda g, x, c=c: g.lt(x, c), seed=18)[0] for c in LT_CONSTS]
    assert got == [bit for single in singles for bit in single]
    signed = [_signed(v, 1024) for v in range(1024)]
    assert got == [int(v < c) for c in LT_CONSTS for v in signed]

    sa, sb = _mk_shares(np.zeros(100, dtype=np.uint64), RING, seed=14)
    _, _, rep_a, rep_b = pair_runner(toy_cfg,
                                     lambda ctx: ctx.provider.lt(sa, LT_CONSTS),
                                     lambda ctx: ctx.provider.lt(sb, LT_CONSTS),
                                     want_reports=True)
    one, rounds, _ = GadgetCostTable().cost("lt", 100)
    ph = rep_a.phases["gadget:lt"]
    assert ph["bytes_a"] + ph["bytes_b"] == len(LT_CONSTS) * one
    assert ph["rounds"] == rounds
    assert rep_a.to_dict() == rep_b.to_dict()


@pytest.mark.parametrize("bad", [0, 2, 4])
def test_lt_dealer_error_on_any_constant_fails_both_parties(bad):
    """A constant the dealer cannot compare against fails both parties the
    same way wherever it stands among the constants: B with the exception
    itself, A with GadgetUnavailable naming it from the error frame that
    takes that constant's place."""
    consts = list(LT_CONSTS)
    consts[bad] = None
    sessions = make_pair(PROFILES["lan"])
    shares = _mk_shares(np.arange(4, dtype=np.uint64), RING)
    errors = {}

    def run(me):
        try:
            GadgetProvider(sessions[me], CFG, GadgetCostTable()).lt(shares[me], consts)
        except Exception as e:
            errors[me] = e

    threads = [threading.Thread(target=run, args=(me,), daemon=True) for me in (0, 1)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
    finally:
        for session in sessions:
            session.close()
    assert isinstance(errors[0], GadgetUnavailable) and "TypeError" in str(errors[0])
    assert isinstance(errors[1], TypeError)


WRONG_DOMAIN = {  # gadget -> (call, a share domain it does not accept)
    "lt": (lambda g, x: g.lt(x, 0), BOOL),
    "b2a": (lambda g, x: g.b2a(x, FIELD), RING),
    "rexp": (lambda g, x: g.rexp(x), FIELD),
    "invsqrt": (lambda g, x: g.invsqrt(x, S, S), BOOL),
    "convert": (lambda g, x: g.convert(x, FIELD, 3), BOOL),
    "row_max": (lambda g, x: g.row_max(x, 2), FIELD),
}


@pytest.mark.parametrize("gadget", WRONG_DOMAIN)
def test_gadget_rejects_wrong_domain_before_any_traffic(gadget):
    """A share of a domain the gadget does not accept raises DomainMismatch
    on either party before anything is charged or sent.  The peer is closed
    up front, so a gadget that reached its dealer round would fail with
    PeerClosed instead of blocking."""
    call, domain = WRONG_DOMAIN[gadget]
    for me in (0, 1):
        pair = make_pair(PROFILES["lan"])
        session, peer = pair[me], pair[1 - me]
        peer.close()
        x = _mk_shares(np.zeros(4, dtype=np.uint64), domain)[me]
        with pytest.raises(DomainMismatch):
            call(GadgetProvider(session, CFG, GadgetCostTable()), x)
        assert session.ledger.entries == []
        session.close()
        with pytest.raises(PeerClosed):  # the close is the first thing peer gets
            peer.recv("_gadget", metered=False)


def _tcp_pair():
    ours, theirs = socket.socketpair()
    return (TcpSession("A", PROFILES["lan"], ours),
            TcpSession("B", PROFILES["lan"], theirs))


@pytest.mark.parametrize("transport", ["pair", "tcp"])
def test_any_dealer_exception_reaches_both_parties(transport):
    """A dealer function that raises something other than RangeError or
    DomainError (a negative shift makes ``round_shift`` raise ValueError)
    fails both parties, well before any deadline: B with the exception
    itself, A with GadgetUnavailable from the error frame, on either
    transport."""
    sessions = make_pair(PROFILES["lan"]) if transport == "pair" else _tcp_pair()
    shares = _mk_shares(np.arange(4, dtype=np.uint64), FIELD)
    errors = {}

    def run(me):
        try:
            GadgetProvider(sessions[me], CFG, GadgetCostTable()).convert(shares[me], FIELD, -1)
        except Exception as e:
            errors[me] = e

    threads = [threading.Thread(target=run, args=(me,), daemon=True) for me in (0, 1)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
    finally:
        for session in sessions:
            session.close()
    assert isinstance(errors[0], GadgetUnavailable) and "ValueError" in str(errors[0])
    assert isinstance(errors[1], ValueError)


TINY = FixedPointConfig(k=10, s=4, p=661)


def _tiny_gadget(cfg, pair_runner, vals, domain, call, seed):
    """Run ``call`` on the k=10/p=661 provider; the reconstructed signed
    result as Python ints and A's gadget charges in order."""
    sa, sb = _mk_shares(vals, domain, TINY, seed=seed)

    def f(sh):
        return lambda ctx: call(GadgetProvider(ctx.session, TINY, ctx.provider.costs), sh)

    ra, rb, _, transcript = pair_runner(cfg, f(sa), f(sb), want_transcript=True)
    charges = [label for kind, _, label in transcript if kind == "charge"]
    return [int(v) for v in reconstruct(ra, rb)], ra.modulus, charges


def _signed(v: int, modulus: int) -> int:
    return v - modulus if v > modulus // 2 else v


def test_row_max_toy_ring(toy_cfg, pair_runner):
    vals = np.random.default_rng(15).permutation(1024).astype(np.uint64)
    got, mod, charges = _tiny_gadget(toy_cfg, pair_runner, vals, RING,
                                     lambda g, x: g.row_max(x, 8), seed=15)
    rows = [[_signed(int(v), 1024) for v in vals[i:i + 8]] for i in range(0, 1024, 8)]
    assert mod == 1024 and got == [max(r) % 1024 for r in rows]
    assert charges == ["gadget:rowmax"]


def test_rescale_field_toy_field_rounds_half_up(toy_cfg, pair_runner):
    """Converting field shares into the field with a shift rescales them."""
    vals = np.arange(661, dtype=np.uint64)
    got, mod, charges = _tiny_gadget(toy_cfg, pair_runner, vals, FIELD,
                                     lambda g, x: g.convert(x, FIELD, 3), seed=16)
    want = [((_signed(v, 661) + 4) >> 3) % 661 for v in range(661)]
    assert mod == 661 and got == want
    # half up on negatives: -12/8 = -1.5 -> -1, -13/8 -> -2; 12/8 = 1.5 -> 2
    assert [_signed(got[v % 661], 661) for v in (-12, -13, 12)] == [-1, -2, 2]
    assert charges == ["gadget:trunc", "gadget:convert"]


@pytest.mark.parametrize("shift", [0, 1, 3])
def test_ring_to_field_strict_trunc_toy_ring(toy_cfg, pair_runner, shift):
    """Ring shares convert into the field with a faithful truncation, and
    are charged a truncation only when they are shifted."""
    vals = np.arange(1024, dtype=np.uint64)
    got, mod, charges = _tiny_gadget(
        toy_cfg, pair_runner, vals, RING,
        lambda g, x: g.convert(x, FIELD, shift), seed=17)
    half = (1 << shift) >> 1
    want = [((_signed(v, 1024) + half) >> shift) % 661 for v in range(1024)]
    assert mod == 661 and got == want
    assert charges == (["gadget:trunc"] if shift else []) + ["gadget:convert"]



def _run_both(sessions, call):
    """Run ``call(session, me)`` for parties 0 (A) and 1 (B) on two threads;
    their results and errors by party."""
    out, errors = {}, {}

    def run(me):
        try:
            out[me] = call(sessions[me], me)
        except Exception as e:
            errors[me] = e
            sessions[me].close()

    threads = [threading.Thread(target=run, args=(me,), daemon=True) for me in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return out, errors


_RNG = np.random.default_rng(40)
_RING_X = _RNG.integers(-(1 << 20), 1 << 20, size=3000) % (1 << 37)
GADGET_CALLS = {  # name -> (call, input secret, its domain)
    "convert": (lambda g, x: g.convert(x, FIELD), _RING_X, RING),
    "convert_shift": (lambda g, x: g.convert(x, RING, 7), _RING_X % CFG.p, FIELD),
    "lt": (lambda g, x: g.lt(x, [-70_000, -1, 0, 5, 123_456]), _RING_X, RING),
    "b2a": (lambda g, x: g.b2a(x, FIELD), _RNG.integers(0, 2, size=3000), BOOL),
    "rexp": (lambda g, x: g.rexp(x), -_RNG.integers(0, 1 << 16, size=3000) % (1 << 37), RING),
    "invsqrt": (lambda g, x: g.invsqrt(x, S, S), _RNG.integers(1, 1 << 20, size=3000), FIELD),
    "row_max": (lambda g, x: g.row_max(x, 12), _RING_X, RING),
}


@pytest.mark.parametrize("gadget", GADGET_CALLS)
def test_gadgets_over_tcp_equal_the_pair_bit_for_bit(gadget):
    """Every gadget runs over a TCP socketpair as over the in-process pair:
    with one dealer seed, both parties' output shares are the same words on
    both transports, and they reconstruct to a value of the right size."""
    call, secret, domain = GADGET_CALLS[gadget]
    shares = _mk_shares(np.asarray(secret, dtype=np.uint64), domain, seed=41)
    got = {}
    for transport in ("pair", "tcp"):
        sessions = make_pair(PROFILES["lan"]) if transport == "pair" else _tcp_pair()
        try:
            out, errors = _run_both(sessions, lambda sess, me: call(
                GadgetProvider(sess, CFG, GadgetCostTable(), dealer_seed=42), shares[me]))
        finally:
            for session in sessions:
                session.close()
        assert errors == {}
        got[transport] = out
    for me in (0, 1):
        assert got["pair"][me].payload.tobytes() == got["tcp"][me].payload.tobytes()
        assert got["tcp"][me].party == "AB"[me]
    want = len(secret) // 12 if gadget == "row_max" else len(secret) * (5 if gadget == "lt" else 1)
    assert len(reconstruct(got["tcp"][0], got["tcp"][1])) == want


def test_toy_gelu_over_tcp_equals_the_pair(toy_cfg, pair_runner):
    """The toy gelu over a TCP socketpair: the same output shares and the
    same cost report as over the pair."""
    x = np.random.default_rng(43).uniform(-6, 6, size=(4, 24))
    xs = _mk_shares(fp.encode_int(x, CFG, FIELD, S).ravel(), FIELD, seed=44)

    def party(me):
        return lambda ctx: pi_gelu(ctx, xs[me], (4, 24))

    ra, rb, rep_a, rep_b = pair_runner(toy_cfg, party(0), party(1), want_reports=True)
    sessions = _tcp_pair()
    try:
        out, errors = _run_both(sessions, lambda sess, me: (
            party(me)(make_party("AB"[me], sess, toy_cfg, 0)), sess.report()))
    finally:
        for session in sessions:
            session.close()
    assert errors == {}
    for (tcp_out, tcp_rep), pair_out, pair_rep in zip((out[0], out[1]), (ra, rb),
                                                      (rep_a, rep_b)):
        assert tcp_out.share.payload.tobytes() == pair_out.share.payload.tobytes()
        assert tcp_rep.to_dict() == pair_rep.to_dict()


N256_CAP = max_frame(toy_he_params(n=256))
WIDEST = GADGET_FAN_IN * MAX_BLOCKS * 256  # values of the widest gadget call


@pytest.mark.parametrize("call,width", [
    (lambda g, x: g.lt(x, [1, 2, 3, 4]), WIDEST // 4 + 1),
    (lambda g, x: g.lt(x, list(range(GADGET_FAN_IN + 1))), MAX_BLOCKS * 256),
    (lambda g, x: g.convert(x, FIELD), WIDEST + 1),
], ids=["lt4", "lt9", "convert"])
def test_gadget_wider_than_max_frame_fails_both_parties_unsent(call, width):
    """A gadget call of more than GADGET_FAN_IN vectors of MAX_BLOCKS blocks
    (at N=256) raises CapacityExceeded on either party before anything is
    charged or sent; the peer, closed first, would fail it otherwise."""
    for me in (0, 1):
        pair = make_pair(PROFILES["lan"])
        session, peer = pair[me], pair[1 - me]
        session.max_frame = N256_CAP
        peer.close()
        x = _mk_shares(np.zeros(width, dtype=np.uint64), RING)[me]
        with pytest.raises(CapacityExceeded):
            call(GadgetProvider(session, CFG, GadgetCostTable()), x)
        assert session.ledger.entries == []
        session.close()
        with pytest.raises(PeerClosed):
            peer.recv("_gadget", metered=False)


def test_widest_gadget_call_runs(toy_cfg, pair_runner):
    """A comparison of GADGET_FAN_IN vectors of MAX_BLOCKS blocks fits."""
    x = np.arange(MAX_BLOCKS * 256, dtype=np.uint64)
    sa, sb = _mk_shares(x, RING)
    consts = list(range(0, 8 * GADGET_FAN_IN, 8))
    ra, rb = pair_runner(toy_cfg, lambda ctx: ctx.provider.lt(sa, consts),
                         lambda ctx: ctx.provider.lt(sb, consts))
    assert ra.payload.size == WIDEST
    assert np.array_equal(reconstruct(ra, rb),
                          np.concatenate([(x < c).astype(np.uint64) for c in consts]))
