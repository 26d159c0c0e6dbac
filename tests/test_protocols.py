"""Rules every protocol shares through ``PartyCtx``: one entry check on
both parties before any frame moves, and transcripts pinned bit for bit."""

import hashlib
import json
import socket
import threading

import numpy as np
import pytest

from privblock import fixedpoint as fp
from privblock.channel import PROFILES, TcpSession, make_pair
from privblock.model import BlockWeights, infer_block, toy_block_config
from privblock.protocols import (LnParams, ShapeMismatch, make_party, pi_gelu, pi_ln,
                                 pi_matmul, pi_matmul_shared, pi_softmax)
from privblock.sharing import FIELD, RING, share


def _sessions(transport):
    if transport == "pair":
        return make_pair(PROFILES["lan"])
    ours, theirs = socket.socketpair()
    return TcpSession("A", PROFILES["lan"], ours), TcpSession("B", PROFILES["lan"], theirs)


def _entry_failure(cfg, transport, calls):
    """Run ``calls[role](ctx)`` for both parties after set-up on two
    threads; per role, the type of what it raised and the ledger entries it
    made after set-up.  A party that raises closes its session."""
    sessions = _sessions(transport)
    got = {}

    def run(sess):
        ctx = make_party(sess.role, sess, cfg)
        before = len(sess.transcript_labels())
        try:
            calls[sess.role](ctx)
            kind = None
        except Exception as e:  # noqa: BLE001 - compared below
            kind = type(e)
            sess.close()
        got[sess.role] = kind, sess.transcript_labels()[before:]

    threads = [threading.Thread(target=run, args=(sess,), daemon=True) for sess in sessions]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        for sess in sessions:
            sess.close()
    return got


def _bad_calls(case, fpc):
    """Both parties' calls of one protocol on input shares its shape
    rejects: zero rows, or a q share one value short."""
    if case == "mmshared":
        qa, qb = share(np.arange(11, dtype=np.uint64), FIELD, fpc, np.random.default_rng(1))
        ka, kb = share(np.arange(12, dtype=np.uint64), FIELD, fpc, np.random.default_rng(2))
        return {role: (lambda ctx, q=q, k=k: pi_matmul_shared(ctx, q, k, (3, 4), (3, 4)))
                for role, q, k in (("A", qa, ka), ("B", qb, kb))}
    domain = FIELD if case == "gelu" else RING
    xa, xb = share(np.zeros(0, dtype=np.uint64), domain, fpc, np.random.default_rng(3))
    lnp = LnParams(np.ones(8), np.zeros(8))
    call = {"softmax": lambda ctx, x: pi_softmax(ctx, x, (0, 8)),
            "ln": lambda ctx, x: pi_ln(ctx, x, (0, 8), lnp if ctx.role == "B" else None),
            "gelu": lambda ctx, x: pi_gelu(ctx, x, (0, 8))}[case]
    return {"A": lambda ctx: call(ctx, xa), "B": lambda ctx: call(ctx, xb)}


@pytest.mark.parametrize("transport", ["pair", "tcp"])
@pytest.mark.parametrize("cfg_name", ["toy_cfg", "rlwe_toy_cfg"])
@pytest.mark.parametrize("case", ["softmax", "ln", "gelu", "mmshared"])
def test_bad_input_shares_fail_on_both_parties_before_any_frame(case, cfg_name,
                                                                transport, request):
    """A zero-row softmax, layernorm or gelu, and an mmshared q share one
    value short of its shape, raise ``ShapeMismatch`` on both parties, on
    either backend and transport, with no frame or gadget charge metered
    after set-up."""
    cfg = request.getfixturevalue(cfg_name)
    got = _entry_failure(cfg, transport, _bad_calls(case, cfg.fixedpoint))
    assert got == {"A": (ShapeMismatch, []), "B": (ShapeMismatch, [])}


def _digest(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _pinned_cases(cfg):
    """Each case's two party calls, on inputs drawn per case."""
    fpc = cfg.fixedpoint
    rng = np.random.default_rng(61)

    def shares(x, domain):
        return share(fp.encode_int(x, fpc, domain, fpc.s).ravel(), domain, fpc, rng)

    sa, sb = shares(rng.uniform(-5, 0, size=(8, 16)), RING)
    ma, mb = shares(rng.uniform(-5, 5, size=(8, 16)), RING)
    la, lb = shares(rng.normal(0, 1, size=(4, 40)), RING)
    lnp = LnParams(rng.uniform(0.5, 1.5, 40), rng.uniform(-1, 1, 40))
    left = rng.integers(0, fpc.p, size=(6, 10), dtype=np.uint64)
    right = rng.integers(0, fpc.p, size=(10, 7), dtype=np.uint64)
    qa, qb = share(rng.integers(0, 1 << 24, size=24, dtype=np.uint64), FIELD, fpc, rng)
    ka, kb = share(rng.integers(0, 1 << 24, size=40, dtype=np.uint64), FIELD, fpc, rng)
    bc = toy_block_config()
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))
    return {
        "softmax_none": (lambda c: pi_softmax(c, sa, (8, 16)),
                         lambda c: pi_softmax(c, sb, (8, 16))),
        "softmax_max": (lambda c: pi_softmax(c, ma, (8, 16), normalize="max"),
                        lambda c: pi_softmax(c, mb, (8, 16), normalize="max")),
        "ln": (lambda c: pi_ln(c, la, (4, 40), None), lambda c: pi_ln(c, lb, (4, 40), lnp)),
        "matmul": (lambda c: pi_matmul(c, left, (6, 10, 7)),
                   lambda c: pi_matmul(c, right, (6, 10, 7))),
        "matmul_packed": (lambda c: pi_matmul(c, left, (6, 10, 7), packed=True),
                          lambda c: pi_matmul(c, right, (6, 10, 7), packed=True)),
        "mmshared": (lambda c: pi_matmul_shared(c, qa, ka, (2, 3, 4), (2, 5, 4)),
                     lambda c: pi_matmul_shared(c, qb, kb, (2, 3, 4), (2, 5, 4))),
        "block": (lambda c: infer_block(c, x, None, bc),
                  lambda c: infer_block(c, None, weights, bc)),
    }


# SHA-256 of A's then B's output share payload (uint64, little-endian) of
# each case at seed 5; the two backends give the same shares
PINNED_SHARES = {
    "softmax_none": "e6fa074168c34532f54b56669965d1b071710dde741a19d1a6f3fb47f7282131",
    "softmax_max": "c7fbbd019285a09f4c55b5dd8a8b76f690f0ac57e97737020dfa1fddc249c826",
    "ln": "51d68d09c66d5ddbef7299317deb777af376044ad604163f8b3f337140478d53",
    "matmul": "11b3658fdaf558781eb070c0baceffbf57170703d605c87fa5e7a92dd7eafde5",
    "matmul_packed": "62448005cce813fa4d690ba25bb39216cf66e373d71486db4fbe27f5a8fe7f71",
    "mmshared": "8d4aa912015b1404d56b1ef95991e9ad659b7ebc0d82e4063728a2de31a9d4c6",
    "block": "537a38bbe4f7eb262e1c99d9f80c616f76ad5674400c950ab3e6973a6cd7046e",
}
# SHA-256 of A's then B's ``CostReport.to_dict()`` as sorted-key JSON, per
# backend and case
PINNED_REPORTS = {
    ("clear", "softmax_none"):
        "6df88a3186d260428979633be763034902dc6646661d5e28990b614a173b820d",
    ("clear", "softmax_max"):
        "e2cfe96c040db7e35b2066f3a1ac38d7a444587b51c563c23033b13587ef8167",
    ("clear", "ln"):
        "39043dcb95462328cc9f9811c62071f712b8fa30ff5d694385192692e72a9088",
    ("clear", "matmul"):
        "bade512f078671c000c5151be94117e7971482ed548c61d63a5711999a891a93",
    ("clear", "matmul_packed"):
        "f796650fb8177896aad840b9313b039b4083a95b5da030c3d602b43fc2b90c09",
    ("clear", "mmshared"):
        "937ca545b444529acf82375cee55753e60eb9646b6ae7a17be78c5b870dda2fd",
    ("clear", "block"):
        "d34c390107c6cd63da32e48b86cfe075b008cde9eec1e9bf07bc72707475e320",
    ("rlwe", "softmax_none"):
        "90959db86c941186e4ef5fec14bc349b995d029f7ba209e94df80c86f69efc1c",
    ("rlwe", "softmax_max"):
        "99b0f35d4c1c9c722d0e9288321ec662a0edbd38ed864bc5a6dbfd8f584d3b8b",
    ("rlwe", "ln"):
        "0e7971142ef901410e0167e8e963592ae66aa5f2c6ca23e4967871b8374468e2",
    ("rlwe", "matmul"):
        "5daabd070493c662837e5cebea3254ec15a9d290cace41818bb46779d8348352",
    ("rlwe", "matmul_packed"):
        "9f1203e84b18980cb41309c4d712291b3d1dad2732b07863c785134baccaa7e3",
    ("rlwe", "mmshared"):
        "b859b595504b5f4ec05ba8802289b31d192921c48cc52f5cdef97faac21441c7",
    ("rlwe", "block"):
        "0bc99954ac2afe1a7c56d156075026d9b8a3c21c8f72b4fd6c8640728c4a46e3",
}


@pytest.mark.parametrize("cfg_name", ["toy_cfg", "rlwe_toy_cfg"])
@pytest.mark.parametrize("case", sorted(PINNED_SHARES))
def test_transcripts_are_pinned(case, cfg_name, pair_runner, request):
    """Both parties' output shares and cost reports hash to pinned digests
    on both backends, so a change to how protocols check their inputs,
    check their frames or return ciphertexts that moves any value, mask or
    byte count shows here."""
    cfg = request.getfixturevalue(cfg_name)
    fa, fb = _pinned_cases(cfg)[case]
    ra, rb, rep_a, rep_b = pair_runner(cfg, fa, fb, seed=5, want_reports=True)
    shares_ = b"".join(r.share.payload.astype("<u8").tobytes() for r in (ra, rb))
    reports = "".join(json.dumps(rep.to_dict(), sort_keys=True) for rep in (rep_a, rep_b))
    assert _digest(shares_) == PINNED_SHARES[case]
    assert _digest(reports.encode()) == PINNED_REPORTS[cfg.he_backend, case]
