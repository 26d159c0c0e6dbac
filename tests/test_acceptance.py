"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 runs against the HE backend named by PRIVBLOCK_ACCEPT_BACKEND
("clear" by default; set "rlwe" for the lattice lane).  Run with
``pytest -s tests/test_acceptance.py -v`` to see the per-criterion lines.
"""

import math
import os
import time

import numpy as np
import pytest

from privblock import approx
from privblock import fixedpoint as fp
from privblock.channel import PROFILES, make_pair, run_pair
from privblock.hecore import create_backend
from privblock.model import (BLOCK_STAGES, BlockWeights, infer_block,
                             oracle_block, toy_block_config)
from privblock.params import Config, FixedPointConfig, GadgetCostTable, HeParams
from privblock.protocols import (LnParams, costs, make_party, pi_gelu, pi_ln,
                                 pi_matmul, pi_matmul_shared, pi_softmax)
from privblock.sharing import (BOOL, FIELD, RING, GadgetProvider, Share,
                               not_share, reconstruct, share, xor_shares)

ACCEPT_BACKEND = os.environ.get("PRIVBLOCK_ACCEPT_BACKEND", "clear")
S = 12
P = 137438822401
MIB = 2 ** 20

_REPORTED = []


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    _REPORTED.append(line)
    assert ok, line


def _cfg(backend=None):
    return Config(he_backend=backend or ACCEPT_BACKEND)


def _instance_loop(cfg, seed, body_a, body_b, n_instances):
    """One session pair and one key exchange reused across many instances."""
    def drive(role, body):
        def run(sess):
            ctx = make_party(role, sess, cfg, seed)
            return [body(ctx, i) for i in range(n_instances)]
        return run

    return run_pair(drive("A", body_a), drive("B", body_b), PROFILES["lan"])


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence over >= 100 seeded instances per protocol
# ---------------------------------------------------------------------------

N_INSTANCES = 100


def _shapes(rng, kind):
    if kind == "matmul":
        return (int(rng.integers(1, 33)), int(rng.integers(1, 33)),
                int(rng.integers(1, 65)))
    if kind == "mmshared":
        return (int(rng.integers(1, 33)), int(rng.integers(1, 33)),
                int(rng.integers(1, 33)))
    if kind == "softmax":
        return (int(rng.integers(1, 33)), int(rng.integers(2, 33)))
    if kind == "ln":
        return (int(rng.integers(1, 33)), int(rng.integers(4, 65)))
    return (int(rng.integers(1, 33)), int(rng.integers(1, 129)))  # gelu


def test_criterion_1_oracle_equivalence():
    cfg = _cfg()
    fpc = cfg.fixedpoint
    t0 = time.perf_counter()

    # deterministic instance corpus, shared by both parties
    gen = np.random.default_rng(202)
    corpus = {k: [] for k in ("matmul", "mmshared", "softmax", "ln", "gelu")}
    for kind in corpus:
        for i in range(N_INSTANCES):
            shape = ((32, 32, 64) if (i == 0 and kind == "matmul") else
                     (32, 32) if (i == 0 and kind == "softmax") else
                     (32, 64) if (i == 0 and kind == "ln") else
                     (32, 128) if (i == 0 and kind == "gelu") else
                     _shapes(gen, kind))
            corpus[kind].append((shape, int(gen.integers(0, 2 ** 31))))

    # matmul: exact mod p at scale 2s
    def mat_inputs(i):
        shape, sd = corpus["matmul"][i]
        r = np.random.default_rng(sd)
        a = r.integers(0, P, size=shape[:2], dtype=np.uint64)
        b = r.integers(0, P, size=shape[1:], dtype=np.uint64)
        return shape, a, b

    outs_a, outs_b = _instance_loop(
        cfg, 1,
        lambda ctx, i: pi_matmul(ctx, mat_inputs(i)[1], mat_inputs(i)[0]),
        lambda ctx, i: pi_matmul(ctx, mat_inputs(i)[2], mat_inputs(i)[0]),
        N_INSTANCES)
    for i, (oa, ob) in enumerate(zip(outs_a, outs_b)):
        shape, a, b = mat_inputs(i)
        got = reconstruct(oa.share, ob.share).reshape(oa.shape).astype(object)
        assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % P)
        assert oa.scale == 2 * S

    # shared-input matmul: exact mod p
    def mms_inputs(i):
        shape, sd = corpus["mmshared"][i]
        m, n, h = shape
        r = np.random.default_rng(sd)
        q = r.integers(0, 1 << 24, size=(m, n), dtype=np.uint64)
        k = r.integers(0, 1 << 24, size=(h, n), dtype=np.uint64)
        qa, qb = share(q.ravel(), FIELD, fpc, r)
        ka, kb = share(k.ravel(), FIELD, fpc, r)
        return shape, q, k, (qa, ka), (qb, kb)

    outs_a, outs_b = _instance_loop(
        cfg, 2,
        lambda ctx, i: pi_matmul_shared(ctx, *mms_inputs(i)[3],
                                        mms_inputs(i)[0][:2],
                                        (mms_inputs(i)[0][2], mms_inputs(i)[0][1])),
        lambda ctx, i: pi_matmul_shared(ctx, *mms_inputs(i)[4],
                                        mms_inputs(i)[0][:2],
                                        (mms_inputs(i)[0][2], mms_inputs(i)[0][1])),
        N_INSTANCES)
    for i, (oa, ob) in enumerate(zip(outs_a, outs_b)):
        shape, q, k, _, _ = mms_inputs(i)
        got = reconstruct(oa.share, ob.share).reshape(oa.shape).astype(object)
        assert np.array_equal(got, (q.astype(object) @ k.astype(object).T) % P)

    # softmax: 2^-8 absolute
    def sm_inputs(i):
        shape, sd = corpus["softmax"][i]
        r = np.random.default_rng(sd)
        x = r.uniform(-5, 0, size=shape)
        xa, xb = share(fp.encode_int(x, fpc, RING, S).ravel(), RING, fpc, r)
        return shape, x, xa, xb

    outs_a, outs_b = _instance_loop(
        cfg, 3,
        lambda ctx, i: pi_softmax(ctx, sm_inputs(i)[2], sm_inputs(i)[0]),
        lambda ctx, i: pi_softmax(ctx, sm_inputs(i)[3], sm_inputs(i)[0]),
        N_INSTANCES)
    for i, (oa, ob) in enumerate(zip(outs_a, outs_b)):
        shape, x, _, _ = sm_inputs(i)
        y = fp.decode_int(reconstruct(oa.share, ob.share), fpc, FIELD,
                          oa.scale).reshape(shape)
        ref = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        assert np.abs(y - ref).max() <= 2.0 ** -8

    # layernorm: 2^-6 absolute
    def ln_inputs(i):
        shape, sd = corpus["ln"][i]
        r = np.random.default_rng(sd)
        x = r.normal(0, 1.0, size=shape)
        gamma = r.uniform(0.5, 1.5, shape[1])
        beta = r.uniform(-1, 1, shape[1])
        xa, xb = share(fp.encode_int(x, fpc, RING, S).ravel(), RING, fpc, r)
        return shape, x, gamma, beta, xa, xb

    outs_a, outs_b = _instance_loop(
        cfg, 4,
        lambda ctx, i: pi_ln(ctx, ln_inputs(i)[4], ln_inputs(i)[0], None),
        lambda ctx, i: pi_ln(ctx, ln_inputs(i)[5], ln_inputs(i)[0],
                             LnParams(ln_inputs(i)[2], ln_inputs(i)[3])),
        N_INSTANCES)
    for i, (oa, ob) in enumerate(zip(outs_a, outs_b)):
        shape, x, gamma, beta, _, _ = ln_inputs(i)
        y = fp.decode_int(reconstruct(oa.share, ob.share), fpc, FIELD,
                          oa.scale).reshape(shape)
        mu = x.mean(axis=1, keepdims=True)
        sd_ = x.std(axis=1, keepdims=True)
        assert np.abs(y - (gamma * (x - mu) / sd_ + beta)).max() <= 2.0 ** -6

    # gelu: 2 ulp against the grid-selected piecewise oracle
    def gl_inputs(i):
        shape, sd = corpus["gelu"][i]
        r = np.random.default_rng(sd)
        x = r.uniform(-8, 8, size=shape)
        xa, xb = share(fp.encode_int(x, fpc, FIELD, S).ravel(), FIELD, fpc, r)
        return shape, x, xa, xb

    outs_a, outs_b = _instance_loop(
        cfg, 5,
        lambda ctx, i: pi_gelu(ctx, gl_inputs(i)[2], gl_inputs(i)[0]),
        lambda ctx, i: pi_gelu(ctx, gl_inputs(i)[3], gl_inputs(i)[0]),
        N_INSTANCES)
    for i, (oa, ob) in enumerate(zip(outs_a, outs_b)):
        shape, x, _, _ = gl_inputs(i)
        y = fp.decode_int(reconstruct(oa.share, ob.share), fpc, FIELD,
                          oa.scale).reshape(shape)
        xq = np.round(x * 2 ** S).astype(np.int64)
        ref = approx.eval_on_grid(approx.GELU_TABLE, xq.ravel(), S).reshape(shape)
        assert np.abs(y - ref).max() * 2 ** S <= 2.0

    elapsed = time.perf_counter() - t0
    budget = 300.0 if ACCEPT_BACKEND == "clear" else 1800.0
    _report(1, elapsed < budget,
            f"5 protocols x {N_INSTANCES} seeded instances match their "
            f"oracles at stated tolerances on the {ACCEPT_BACKEND} backend "
            f"({elapsed:.1f}s < {budget:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 2: rotation-freedom and transcript shape
# ---------------------------------------------------------------------------

EXPECTED_TRANSCRIPTS = {
    "matmul": [("frame", "A", "matmul/inputs"),
               ("frame", "B", "matmul/masked_product")],
    "softmax": [("charge", "AB", "softmax/gadget:rexp"),
                ("frame", "A", "softmax/rowsum_share"),
                ("frame", "B", "softmax/denominator"),
                ("frame", "A", "softmax/result")],
    "ln": [("charge", "AB", "ln/gadget:trunc"),
           ("charge", "AB", "ln/gadget:convert"),
           ("frame", "B", "ln/ashare"),
           ("frame", "A", "ln/masked_square"),
           ("charge", "AB", "ln/gadget:convert"),
           ("charge", "AB", "ln/gadget:invsqrt"),
           ("frame", "B", "ln/invsqrt_share"),
           ("frame", "A", "ln/masked_ratio"),
           ("frame", "B", "ln/result")],
    "gelu": [("frame", "A", "gelu/encrypt_input"),
             ("frame", "B", "gelu/input_and_squares"),
             ("charge", "AB", "gelu/gadget:convert"),
             ("charge", "AB", "gelu/gadget:lt"),
             ("charge", "AB", "gelu/gadget:b2a"),
             ("frame", "A", "gelu/selector_and_square_shares"),
             ("frame", "B", "gelu/masked_powers"),
             ("frame", "A", "gelu/power_shares"),
             ("frame", "B", "gelu/result")],
}


def _collect_transcript(cfg, fn_a, fn_b, seed=0):
    def drive(role, fn):
        def run(sess):
            ctx = make_party(role, sess, cfg, seed)
            fn(ctx)
            return sess.transcript_labels()
        return run

    tr, _ = run_pair(drive("A", fn_a), drive("B", fn_b), PROFILES["lan"])
    return [t for t in tr if t[2].split("/")[0] in EXPECTED_TRANSCRIPTS]


def test_criterion_2_rotation_freedom_and_transcripts():
    cfg = _cfg("clear")
    fpc = cfg.fixedpoint
    for backend in ("clear", "rlwe"):
        be = create_backend(HeParams(), backend, np.random.default_rng(0))
        names = [n.lower() for n in dir(be)]
        assert not any("rot" in n or "galois" in n for n in names)

    rng = np.random.default_rng(0)
    a = rng.integers(0, P, size=(4, 3), dtype=np.uint64)
    b = rng.integers(0, P, size=(3, 5), dtype=np.uint64)
    tr = _collect_transcript(cfg, lambda c: pi_matmul(c, a, (4, 3, 5)),
                             lambda c: pi_matmul(c, b, (4, 3, 5)))
    assert tr == EXPECTED_TRANSCRIPTS["matmul"]

    x = rng.uniform(-5, 0, size=(4, 8))
    xa, xb = share(fp.encode_int(x, fpc, RING, S).ravel(), RING, fpc, rng)
    tr = _collect_transcript(cfg, lambda c: pi_softmax(c, xa, (4, 8)),
                             lambda c: pi_softmax(c, xb, (4, 8)))
    assert tr == EXPECTED_TRANSCRIPTS["softmax"]

    x = rng.normal(0, 1, size=(4, 8))
    la, lb = share(fp.encode_int(x, fpc, RING, S).ravel(), RING, fpc, rng)
    tr = _collect_transcript(
        cfg, lambda c: pi_ln(c, la, (4, 8), None),
        lambda c: pi_ln(c, lb, (4, 8), LnParams(np.ones(8), np.zeros(8))))
    assert tr == EXPECTED_TRANSCRIPTS["ln"]

    x = rng.uniform(-8, 8, size=(2, 8))
    ga, gb = share(fp.encode_int(x, fpc, FIELD, S).ravel(), FIELD, fpc, rng)
    tr = _collect_transcript(cfg, lambda c: pi_gelu(c, ga, (2, 8)),
                             lambda c: pi_gelu(c, gb, (2, 8)))
    assert tr == EXPECTED_TRANSCRIPTS["gelu"]

    _report(2, True, "no rotation in the HE API; all four transcripts match "
                     "their enumerated message groups")


# ---------------------------------------------------------------------------
# criterion 3: fresh serialized ciphertext size bracket
# ---------------------------------------------------------------------------

def test_criterion_3_ciphertext_size():
    params = HeParams()
    be = create_backend(params, "rlwe", np.random.default_rng(1))
    kp = be.keygen("A", with_relin=False)
    ct = be.encrypt(np.arange(params.n, dtype=np.uint64), kp.public)
    size = len(be.serialize(ct))
    ok = 300 * 1024 <= size <= 400 * 1024
    _report(3, ok, f"fresh ciphertext at N={params.n}, q~{params.q_bits} bits "
                   f"serializes to {size / 1024:.1f} KB in [300, 400]")


# ---------------------------------------------------------------------------
# criterion 4: desk-scale communication = analytic formulas, 2x of published
# ---------------------------------------------------------------------------

PUBLISHED_MIB = {"softmax": 4.94, "matmul": 271.47, "ln": 154.69, "gelu": 928.77}


def _desk_run(cfg, protocol):
    fpc = cfg.fixedpoint
    rng = np.random.default_rng(99)
    if protocol == "matmul":
        m, n, h = 128, 768, 64
        a = rng.integers(0, P, size=(m, n), dtype=np.uint64)
        b = rng.integers(0, P, size=(n, h), dtype=np.uint64)
        fa = lambda c: pi_matmul(c, a, (m, n, h))
        fb = lambda c: pi_matmul(c, b, (m, n, h))
        formula = costs.matmul_bytes(cfg, m, n, h)
        oracle = ("exact", (a.astype(object) @ b.astype(object)) % P, (m, h))
    elif protocol == "softmax":
        m, d = 128, 128
        x = rng.uniform(-5, 0, size=(m, d))
        xa, xb = share(fp.encode_int(x, fpc, RING, S).ravel(), RING, fpc, rng)
        fa = lambda c: pi_softmax(c, xa, (m, d))
        fb = lambda c: pi_softmax(c, xb, (m, d))
        formula = costs.softmax_bytes(cfg, m, d)
        oracle = ("softmax", x, (m, d))
    elif protocol == "ln":
        m, n = 128, 768
        x = rng.normal(0, 1.0, size=(m, n))
        gamma = rng.uniform(0.5, 1.5, n)
        beta = rng.uniform(-1, 1, n)
        xa, xb = share(fp.encode_int(x, fpc, RING, S).ravel(), RING, fpc, rng)
        fa = lambda c: pi_ln(c, xa, (m, n), None)
        fb = lambda c: pi_ln(c, xb, (m, n), LnParams(gamma, beta))
        formula = costs.ln_bytes(cfg, m, n)
        oracle = ("ln", (x, gamma, beta), (m, n))
    else:
        m, w = 128, 3072
        x = rng.uniform(-8, 8, size=(m, w))
        xa, xb = share(fp.encode_int(x, fpc, FIELD, S).ravel(), FIELD, fpc, rng)
        fa = lambda c: pi_gelu(c, xa, (m, w))
        fb = lambda c: pi_gelu(c, xb, (m, w))
        formula = costs.gelu_bytes(cfg, m, w)
        oracle = ("gelu", x, (m, w))

    def drive(role, fn):
        def run(sess):
            ctx = make_party(role, sess, cfg, seed=17)
            out = fn(ctx)
            return out, sess.report()
        return run

    (oa, rep), (ob, _) = run_pair(drive("A", fa), drive("B", fb), PROFILES["wan1"])
    got = {k.split("/", 1)[1]: v["bytes_a"] + v["bytes_b"]
           for k, v in rep.phases.items() if k.startswith(protocol + "/")}
    assert got == formula, f"{protocol}: measured bytes differ from formula"
    total = sum(got.values())

    kind, ref, shape = oracle
    rec = reconstruct(oa.share, ob.share)
    if kind == "exact":
        assert np.array_equal(rec.reshape(shape).astype(object), ref)
    elif kind == "softmax":
        y = fp.decode_int(rec, fpc, FIELD, oa.scale).reshape(shape)
        want = np.exp(ref) / np.exp(ref).sum(axis=1, keepdims=True)
        assert np.abs(y - want).max() <= 2.0 ** -8
    elif kind == "ln":
        x, gamma, beta = ref
        y = fp.decode_int(rec, fpc, FIELD, oa.scale).reshape(shape)
        mu = x.mean(axis=1, keepdims=True)
        sd_ = x.std(axis=1, keepdims=True)
        assert np.abs(y - (gamma * (x - mu) / sd_ + beta)).max() <= 2.0 ** -6
    else:
        y = fp.decode_int(rec, fpc, FIELD, oa.scale).reshape(shape)
        xq = np.round(ref * 2 ** S).astype(np.int64)
        want = approx.eval_on_grid(approx.GELU_TABLE, xq.ravel(), S).reshape(shape)
        assert np.abs(y - want).max() * 2 ** S <= 2.0
    return total


def test_criterion_4_desk_scale_bytes():
    cfg = _cfg("clear")
    lines = []
    for protocol in ("softmax", "matmul", "ln", "gelu"):
        total = _desk_run(cfg, protocol)
        mib = total / MIB
        ratio = mib / PUBLISHED_MIB[protocol]
        assert 0.5 <= ratio <= 2.0, f"{protocol}: {mib:.2f} MiB vs published"
        lines.append(f"{protocol}={mib:.2f}MiB({ratio:.2f}x)")
    _report(4, True, "desk-scale bytes equal the analytic packing formulas "
                     "exactly and sit within 2x of the published totals: "
            + " ".join(lines))


# ---------------------------------------------------------------------------
# criterion 5: approximation tables and boundary finder
# ---------------------------------------------------------------------------

def test_criterion_5_approximation_tables():
    assert approx.GELU_TABLE(0.0) == 0.001193207
    assert approx.SIGMOID_TABLE(0.0) == 0.4998102695
    assert approx.TANH_TABLE(0.0) == -0.0018890324
    assert approx.MISH_TABLE(0.0) == 0.0000929623

    spec = approx.FitSpec(approx.gelu_exact, derivative_order=2)
    roots = approx.find_boundaries(spec)
    assert abs(roots[0] + math.sqrt(2)) < 1e-6 and abs(roots[1] - math.sqrt(2)) < 1e-6
    spec = approx.FitSpec(approx.sigmoid_exact, derivative_order=3,
                          window=(0.05, 8.0))
    assert abs(approx.find_boundaries(spec)[0] - math.log(2 + math.sqrt(3))) < 1e-6
    spec = approx.FitSpec(approx.mish_exact, derivative_order=2)
    assert abs(approx.find_boundaries(spec)[0] + 2.2563763963607935) < 1e-6

    mae = approx.mae(approx.GELU_TABLE, approx.gelu_exact, -6, 6, 10000)
    assert abs(mae - 7.159790578073239e-04) < 1e-9
    _report(5, True, f"table spot values exact; inflection boundaries to 1e-6; "
                     f"pinned MAE {mae:.9e} reproduced to 1e-9")


# ---------------------------------------------------------------------------
# criterion 6: gadget and numeric substrate on toy domains
# ---------------------------------------------------------------------------

def test_criterion_6_substrate():
    tiny = FixedPointConfig(k=4, s=1, p=13)
    rng = np.random.default_rng(0)
    # exhaustive share/reconstruct on both toy domains
    for domain, mod in ((RING, 16), (FIELD, 13)):
        for secret in range(mod):
            for split in range(mod):
                sa = Share(domain, "A", np.array([split], dtype=np.uint64), mod)
                sb = Share(domain, "B", np.array([(secret - split) % mod],
                                                 dtype=np.uint64), mod)
                assert int(reconstruct(sa, sb)[0]) == secret
    # exhaustive domain conversion correctness per the wrap characterization
    for secret in range(16):
        signed = secret - 16 if secret > 8 else secret
        for a in range(16):
            sa = Share(RING, "A", np.array([a], dtype=np.uint64), 16)
            sb = Share(RING, "B", np.array([(secret - a) % 16], dtype=np.uint64), 16)
            got = int(reconstruct(fp.convert_share(sa, FIELD, tiny),
                                  fp.convert_share(sb, FIELD, tiny))[0])
            wraps = a + ((secret - a) % 16) >= 16
            assert (got == signed % 13) == (wraps if signed >= 0 else not wraps)

    # XOR composition
    for x in (0, 1):
        for y in (0, 1):
            xa, xb = share(np.array([x], dtype=np.uint64), BOOL, tiny, rng)
            ya, yb = share(np.array([y], dtype=np.uint64), BOOL, tiny, rng)
            assert int(reconstruct(xor_shares(xa, ya), xor_shares(xb, yb))[0]) == x ^ y

    # exhaustive comparison and bit conversion over a 10-bit toy ring
    cfg = _cfg("clear")
    ten = FixedPointConfig(k=10, s=4, p=661)
    vals = np.arange(1024, dtype=np.uint64)
    sa, sb = share(vals, RING, ten, rng)

    def drive(sh, fn):
        def run(sess):
            prov = GadgetProvider(sess, ten, GadgetCostTable())
            sess.handshake(b"x")
            return fn(prov, sh)
        return run

    for c in (-200, 0, 333):
        ra, rb = run_pair(drive(sa, lambda pr, sh: pr.lt(sh, c)),
                          drive(sb, lambda pr, sh: pr.lt(sh, c)),
                          PROFILES["lan"])
        got = reconstruct(ra, rb).astype(np.int64)
        signed = np.where(vals > 512, vals.astype(np.int64) - 1024,
                          vals.astype(np.int64))
        assert np.array_equal(got, (signed < c).astype(np.int64))

    for bit in (0, 1):
        for split in range(2):
            ba = Share(BOOL, "A", np.array([split], dtype=np.uint64), 2)
            bb = Share(BOOL, "B", np.array([bit ^ split], dtype=np.uint64), 2)
            ra, rb = run_pair(drive(ba, lambda pr, sh: pr.b2a(sh, FIELD)),
                              drive(bb, lambda pr, sh: pr.b2a(sh, FIELD)),
                              PROFILES["lan"])
            assert int(reconstruct(ra, rb)[0]) == (bit << ten.s) + (1 << ten.s)

    # shared exponential / inverse sqrt precision sweeps
    fpc = cfg.fixedpoint
    x = np.random.default_rng(1).uniform(-16, 0, size=5000)
    xe = np.asarray(np.round(x * 4096).astype(object) % 2 ** 37, dtype=np.uint64)
    ea, eb = share(xe, RING, fpc, rng)

    def drive_full(sh, fn):
        def run(sess):
            prov = GadgetProvider(sess, fpc, GadgetCostTable())
            sess.handshake(b"x")
            return fn(prov, sh)
        return run

    ra, rb = run_pair(drive_full(ea, lambda pr, sh: pr.rexp(sh)),
                      drive_full(eb, lambda pr, sh: pr.rexp(sh)), PROFILES["lan"])
    got = reconstruct(ra, rb).astype(np.float64)
    want = np.exp(np.round(x * 4096) / 4096) * 4096
    assert np.abs(got - want).max() <= 2.0

    x = np.random.default_rng(2).uniform(2.0 ** -S, 2.0 ** S, size=5000)
    xe = np.asarray(np.round(x * 4096), dtype=np.uint64)
    ia, ib = share(xe, RING, fpc, rng)
    ra, rb = run_pair(
        drive_full(ia, lambda pr, sh: pr.invsqrt(sh, scale=S, out_scale=S)),
        drive_full(ib, lambda pr, sh: pr.invsqrt(sh, scale=S, out_scale=S)),
        PROFILES["lan"])
    got = reconstruct(ra, rb).astype(np.float64)
    want = 4096.0 / np.sqrt(np.round(x * 4096) / 4096)
    assert np.abs(got - want).max() <= 2.0

    _report(6, True, "share/reconstruct, comparison, bit conversion, XOR and "
                     "domain conversion exhaustive on toy domains; "
                     "exp/invsqrt within 2 ulp on sweeps")


# ---------------------------------------------------------------------------
# criterion 7: end-to-end toy block
# ---------------------------------------------------------------------------

def test_criterion_7_toy_block():
    cfg = _cfg("clear")
    bc = toy_block_config()
    rng = np.random.default_rng(31)
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))

    def drive(role):
        def run(sess):
            ctx = make_party(role, sess, cfg, seed=13)
            out = infer_block(ctx, x if role == "A" else None,
                              weights if role == "B" else None, bc)
            return out, sess.report()
        return run

    def once():
        (oa, rep), (ob, _) = run_pair(drive("A"), drive("B"), PROFILES["lan"])
        y = fp.decode_int(reconstruct(oa.share, ob.share), cfg.fixedpoint,
                          FIELD, oa.scale).reshape(oa.shape)
        return y, rep

    y1, rep1 = once()
    y2, rep2 = once()
    err = np.abs(y1 - oracle_block(x, weights, bc)).max()
    assert err <= 2.0 ** -4
    assert np.array_equal(y1, y2) and rep1.to_dict() == rep2.to_dict()
    stage_total = sum(rep1.bytes_for(stage) for stage in BLOCK_STAGES)
    setup = rep1.bytes_for("handshake") + rep1.bytes_for("keyexchange")
    assert rep1.total_bytes == stage_total + setup
    _report(7, True, f"toy block within 2^-4 of the reference "
                     f"(max err {err:.4f}), deterministic, block cost equals "
                     f"the exact sum of stage costs")


# ---------------------------------------------------------------------------
# criterion 8: simulated-time model
# ---------------------------------------------------------------------------

def test_criterion_8_simulated_time():
    prof = PROFILES["wan1"]
    sa, sb = make_pair(prof)
    sa.send("one_mb", b"x" * (10 ** 6 - 8))
    sb.recv("one_mb")
    t = sa.report().simulated_time
    assert t == 0.010 + 8 * 10 ** 6 / 400e6 == 0.030

    # scripted multi-message transcript reproduces the analytic formula
    sizes = [1234, 999, 42000]
    sa, sb = make_pair(prof)
    sa.send("a", b"x" * sizes[0])
    sb.recv("a")
    sb.send("b", b"y" * sizes[1])
    sa.recv("b")
    sa.send("c", b"z" * sizes[2])
    sb.recv("c")
    want = sum(prof.latency + 8 * (s + 8) / prof.bandwidth for s in sizes)
    assert sa.report().simulated_time == pytest.approx(want, rel=1e-12)
    assert sb.report().simulated_time == pytest.approx(want, rel=1e-12)
    _report(8, True, "one exact-1MB message costs exactly 0.030s under the "
                     "400Mbps/10ms profile; scripted transcripts match the "
                     "latency+bandwidth formula")
