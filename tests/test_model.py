import math
import os
import sys
import threading

import numpy as np
import pytest

from privblock import fixedpoint as fp
from privblock.cli import main
from privblock.model import (BLOCK_STAGES, BlockConfig, BlockWeights,
                             ParseError, ShapeError, dump_weights, infer_block,
                             load_weights, oracle_attention, oracle_block,
                             oracle_softmax, toy_block_config)
from privblock.params import Config
from privblock.protocols import costs
from privblock.protocols.matmul import packed_partition
from privblock.sharing import reconstruct


def test_block_config_invariant():
    with pytest.raises(ShapeError):
        BlockConfig(d_s=8, d_m=16, h=3, d_k=8, d_f=32)


def test_weights_roundtrip(tmp_path):
    bc = toy_block_config()
    w = BlockWeights.random(bc, np.random.default_rng(0))
    path = os.path.join(tmp_path, "w.bin")
    dump_weights(w, path)
    loaded = load_weights(path)
    assert loaded.config == bc
    for name in w.tensors:
        assert np.array_equal(loaded[name], w[name])
    # dump of the load is bit-identical
    path2 = os.path.join(tmp_path, "w2.bin")
    dump_weights(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_weights_bad_header(tmp_path):
    bc = toy_block_config()
    w = BlockWeights.random(bc, np.random.default_rng(1))
    path = os.path.join(tmp_path, "w.bin")
    dump_weights(w, path)
    blob = bytearray(open(path, "rb").read())
    blob[13] = 99  # corrupt d_m -> header dimensions become inconsistent
    bad = os.path.join(tmp_path, "bad.bin")
    open(bad, "wb").write(bytes(blob))
    with pytest.raises(ShapeError):
        load_weights(bad)


def test_weights_truncated_container_is_a_parse_error(tmp_path):
    """Every cut through the header or the first tensor record, and one cut
    inside the last tensor, is a ParseError, and the CLI exits 2 on it."""
    w = BlockWeights.random(toy_block_config(), np.random.default_rng(4))
    path = os.path.join(tmp_path, "w.bin")
    dump_weights(w, path)
    with open(path, "rb") as f:
        blob = f.read()
    name = sorted(w.tensors)[0]
    record = 2 + len(name) + 1 + 4 * w[name].ndim + 8 * w[name].size
    cut = os.path.join(tmp_path, "cut.bin")
    for end in [*range(26 + record), len(blob) - 8]:
        with open(cut, "wb") as f:
            f.write(blob[:end])
        with pytest.raises(ParseError):
            load_weights(cut)
        if end in (20, 27, 26 + record - 1, len(blob) - 8):
            argv = ["party", "--protocol", "block", "--local", "--weights", cut]
            assert main(argv) == 2, end


def test_weights_missing_tensor():
    bc = toy_block_config()
    w = BlockWeights.random(bc, np.random.default_rng(2))
    t = dict(w.tensors)
    t.pop("wo")
    with pytest.raises(ShapeError):
        BlockWeights(bc, t)


def test_oracle_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    y = oracle_softmax(rng.normal(size=(5, 7)))
    assert np.allclose(y.sum(axis=1), 1.0)


def test_oracle_gelu_zero():
    from privblock.approx import gelu_exact
    assert gelu_exact(0.0) == 0.0


def test_oracle_hand_computed_attention():
    """2x2 single-head attention against a by-hand softmax/mix computation."""
    q = np.eye(2)
    k = np.eye(2)
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = oracle_attention(q, k, v)
    w = math.exp(1 / math.sqrt(2)) / (math.exp(1 / math.sqrt(2)) + 1.0)
    want = np.array([
        [w * 1 + (1 - w) * 3, w * 2 + (1 - w) * 4],
        [(1 - w) * 1 + w * 3, (1 - w) * 2 + w * 4],
    ])
    assert np.allclose(got, want, atol=1e-12)


def test_oracle_attention_uniform_scores_row_mean():
    v = np.eye(4)
    got = oracle_attention(np.zeros((4, 3)), np.zeros((4, 3)), v)
    assert np.allclose(got, np.full((4, 4), 0.25))


def _run_block(cfg, pair_runner, x, weights, bc, seed=0, want_reports=False):
    out = pair_runner(cfg,
                      lambda ctx: infer_block(ctx, x, None, bc),
                      lambda ctx: infer_block(ctx, None, weights, bc),
                      seed=seed, want_reports=want_reports)
    if want_reports:
        ra, rb, rep, _ = out
    else:
        (ra, rb), rep = out, None
    y = fp.decode_int(reconstruct(ra.share, rb.share), cfg.fixedpoint,
                      "field", ra.scale).reshape(ra.shape)
    return y, rep


def test_toy_block_matches_oracle(toy_cfg, pair_runner):
    bc = toy_block_config()
    rng = np.random.default_rng(11)
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))
    y, _ = _run_block(toy_cfg, pair_runner, x, weights, bc, seed=7)
    assert np.abs(y - oracle_block(x, weights, bc)).max() <= 2.0 ** -4


def test_toy_block_smoke_from_container(toy_cfg, pair_runner, tmp_path):
    bc = toy_block_config()
    w = BlockWeights.random(bc, np.random.default_rng(5))
    path = os.path.join(tmp_path, "w.bin")
    dump_weights(w, path)
    weights = load_weights(path)
    x = np.random.default_rng(6).normal(0, 1.0, size=(bc.d_s, bc.d_m))
    y, _ = _run_block(toy_cfg, pair_runner, x, weights, bc, seed=8)
    assert np.abs(y - oracle_block(x, weights, bc)).max() <= 2.0 ** -4


def test_zero_gammas_blank_the_input(toy_cfg, pair_runner):
    """With both layernorm gains zeroed the block output is the second bias
    row regardless of the input."""
    bc = toy_block_config()
    rng = np.random.default_rng(12)
    weights = BlockWeights.random(bc, rng)
    weights.tensors["ln1_g"] = np.zeros(bc.d_m)
    weights.tensors["ln2_g"] = np.zeros(bc.d_m)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))
    y, _ = _run_block(toy_cfg, pair_runner, x, weights, bc, seed=9)
    assert np.abs(y - weights["ln2_b"][None, :]).max() <= 2.0 ** -4


def test_block_cost_is_sum_of_stages(toy_cfg, pair_runner):
    bc = toy_block_config()
    rng = np.random.default_rng(13)
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))
    _, rep = _run_block(toy_cfg, pair_runner, x, weights, bc, seed=10,
                        want_reports=True)
    stage_total = sum(rep.bytes_for(stage) for stage in BLOCK_STAGES)
    setup = rep.bytes_for("handshake") + rep.bytes_for("keyexchange")
    assert rep.total_bytes == stage_total + setup


def test_block_converts_each_product_once(toy_cfg, pair_runner):
    """The block's (trunc, convert) gadget charges per stage: one truncating
    conversion per product, none after proj and ffn2, whose outputs meet
    their residuals at scale 2s and enter layernorm with the one conversion
    there; layernorm and gelu add their own inner conversions."""
    bc = toy_block_config()
    rng = np.random.default_rng(17)
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))
    *_, transcript = pair_runner(toy_cfg,
                                 lambda ctx: infer_block(ctx, x, None, bc),
                                 lambda ctx: infer_block(ctx, None, weights, bc),
                                 want_transcript=True)
    charges = [label for kind, _, label in transcript if kind == "charge"]
    got = {stage: tuple(sum(label.startswith(stage + "/") and label.endswith(entry)
                            for label in charges)
                        for entry in ("gadget:trunc", "gadget:convert"))
           for stage in BLOCK_STAGES}
    assert got == {"head": (4, 4), "proj": (0, 0), "ln1": (3, 4), "ffn1": (1, 1),
                   "act": (1, 2), "ffn2": (0, 0), "ln2": (3, 4)}


def test_block_determinism(toy_cfg, pair_runner):
    bc = toy_block_config()
    rng = np.random.default_rng(14)
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))

    def run():
        y, rep = _run_block(toy_cfg, pair_runner, x, weights, bc, seed=21,
                            want_reports=True)
        return y.tobytes(), rep.to_dict()

    assert run() == run()


def _caller_in(code) -> bool:
    """Whether ``code`` runs anywhere up the calling thread's stack."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code is not code:
        frame = frame.f_back
    return frame is not None


def test_toy_block_he_work(pair_runner):
    """One toy block on clear at N=8192 makes exactly 33 encryptions, 45
    ciphertext*plaintext products and one ciphertext*ciphertext product
    (``mul_ct_sum``, the backends' one such op).  Matmul
    makes 12 of the plaintext products, all as terms of the weight party's
    sums (``pt_sum``) and none by ``mul_pt``: each of its products is one
    packed ciphertext each way, and attention projects all heads at once.
    Layernorm's ratio and softmax's result add 2 terms each, and gelu's
    cube terms and tails the other 7.  The one ct*ct product is gelu's
    selector-weighted sum: layernorm, softmax and gelu's powers multiply
    shared values by cross terms."""
    from privblock.hecore.clear import ClearBackend, _ClearPtSum
    from privblock.protocols import gelu, matmul
    calls = {"encrypt": 0, "mul_pt": 0, "add": 0, "mul_ct_sum": 0,
             "mul_pt in matmul": 0, "add in matmul": 0, "mul_ct_sum in gelu": 0}
    scopes = {"mul_pt": ("mul_pt in matmul", matmul.pi_matmul.__code__),
              "add": ("add in matmul", matmul.pi_matmul.__code__),
              "mul_ct_sum": ("mul_ct_sum in gelu", gelu.pi_gelu.__code__)}
    owners = {"encrypt": ClearBackend, "mul_pt": ClearBackend, "mul_ct_sum": ClearBackend,
              "add": _ClearPtSum}
    originals = {name: getattr(cls, name) for name, cls in owners.items()}
    lock = threading.Lock()  # both parties' threads count

    def counted(name):
        def op(self, *args):
            scoped = name in scopes and _caller_in(scopes[name][1])
            with lock:
                calls[name] += 1
                if scoped:
                    calls[scopes[name][0]] += 1
            return originals[name](self, *args)
        return op

    bc = toy_block_config()
    rng = np.random.default_rng(15)
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))
    with pytest.MonkeyPatch.context() as mp:
        for name, cls in owners.items():
            mp.setattr(cls, name, counted(name))
        y, _ = _run_block(Config(he_backend="clear"), pair_runner, x, weights, bc)
    assert np.abs(y - oracle_block(x, weights, bc)).max() <= 2.0 ** -4
    assert calls["mul_pt"] + calls["add"] == 45, calls
    assert calls == {"encrypt": 33, "mul_pt": 22, "add": 23, "mul_ct_sum": 1,
                     "mul_pt in matmul": 0, "add in matmul": 12,
                     "mul_ct_sum in gelu": 1}, calls


def test_block_products_cost_the_packed_formula(toy_cfg, pair_runner):
    """At N=256, where the block's products span several partitions, the
    qkv, wo, wf1 and wf2 weight products and both cross terms of the
    scores and mix products move exactly the packed formula's bytes, one
    frame per label: the cross terms of all heads share their frames."""
    bc = toy_block_config()
    rng = np.random.default_rng(16)
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))
    _, rep = _run_block(toy_cfg, pair_runner, x, weights, bc, want_reports=True)
    d_s, d_m, h, d_k, d_f = bc.to_tuple()
    shapes = {"head/qkv": (d_s, d_m, 3 * d_m),
              "head/scores/cross_ab": (d_s, d_k, d_s), "head/scores/cross_ba": (d_s, d_k, d_s),
              "head/mix/cross_ab": (d_s, d_s, d_k), "head/mix/cross_ba": (d_s, d_s, d_k),
              "proj/wo": (d_s, d_m, d_m), "ffn1/wf1": (d_s, d_m, d_f),
              "ffn2/wf2": (d_s, d_f, d_m)}
    checked = 0
    for label, ph in rep.phases.items():
        product, _, sub = label.rpartition("/")
        shape = shapes.get(product)
        if shape is None:
            continue
        assert packed_partition(*shape, toy_cfg.he.n) != shape
        heads = h if product.startswith(("head/scores/", "head/mix/")) else 1
        want = costs.matmul_bytes(toy_cfg, *shape, packed=True, heads=heads)[sub]
        assert ph["bytes_a"] + ph["bytes_b"] == want, label
        assert ph["messages"] == 1, label
        checked += 1
    assert checked == 2 * len(shapes) == 16


def test_toy_block_ledger_is_pinned(pair_runner):
    """The toy block's deterministic ledger on clear at the default
    parameters (N=8192), set-up excluded.  A change that moves any of these
    numbers must update them here and say why."""
    bc = toy_block_config()
    rng = np.random.default_rng(18)
    weights = BlockWeights.random(bc, rng)
    x = rng.normal(0, 1.0, size=(bc.d_s, bc.d_m))
    _, rep = _run_block(Config(he_backend="clear"), pair_runner, x, weights, bc,
                        want_reports=True)
    staged = [ph for label, ph in rep.phases.items()
              if label.split("/")[0] in BLOCK_STAGES]
    assert (sum(ph["rounds"] for ph in staged), sum(ph["messages"] for ph in staged),
            sum(ph["bytes_a"] + ph["bytes_b"] for ph in staged)) == (352, 35, 13_951_576)
