"""Transformer-block orchestration over the two-party protocols.

Party A holds the (pre-embedded) input activations, party B holds all block
weights.  One block = multi-head attention (one product against every
head's [wq | wk | wv], then the scores, one softmax and the value mixing of
all heads at once, each shared product one exchange for every head; output
projection), residual + layernorm, then the two-layer feed-forward with the
piecewise gelu, residual + layernorm.  Each
product's output (scale 2s, plus any residual lifted to 2s locally) takes
one truncating conversion back to scale s, into the ring where softmax or
layernorm comes next.
A double-precision reference evaluator drives all equivalence tests.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fp
from .approx import gelu_exact
from .modarith import addmod, matmod, mulmod
from .protocols import (LnParams, PartyCtx, pi_gelu, pi_ln, pi_matmul,
                        pi_matmul_shared, pi_softmax)
from .protocols.common import ProtocolOutputShares, ShapeMismatch
from .sharing import FIELD, RING

WEIGHT_MAGIC = b"PBW1"


class ParseError(ValueError):
    pass


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class BlockConfig:
    """Block dimensions; hidden size must equal heads * head width."""

    d_s: int = 128
    d_m: int = 768
    h: int = 12
    d_k: int = 64
    d_f: int = 3072

    def __post_init__(self):
        if self.d_m != self.h * self.d_k:
            raise ShapeError("d_m must equal h * d_k")

    def to_tuple(self):
        return (self.d_s, self.d_m, self.h, self.d_k, self.d_f)


def toy_block_config() -> BlockConfig:
    return BlockConfig(d_s=8, d_m=16, h=2, d_k=8, d_f=32)


WEIGHT_SHAPES = {
    "wq": ("h", "d_m", "d_k"),
    "wk": ("h", "d_m", "d_k"),
    "wv": ("h", "d_m", "d_k"),
    "wo": ("d_m", "d_m"),
    "wf1": ("d_m", "d_f"),
    "bf1": ("d_f",),
    "wf2": ("d_f", "d_m"),
    "bf2": ("d_m",),
    "ln1_g": ("d_m",),
    "ln1_b": ("d_m",),
    "ln2_g": ("d_m",),
    "ln2_b": ("d_m",),
}


class BlockWeights:
    """Named float64 weight tensors with config-consistent shapes."""

    def __init__(self, config: BlockConfig, tensors: dict):
        self.config = config
        dims = {"h": config.h, "d_m": config.d_m, "d_k": config.d_k,
                "d_f": config.d_f, "d_s": config.d_s}
        for name, spec in WEIGHT_SHAPES.items():
            if name not in tensors:
                raise ShapeError(f"missing weight tensor {name!r}")
            want = tuple(dims[d] for d in spec)
            got = np.asarray(tensors[name], dtype=np.float64)
            if got.shape != want:
                raise ShapeError(f"{name}: shape {got.shape}, expected {want}")
            tensors[name] = got
        self.tensors = tensors

    def __getitem__(self, name):
        return self.tensors[name]

    @classmethod
    def random(cls, config: BlockConfig, rng: np.random.Generator) -> "BlockWeights":
        std = 0.5 / math.sqrt(config.d_m)
        dims = {"h": config.h, "d_m": config.d_m, "d_k": config.d_k,
                "d_f": config.d_f}
        tensors = {}
        for name, spec in WEIGHT_SHAPES.items():
            shape = tuple(dims[d] for d in spec)
            if name.endswith("_g"):
                tensors[name] = rng.uniform(0.5, 1.5, size=shape)
            elif name.startswith("b") or name.endswith("_b"):
                tensors[name] = rng.uniform(-0.5, 0.5, size=shape)
            else:
                tensors[name] = rng.normal(0.0, std, size=shape)
        return cls(config, tensors)


def dump_weights(weights: BlockWeights, path: str):
    cfg = weights.config
    buf = io.BytesIO()
    buf.write(WEIGHT_MAGIC)
    buf.write(struct.pack(">HIIIII", 1, *cfg.to_tuple()))
    for name in sorted(weights.tensors):
        arr = weights.tensors[name]
        blob = name.encode()
        buf.write(struct.pack(">H", len(blob)))
        buf.write(blob)
        buf.write(struct.pack(">B", arr.ndim))
        buf.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        buf.write(arr.astype("<f8").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_weights(path: str) -> BlockWeights:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != WEIGHT_MAGIC:
        raise ParseError("not a weight container")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise ParseError(f"weight container truncated at byte {len(data)}")
        off += n
        return data[off - n:off]

    version, d_s, d_m, h, d_k, d_f = struct.unpack(">HIIIII", take(22))
    if version != 1:
        raise ParseError(f"unsupported container version {version}")
    try:
        config = BlockConfig(d_s, d_m, h, d_k, d_f)
    except ShapeError as e:
        raise ShapeError(f"inconsistent dimensions in header: {e}") from e
    tensors = {}
    while off < len(data):
        (nlen,) = struct.unpack(">H", take(2))
        name = take(nlen).decode()
        (ndim,) = take(1)
        shape = struct.unpack(f">{ndim}I", take(4 * ndim))
        arr = np.frombuffer(take(8 * int(np.prod(shape))), dtype="<f8")
        tensors[name] = arr.reshape(shape).copy()
    missing = sorted(set(WEIGHT_SHAPES) - set(tensors))
    if missing:
        raise ParseError(f"weight container holds no tensor {missing[0]!r}")
    return BlockWeights(config, tensors)


# ---------------------------------------------------------------------------
# double-precision reference
# ---------------------------------------------------------------------------

def oracle_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def oracle_layernorm(x: np.ndarray, gamma, beta) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True))
    return gamma * (x - mu) / sd + beta


def oracle_attention(q, k, v):
    d_k = q.shape[-1]
    return oracle_softmax(q @ k.T / math.sqrt(d_k)) @ v


def oracle_block(x: np.ndarray, weights: BlockWeights,
                 config: BlockConfig) -> np.ndarray:
    heads = []
    for i in range(config.h):
        q = x @ weights["wq"][i]
        k = x @ weights["wk"][i]
        v = x @ weights["wv"][i]
        heads.append(oracle_attention(q, k, v))
    mh = np.concatenate(heads, axis=1) @ weights["wo"]
    h1 = oracle_layernorm(x + mh, weights["ln1_g"], weights["ln1_b"])
    ffn = gelu_exact(h1 @ weights["wf1"] + weights["bf1"]) @ weights["wf2"] + weights["bf2"]
    return oracle_layernorm(h1 + ffn, weights["ln2_g"], weights["ln2_b"])


# ---------------------------------------------------------------------------
# two-party block driver
# ---------------------------------------------------------------------------

def _to_s(ctx: PartyCtx, out: ProtocolOutputShares,
          domain: str = FIELD) -> ProtocolOutputShares:
    """``out`` back at scale s, in ``domain``: one truncating conversion."""
    sh = ctx.provider.convert(out.share, domain, out.scale - ctx.fp.s)
    return ProtocolOutputShares(sh, out.shape, ctx.fp.s)


def _linear(ctx: PartyCtx, x: ProtocolOutputShares, w, bias, width: int,
            label: str) -> ProtocolOutputShares:
    """Shared activations at scale s times B-held weights ``w`` (plus
    ``bias``), left at scale 2s: one packed matmul on A's share, with B's
    local product and bias folded into its share."""
    m, n = x.shape
    out = pi_matmul(ctx, x.matrix() if ctx.role == "A" else w, (m, n, width),
                    label=label, packed=True)
    if ctx.role == "B":
        local = matmod(x.matrix(), w, ctx.fp.p).ravel()
        if bias is not None:
            local += np.tile(fp.encode_int(bias, ctx.fp, FIELD, out.scale), m)
        out = _add_payload(ctx, out, local)
    return out


def _layernorm(ctx: PartyCtx, x: ProtocolOutputShares, weights: BlockWeights | None,
               name: str) -> ProtocolOutputShares:
    """Layernorm ``name`` (phase and weight prefix) of field shares at any
    scale of at least s, entering the ring at scale s by one truncating
    conversion.  Returns field shares at scale s."""
    params = None
    if ctx.role == "B":
        params = LnParams(weights[name + "_g"], weights[name + "_b"])
    with ctx.session.phase(name):
        ring_sh = _to_s(ctx, x, RING).share
        return _to_s(ctx, pi_ln(ctx, ring_sh, x.shape, params, label="core"))


def _add_payload(ctx: PartyCtx, a: ProtocolOutputShares,
                 payload: np.ndarray) -> ProtocolOutputShares:
    merged = addmod(a.share.payload, payload, ctx.fp.p)
    return ProtocolOutputShares(ctx.field_share(merged), a.shape, a.scale)


def _add_residual(ctx: PartyCtx, a: ProtocolOutputShares,
                  residual: ProtocolOutputShares) -> ProtocolOutputShares:
    """a plus ``residual`` lifted to a's scale by a local multiply."""
    if a.shape != residual.shape or a.scale < residual.scale:
        raise ShapeMismatch("residual operands disagree")
    lift = np.uint64(1 << (a.scale - residual.scale))
    return _add_payload(ctx, a, mulmod(residual.share.payload, lift, ctx.fp.p))


def infer_block(ctx: PartyCtx, x_or_shares, weights: BlockWeights | None,
                config: BlockConfig) -> ProtocolOutputShares:
    """Run one block; party A supplies the input matrix (or its share),
    party B supplies the weights.  Returns field shares at scale s."""
    s = ctx.fp.s
    d_s, d_m, h, d_k, d_f = config.to_tuple()
    enc = lambda mat, scale=s: fp.encode_int(mat, ctx.fp, FIELD, scale)

    if ctx.role == "A":
        arr = np.asarray(x_or_shares)
        x_enc = arr if arr.dtype == np.uint64 else enc(arr.astype(np.float64))
        if x_enc.shape != (d_s, d_m):
            raise ShapeError(f"input is {x_enc.shape}, expected {(d_s, d_m)}")
        x_sh = ProtocolOutputShares(ctx.field_share(x_enc.ravel()), (d_s, d_m), s)
        w = {}
    else:
        if weights is None:
            raise ShapeError("party B must supply weights")
        w = {name: enc(weights[name]) for name in ("wo", "wf1", "wf2")}
        w.update(bf1=weights["bf1"], bf2=weights["bf2"])  # encoded by _linear
        wq = weights["wq"] / math.sqrt(d_k)  # the scores' 1/sqrt(d_k)
        w["qkv"] = enc(np.hstack([*wq, *weights["wk"], *weights["wv"]]))
        x_sh = ProtocolOutputShares(ctx.field_share(np.zeros(d_s * d_m, dtype=np.uint64)),
                                    (d_s, d_m), s)

    sess = ctx.session
    with sess.phase("head"):
        qkv = pi_matmul(ctx, x_sh.matrix() if ctx.role == "A" else w["qkv"],
                        (d_s, d_m, 3 * d_m), label="qkv", packed=True)
        # q, k and v, each the heads stacked (h, d_s, d_k)
        q, k, v = _to_s(ctx, qkv).matrix().reshape(d_s, 3, h, d_k).transpose(1, 2, 0, 3)
        shared = lambda mat: ctx.field_share(mat.ravel())
        scores = pi_matmul_shared(ctx, shared(q), shared(k), (h, d_s, d_k), (h, d_s, d_k),
                                  label="scores")
        sm = pi_softmax(ctx, _to_s(ctx, scores, RING).share, (h * d_s, d_s), normalize="max")
        mixed = pi_matmul_shared(ctx, _to_s(ctx, sm).share, shared(v.transpose(0, 2, 1)),
                                 (h, d_s, d_s), (h, d_k, d_s), label="mix")
        # the heads side by side, (d_s, h * d_k)
        heads = mixed.matrix().transpose(1, 0, 2).reshape(d_s, d_m)
        h_sh = _to_s(ctx, ProtocolOutputShares(shared(heads), heads.shape, mixed.scale))

    with sess.phase("proj"):
        proj = _linear(ctx, h_sh, w.get("wo"), None, d_m, "wo")
    ln1 = _layernorm(ctx, _add_residual(ctx, proj, x_sh), weights, "ln1")
    with sess.phase("ffn1"):
        u = _to_s(ctx, _linear(ctx, ln1, w.get("wf1"), w.get("bf1"), d_f, "wf1"))
    with sess.phase("act"):
        g = _to_s(ctx, pi_gelu(ctx, u.share, (d_s, d_f), label="core"))
    with sess.phase("ffn2"):
        z = _linear(ctx, g, w.get("wf2"), w.get("bf2"), d_m, "wf2")
    return _layernorm(ctx, _add_residual(ctx, z, ln1), weights, "ln2")


BLOCK_STAGES = ("head", "proj", "ln1", "ffn1", "act", "ffn2", "ln2")
