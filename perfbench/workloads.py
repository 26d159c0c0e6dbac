"""The benchmark's workloads: inputs made from a seed, one inference per
party, and the oracle gate every output passes through.

Each workload names its backend and transport, builds its inputs from the
seed alone, runs one inference as party A (client, activations) and party B
(server, weights), and checks the reconstructed output against a plaintext
oracle with the acceptance suite's bounds.  The traffic of every inference
is checked against the analytic formulas of ``protocols.costs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from privblock import approx, model, protocols
from privblock import fixedpoint as fp
from privblock.channel import CostReport
from privblock.model import (BLOCK_STAGES, BlockConfig, BlockWeights,
                             oracle_block, toy_block_config)
from privblock.params import Config
from privblock.protocols import costs
from privblock.sharing import FIELD, reconstruct, share

PROFILE = "wan1"
SETUP_LABELS = ("handshake", "keyexchange")


@dataclass
class Check:
    """Outcome of one inference's gate."""

    ok: bool
    max_abs_err: float
    reason: str = ""


def _decode(cfg: Config, out_a, out_b) -> np.ndarray:
    rec = reconstruct(out_a.share, out_b.share)
    return fp.decode_int(rec, cfg.fixedpoint, FIELD, out_a.scale).reshape(out_a.shape)


def exact_matmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for uint64 entries below 2^38: 19-bit halves keep
    every int64 partial sum below 2^63 for inner dimensions below 2^24."""
    lo_mask = np.uint64((1 << 19) - 1)
    a_hi, a_lo = (a >> np.uint64(19)).astype(np.int64), (a & lo_mask).astype(np.int64)
    b_hi, b_lo = (b >> np.uint64(19)).astype(np.int64), (b & lo_mask).astype(np.int64)
    hh = (a_hi @ b_hi).astype(object) % p
    mid = (a_hi @ b_lo + a_lo @ b_hi).astype(object) % p
    ll = (a_lo @ b_lo).astype(object) % p
    return np.asarray((hh * (1 << 38) + mid * (1 << 19) + ll) % p, dtype=np.uint64)


class Workload:
    """One benchmark workload; subclasses fill in the protocol.  Protocol
    entry points are looked up on their modules at call time, so the
    tracer's wrappers see them."""

    name = ""
    backend = "clear"
    transport = "pair"

    def config(self) -> Config:
        return Config(he_backend=self.backend)

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def infer(self, ctx, inputs: dict):
        raise NotImplementedError

    def check(self, cfg: Config, inputs: dict, out_a, out_b) -> Check:
        raise NotImplementedError

    def traffic_error(self, cfg: Config, report: CostReport) -> str:
        """Empty when one inference's ledger matches the analytic bytes."""
        raise NotImplementedError


class MatmulWorkload(Workload):
    """A's activations times B's weights, both fixed-point at scale s."""

    backend = "clear"
    transport = "tcp"

    def __init__(self, shape=(128, 768, 64), name="matmul-desk-tcp"):
        self.shape = tuple(shape)
        self.name = name

    def make_inputs(self, seed):
        m, n, h = self.shape
        fpc = self.config().fixedpoint
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        x = rng.normal(0.0, 1.0, size=(m, n))
        w = rng.normal(0.0, 1.0 / math.sqrt(n), size=(n, h))
        x_enc = fp.encode_int(x, fpc, FIELD, fpc.s)
        w_enc = fp.encode_int(w, fpc, FIELD, fpc.s)
        return {"A": x_enc, "B": w_enc,
                "exact": exact_matmod(x_enc, w_enc, fpc.p),
                "real": x @ w}

    def infer(self, ctx, inputs):
        return protocols.pi_matmul(ctx, inputs[ctx.role], self.shape)

    def check(self, cfg, inputs, out_a, out_b):
        # the mod-p product is exact; the reported error is the fixed-point
        # output against the float64 product of the unquantized inputs
        err = float(np.abs(_decode(cfg, out_a, out_b) - inputs["real"]).max())
        rec = reconstruct(out_a.share, out_b.share).reshape(out_a.shape)
        if not np.array_equal(rec, inputs["exact"]):
            return Check(False, err, "product differs from the exact mod-p oracle")
        return Check(True, err)

    def traffic_error(self, cfg, report):
        want = costs.total(costs.matmul_bytes(cfg, *self.shape))
        if report.total_bytes != want:
            return f"inference moved {report.total_bytes} B, costs.matmul_bytes gives {want} B"
        return ""


class GeluWorkload(Workload):
    """Piecewise gelu on field shares at scale s, through the encrypting wrapper."""

    backend = "clear"
    transport = "pair"

    def __init__(self, shape=(128, 3072), name="gelu-desk-clear"):
        self.shape = tuple(shape)
        self.name = name

    def make_inputs(self, seed):
        fpc = self.config().fixedpoint
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        x = rng.uniform(-8.0, 8.0, size=self.shape)
        x_a, x_b = share(fp.encode_int(x, fpc, FIELD, fpc.s).ravel(), FIELD, fpc, rng)
        xq = np.round(x * (1 << fpc.s)).astype(np.int64)
        ref = approx.eval_on_grid(approx.GELU_TABLE, xq.ravel(), fpc.s)
        return {"A": x_a, "B": x_b, "oracle": ref.reshape(self.shape)}

    def infer(self, ctx, inputs):
        return protocols.pi_gelu(ctx, inputs[ctx.role], self.shape)

    def check(self, cfg, inputs, out_a, out_b):
        err = float(np.abs(_decode(cfg, out_a, out_b) - inputs["oracle"]).max())
        ulps = err * (1 << cfg.fixedpoint.s)
        if ulps > 2.0:
            return Check(False, err, f"{ulps:.2f} ulp from eval_on_grid (limit 2)")
        return Check(True, err)

    def traffic_error(self, cfg, report):
        want = costs.total(costs.gelu_bytes(cfg, *self.shape))
        if report.total_bytes != want:
            return f"inference moved {report.total_bytes} B, costs.gelu_bytes gives {want} B"
        return ""


class BlockWorkload(Workload):
    """One transformer block: A holds the input, B all weights."""

    transport = "pair"

    def __init__(self, block: BlockConfig | None = None, backend="rlwe",
                 name="block-toy-rlwe"):
        self.block = block or toy_block_config()
        self.backend = backend
        self.name = name

    def make_inputs(self, seed):
        bc = self.block
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        weights = BlockWeights.random(bc, rng)
        x = rng.normal(0.0, 1.0, size=(bc.d_s, bc.d_m))
        return {"A": x, "B": weights, "oracle": oracle_block(x, weights, bc)}

    def infer(self, ctx, inputs):
        if ctx.role == "A":
            return model.infer_block(ctx, inputs["A"], None, self.block)
        return model.infer_block(ctx, None, inputs["B"], self.block)

    def check(self, cfg, inputs, out_a, out_b):
        err = float(np.abs(_decode(cfg, out_a, out_b) - inputs["oracle"]).max())
        if err > 2.0 ** -4:
            return Check(False, err, f"block error {err:.4f} exceeds 2^-4")
        return Check(True, err)

    def traffic_error(self, cfg, report):
        staged = sum(report.bytes_for(stage) for stage in BLOCK_STAGES)
        if report.total_bytes != staged:
            return f"inference moved {report.total_bytes} B, its stages {staged} B"
        return ""


WORKLOADS = {w.name: w for w in (BlockWorkload(), GeluWorkload(), MatmulWorkload())}


def setup_traffic_error(report: CostReport) -> str:
    """Empty when set-up traffic is exactly handshake plus key exchange."""
    labelled = sum(report.bytes_for(lbl) for lbl in SETUP_LABELS)
    if report.total_bytes != labelled:
        return f"set-up moved {report.total_bytes} B, handshake+keyexchange {labelled} B"
    return ""
