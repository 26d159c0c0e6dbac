"""Secure layernorm over ring shares.

Re-centering and row sums are free on shares (a_ij = n*x_ij - sum_j x_ij is
linear).  The square a^2 and the ratio a*inv are products of shared values,
computed as cross terms under B's key (see ``common``), so B's masked
decryption of a^2 is already a sharing of it; the inverse square root is
the imported gadget.  The normalized ratio is rescaled at the masked-decrypt
step before the weight party applies gamma*sqrt(n) and beta.  Output shares
are field-domain at scale LN_OUT_SCALE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..fixedpoint import encode_int
from ..modarith import addmod, lift_shift, mod, mulmod
from ..sharing import FIELD, RING, DomainError, Share
from .common import (FRESH, REPLY, CtVec, DegenerateRow, PartyCtx, ProtocolOutputShares,
                     ShapeMismatch)

RATIO_BITS = 30       # centered scale + 1/sqrt precision, fixed budget
RATIO_SCALE = 15      # normalized ratio after decrypt-side rescale
GAMMA_SCALE = 17
LN_OUT_SCALE = RATIO_SCALE + GAMMA_SCALE
X_BOUND = 8.0         # |x| domain bound the scale budget assumes


@dataclass
class LnParams:
    """Affine normalization parameters, held by party B, encoded lazily."""

    gamma: np.ndarray
    beta: np.ndarray

    def check(self, n: int):
        if len(self.gamma) != n or len(self.beta) != n:
            raise ShapeMismatch("gamma/beta length must match the row width")


def centered_scale(fp, n: int) -> tuple:
    """(centered scale, 1/sqrt output scale): the squared row sum must stay
    below p/4, and their sum is pinned at RATIO_BITS so the masked-ratio
    lift always has the same field headroom."""
    adaptive = math.floor(0.5 * (fp.p.bit_length() - 2 - math.log2(n)
                                 - 2 * math.log2(2 * n * X_BOUND)))
    sa = min(adaptive, fp.s - 2)
    s_inv = min(RATIO_BITS - sa, 27)
    return sa, s_inv


def pi_ln(ctx: PartyCtx, x_share: Share, shape: tuple, params: LnParams | None,
          label: str = "ln") -> ProtocolOutputShares:
    """Row-wise layernorm on ring shares at scale s; gamma/beta live at B."""
    ctx.expect(x_share, RING, shape, "layernorm")
    m, n = shape
    if ctx.role == "B":
        if params is None:
            raise ShapeMismatch("party B must supply gamma/beta")
        params.check(n)
    s = ctx.fp.s
    p = ctx.fp.p
    ring_mod = ctx.fp.ring_mod
    sa, s_inv = centered_scale(ctx.fp, n)
    ctx.n_blocks(m * n)
    with ctx.session.phase(label):
        # re-center locally: a = n*x - row_sum(x), still ring shares at scale s
        xs = x_share.payload.reshape(m, n)
        rows = mod(xs.sum(axis=1, keepdims=True), ring_mod)
        a = mod(n * xs + (ring_mod - rows), ring_mod)
        a_sh = x_share.like(a.ravel())
        # fused rescale (s -> sa) + exact conversion into the field
        a_own = ctx.provider.convert(a_sh, FIELD, s - sa).payload
        shift = sa + s_inv - RATIO_SCALE
        # a^2 = a_B*2a_A + a_A^2 + a_B^2: A computes the first two terms
        # under B's key and masks them, B adds a_B^2 after it decrypts, and
        # each party sums its rows for its share of the squared row norms
        if ctx.role == "B":
            ctx.send_encrypted("ashare", a_own)
            [sq] = ctx.recv_decrypted("masked_square", m * n)
            sq = addmod(sq, mulmod(a_own, a_own, p), p)
        else:
            [ct_ab] = ctx.recv_cts("ashare", m * n, forms=[FRESH])
            [sq] = ctx.send_masked("masked_square", [
                ct_ab.mul_pt(mod(2 * a_own, p)).add_pt(mulmod(a_own, a_own, p))], m * n)
        k = mod(sq.reshape(m, n).sum(axis=1), p)
        inv = np.repeat(_invsqrt(ctx, ctx.field_share(k), sa, s_inv).payload, n)
        if ctx.role == "B":
            ctx.send_encrypted("invsqrt_share", inv)
            ct_wr, ct_strunc = ctx.recv_cts("masked_ratio", m * n, m * n,
                                            forms=(REPLY, FRESH))
            w = addmod(ctx.decrypt(ct_wr), mulmod(a_own, inv, p), p)
            off = 1 << (sa + s_inv - shift)
            t_b = mod(lift_shift(w, p, sa + s_inv + 1, shift) - off, p)
            gs = encode_int(params.gamma * math.sqrt(n), ctx.fp, FIELD, GAMMA_SCALE)
            bs = encode_int(params.beta, ctx.fp, FIELD, LN_OUT_SCALE)
            ct_y = ct_strunc.add_pt(t_b).mul_pt(np.tile(gs, m)).add_pt(np.tile(bs, m))
            [share] = ctx.send_masked("result", [ct_y], m * n)
        else:
            [ct_inv] = ctx.recv_cts("invsqrt_share", m * n, forms=[FRESH])
            # a*inv less a_B*inv_B, offset and statistically masked for the
            # decrypt-side rescale, a reply; B adds a_B*inv_B after it decrypts
            ct_off = (CtVec.mul_pt_sum([(ct_ab, inv), (ct_inv, a_own)])
                      .add_pt(addmod(mulmod(a_own, inv, p), 1 << (sa + s_inv), p)))
            smask = ctx.mask(m * n, bits=sa + s_inv)
            ctx.send_cts("masked_ratio",
                         [ct_off.reply(smask), ctx.encrypt(smask >> np.uint64(shift))],
                         m * n, m * n, forms=(REPLY, FRESH))
            [share] = ctx.recv_decrypted("result", m * n)
        return ProtocolOutputShares(ctx.field_share(share), shape, LN_OUT_SCALE)


def _invsqrt(ctx: PartyCtx, k_share: Share, sa: int, s_inv: int) -> Share:
    # the gadget runs over the ring; charge the domain switch of its input
    ctx.provider.charge("convert", len(k_share))
    try:
        return ctx.provider.invsqrt(k_share, scale=2 * sa, out_scale=s_inv)
    except DomainError as e:
        raise DegenerateRow(f"zero-variance row: {e}") from e
