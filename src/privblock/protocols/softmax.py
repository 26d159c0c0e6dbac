"""Secure row-wise softmax over ring shares.

Both parties run the shared-exponential gadget, re-encrypt the exponent
shares into one SIMD batch, and reduce the denominator through a masked
row-sum plus a multiplicatively masked reciprocal: the masked denominator
sum is decrypted as an exact fixed-point integer, its real-valued
reciprocal re-enters at guard-extended scale, and one ciphertext*ciphertext
product lands the quotient.  Output shares are field-domain at scale
2s + SOFTMAX_GUARD_BITS.
"""

from __future__ import annotations

import numpy as np

from ..modarith import mod
from ..sharing import RING, Share
from .common import (PartyCtx, ProtocolOutputShares, ShapeMismatch,
                     recv_masked_row_sums, send_masked_rows)

SOFTMAX_GUARD_BITS = 11


def mask_band(ctx: PartyCtx, d: int) -> tuple:
    """Multiplicative mask range for the reciprocal step: large enough to
    blind the denominator, small enough that the masked product stays an
    exact integer and the reciprocal keeps its precision."""
    s, g = ctx.fp.s, SOFTMAX_GUARD_BITS
    vmax = max((1 << (s + g - 8)) // d, 2)
    return max(1, vmax // 2), vmax


def pi_softmax(ctx: PartyCtx, x_share: Share, shape: tuple,
               normalize: str = "none", label: str = "softmax") -> ProtocolOutputShares:
    """Row-wise softmax on ring shares at scale s (entries must be <= 0
    unless ``normalize='max'`` subtracts the row maximum first)."""
    m, d = shape
    if x_share.domain != RING:
        raise ShapeMismatch("softmax expects ring shares")
    if x_share.payload.size != m * d:
        raise ShapeMismatch("share length does not match shape")
    s = ctx.fp.s
    g = SOFTMAX_GUARD_BITS
    out_scale = 2 * s + g
    n_vals = m * d
    ctx.n_blocks(n_vals)
    with ctx.session.phase(label):
        if normalize == "max":
            mx = ctx.provider.row_max(x_share, d)
            spread = np.repeat(mx.payload, d)
            ring_mod = ctx.fp.ring_mod
            x_share = x_share.like(mod(x_share.payload + (ring_mod - spread), ring_mod))
        e_sh = ctx.provider.rexp(x_share)  # field shares of encode(e^x, s)
        if ctx.role == "B":
            ctx.send_encrypted("exp_share", e_sh.payload)
            ct_sum = recv_masked_row_sums(ctx, "masked_exp", shape)
            lo, hi = mask_band(ctx, d)
            v = ctx.rng.integers(lo, hi + 1, size=m, dtype=np.uint64)
            ctx.send_cts("denominator", [ct_sum.mul_pt(v), ctx.encrypt(np.repeat(v, d))],
                         m, n_vals, fresh=(False, True))
            [share] = ctx.recv_decrypted("result", n_vals)
        else:
            [ct_e] = ctx.recv_added("exp_share", e_sh.payload)
            send_masked_rows(ctx, "masked_exp", ct_e, shape)
            ct_sumv, ct_vhat = ctx.recv_cts("denominator", m, n_vals, fresh=(False, True))
            u = ctx.decrypt(ct_sumv)  # exact integers: sum(E) * v < p
            recip = ((1 << out_scale) + u // 2) // np.maximum(u, 1)
            ct_y = ct_e.mul_ct(ct_vhat.mul_pt(np.repeat(recip, d)))
            [share] = ctx.send_masked("result", [ct_y], n_vals)
        return ProtocolOutputShares(ctx.field_share(share), shape, out_scale)
