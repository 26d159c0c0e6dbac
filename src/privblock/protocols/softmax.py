"""Secure row-wise softmax over ring shares.

Both parties run the shared-exponential gadget and sum their rows locally.
The denominator goes through a multiplicatively masked reciprocal: B returns
v times each row sum under A's key, which A decrypts as an exact fixed-point
integer, and the reciprocal re-enters at guard-extended scale as the
plaintext of cross terms (see ``common``) against B's fresh encryptions of v
and of e_B*v.  Both returned ciphertexts, the masked denominator and the
masked result, leave through ``reply`` whole, not switched down: at 128x128
a switched one would take softmax below half its published bytes.  Output
shares are field-domain at scale 2s + SOFTMAX_GUARD_BITS.
"""

from __future__ import annotations

import numpy as np

from ..modarith import mod, mulmod, submod
from ..sharing import RING, Share
from .common import FRESH, WHOLE, PartyCtx, ProtocolOutputShares

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
    ctx.expect(x_share, RING, shape, "softmax")
    m, d = shape
    s, p = ctx.fp.s, ctx.fp.p
    g = SOFTMAX_GUARD_BITS
    out_scale = 2 * s + g
    n_vals = m * d
    ctx.n_blocks(n_vals)
    with ctx.session.phase(label):
        if normalize == "max":
            mx = ctx.provider.row_max(x_share, d)
            spread = np.repeat(mx.payload, d)
            ring_mod = ctx.fp.ring_mod
            x_share = x_share.like(submod(x_share.payload, spread, ring_mod))
        e = ctx.provider.rexp(x_share).payload  # field shares of encode(e^x, s)
        row_sums = mod(e.reshape(m, d).sum(axis=1), p)
        if ctx.role == "B":
            [ct_sum] = ctx.recv_added("rowsum_share", row_sums)
            lo, hi = mask_band(ctx, d)
            v = ctx.rng.integers(lo, hi + 1, size=m, dtype=np.uint64)
            v_rep = np.repeat(v, d)
            ctx.send_cts("denominator", [ct_sum.mul_pt(v).reply(0, WHOLE),
                                         ctx.encrypt(v_rep), ctx.encrypt(mulmod(e, v_rep, p))],
                         m, n_vals, n_vals, forms=(WHOLE, FRESH, FRESH))
            [share] = ctx.recv_decrypted("result", n_vals, form=WHOLE)
        else:
            ctx.send_encrypted("rowsum_share", row_sums)
            ct_sumv, ct_v, ct_ev = ctx.recv_cts("denominator", m, n_vals, n_vals,
                                                forms=(WHOLE, FRESH, FRESH))
            u = ctx.decrypt(ct_sumv)  # exact integers: sum(E) * v < p
            recip = np.repeat(((1 << out_scale) + u // 2) // np.maximum(u, 1), d)
            ct_y = ct_v.mul_pt(mulmod(e, recip, p)).add_ct(ct_ev.mul_pt(recip))
            [share] = ctx.send_masked("result", [ct_y], n_vals, form=WHOLE)
        return ProtocolOutputShares(ctx.field_share(share), shape, out_scale)
