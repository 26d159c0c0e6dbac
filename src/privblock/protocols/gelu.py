"""Secure piecewise-gelu over a SIMD ciphertext.

The evaluating party raises the input to the needed powers homomorphically
(per-segment centered variables keep coefficient precision inside the field),
segment membership bits come from four comparison gadgets with XOR
composition and exactly one bit set per element, and the result is the
selector-weighted sum of the segment polynomials plus the two closed-form
tails.  Power rescaling rides on two extra masked exchanges; out-of-segment
slots decode arbitrarily there and are nulled by their zero selectors.

Output shares are field-domain at scale GELU_OUT_SCALE = s + COEFF_BITS.
"""

from __future__ import annotations

import math

import numpy as np

from ..approx import GELU_TABLE, PiecewisePoly, shifted_segment_coeffs
from ..modarith import lift_shift, mulmod
from ..sharing import FIELD, Share, not_share, xor_shares
from .common import PartyCtx, ProtocolOutputShares, ShapeMismatch

COEFF_BITS = 7  # coefficient scale = s + COEFF_BITS


def GELU_OUT_SCALE(fp) -> int:
    """Output scale: input scale plus the coefficient scale (s + COEFF_BITS)."""
    return 2 * fp.s + COEFF_BITS


def _segment_plan(table: PiecewisePoly, s: int):
    """Per-segment centered coefficients and required power set."""
    if table.max_degree > 4:
        raise ShapeMismatch("interactive evaluation supports degree <= 4 tables")
    plan = []
    for i, coeffs in enumerate(table.segments):
        lo, hi = table.boundaries[i], table.boundaries[i + 1]
        mid = 0.5 * (lo + hi)
        if 0.5 * (hi - lo) > 2.0:
            raise ShapeMismatch("segment half-width exceeds the scale budget")
        shifted = shifted_segment_coeffs(coeffs, mid)
        powers = [j for j in range(2, len(shifted)) if abs(shifted[j]) > 1e-12]
        plan.append({"mid": mid, "midq": int(round(mid * (1 << s))),
                     "coeffs": shifted, "powers": powers})
    return plan


def pi_gelu(ctx: PartyCtx, x_input, shape: tuple, table: PiecewisePoly = GELU_TABLE,
            label: str = "gelu") -> ProtocolOutputShares:
    """Piecewise activation on a SIMD ciphertext batch.

    Party B passes the ciphertext blocks (under A's key) as ``x_input``;
    party A passes None.  Alternatively both parties pass field Share pairs
    at scale s and the convenience path encrypts first.
    """
    m, w = shape
    n_vals = m * w
    s = ctx.fp.s
    sy = 2 * s + COEFF_BITS
    with ctx.session.phase(label):
        ctx.n_blocks(n_vals)
        plan = _segment_plan(table, s)
        if isinstance(x_input, Share):
            # convenience wrapper: encrypt the share pair into [[X]]_A at B
            if x_input.domain != FIELD:
                raise ShapeMismatch("gelu wrapper expects field shares at scale s")
            if ctx.role == "A":
                ctx.send_cts("encrypt_input", ctx.encrypt_blocks(x_input.payload, "A"))
                ct_x = None
            else:
                ct_x = ctx.blockwise(ctx.backend.add_pt, ctx.recv_cts("encrypt_input"),
                                     x_input.payload)
        else:
            ct_x = x_input if ctx.role == "B" else None
        if ctx.role == "B":
            return _party_b(ctx, ct_x, shape, plan, table, sy, label)
        return _party_a(ctx, shape, plan, table, sy, label)


def _selector_bits(ctx: PartyCtx, x_ring: Share, table: PiecewisePoly, s: int):
    """One-hot segment selectors from four strict comparisons."""
    cq = [int(math.floor(b * (1 << s))) for b in table.boundaries]
    lt = [ctx.provider.lt(x_ring, c) for c in cq]
    bits = [lt[0],
            xor_shares(lt[0], lt[1]),
            xor_shares(lt[1], lt[2]),
            xor_shares(lt[2], lt[3]),
            not_share(lt[3])]
    return bits


def _bit_to_field(ctx: PartyCtx, b: Share) -> np.ndarray:
    """Arithmetic share of the exact bit via the offset-convention B2A."""
    s = ctx.fp.s
    p = ctx.fp.p
    pay = ctx.provider.b2a(b, FIELD, offset=True).payload
    if ctx.role == "A":
        pay = (pay + (p - (1 << s))) % np.uint64(p)  # remove the public offset once
    return mulmod(pay, pow(1 << s, -1, p), p)


def _party_b(ctx, ct_x, shape, plan, table, sy, label):
    m, w = shape
    n_vals = m * w
    s, p = ctx.fp.s, ctx.fp.p
    vb_sq = 2 * s + 2
    vb_hi = 2 * s + 4
    off3 = 1 << (2 * s + 3)
    # squares of the per-segment centered variables, then mask everything
    ct_t = [ctx.blockwise(ctx.backend.sub_pt, ct_x,
                          np.full(n_vals, np.uint64(seg["midq"] % p)))
            for seg in plan]
    pub_a = ctx.public_of("A")
    ct_t2 = [[ctx.backend.square(c, pub_a) for c in blocks_] for blocks_ in ct_t]
    rx = ctx.rand_field(n_vals)
    out_cts = ctx.blockwise(ctx.backend.sub_pt, ct_x, rx)
    r2 = []
    for i in range(len(plan)):
        r = ctx.rng.integers(0, p - (1 << (vb_sq + 1)), size=n_vals, dtype=np.uint64)
        r2.append(r)
        out_cts = out_cts + ctx.blockwise(ctx.backend.sub_pt, ct_t2[i], r)
    ctx.send_cts("input_and_squares", out_cts)
    x_share_b = ctx.field_share(rx)
    x_ring = ctx.provider.field_to_ring(x_share_b)
    bits = _selector_bits(ctx, x_ring, table, s)
    b_arith = [_bit_to_field(ctx, b) for b in bits]
    got = ctx.recv_cts("selector_and_square_shares")
    nb = len(bits)
    blocks = ctx.n_blocks(n_vals)
    ct_b = [ctx.blockwise(ctx.backend.add_pt, got[i * blocks:(i + 1) * blocks],
                          b_arith[i]) for i in range(nb)]
    ct_t2s = []
    for i in range(len(plan)):
        chunk = got[(nb + i) * blocks:(nb + i + 1) * blocks]
        t2b = r2[i] >> np.uint64(s)
        ct_t2s.append(ctx.blockwise(ctx.backend.add_pt, chunk, t2b))
    # cubes and quartics from the rescaled squares
    masked, rmask, kinds = [], [], []
    for i, seg in enumerate(plan):
        if 3 in seg["powers"]:
            ct3 = [ctx.backend.mul_ct(a, b, pub_a)
                   for a, b in zip(ct_t2s[i], ct_t[i])]
            ct3 = ctx.blockwise(ctx.backend.add_pt, ct3,
                                np.full(n_vals, np.uint64(off3)))
            r = ctx.rng.integers(0, p - (1 << (vb_hi + 1)), size=n_vals,
                                 dtype=np.uint64)
            masked += ctx.blockwise(ctx.backend.sub_pt, ct3, r)
            rmask.append(r)
            kinds.append((i, 3))
        if 4 in seg["powers"]:
            ct4 = [ctx.backend.square(c, pub_a) for c in ct_t2s[i]]
            r = ctx.rng.integers(0, p - (1 << (vb_hi + 1)), size=n_vals,
                                 dtype=np.uint64)
            masked += ctx.blockwise(ctx.backend.sub_pt, ct4, r)
            rmask.append(r)
            kinds.append((i, 4))
    ctx.send_cts("masked_powers", masked)
    got = ctx.recv_cts("power_shares")
    ct_pow = {}
    for idx, (key, r) in enumerate(zip(kinds, rmask)):
        chunk = got[idx * blocks:(idx + 1) * blocks]
        mine = r >> np.uint64(s)
        ct_pow[key] = ctx.blockwise(ctx.backend.add_pt, chunk, mine)
        if key[1] == 3:
            ct_pow[key] = ctx.blockwise(
                ctx.backend.sub_pt, ct_pow[key],
                np.full(n_vals, np.uint64(off3 >> s)))
    # assemble Y = sum_i b_i * F_i plus the closed-form tails
    sc = s + COEFF_BITS
    acc = None
    for i, seg in enumerate(plan):
        cf = seg["coeffs"]
        const = np.full(n_vals, np.uint64(int(round(cf[0] * (1 << sy))) % p))
        fi = ctx.blockwise(ctx.backend.add_pt,
                           ctx.blockwise(ctx.backend.mul_pt, ct_t[i],
                                         np.full(n_vals, np.uint64(
                                             int(round(cf[1] * (1 << sc))) % p))),
                           const)
        for j in seg["powers"]:
            src = ct_t2s[i] if j == 2 else ct_pow[(i, j)]
            cj = np.full(n_vals, np.uint64(int(round(cf[j] * (1 << sc))) % p))
            fi = [ctx.backend.add_ct(a, b) for a, b in
                  zip(fi, ctx.blockwise(ctx.backend.mul_pt, src, cj))]
        term = [ctx.backend.mul_ct(a, b, pub_a) for a, b in zip(ct_b[i + 1], fi)]
        acc = term if acc is None else [ctx.backend.add_ct(a, b)
                                        for a, b in zip(acc, term)]
    eps_enc = int(round(table.left[1] * (1 << sy))) % p
    t_left = ctx.blockwise(ctx.backend.mul_pt, ct_b[0],
                           np.full(n_vals, np.uint64(eps_enc)))
    acc = [ctx.backend.add_ct(a, b) for a, b in zip(acc, t_left)]
    ct_lin = ctx.blockwise(ctx.backend.mul_pt, ct_x,
                           np.full(n_vals, np.uint64(1 << (sy - s))))
    ct_lin = ctx.blockwise(ctx.backend.add_pt, ct_lin,
                           np.full(n_vals, np.uint64(int(round(table.right[1] * (1 << sy))) % p)))
    t_right = [ctx.backend.mul_ct(a, b, pub_a) for a, b in zip(ct_b[4], ct_lin)]
    acc = [ctx.backend.add_ct(a, b) for a, b in zip(acc, t_right)]
    mask = ctx.rand_field(n_vals)
    ctx.send_cts("result", ctx.blockwise(ctx.backend.sub_pt, acc, mask))
    return ProtocolOutputShares(ctx.field_share(mask), shape, sy, label)


def _party_a(ctx, shape, plan, table, sy, label):
    m, w = shape
    n_vals = m * w
    s, p = ctx.fp.s, ctx.fp.p
    vb_sq = 2 * s + 2
    vb_hi = 2 * s + 4
    off3 = 1 << (2 * s + 3)
    blocks = ctx.n_blocks(n_vals)
    got = ctx.recv_cts("input_and_squares")
    x_vals = ctx.decrypt_blocks(got[:blocks], n_vals)
    x_share_a = ctx.field_share(x_vals)
    t2_shares = []
    for i in range(len(plan)):
        wv = ctx.decrypt_blocks(got[(1 + i) * blocks:(2 + i) * blocks], n_vals)
        t2_shares.append(lift_shift(wv, p, vb_sq, s) % p)
    x_ring = ctx.provider.field_to_ring(x_share_a)
    bits = _selector_bits(ctx, x_ring, table, s)
    b_arith = [_bit_to_field(ctx, b) for b in bits]
    send = []
    for ba in b_arith:
        send += ctx.encrypt_blocks(ba, "A")
    for t2 in t2_shares:
        send += ctx.encrypt_blocks(t2, "A")
    ctx.send_cts("selector_and_square_shares", send)
    got = ctx.recv_cts("masked_powers")
    shares = []
    for idx in range(len(got) // blocks):
        wv = ctx.decrypt_blocks(got[idx * blocks:(idx + 1) * blocks], n_vals)
        shares.append(lift_shift(wv, p, vb_hi, s) % p)
    send = []
    for sh in shares:
        send += ctx.encrypt_blocks(sh, "A")
    ctx.send_cts("power_shares", send)
    share = ctx.decrypt_blocks(ctx.recv_cts("result"), n_vals)
    return ProtocolOutputShares(ctx.field_share(share), shape, sy, label)
