"""Secure piecewise-gelu over a SIMD ciphertext.

The evaluating party raises the input to the needed powers homomorphically
(per-segment centered variables keep coefficient precision inside the field;
their squares (x - m)^2 = x^2 - 2 m x + m^2 share one ciphertext square),
segment membership bits come from one comparison gadget per table boundary
with XOR composition and exactly one bit set per element, and the result is
the selector-weighted sum of the segment polynomials plus the two closed-form
tails (a constant left tail; a constant or linear right tail), its ct*ct
products summed under one relinearization.  Power
rescaling rides on two extra masked exchanges; out-of-segment slots decode
arbitrarily there and are nulled by their zero selectors.

Both parties enter with field shares of the input at scale s; party A
encrypts its share under its own key.  Output shares are field-domain at
scale 2s + COEFF_BITS.
"""

from __future__ import annotations

import numpy as np

from ..approx import (GELU_TABLE, PiecewisePoly, quantized_boundaries,
                      shifted_segment_coeffs)
from ..modarith import lift_shift, mulmod
from ..sharing import FIELD, Share, not_share, xor_shares
from .common import CtVec, PartyCtx, ProtocolOutputShares, ShapeMismatch

COEFF_BITS = 7  # coefficient scale = s + COEFF_BITS


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


def _power_keys(plan) -> list:
    """(segment, power) of every cube and quartic, in exchange order."""
    return [(i, j) for i, seg in enumerate(plan) for j in seg["powers"] if j > 2]


def _fixed(c: float, scale: int, p: int) -> int:
    """A public real constant as a field element at ``scale``."""
    return int(round(c * (1 << scale))) % p


def pi_gelu(ctx: PartyCtx, x_share: Share, shape: tuple,
            table: PiecewisePoly = GELU_TABLE,
            label: str = "gelu") -> ProtocolOutputShares:
    """Piecewise activation on field shares of m*w values at scale s: A
    encrypts its share under its own key, and B adds its own share to form
    the SIMD batch [[X]]_A it evaluates."""
    m, w = shape
    n_vals = m * w
    s = ctx.fp.s
    sy = 2 * s + COEFF_BITS
    with ctx.session.phase(label):
        ctx.n_blocks(n_vals)
        plan = _segment_plan(table, s)
        if x_share.domain != FIELD:
            raise ShapeMismatch("gelu expects field shares at scale s")
        if ctx.role == "A":
            ctx.send_cts("encrypt_input", ctx.encrypt(x_share.payload))
            return _party_a(ctx, shape, plan, table, sy, label)
        [ct_x] = ctx.recv_cts("encrypt_input", n_vals)
        return _party_b(ctx, ct_x.add_pt(x_share.payload), shape, plan, table,
                        sy, label)


def _selector_bits(ctx: PartyCtx, x_ring: Share, table: PiecewisePoly, s: int):
    """One-hot selectors (left tail, each segment, right tail) from one
    strict comparison per boundary."""
    lt = [ctx.provider.lt(x_ring, c) for c in quantized_boundaries(table, s)]
    return [lt[0], *map(xor_shares, lt[:-1], lt[1:]), not_share(lt[-1])]


def _bit_to_field(ctx: PartyCtx, b: Share) -> np.ndarray:
    """Arithmetic share of the exact bit via the offset-convention B2A."""
    s = ctx.fp.s
    p = ctx.fp.p
    pay = ctx.provider.b2a(b, FIELD).payload
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
    # squares of the per-segment centered variables from one square of x,
    # then mask everything
    ct_t = [ct_x.sub_pt(seg["midq"] % p) for seg in plan]
    ct_x2 = ct_x.square()
    ct_t2 = [ct_x2.add_ct(ct_x.mul_pt(-2 * seg["midq"] % p)).add_pt(seg["midq"] ** 2 % p)
             for seg in plan]
    rx = ctx.rand_field(n_vals)
    r2 = [ctx.rng.integers(0, p - (1 << (vb_sq + 1)), size=n_vals, dtype=np.uint64)
          for _ in plan]
    ctx.send_cts("input_and_squares", ct_x.sub_pt(rx),
                 *[t2.sub_pt(r) for t2, r in zip(ct_t2, r2)])
    x_ring = ctx.provider.field_to_ring(ctx.field_share(rx))
    bits = _selector_bits(ctx, x_ring, table, s)
    b_arith = [_bit_to_field(ctx, b) for b in bits]
    got = iter(ctx.recv_cts("selector_and_square_shares",
                            *[n_vals] * (len(bits) + len(plan))))
    ct_b = [next(got).add_pt(b) for b in b_arith]
    ct_t2s = [next(got).add_pt(r >> np.uint64(s)) for r in r2]
    # cubes and quartics from the rescaled squares
    keys = _power_keys(plan)
    masked, rmask = [], []
    for i, j in keys:
        ct = (ct_t2s[i].mul_ct(ct_t[i]).add_pt(off3) if j == 3
              else ct_t2s[i].square())
        rmask.append(ctx.rng.integers(0, p - (1 << (vb_hi + 1)), size=n_vals,
                                      dtype=np.uint64))
        masked.append(ct.sub_pt(rmask[-1]))
    ctx.send_cts("masked_powers", *masked)
    got = ctx.recv_cts("power_shares", *[n_vals] * len(keys))
    ct_pow = {}
    for (i, j), ct, r in zip(keys, got, rmask):
        ct = ct.add_pt(r >> np.uint64(s))
        ct_pow[(i, j)] = ct.sub_pt(off3 >> s) if j == 3 else ct
    # assemble Y = sum_i b_i * F_i plus the closed-form tails
    sc = s + COEFF_BITS
    pairs = []
    for i, seg in enumerate(plan):
        cf = seg["coeffs"]
        fi = ct_t[i].mul_pt(_fixed(cf[1], sc, p)).add_pt(_fixed(cf[0], sy, p))
        for j in seg["powers"]:
            src = ct_t2s[i] if j == 2 else ct_pow[(i, j)]
            fi = fi.add_ct(src.mul_pt(_fixed(cf[j], sc, p)))
        pairs.append((ct_b[i + 1], fi))
    tails = ct_b[0].mul_pt(_fixed(table.left[1], sy, p))
    kind, value = table.right
    if kind == "const":
        tails = tails.add_ct(ct_b[-1].mul_pt(_fixed(value, sy, p)))
    else:
        pairs.append((ct_b[-1], ct_x.mul_pt(1 << (sy - s)).add_pt(_fixed(value, sy, p))))
    acc = CtVec.mul_ct_sum(pairs).add_ct(tails)
    mask = ctx.rand_field(n_vals)
    ctx.send_cts("result", acc.sub_pt(mask))
    return ProtocolOutputShares(ctx.field_share(mask), shape, sy, label)


def _party_a(ctx, shape, plan, table, sy, label):
    m, w = shape
    n_vals = m * w
    s, p = ctx.fp.s, ctx.fp.p
    vb_sq = 2 * s + 2
    vb_hi = 2 * s + 4
    ct_x, *ct_t2 = ctx.recv_cts("input_and_squares", *[n_vals] * (1 + len(plan)))
    x_share_a = ctx.field_share(ctx.decrypt(ct_x))
    t2_shares = [lift_shift(ctx.decrypt(ct), p, vb_sq, s) % p for ct in ct_t2]
    x_ring = ctx.provider.field_to_ring(x_share_a)
    bits = _selector_bits(ctx, x_ring, table, s)
    b_arith = [_bit_to_field(ctx, b) for b in bits]
    ctx.send_cts("selector_and_square_shares",
                 *[ctx.encrypt(v) for v in b_arith + t2_shares])
    got = ctx.recv_cts("masked_powers", *[n_vals] * len(_power_keys(plan)))
    shares = [lift_shift(ctx.decrypt(ct), p, vb_hi, s) % p for ct in got]
    ctx.send_cts("power_shares", *[ctx.encrypt(sh) for sh in shares])
    [ct_y] = ctx.recv_cts("result", n_vals)
    share = ctx.decrypt(ct_y)
    return ProtocolOutputShares(ctx.field_share(share), shape, sy, label)
