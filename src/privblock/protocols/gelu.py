"""Secure piecewise-gelu over a SIMD ciphertext.

The evaluating party B raises the input to the needed powers under A's key
as cross terms (see ``common``), with no ciphertext*ciphertext product.
With A's share a, B's share b and F = a + b of one factor, and c, d and
G = c + d of another, (a + b)^2 = a^2 + (Enc(a) + Enc(F))*b and
(a + b)(c + d) = a*c + Enc(a)*d + Enc(G)*b: B reads A's fresh Enc(a) raw
and multiplies by its plaintext shares, and A adds its local term (a^2 or
a*c) to the value it decrypts.  The square of x gives the per-segment
centered squares (x - m)^2 = x^2 - 2 m x + m^2 (centered variables keep
coefficient precision inside the field), and the rescaled shares of those
squares give the cubes and quartics.  Power rescaling rides on two masked
exchanges; out-of-segment slots decode arbitrarily there and are nulled by
their zero selectors.

From each party's own input share, one comparison call yields the bits
[x < c] for every table boundary c and one bit conversion turns them
arithmetic; A encrypts its shares of them, and B forms the one-hot segment
selectors homomorphically as their differences (the bits never fall as the
boundaries rise).  The result is the selector-weighted sum of the segment
polynomials plus the two closed-form tails (a constant left tail; a
constant or linear right tail).  That sum is gelu's one ct*ct product per
block, summed under one relinearization: as cross terms it would need B's
products of its own shares and further fresh encryptions.

Both parties enter with field shares of the input at scale s; party A
encrypts its share under its own key.  Output shares are field-domain at
scale 2s + COEFF_BITS.
"""

from __future__ import annotations

import numpy as np

from ..approx import (GELU_TABLE, PiecewisePoly, quantized_boundaries,
                      shifted_segment_coeffs)
from ..modarith import addmod, lift_shift, mod, mulmod, submod
from ..sharing import FIELD, RING, Share
from .common import FRESH, CtVec, PartyCtx, ProtocolOutputShares, ShapeMismatch

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
    ctx.expect(x_share, FIELD, shape, "gelu")
    m, w = shape
    s = ctx.fp.s
    sy = 2 * s + COEFF_BITS
    with ctx.session.phase(label):
        ctx.n_blocks(m * w)
        plan = _segment_plan(table, s)
        party = _party_a if ctx.role == "A" else _party_b
        return party(ctx, x_share, shape, plan, table, sy)


def _boundary_bits(ctx: PartyCtx, x_share: Share, table: PiecewisePoly,
                   s: int) -> list:
    """Field shares of the bits [x < c], one vector per quantized table
    boundary c, from this party's field share of the input: one conversion
    to the ring, one comparison call and one offset-convention B2A for all
    boundaries."""
    bounds = quantized_boundaries(table, s)
    p = ctx.fp.p
    x_ring = ctx.provider.convert(x_share, RING)
    pay = ctx.provider.b2a(ctx.provider.lt(x_ring, bounds), FIELD).payload
    if ctx.role == "A":
        pay = submod(pay, 1 << s, p)  # remove the public offset once
    return np.split(mulmod(pay, pow(1 << s, -1, p), p), len(bounds))


def _selectors(ct_lt: list) -> list:
    """One-hot selectors (left tail, each segment, right tail) from the
    encrypted bits lt_i = [x < c_i], which never fall as the boundaries
    rise: lt_0, each lt_i - lt_(i-1), and 1 - lt_last."""
    return [ct_lt[0], *(hi.add_ct(lo.neg_ct()) for lo, hi in zip(ct_lt, ct_lt[1:])),
            ct_lt[-1].neg_ct().add_pt(1)]


def _party_b(ctx, x_share, shape, plan, table, sy):
    m, w = shape
    n_vals = m * w
    s, p = ctx.fp.s, ctx.fp.p
    x_b = x_share.payload
    vb_sq = 2 * s + 2
    vb_hi = 2 * s + 4
    off3 = 1 << (2 * s + 3)
    # the square of x less A's local term x_A^2, and from it the squares of
    # the per-segment centered variables, masked below the field for A's lift
    [ct_xa] = ctx.recv_cts("encrypt_input", n_vals, forms=[FRESH])
    ct_x = ct_xa.add_pt(x_b)
    ct_x2 = ct_xa.add_ct(ct_x).mul_pt(x_b)
    del ct_xa  # dropped once its cross term is formed
    ct_t = [ct_x.sub_pt(seg["midq"] % p) for seg in plan]
    r2 = ctx.send_masked("input_and_squares",
                         (ct_x2.add_ct(ct_x.mul_pt(-2 * seg["midq"] % p))
                          .add_pt(seg["midq"] ** 2 % p) for seg in plan),
                         *[n_vals] * len(plan), bits=vb_sq)
    del ct_x2
    lt = _boundary_bits(ctx, x_share, table, s)
    got = ctx.recv_cts("selector_and_square_shares", *[n_vals] * (len(lt) + len(plan)),
                       forms=[FRESH] * (len(lt) + len(plan)))
    ct_b = _selectors([next(got).add_pt(bit) for bit in lt])
    # A's raw encryptions of its square shares a2, and B's shares b2
    ct_a2 = list(got)
    b2 = [r >> np.uint64(s) for r in r2]
    ct_t2s = [vec.add_pt(b) for vec, b in zip(ct_a2, b2)]

    def powers():
        """Cubes (a2 + b2)(x_A + x_B - m) less a2*x_A, offset, and
        quartics (a2 + b2)^2 less a2^2, in exchange order."""
        for i, seg in enumerate(plan):
            ct_a, ct_a2[i] = ct_a2[i], None  # dropped once its cross terms are formed
            for j in seg["powers"]:
                if j == 3:
                    d = submod(x_b, seg["midq"], p)
                    yield ct_a.mul_pt(d).add_ct(ct_t[i].mul_pt(b2[i])).add_pt(off3)
                elif j == 4:
                    yield ct_a.add_ct(ct_t2s[i]).mul_pt(b2[i])

    keys = _power_keys(plan)
    rmask = ctx.send_masked("masked_powers", powers(), *[n_vals] * len(keys), bits=vb_hi)
    got = ctx.recv_added("power_shares", *[r >> np.uint64(s) for r in rmask])
    ct_pow = {(i, j): ct.sub_pt(off3 >> s) if j == 3 else ct
              for (i, j), ct in zip(keys, got)}
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
    [mask] = ctx.send_masked("result", [CtVec.mul_ct_sum(pairs).add_ct(tails)], n_vals)
    return ProtocolOutputShares(ctx.field_share(mask), shape, sy)


def _party_a(ctx, x_share, shape, plan, table, sy):
    m, w = shape
    n_vals = m * w
    s, p = ctx.fp.s, ctx.fp.p
    x_a = x_share.payload
    vb_sq = 2 * s + 2
    vb_hi = 2 * s + 4

    def lifted(v, local, bits):
        """A's share, shifted down by s bits, of a decrypted cross-term
        value plus A's local term."""
        return mod(lift_shift(addmod(v, local, p), p, bits, s), p)

    ctx.send_encrypted("encrypt_input", x_a)
    xa2 = mulmod(x_a, x_a, p)
    a2 = [lifted(v, xa2, vb_sq)
          for v in ctx.recv_decrypted("input_and_squares", *[n_vals] * len(plan))]
    ctx.send_encrypted("selector_and_square_shares",
                       *_boundary_bits(ctx, x_share, table, s), *a2)
    keys = _power_keys(plan)
    got = ctx.recv_decrypted("masked_powers", *[n_vals] * len(keys))
    ctx.send_encrypted("power_shares",
                       *[lifted(v, mulmod(a2[i], x_a if j == 3 else a2[i], p), vb_hi)
                         for (i, j), v in zip(keys, got)])
    [share] = ctx.recv_decrypted("result", n_vals)
    return ProtocolOutputShares(ctx.field_share(share), shape, sy)
