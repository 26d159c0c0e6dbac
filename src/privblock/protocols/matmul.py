"""Rotation-free secure matrix multiplication.

The data party flattens its left matrix by rows and replicates each row
entry across the output columns; the weight party replicates its right
matrix down the output rows.  Slot-aligned ciphertext*plaintext products
accumulated over the inner dimension then land the full product, row-major,
in the output slots: one ciphertext batch in, one masked batch back, and no
slot rotation anywhere.
"""

from __future__ import annotations

import numpy as np

from ..modarith import matmod
from ..sharing import FIELD, Share
from .common import PartyCtx, ProtocolOutputShares, ShapeMismatch


def expand_left(mat: np.ndarray, h: int) -> list:
    """Row j of the expanded left operand: entry (i*h + c) = mat[i, j]."""
    return [np.repeat(mat[:, j], h) for j in range(mat.shape[1])]


def expand_right(mat: np.ndarray, m: int) -> list:
    """Row j of the expanded right operand: entry (i*h + c) = mat[j, c]."""
    return [np.tile(mat[j, :], m) for j in range(mat.shape[0])]


def pi_matmul(ctx: PartyCtx, mat, shape: tuple, data_party: str = "A",
              label: str = "matmul", scale: int | None = None) -> ProtocolOutputShares:
    """Two-party product C = L (x) R with L held by ``data_party`` and R by
    the other party.  Outputs additive field shares of C at scale
    scale(L)+scale(R); the data party ends with C - R_mask, the weight party
    with R_mask.  Exact mod p."""
    m, n, h = shape
    if min(m, n, h) < 1:
        raise ShapeMismatch("all dimensions must be >= 1")
    out_scale = 2 * ctx.fp.s if scale is None else scale
    with ctx.session.phase(label):
        out_len = m * h
        ctx.n_blocks(out_len)
        if ctx.role == data_party:
            mat = np.asarray(mat, dtype=np.uint64)
            if mat.shape != (m, n):
                raise ShapeMismatch(f"left matrix is {mat.shape}, expected {(m, n)}")
            ctx.send_cts("inputs", *[ctx.encrypt(row, ctx.role)
                                     for row in expand_left(mat, h)])
            [got] = ctx.recv_cts("masked_product", out_len)
            share = ctx.decrypt(got)
            return ProtocolOutputShares(ctx.field_share(share), (m, h), out_scale, label)
        mat = np.asarray(mat, dtype=np.uint64)
        if mat.shape != (n, h):
            raise ShapeMismatch(f"right matrix is {mat.shape}, expected {(n, h)}")
        acc = None
        for ct, row in zip(ctx.recv_cts("inputs", *[out_len] * n), expand_right(mat, m)):
            term = ct.mul_pt(row)
            acc = term if acc is None else acc.add_ct(term)
        mask = ctx.rand_field(out_len)
        ctx.send_cts("masked_product", acc.sub_pt(mask))
        return ProtocolOutputShares(ctx.field_share(mask), (m, h), out_scale, label)


def pi_matmul_shared(ctx: PartyCtx, q_share: Share, k_share: Share,
                     q_shape: tuple, k_shape: tuple, transpose_right: bool = True,
                     label: str = "mmshared",
                     scale: int | None = None) -> ProtocolOutputShares:
    """Product of two secret-shared matrices, assembled from two local share
    products, two cross-term matmul invocations with swapped data parties,
    and a single masked exchange of the weight party's local term."""
    m, n = q_shape
    if transpose_right:
        h, n2 = k_shape
    else:
        n2, h = k_shape
    if n2 != n:
        raise ShapeMismatch(f"inner dimensions differ: {n} vs {n2}")
    if q_share.domain != FIELD or k_share.domain != FIELD:
        raise ShapeMismatch("shared matmul expects field shares")
    out_scale = 2 * ctx.fp.s if scale is None else scale
    p = ctx.fp.p
    q_mat = q_share.payload.reshape(q_shape)
    k_mat = k_share.payload.reshape(k_shape)
    rt = k_mat.T.copy() if transpose_right else k_mat
    with ctx.session.phase(label):
        local = matmod(q_mat, rt, p).ravel()
        # cross term 1: A's q-share against B's k-share
        mine = q_mat if ctx.role == "A" else rt
        c1 = pi_matmul(ctx, mine, (m, n, h), data_party="A", label="cross_ab")
        # cross term 2: B's q-share against A's k-share
        mine = rt if ctx.role == "A" else q_mat
        c2 = pi_matmul(ctx, mine, (m, n, h), data_party="B", label="cross_ba")
        if ctx.role == "B":
            mask = ctx.rand_field(m * h)
            ctx.send_array("local_term", (local + (p - mask)) % np.uint64(p))
            total = mask + c1.share.payload + c2.share.payload
        else:
            total = local + ctx.recv_array("local_term") + c1.share.payload + c2.share.payload
        share = ctx.field_share(total % np.uint64(p))
        return ProtocolOutputShares(share, (m, h), out_scale, label)
