"""Rotation-free secure matrix multiplication, in two layouts.

One protocol serves both: the data party encrypts a sequence of plaintext
vectors, each as it is sent; the weight party multiply-accumulates every
input into its running output sums by ciphertext*plaintext products as the
input arrives, subtracts uniform mask slots and returns the sums; the data
party decrypts.  No slot is ever
rotated.  The layouts differ only in their encoders and their decoder.

- Slot-replicated (the paper's protocol, the default): the data party
  replicates each entry of its left matrix across the output columns, the
  weight party replicates its right matrix down the output rows, and the
  products accumulated over the inner dimension land the full product,
  row-major, in the output slots: n ciphertext vectors in, one back.
- Coefficient-packed (``packed=True``, after Huang et al., "Cheetah",
  USENIX Security 2022): slots are the mod-p negacyclic NTT of the
  plaintext coefficients, so a slot-wise product is the polynomial product.
  For block widths (m_w, n_w, h_w) with m_w n_w h_w <= N the data party
  packs each block of L as sum L[i,j] X^(i n_w h_w + j), the weight party
  each block of R as sum R[j,k] X^(k n_w + n_w - 1 - j), and coefficient
  i n_w h_w + k n_w + n_w - 1 of their product is the block's C[i,k]; the
  wrapped terms land below n_w - 1.  One ciphertext per packed polynomial
  each way.

A call may stack several independent products of one shape (attention's
heads): each head's vectors follow the last head's in the same two frames,
so h products cost two messages, not 2h.

Uniform mask slots are uniform coefficients, so every coefficient the data
party decrypts is masked, not only those that carry C.  Both parties decode
their slots (the data party its decryption, the weight party its masks) the
same way, so the shares are C - R_mask and R_mask.
"""

from __future__ import annotations

import functools
from itertools import product

import numpy as np

from ..hecore.ntt import get_plan
from ..modarith import matmod, mod
from ..sharing import FIELD, Share
from .common import FRESH, PartyCtx, ProtocolOutputShares, ShapeMismatch, ceil_div


def expand_left(mat: np.ndarray, h: int):
    """Yield row j of the expanded left operand: entry (i*h + c) = mat[i, j]."""
    for j in range(mat.shape[1]):
        yield np.repeat(mat[:, j], h)


def expand_right(mat: np.ndarray, m: int):
    """Yield row j of the expanded right operand: entry (i*h + c) = mat[j, c]."""
    for j in range(mat.shape[0]):
        yield np.tile(mat[j, :], m)


def _widths(d: int) -> list:
    """The narrowest width of each block count of a dimension d, widest first."""
    return sorted({ceil_div(d, b) for b in range(1, d + 1)}, reverse=True)


@functools.lru_cache(maxsize=256)
def packed_partition(m: int, n: int, h: int, n_slots: int) -> tuple:
    """Block widths (m_w, n_w, h_w) with m_w n_w h_w <= n_slots that need
    the fewest ciphertexts in plus out, ceil(m/m_w) (ceil(n/n_w) +
    ceil(h/h_w)).  Ties go to fewer ciphertexts in (encryptions), then to
    fewer ciphertext*plaintext products, then to wider row and inner blocks.
    Only the narrowest width of each block count is a candidate, so the
    search is over O(sqrt(m n)) pairs."""
    best = None
    for m_w, n_w in product(_widths(m), _widths(n)):
        if m_w * n_w > n_slots:
            continue
        bm, bn = ceil_div(m, m_w), ceil_div(n, n_w)
        bh = ceil_div(h, n_slots // (m_w * n_w))
        key = (bm * (bn + bh), bm * bn, bm * bn * bh)
        if best is None or key < best[0]:
            best = key, (m_w, n_w, ceil_div(h, bh))
    return best[1]


class _Replicated:
    """The paper's layout: n input vectors of m*h slots, one output."""

    def __init__(self, ctx: PartyCtx, shape: tuple):
        m, n, h = self.shape = shape
        ctx.n_blocks(m * h)
        self.in_sizes, self.out_sizes = [m * h] * n, [m * h]

    def left(self, mat):
        return expand_left(mat, self.shape[2])

    def right(self, mat):
        """Each input's (output index, plaintext) terms, in input order."""
        for row in expand_right(mat, self.shape[0]):
            yield [(0, row)]

    def decode(self, outs: list) -> np.ndarray:
        return outs[0]


class _Packed:
    """The coefficient-packed layout: one N-slot vector per block of L in,
    one per block of C out, each ordered by column block, then row block."""

    def __init__(self, ctx: PartyCtx, shape: tuple):
        self.n_slots = ctx.he_params.n
        self.shape = shape
        self.widths = packed_partition(*shape, self.n_slots)
        self.plan = get_plan(ctx.he_params.p, self.n_slots)
        bm, bn, bh = self.blocks = tuple(map(ceil_div, shape, self.widths))
        self.in_sizes = [self.n_slots] * (bm * bn)
        self.out_sizes = [self.n_slots] * (bm * bh)

    def _poly(self, block: np.ndarray, rows: int, cols: int, flip: bool) -> np.ndarray:
        """Slots of the polynomial whose first rows*cols coefficients, read
        as a (rows, cols) matrix (columns reversed if ``flip``), hold
        ``block`` in its top-left corner."""
        coeffs = np.zeros(self.n_slots, dtype=np.uint64)
        grid = coeffs[:rows * cols].reshape(rows, cols)
        (grid[:, ::-1] if flip else grid)[:block.shape[0], :block.shape[1]] = block
        return self.plan.forward(coeffs)

    def left(self, mat):
        m_w, n_w, h_w = self.widths
        bm, bn, _ = self.blocks
        for bj, bi in product(range(bn), range(bm)):
            block = mat[bi * m_w:(bi + 1) * m_w, bj * n_w:(bj + 1) * n_w]
            yield self._poly(block, m_w, n_w * h_w, flip=False)

    def right(self, mat):
        """Each input's (output index, plaintext) terms, in input order: the
        bh plaintexts of one row block of R serve its bm inputs in a row."""
        _, n_w, h_w = self.widths
        bm, bn, bh = self.blocks
        for bj in range(bn):
            pts = [self._poly(mat[bj * n_w:(bj + 1) * n_w, bk * h_w:(bk + 1) * h_w].T,
                              h_w, n_w, flip=True) for bk in range(bh)]
            for bi in range(bm):
                yield [(bk * bm + bi, pt) for bk, pt in enumerate(pts)]

    def decode(self, outs: list) -> np.ndarray:
        m_w, n_w, h_w = self.widths
        bm, _, bh = self.blocks
        where = (np.arange(m_w)[:, None] * (n_w * h_w)
                 + np.arange(h_w)[None, :] * n_w + n_w - 1)
        out = np.empty((bm * m_w, bh * h_w), dtype=np.uint64)
        for o, slots in enumerate(outs):
            bk, bi = divmod(o, bm)
            out[bi * m_w:(bi + 1) * m_w, bk * h_w:(bk + 1) * h_w] = \
                self.plan.inverse(slots)[where]
        m, _, h = self.shape
        return out[:m, :h].ravel()


def pi_matmul(ctx: PartyCtx, mat, shape: tuple, data_party: str = "A",
              label: str = "matmul", *,
              packed: bool = False) -> ProtocolOutputShares:
    """Two-party product C = L (x) R with L held by ``data_party`` and R by
    the other party, both at scale s.  Outputs additive field shares of C at
    scale 2s; the data party ends with C - R_mask, the weight party with
    R_mask.  Exact mod p.  ``packed`` picks the coefficient-packed layout
    over the paper's slot-replicated one.

    ``shape`` is (m, n, h), or (heads, m, n, h) for that many independent
    products in the same two frames: each party's matrix is then a stack of
    one matrix per head, each head's vectors follow the last head's in
    every frame, and C is (heads, m, h)."""
    *batch, m, n, h = shape
    if len(batch) > 1 or min(shape) < 1:
        raise ShapeMismatch(f"shape {shape} is not (m, n, h) or (heads, m, n, h), "
                            f"each >= 1")
    heads = batch[0] if batch else 1
    with ctx.session.phase(label):
        layout = (_Packed if packed else _Replicated)(ctx, (m, n, h))
        k = len(layout.out_sizes)
        in_sizes, out_sizes = layout.in_sizes * heads, layout.out_sizes * heads
        mat = np.asarray(mat, dtype=np.uint64)
        forms = [FRESH] * len(in_sizes)  # the data party's own encryptions
        if ctx.role == data_party:
            if mat.shape != (*batch, m, n):
                raise ShapeMismatch(f"left matrix is {mat.shape}, expected {(*batch, m, n)}")
            lefts = (vec for one in mat.reshape(heads, m, n) for vec in layout.left(one))
            ctx.send_cts("inputs", map(ctx.encrypt, lefts), *in_sizes, forms=forms)
            outs = ctx.recv_decrypted("masked_product", *out_sizes)
        else:
            if mat.shape != (*batch, n, h):
                raise ShapeMismatch(f"right matrix is {mat.shape}, expected {(*batch, n, h)}")
            # each input's (output index, plaintext) terms, head after head
            rights = ([(b * k + o, pt) for o, pt in terms]
                      for b, one in enumerate(mat.reshape(heads, n, h))
                      for terms in layout.right(one))
            sums = [None] * len(out_sizes)
            for vec, terms in zip(ctx.recv_cts("inputs", *in_sizes, forms=forms), rights):
                for o, pt in terms:
                    term = vec.mul_pt(pt)
                    sums[o] = term if sums[o] is None else sums[o].add_ct(term)
            outs = ctx.send_masked("masked_product", sums, *out_sizes)
        share = np.concatenate([layout.decode(outs[b * k:(b + 1) * k]) for b in range(heads)])
        return ProtocolOutputShares(ctx.field_share(share), (*batch, m, h), 2 * ctx.fp.s)


def pi_matmul_shared(ctx: PartyCtx, q_share: Share, k_share: Share,
                     q_shape: tuple, k_shape: tuple,
                     label: str = "mmshared") -> ProtocolOutputShares:
    """Product q k^T of two secret-shared matrices, q of ``q_shape`` (m, n)
    and k of ``k_shape`` (h, n), or of every head of two stacks, (heads, m,
    n) and (heads, h, n), giving (heads, m, h): each party adds its local
    share product to its shares of two coefficient-packed cross-term matmul
    invocations with swapped data parties, each one exchange for all heads.
    Each party's share holds the uniform mask it drew as the weight party
    of one cross term, so the sum is a uniform sharing without a further
    exchange.  Outputs field shares at scale 2s."""
    *heads, m, n = q_shape
    *heads_k, h, n2 = k_shape
    if n2 != n or heads_k != heads:
        raise ShapeMismatch(f"shapes {q_shape} and {k_shape} do not pair as q k^T")
    ctx.expect(q_share, FIELD, q_shape, "shared matmul's q")
    ctx.expect(k_share, FIELD, k_shape, "shared matmul's k")
    p = ctx.fp.p
    q_mat = q_share.payload.reshape(q_shape)
    k_mat = k_share.payload.reshape(k_shape)
    rt = np.swapaxes(k_mat, -1, -2).copy()
    shape = (*heads, m, n, h)
    with ctx.session.phase(label):
        local = matmod(q_mat, rt, p).ravel()
        # cross term 1: A's q-share against B's k-share
        mine = q_mat if ctx.role == "A" else rt
        c1 = pi_matmul(ctx, mine, shape, data_party="A", label="cross_ab", packed=True)
        # cross term 2: B's q-share against A's k-share
        mine = rt if ctx.role == "A" else q_mat
        c2 = pi_matmul(ctx, mine, shape, data_party="B", label="cross_ba", packed=True)
        total = local + c1.share.payload + c2.share.payload
        share = ctx.field_share(mod(total, p))
        return ProtocolOutputShares(share, c1.shape, 2 * ctx.fp.s)
