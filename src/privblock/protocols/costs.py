"""Closed-form byte accounting for every protocol.

Each formula reproduces, exactly, the bytes a run records on the channel:
serialized ciphertext batches (one 8-byte frame per labeled group), in
which a party's fresh encryptions are seeded (``fresh``), a computed
ciphertext returned to its key holder is a switched-down reply (``reply``)
and every other ciphertext whole (``ct``), and the per-element gadget
charges from the cost table.
The test suite holds recorded totals equal to these numbers.
"""

from __future__ import annotations

from ..approx import GELU_TABLE, PiecewisePoly
from ..channel import FRAME_OVERHEAD
from ..hecore import FRESH, REPLY, WHOLE, ct_bytes, wire_form
from ..params import Config, HeParams
from .common import ceil_div
from .gelu import _power_keys, _segment_plan
from .matmul import packed_partition


def _widths(he: HeParams) -> tuple:
    """The bytes of a whole computed ciphertext, of a fresh seeded one and
    of a reply."""
    return tuple(ct_bytes(he, *wire_form(he, form)) for form in (WHOLE, FRESH, REPLY))


def _gadget(cfg: Config, entry: str, n: int) -> int:
    total, _, _ = cfg.gadget_costs.cost(entry, n)
    return total


def matmul_bytes(cfg: Config, m: int, n: int, h: int, packed: bool = False,
                 heads: int = 1) -> dict:
    """The paper's slot-replicated product, or with ``packed`` the
    coefficient-packed one: one ciphertext per block of L in, one per block
    of C out, for each of ``heads`` products in the same frames."""
    if packed:
        widths = packed_partition(m, n, h, cfg.he.n)
        bm, bn, bh = (ceil_div(d, w) for d, w in zip((m, n, h), widths))
        cts_in, cts_out = bm * bn, bm * bh
    else:
        cts_out = ceil_div(m * h, cfg.he.n)
        cts_in = n * cts_out
    _, fresh, reply = _widths(cfg.he)
    return {
        "inputs": FRAME_OVERHEAD + heads * cts_in * fresh,
        "masked_product": FRAME_OVERHEAD + heads * cts_out * reply,
    }


def matmul_shared_bytes(cfg: Config, m: int, n: int, h: int, heads: int = 1) -> dict:
    out = {}
    for sub, val in matmul_bytes(cfg, m, n, h, packed=True, heads=heads).items():
        out[f"cross_ab/{sub}"] = val
        out[f"cross_ba/{sub}"] = val
    return out


def softmax_bytes(cfg: Config, m: int, d: int, normalize: str = "none") -> dict:
    ct, fresh, _ = _widths(cfg.he)
    blocks = ceil_div(m * d, cfg.he.n)
    vec = ceil_div(m, cfg.he.n)
    out = {}
    if normalize == "max":
        out["gadget:rowmax"] = _gadget(cfg, "rowmax", m * d)
    out["gadget:rexp"] = _gadget(cfg, "rexp", m * d)
    out["rowsum_share"] = FRAME_OVERHEAD + vec * fresh
    out["denominator"] = FRAME_OVERHEAD + vec * ct + 2 * blocks * fresh
    out["result"] = FRAME_OVERHEAD + blocks * ct
    return out


def ln_bytes(cfg: Config, m: int, n: int) -> dict:
    _, fresh, reply = _widths(cfg.he)
    blocks = ceil_div(m * n, cfg.he.n)
    return {
        "gadget:trunc": _gadget(cfg, "trunc", m * n),
        "gadget:convert": _gadget(cfg, "convert", m * n) + _gadget(cfg, "convert", m),
        "gadget:invsqrt": _gadget(cfg, "invsqrt", m),
        "ashare": FRAME_OVERHEAD + blocks * fresh,
        "masked_square": FRAME_OVERHEAD + blocks * reply,
        "invsqrt_share": FRAME_OVERHEAD + blocks * fresh,
        "masked_ratio": FRAME_OVERHEAD + blocks * (reply + fresh),
        "result": FRAME_OVERHEAD + blocks * reply,
    }


def gelu_bytes(cfg: Config, m: int, w: int,
               table: PiecewisePoly = GELU_TABLE) -> dict:
    _, fresh, reply = _widths(cfg.he)
    blocks = ceil_div(m * w, cfg.he.n)
    n_vals = m * w
    plan = _segment_plan(table, cfg.fixedpoint.s)
    n_bounds, n_powers = len(table.boundaries), len(_power_keys(plan))
    return {
        "encrypt_input": FRAME_OVERHEAD + blocks * fresh,
        "gadget:convert": _gadget(cfg, "convert", n_vals),
        "gadget:lt": _gadget(cfg, "lt", n_bounds * n_vals),
        "gadget:b2a": _gadget(cfg, "b2a", n_bounds * n_vals),
        "input_and_squares": FRAME_OVERHEAD + len(plan) * blocks * reply,
        "selector_and_square_shares":
            FRAME_OVERHEAD + (n_bounds + len(plan)) * blocks * fresh,
        "masked_powers": FRAME_OVERHEAD + n_powers * blocks * reply,
        "power_shares": FRAME_OVERHEAD + n_powers * blocks * fresh,
        "result": FRAME_OVERHEAD + blocks * reply,
    }


def total(breakdown: dict) -> int:
    return sum(breakdown.values())
