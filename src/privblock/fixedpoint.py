"""Fixed-point encode/decode and the local ring -> field share conversion.

Reals are represented as round(x * 2^scale) with two's-complement-style
negative embedding (negative x maps to modulus - round(|x| * 2^scale)).
Sums of encodings are exact; products land at the sum of the two scales.
"""

from __future__ import annotations

import numpy as np

from .modarith import mod, signed_lift, submod
from .params import FixedPointConfig
from .sharing import BOOL, FIELD, RING, DomainMismatch, Share, _mod_of


def _modulus(cfg: FixedPointConfig, domain: str) -> int:
    if domain == BOOL:
        raise DomainMismatch(f"no fixed-point encoding in domain {domain!r}")
    return _mod_of(domain, cfg)


def encode_int(x, cfg: FixedPointConfig, domain: str, scale: int):
    """Raw integer encoding at an arbitrary scale (protocol internals).
    Raises OverflowError when round(x * 2^scale) falls outside (-M/2, M/2],
    where decode_int could not recover it."""
    mod = _modulus(cfg, domain)
    ints = np.round(np.asarray(x, dtype=np.float64) * (2.0 ** scale))
    half = mod >> 1
    if not np.all((ints > half - mod) & (ints <= half)):
        raise OverflowError(f"value outside the {domain} range at scale {scale}")
    return (ints.astype(np.int64) % mod).astype(np.uint64)


def decode_int(v, cfg: FixedPointConfig, domain: str, scale: int):
    mod = _modulus(cfg, domain)
    signed = signed_lift(np.asarray(v, dtype=np.uint64), mod)
    return np.asarray(signed, dtype=np.float64) / (2.0 ** scale)


def convert_share(sh: Share, to_domain: str, cfg: FixedPointConfig) -> Share:
    """Convert an additive Z_{2^k} share into a Z_p share, locally.

    Each party reduces its share mod p and party B removes the expected
    2^k wrap.  It is correct except with probability |x|/2^k per element
    (documented, not an error).  The exact conversions are gadgets of the
    provider; any other domain pair raises ``DomainMismatch``.
    """
    if (sh.domain, to_domain) != (RING, FIELD):
        raise DomainMismatch(f"cannot convert {sh.domain} -> {to_domain} locally")
    payload = mod(sh.payload, cfg.p)
    if sh.party == "B":
        payload = submod(payload, cfg.ring_mod, cfg.p)
    return Share(FIELD, sh.party, payload, cfg.p)
