"""Fixed-point encoding over Z_{2^k} / Z_p and share-domain conversion.

Reals are represented as round(x * 2^s) with two's-complement-style negative
embedding (negative x maps to modulus - round(|x| * 2^s)).  Sums of encodings
are exact; products land at scale 2s and must be truncated by 2^s before they
feed another multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modarith import signed_lift
from .params import FixedPointConfig
from .sharing import (RING, FIELD, GadgetProvider, GadgetUnavailable, Share,
                      DomainMismatch)


@dataclass(frozen=True)
class FixEncoded:
    """A domain-tagged fixed-point encoding at scale 0, s, or 2s."""

    value: object  # int or uint64 ndarray, canonical representative(s)
    scale: int
    domain: str

    def __post_init__(self):
        if self.domain not in (RING, FIELD):
            raise DomainMismatch(f"bad domain {self.domain!r}")


def _modulus(cfg: FixedPointConfig, domain: str) -> int:
    if domain == RING:
        return cfg.ring_mod
    if domain == FIELD:
        return cfg.p
    raise DomainMismatch(f"bad domain {domain!r}")


def encode(x, cfg: FixedPointConfig, domain: str = RING, scale: int | None = None):
    """Encode reals as FixEncoded.  Raises OverflowError outside the
    representable range |x| < 2^(k-s-1)."""
    s = cfg.s if scale is None else scale
    if s not in (0, cfg.s, 2 * cfg.s):
        raise ValueError(f"scale must be one of 0, s, 2s; got {s}")
    mod = _modulus(cfg, domain)
    arr = np.asarray(x, dtype=np.float64)
    limit = 2.0 ** (cfg.k - s - 1)
    if not np.all(np.abs(arr) < limit):  # NaN included
        raise OverflowError(f"|x| exceeds representable range 2^{cfg.k - s - 1}")
    enc = np.round(arr * (1 << s)).astype(np.int64) % mod
    if arr.ndim == 0:
        return FixEncoded(int(enc), s, domain)
    return FixEncoded(enc.astype(np.uint64), s, domain)


def decode(v, cfg: FixedPointConfig, domain: str = RING, scale: int | None = None):
    """Inverse of encode up to quantization <= 2^-(s+1); upper-half values
    decode as negatives.  Accepts FixEncoded or raw representatives."""
    if isinstance(v, FixEncoded):
        domain, scale, v = v.domain, v.scale, v.value
    s = cfg.s if scale is None else scale
    mod = _modulus(cfg, domain)
    signed = signed_lift(np.asarray(v, dtype=np.uint64), mod)
    out = np.asarray(signed, dtype=np.float64) / (1 << s)
    if out.ndim == 0:
        return float(out)
    return out


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


def convert_share(sh: Share, to_domain: str, cfg: FixedPointConfig,
                  provider: GadgetProvider | None = None,
                  mode: str = "fast") -> Share:
    """Convert an additive share between Z_{2^k} and Z_p.

    Ring -> field fast path is local: reduce mod p and let party B remove the
    expected 2^k wrap.  It is correct except with probability |x|/2^k per
    element (documented, not an error).  Strict mode and every field -> ring
    conversion route through the provider's comparison-based composite.
    """
    if sh.domain == to_domain:
        return sh
    if to_domain == FIELD and sh.domain == RING:
        if mode == "fast":
            payload = sh.payload % cfg.p
            if sh.party == "B":
                payload = (payload + (cfg.p - cfg.ring_mod % cfg.p)) % cfg.p
            return Share(FIELD, sh.party, payload, cfg.p)
        if provider is None:
            raise GadgetUnavailable("strict ring->field conversion needs a provider")
        return provider.ring_to_field_strict(sh)
    if to_domain == RING and sh.domain == FIELD:
        if provider is None:
            raise GadgetUnavailable("field->ring conversion needs comparison gadgets")
        return provider.field_to_ring(sh)
    raise DomainMismatch(f"cannot convert {sh.domain} -> {to_domain}")


def truncate_shares(sh: Share, shift: int, cfg: FixedPointConfig,
                    provider: GadgetProvider | None = None,
                    mode: str = "local") -> Share:
    """Rescale ring shares: secret -> floor(secret / 2^shift).

    Local mode is non-interactive with at most 1 ulp error and fails with
    probability |secret|/2^k per element (so it needs |secret| << 2^k);
    gadget mode is faithful via the provider's truncation composite.
    """
    if sh.domain != RING:
        raise DomainMismatch("truncation operates on ring shares")
    if mode == "gadget":
        if provider is None:
            raise GadgetUnavailable("gadget truncation needs a provider")
        return provider.trunc_faithful(sh, shift)
    mod = np.uint64(cfg.ring_mod)
    if sh.party == "A":
        out = sh.payload >> np.uint64(shift)
    else:
        out = (mod - (((mod - sh.payload) % mod) >> np.uint64(shift))) % mod
    return Share(RING, sh.party, out, cfg.ring_mod)
