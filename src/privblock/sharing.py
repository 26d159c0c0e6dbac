"""Additive and boolean secret sharing plus the imported-gadget provider.

Shares are uniform additive splits over the ring Z_{2^k} or the prime field
Z_p, or XOR splits for booleans.  The ``GadgetProvider`` supplies the
sub-protocols this artifact imports as black boxes (less-than comparison,
bool-to-arithmetic conversion, shared exponential, shared inverse square
root) plus the domain-conversion and faithful-truncation composites built
from them.

The provider's "ideal" backend is a trusted-dealer emulation: party A ships
its input share to party B over an unmetered side channel, B evaluates the
function on the reconstructed secret and returns a fresh uniform resharing.
The metered channel is charged the byte/round cost of the cited protocol
from the configurable cost table, so cost accounting of the surrounding
protocols does not depend on the emulation shortcut.
"""

from __future__ import annotations

import numpy as np

from .channel import Session
from .modarith import floor_shift, round_shift, signed_lift
from .params import FixedPointConfig, GadgetCostTable

RING, FIELD, BOOL = "ring", "field", "bool"


class DomainMismatch(ValueError):
    pass


class GadgetUnavailable(RuntimeError):
    pass


class RangeError(ValueError):
    pass


class DomainError(ValueError):
    pass


class Share:
    """One party's additive (or boolean) share of a vector of secrets."""

    __slots__ = ("domain", "party", "payload", "modulus")

    def __init__(self, domain: str, party: str, payload, modulus: int):
        self.domain = domain
        self.party = party
        self.payload = np.ascontiguousarray(payload, dtype=np.uint64)
        self.modulus = modulus

    def __len__(self):
        return self.payload.size

    def like(self, payload) -> "Share":
        return Share(self.domain, self.party, np.asarray(payload, dtype=np.uint64) ,
                     self.modulus)


def _mod_of(domain: str, cfg: FixedPointConfig) -> int:
    if domain == RING:
        return cfg.ring_mod
    if domain == FIELD:
        return cfg.p
    if domain == BOOL:
        return 2
    raise DomainMismatch(f"unknown domain {domain!r}")


def share(secret, domain: str, cfg: FixedPointConfig, rng: np.random.Generator):
    """Uniformly split ``secret`` (array of domain elements) into two shares."""
    mod = _mod_of(domain, cfg)
    sec = np.asarray(secret, dtype=np.uint64).ravel()
    if sec.size and int(sec.max()) >= mod:
        raise DomainMismatch("secret elements outside domain")
    ra = rng.integers(0, mod, size=sec.size, dtype=np.uint64)
    if domain == BOOL:
        rb = sec ^ ra
    else:
        rb = (sec + (mod - ra)) % np.uint64(mod)
    return Share(domain, "A", ra, mod), Share(domain, "B", rb, mod)


def reconstruct(sh_a: Share, sh_b: Share):
    if sh_a.domain != sh_b.domain or sh_a.modulus != sh_b.modulus:
        raise DomainMismatch("share domains differ")
    if len(sh_a) != len(sh_b):
        raise DomainMismatch("share lengths differ")
    if sh_a.domain == BOOL:
        return sh_a.payload ^ sh_b.payload
    return (sh_a.payload + sh_b.payload) % np.uint64(sh_a.modulus)


def xor_shares(x: Share, y: Share) -> Share:
    """Local XOR composition of boolean shares (each party XORs its halves)."""
    if x.domain != BOOL or y.domain != BOOL:
        raise DomainMismatch("xor composition is for boolean shares")
    return x.like(x.payload ^ y.payload)


def not_share(x: Share) -> Share:
    """Boolean complement: party A flips its share bits, B keeps its own."""
    if x.domain != BOOL:
        raise DomainMismatch("complement is for boolean shares")
    if x.party == "A":
        return x.like(x.payload ^ np.uint64(1))
    return x.like(x.payload.copy())


GADGET_LABEL = "gadget"


class GadgetProvider:
    """Session-bound provider of the imported sub-protocols (ideal backend).

    Both parties must invoke the same methods in the same order.  Party B
    hosts the dealer logic and the dealer RNG; party A only ships its share
    and receives its output share.  All methods are blocking protocol steps.
    """

    def __init__(self, session: Session, cfg: FixedPointConfig,
                 costs: GadgetCostTable, dealer_seed: int = 0x5EED):
        self.session = session
        self.cfg = cfg
        self.costs = costs
        self.role = session.role
        self._dealer_rng = (np.random.default_rng(dealer_seed)
                            if self.role == "B" else None)

    # -- plumbing ----------------------------------------------------------
    def charge(self, entry: str, n: int):
        total, rounds, warn = self.costs.cost(entry, n)
        self.session.charge(f"{GADGET_LABEL}:{entry}", total // 2,
                            total - total // 2, rounds, warn_zero=warn)

    def _evaluate(self, my_share: Share, func, out_domain: str, out_party_mod: int):
        """Trusted-dealer round: reconstruct at B, evaluate, reshare fresh.

        Dealer exceptions travel back to A as an error frame so both parties
        raise instead of one deadlocking.
        """
        if self.role == "A":
            self.session.send("_gadget", my_share.payload.tobytes(), metered=False)
            raw = self.session.recv("_gadget", metered=False)
            if raw[:1] == b"E":
                kind, _, msg = raw[1:].decode().partition(":")
                exc = {"range": RangeError, "domain": DomainError}.get(
                    kind, GadgetUnavailable)
                raise exc(msg)
            out = np.frombuffer(raw[1:], dtype=np.uint64).copy()
            return Share(out_domain, "A", out, out_party_mod)
        other = np.frombuffer(self.session.recv("_gadget", metered=False),
                              dtype=np.uint64)
        if my_share.domain == BOOL:
            secret = other ^ my_share.payload
        else:
            secret = (other + my_share.payload) % np.uint64(my_share.modulus)
        try:
            result = func(secret)
        except (RangeError, DomainError) as e:
            kind = "range" if isinstance(e, RangeError) else "domain"
            self.session.send("_gadget", f"E{kind}:{e}".encode(), metered=False)
            raise
        result = (np.asarray(result) % out_party_mod).astype(np.uint64)
        if out_domain == BOOL:
            mine = self._dealer_rng.integers(0, 2, size=result.size, dtype=np.uint64)
            theirs = result ^ mine
        else:
            mine = self._dealer_rng.integers(0, out_party_mod, size=result.size,
                                             dtype=np.uint64)
            theirs = (result + (out_party_mod - mine)) % np.uint64(out_party_mod)
        self.session.send("_gadget", b"K" + np.ascontiguousarray(theirs).tobytes(),
                          metered=False)
        return Share(out_domain, "B", mine, out_party_mod)

    # -- the four imported protocols ----------------------------------------
    def lt(self, x: Share, c_enc: int) -> Share:
        """Boolean shares of [x < c] for signed fixed-point x and public c."""
        if x.domain not in (RING, FIELD):
            raise DomainMismatch("lt expects arithmetic shares")
        self.charge("lt", len(x))

        def f(secret):
            sx = signed_lift(secret, x.modulus)
            return (sx < c_enc).astype(np.uint64)

        return self._evaluate(x, f, BOOL, 2)

    def b2a(self, b: Share, target_domain: str, offset: bool = True) -> Share:
        """Boolean -> arithmetic.  With ``offset`` (the convention used by the
        activation protocol) the result reconstructs to b*2^s + 2^s; callers
        remove the public 2^s afterwards.  Without it, to b."""
        if b.domain != BOOL:
            raise DomainMismatch("b2a expects boolean shares")
        mod = _mod_of(target_domain, self.cfg)
        self.charge("b2a", len(b))
        two_s = np.uint64(1 << self.cfg.s)

        def f(secret):
            return secret * two_s + two_s if offset else secret

        return self._evaluate(b, f, target_domain, mod)

    def rexp(self, x: Share, scale: int | None = None,
             out_scale: int | None = None) -> Share:
        """Field shares of encode(e^x) for ring shares of x <= 0."""
        if x.domain != RING:
            raise DomainMismatch("rexp expects ring shares")
        scale = self.cfg.s if scale is None else scale
        out_scale = self.cfg.s if out_scale is None else out_scale
        self.charge("rexp", len(x))
        p = self.cfg.p

        def f(secret):
            sx = signed_lift(secret, x.modulus).astype(np.float64) / (1 << scale)
            if np.any(sx > 2.0 ** (-self.cfg.s) * 8):
                raise RangeError("rexp input exceeds 0 beyond tolerance")
            return np.round(np.exp(np.minimum(sx, 0.0)) * (1 << out_scale)).astype(np.int64)

        return self._evaluate(x, f, FIELD, p)

    def invsqrt(self, x: Share, scale: int, out_scale: int,
                out_domain: str = FIELD) -> Share:
        """Shares of encode(1/sqrt(x), out_scale); input at ``scale``, x > 0."""
        if x.domain not in (RING, FIELD):
            raise DomainMismatch("invsqrt expects arithmetic shares")
        self.charge("invsqrt", len(x))
        mod = _mod_of(out_domain, self.cfg)

        def f(secret):
            sx = signed_lift(secret, x.modulus)
            if np.any(sx <= 0):
                raise DomainError("invsqrt domain requires x > 0")
            vals = np.round((1 << out_scale) / np.sqrt(sx.astype(np.float64) / 2.0 ** scale))
            return vals.astype(np.int64)

        return self._evaluate(x, f, out_domain, mod)

    # -- composites charged as single conversion/truncation calls -----------
    def field_to_ring(self, x: Share) -> Share:
        """Z_p -> Z_{2^k} share conversion (comparison + multiplexer route)."""
        if x.domain != FIELD:
            raise DomainMismatch("field_to_ring expects field shares")
        self.charge("convert", len(x))
        ring_mod = self.cfg.ring_mod
        p = self.cfg.p

        def f(secret):
            return signed_lift(secret, p) % ring_mod

        return self._evaluate(x, f, RING, ring_mod)

    def ring_to_field_strict(self, x: Share) -> Share:
        """Exact Z_{2^k} -> Z_p conversion through the comparison gadget."""
        if x.domain != RING:
            raise DomainMismatch("ring_to_field_strict expects ring shares")
        self.charge("convert", len(x))
        p = self.cfg.p

        def f(secret):
            return signed_lift(secret, x.modulus) % p

        return self._evaluate(x, f, FIELD, p)

    def ring_to_field_strict_trunc(self, x: Share, shift: int) -> Share:
        """Fused faithful truncation by 2^shift and exact conversion to Z_p
        (charged as one truncation plus one conversion)."""
        if x.domain != RING:
            raise DomainMismatch("ring_to_field_strict_trunc expects ring shares")
        if shift <= 0:
            return self.ring_to_field_strict(x)
        self.charge("trunc", len(x))
        self.charge("convert", len(x))
        p = self.cfg.p

        def f(secret):
            return round_shift(secret, x.modulus, shift) % p

        return self._evaluate(x, f, FIELD, p)

    def rescale_field(self, x: Share, shift: int) -> Share:
        """Faithful rescale of field shares by 2^shift (round-to-nearest on
        the signed secret), staying in the field.  Charged as one truncation
        plus one conversion round-trip."""
        if x.domain != FIELD:
            raise DomainMismatch("rescale_field expects field shares")
        self.charge("trunc", len(x))
        self.charge("convert", len(x))
        p = self.cfg.p

        def f(secret):
            return round_shift(secret, p, shift) % p

        return self._evaluate(x, f, FIELD, p)

    def trunc_faithful(self, x: Share, shift: int) -> Share:
        """Exact floor division of the signed secret by 2^shift (ring)."""
        if x.domain != RING:
            raise DomainMismatch("trunc_faithful expects ring shares")
        self.charge("trunc", len(x))
        ring_mod = self.cfg.ring_mod

        def f(secret):
            return floor_shift(secret, x.modulus, shift) % ring_mod

        return self._evaluate(x, f, RING, ring_mod)

    def row_max(self, x: Share, row_len: int) -> Share:
        """Ring shares of per-row maxima (comparison-tree composite)."""
        if x.domain != RING:
            raise DomainMismatch("row_max expects ring shares")
        self.charge("rowmax", len(x))
        ring_mod = self.cfg.ring_mod

        def f(secret):
            sx = signed_lift(secret, x.modulus).reshape(-1, row_len)
            return np.max(sx, axis=1) % ring_mod

        return self._evaluate(x, f, RING, ring_mod)
