"""Additive and boolean secret sharing plus the imported-gadget provider.

Shares are uniform additive splits over the ring Z_{2^k} or the prime field
Z_p, or XOR splits for booleans.  The ``GadgetProvider`` supplies the
sub-protocols this artifact imports as black boxes (less-than comparison,
bool-to-arithmetic conversion, shared exponential, shared inverse square
root) plus two composites built from them: one truncating conversion between
the ring and the field (either way, or within one, with an optional
rescale) and the row maximum.  The cost table prices only the four; a
composite is charged what it is built from (``GadgetCostTable.cost``).

The provider's "ideal" backend is a trusted-dealer emulation written once:
party A ships its input share to party B over an unmetered side channel, B
evaluates the function on the reconstructed secret and returns a fresh
uniform resharing, one unmetered round per function (a comparison against k
constants is k functions of one input in one metered call).  Each gadget
only declares the input domains it accepts, the cost-table entries it is
charged and the functions the dealer evaluates.  The metered channel is
charged the byte/round cost of the cited protocol from the configurable
cost table, so cost accounting of the surrounding protocols does not depend
on the emulation shortcut.
"""

from __future__ import annotations

import numpy as np

from .channel import CapacityExceeded, Session, ShapeMismatch
from .modarith import addmod, mod, round_shift, signed_lift, submod
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
    modulus = _mod_of(domain, cfg)
    sec = np.asarray(secret, dtype=np.uint64).ravel()
    if sec.size and int(sec.max()) >= modulus:
        raise DomainMismatch("secret elements outside domain")
    ra = rng.integers(0, modulus, size=sec.size, dtype=np.uint64)
    if domain == BOOL:
        rb = sec ^ ra
    else:
        rb = submod(sec, ra, modulus)
    return Share(domain, "A", ra, modulus), Share(domain, "B", rb, modulus)


def reconstruct(sh_a: Share, sh_b: Share):
    if sh_a.domain != sh_b.domain or sh_a.modulus != sh_b.modulus:
        raise DomainMismatch("share domains differ")
    if len(sh_a) != len(sh_b):
        raise DomainMismatch("share lengths differ")
    if sh_a.domain == BOOL:
        return sh_a.payload ^ sh_b.payload
    return addmod(sh_a.payload, sh_b.payload, sh_a.modulus)


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


def _bytes(a: np.ndarray) -> memoryview:
    """The bytes of a contiguous array, uncopied."""
    return memoryview(a.view(np.uint8))


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
        # B's count of narrow-comparison inputs outside their exact range; the
        # dealer knows the secret, so this is a diagnostic and is never sent
        self.lt_out_of_range = 0

    # -- plumbing ----------------------------------------------------------
    def charge(self, entry: str, n: int, bits: int | None = None,
               row_len: int | None = None):
        total, rounds, warn = self.costs.cost(entry, n, bits, self.cfg.k, row_len)
        self.session.charge(f"{GADGET_LABEL}:{entry}", total // 2,
                            total - total // 2, rounds, warn_zero=warn)

    def _round(self, x: Share, domains: tuple, entries: tuple, out_domain: str,
               funcs: list, width: int | None = None, signed: bool = False,
               bits: int | None = None, row_len: int | None = None) -> Share:
        """One gadget call: reject an input outside ``domains`` and a call
        of ``len(funcs) * len(x)`` values wider than the session's
        ``max_frame`` (``CapacityExceeded``, on both parties before any byte
        moves), charge each cost entry once for those values (priced at
        ``bits`` of the ring's k, or for rows of ``row_len``, if given),
        then run the trusted dealer.  A ships its share once; B reconstructs
        the secret (lifted once to its signed value in (-M/2, M/2] if
        ``signed``) and, one unmetered round per function of ``funcs``,
        evaluates it on the secret, reduces the result into ``out_domain``
        and reshares it fresh, ``width`` values (``len(x)`` by default).  The
        output joins the parts in order.  Arrays move as buffers: A's share
        and each resharing, after its tag byte, go out uncopied, and A
        receives each part into its output.

        Any exception a function raises travels back to A as an error
        frame in place of its part, so both parties raise instead of one
        deadlocking: A raises the same ``RangeError`` or ``DomainError``, or
        ``GadgetUnavailable`` naming any other exception.
        """
        if x.domain not in domains:
            raise DomainMismatch(f"gadget expects {' or '.join(domains)} shares, "
                                 f"got {x.domain}")
        cap = self.session.max_frame
        if cap is not None and 1 + 8 * len(funcs) * len(x) > cap:
            raise CapacityExceeded(f"a gadget call of {len(funcs)} x {len(x)} values, "
                                   f"over the {cap}-byte frames this configuration sends")
        for entry in entries:
            self.charge(entry, len(funcs) * len(x), bits, row_len)
        modulus = _mod_of(out_domain, self.cfg)
        width = len(x) if width is None else width
        if self.role == "A":
            self.session.send("_gadget", _bytes(x.payload), metered=False)
            out = np.empty(len(funcs) * width, dtype=np.uint64)
            for part in np.split(out, len(funcs)):
                self._receive_part(part)
            return Share(out_domain, "A", out, modulus)
        other = np.frombuffer(self.session.recv("_gadget", metered=False),
                              dtype=np.uint64)
        secret = reconstruct(x.like(other), x)
        if signed:
            secret = signed_lift(secret, x.modulus)
        parts = []
        for func in funcs:
            try:
                result = func(secret)
            except Exception as e:
                self.session.send("_gadget", f"E{type(e).__name__}:{e}".encode(),
                                  metered=False)
                raise
            # ``share`` draws its first share from the dealer RNG; B keeps that one.
            mine, theirs = share(mod(np.asarray(result), modulus), out_domain, self.cfg,
                                 self._dealer_rng)
            self.session.send("_gadget", [b"K", _bytes(theirs.payload)], metered=False,
                              length=1 + theirs.payload.nbytes)
            parts.append(mine.payload)
        return Share(out_domain, "B", parts[0] if len(parts) == 1 else np.concatenate(parts),
                     modulus)

    def _receive_part(self, part: np.ndarray):
        """Read one dealer frame into ``part``: its tag byte, then the
        resharing, or raise the dealer's error."""
        chunks = self.session.recv_chunks("_gadget", pieces=[1, part.nbytes], metered=False)
        head = next(chunks)
        tag = bytes(head[:1])  # over TCP the next piece overwrites ``head``
        if tag == b"E":
            raw = b"".join([bytes(head[1:]), *map(bytes, chunks)])
            kind, _, msg = raw.decode().partition(":")
            exc = {"RangeError": RangeError, "DomainError": DomainError}.get(kind)
            raise exc(msg) if exc else GadgetUnavailable(f"dealer raised {kind}: {msg}")
        body = next(chunks, None) if len(head) == 1 else None
        if tag != b"K" or body is None or len(body) != part.nbytes:
            raise ShapeMismatch(f"_gadget: a dealer frame that is not a resharing of "
                                f"{part.size} values")
        _bytes(part)[:] = body

    # -- the four imported protocols ----------------------------------------
    def lt(self, x: Share, c, bits: int | None = None) -> Share:
        """Boolean shares of [x < c] for signed fixed-point x and a public
        int c.  For a sequence of constants, one call of ``len(c) * len(x)``
        bits, constant-major ([x < c_0], then [x < c_1], ...), which costs
        the bytes of ``len(c)`` calls in the rounds of one.

        With ``bits`` = m <= k, an m-bit comparison, charged m/k of the
        full one: each bit is the sign bit of (x - c) mod 2^m, which is
        [x < c] when -2^(m-1) <= x - c < 2^(m-1) and wrong, as a real m-bit
        protocol's would be, otherwise.  B adds the number of inputs outside
        that range for any constant to ``lt_out_of_range``."""
        consts = [c] if np.ndim(c) == 0 else list(c)
        if bits is None:
            funcs = [lambda v, c=c: v < c for c in consts]
        else:
            half = 1 << (bits - 1)
            lo, hi = max(consts) - half, min(consts) + half  # in range of every c

            def sign_bit(v, i):
                if i == 0:
                    self.lt_out_of_range += int(np.count_nonzero((v < lo) | (v >= hi)))
                return ((v - consts[i]) & (2 * half - 1)) >= half

            funcs = [lambda v, i=i: sign_bit(v, i) for i in range(len(consts))]
        return self._round(x, (RING, FIELD), ("lt",), BOOL, funcs, signed=True, bits=bits)

    def b2a(self, b: Share, target_domain: str) -> Share:
        """Boolean -> arithmetic in the activation protocol's offset
        convention: the result reconstructs to b*2^s + 2^s, and callers
        remove the public 2^s afterwards."""
        two_s = np.uint64(1 << self.cfg.s)
        return self._round(b, (BOOL,), ("b2a",), target_domain,
                           [lambda secret: secret * two_s + two_s])

    def rexp(self, x: Share) -> Share:
        """Field shares of encode(e^x) for ring shares of x <= 0, both at
        scale s."""
        s = self.cfg.s

        def f(v):
            sx = v.astype(np.float64) / (1 << s)
            if np.any(sx > 2.0 ** (-s) * 8):
                raise RangeError("rexp input exceeds 0 beyond tolerance")
            return np.round(np.exp(np.minimum(sx, 0.0)) * (1 << s)).astype(np.int64)

        return self._round(x, (RING,), ("rexp",), FIELD, [f], signed=True)

    def invsqrt(self, x: Share, scale: int, out_scale: int) -> Share:
        """Field shares of encode(1/sqrt(x), out_scale); input at ``scale``,
        x > 0."""
        def f(v):
            if np.any(v <= 0):
                raise DomainError("invsqrt domain requires x > 0")
            vals = np.round((1 << out_scale) / np.sqrt(v.astype(np.float64) / 2.0 ** scale))
            return vals.astype(np.int64)

        return self._round(x, (RING, FIELD), ("invsqrt",), FIELD, [f], signed=True)

    # -- composites ----------------------------------------------------------
    def convert(self, x: Share, to_domain: str, shift: int = 0) -> Share:
        """Ring or field shares of x to ``to_domain`` shares of x / 2^shift,
        rounded half up on the signed secret: a faithful truncation fused
        with an exact domain conversion.  Charged as one truncation when
        shift > 0, then one conversion (comparison + multiplexer route)."""
        entries = ("trunc", "convert") if shift > 0 else ("convert",)
        return self._round(x, (RING, FIELD), entries, to_domain,
                           [lambda secret: round_shift(secret, x.modulus, shift)])

    def row_max(self, x: Share, row_len: int) -> Share:
        """Ring shares of per-row maxima (comparison-tree composite),
        charged for rows of ``row_len``."""
        return self._round(x, (RING,), ("rowmax",), RING,
                           [lambda v: v.reshape(-1, row_len).max(axis=1)],
                           width=len(x) // row_len, signed=True, row_len=row_len)
