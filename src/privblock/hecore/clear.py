"""Clear backend: the HE surface over unencrypted slot vectors.

Slot math is bit-identical to what the RLWE backend decrypts to; the noise
budget is the mirrored estimate, and a secret-key encryption carries a
seed drawn from the backend RNG, as rlwe's does, so it is flagged and sized
the same on the wire.  A reply keeps its slots and records the limbs it
was switched to, so its header, its size and its budget are rlwe's.  Used as the differential-testing oracle and as the
fast lane for CI and desk-scale cost runs.
"""

from __future__ import annotations

import functools

import numpy as np

from . import (SEED_BYTES, MalformedBytes, PtSum, aux_basis, check_decrypt,
               check_operands, check_product, check_reply, pack_slots, read_ct,
               scalar_slot, write_ct)
from ..modarith import LOW, SPLIT, addmod, lazy_terms, mod, mulmod, submod
from ..params import HeParams
from . import noise

BACKEND_ID = 0


class ClearPublicKey:
    def __init__(self, owner: str, has_relin: bool = True):
        self.owner = owner
        self.has_relin = has_relin

    def to_bytes(self) -> bytes:
        """``CLRK``, the owner and the relinearization flag, as rlwe's
        blob begins."""
        return b"CLRK" + self.owner.encode() + bytes([self.has_relin])


class ClearKeyPair:
    def __init__(self, owner: str, with_relin: bool = True):
        self.owner = owner
        self.public = ClearPublicKey(owner, with_relin)


class ClearCiphertext:
    __slots__ = ("slots", "owner", "noise_bits", "limbs", "seed")

    def __init__(self, slots, owner, noise_bits, limbs, seed=None):
        self.slots = np.asarray(slots, dtype=np.uint64)
        self.owner = owner
        self.noise_bits = float(noise_bits)
        self.limbs = limbs  # the rlwe ciphertext's, on the wire
        self.seed = seed


class _ClearPtSum(PtSum):
    """``PtSum`` on slot vectors: each plaintext v is split at 19 bits, and
    x (v >> 19) and x (v & (2^19 - 1)) are summed unreduced in two uint64
    slot arrays through the backend's one scratch array.  Both are reduced
    every ``lazy_terms`` terms (256 at the default 37-bit p, 2 at a 41-bit
    one) and at the end, and then combined by one final reduction."""

    def __init__(self, backend: "ClearBackend"):
        p = backend.params.p
        super().__init__(backend.params,
                         lazy_terms((p - 1) * max(int(LOW), (p - 1) >> SPLIT), p))
        self.backend = backend
        self.hi = self.lo = None

    def _operand(self, slots):
        v = self.backend._operand(slots)
        return np.uint64(v) if isinstance(v, int) else v

    def _accumulate(self, x: ClearCiphertext, v):
        if self.hi is None:
            self.hi, self.lo = x.slots * (v >> SPLIT), x.slots * (v & LOW)
            return
        t = self.backend.scratch
        np.right_shift(v, SPLIT, out=t)
        t *= x.slots
        self.hi += t
        np.bitwise_and(v, LOW, out=t)
        t *= x.slots
        self.lo += t

    def _reduce(self):
        p = self.params.p
        self.hi, self.lo = mod(self.hi, p), mod(self.lo, p)

    def _result(self) -> ClearCiphertext:
        self._reduce()
        hi, lo, self.hi, self.lo = self.hi, self.lo, None, None
        hi <<= SPLIT
        hi += lo
        return ClearCiphertext(mod(hi, self.params.p), self.owner, self.bits,
                               self.params.limbs)


class ClearBackend:
    kind = "clear"

    def __init__(self, params: HeParams, rng=None):
        self.params = params
        self.rng = rng or np.random.default_rng()
        self.L = params.limbs
        _, self.max_fan_in = aux_basis(params)  # the rlwe backend's cap

    @functools.cached_property
    def scratch(self) -> np.ndarray:
        """The one temporary of every ``pt_sum``: a product's N slots."""
        return np.empty(self.params.n, dtype=np.uint64)

    # -- keys ---------------------------------------------------------------
    def keygen(self, owner: str, with_relin: bool = True) -> ClearKeyPair:
        return ClearKeyPair(owner, with_relin)

    def parse_public_key(self, data: bytes) -> ClearPublicKey:
        """The peer's key from its blob: the magic, an owner of A or B and
        a relinearization flag of 0 or 1, nothing more (``MalformedBytes``
        otherwise)."""
        if (len(data) != 6 or data[:4] != b"CLRK" or data[4:5] not in (b"A", b"B")
                or data[5] not in (0, 1)):
            raise MalformedBytes("bad clear public key blob")
        return ClearPublicKey(bytes(data[4:5]).decode(), bool(data[5]))

    # -- core ops -------------------------------------------------------------
    def encrypt(self, slots, key) -> ClearCiphertext:
        """Encrypt under a key pair (secret key, seeded) or a public key."""
        seed = self.rng.bytes(SEED_BYTES) if isinstance(key, ClearKeyPair) else None
        return ClearCiphertext(pack_slots(slots, self.params), key.owner,
                               noise.fresh_bits(self.params), self.L, seed)

    def decrypt(self, ct: ClearCiphertext, keypair: ClearKeyPair) -> np.ndarray:
        check_decrypt(self.params, ct, keypair)
        return ct.slots.copy()

    def add_ct(self, x: ClearCiphertext, y: ClearCiphertext) -> ClearCiphertext:
        check_operands(self.params, x, y)
        return ClearCiphertext(addmod(x.slots, y.slots, self.params.p), x.owner,
                               noise.add_ct_bits(x.noise_bits, y.noise_bits), self.L)

    def neg_ct(self, x: ClearCiphertext) -> ClearCiphertext:
        check_operands(self.params, x)
        p = self.params.p
        return ClearCiphertext(mod(p - x.slots, p), x.owner, x.noise_bits, self.L)

    def _operand(self, slots):
        """A plaintext operand: an int as itself (the constant polynomial,
        the same value in every slot), a vector as its N slots, uncopied
        when it has all N (add, mul and reply only read it)."""
        if isinstance(slots, (int, np.integer)) or np.ndim(slots) == 0:
            return scalar_slot(slots, self.params)
        return pack_slots(slots, self.params, copy=False)

    def add_pt(self, x: ClearCiphertext, slots) -> ClearCiphertext:
        check_operands(self.params, x)
        v = self._operand(slots)
        return ClearCiphertext(addmod(x.slots, v, self.params.p), x.owner,
                               noise.add_pt_bits(self.params, x.noise_bits), self.L)

    def sub_pt(self, x: ClearCiphertext, slots) -> ClearCiphertext:
        check_operands(self.params, x)
        p = self.params.p
        v = self._operand(slots)
        return ClearCiphertext(submod(x.slots, v, p), x.owner,
                               noise.add_pt_bits(self.params, x.noise_bits), self.L)

    def mul_pt(self, x: ClearCiphertext, slots) -> ClearCiphertext:
        check_operands(self.params, x)
        out = mulmod(x.slots, self._operand(slots), self.params.p)
        return ClearCiphertext(out, x.owner,
                               noise.mul_pt_bits(self.params, x.noise_bits, slots), self.L)

    def mul_ct_sum(self, pairs, public: ClearPublicKey) -> ClearCiphertext:
        """The sum of the products x*y of the (x, y) ``pairs``."""
        pairs, nb = check_product(self.params, pairs, public, self.max_fan_in)
        p = self.params.p
        out = mod(sum(mulmod(x.slots, y.slots, p) for x, y in pairs), p)
        return ClearCiphertext(out, pairs[0][0].owner, nb, self.L)

    def pt_sum(self) -> PtSum:
        """An empty sum of ciphertext*plaintext products (``_ClearPtSum``)."""
        return _ClearPtSum(self)

    def reply(self, x: ClearCiphertext, mask, whole: bool = False) -> ClearCiphertext:
        """x - mask for x's key holder to decrypt, at ``reply_limbs`` (at
        every limb if ``whole``; see ``hecore``)."""
        limbs, nb = check_reply(self.params, x, whole)
        return ClearCiphertext(submod(x.slots, self._operand(mask), self.params.p),
                               x.owner, nb, limbs)

    # -- wire format ---------------------------------------------------------
    def serialize(self, ct: ClearCiphertext, out=None):
        """The slots as ``<u8`` after the header (and seed), the rest zero
        padding; written into ``out`` when given (see ``write_ct``)."""
        return write_ct(self.params, ct, BACKEND_ID, ct.slots, "<u8", out)

    def deserialize(self, data: bytes, seeded: bool = False,
                    limbs: int | None = None) -> ClearCiphertext:
        """The ciphertext of ``data``, which must be seeded exactly when
        ``seeded`` and hold ``limbs`` limbs (every limb by default)."""
        limbs = self.L if limbs is None else limbs
        owner, noise_bits, seed, slots = read_ct(self.params, data, BACKEND_ID, "<u8",
                                                 seeded, self.params.n, limbs)
        return ClearCiphertext(slots.copy(), owner, noise_bits, limbs, seed)
