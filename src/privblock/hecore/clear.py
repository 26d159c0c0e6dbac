"""Clear backend: the HE surface over unencrypted slot vectors.

Slot math is bit-identical to what the RLWE backend decrypts to; the noise
budget is the mirrored estimate, and a secret-key encryption carries a
seed drawn from the backend RNG, as rlwe's does, so it is flagged and sized
the same on the wire.  A reply keeps its slots and records the limbs it
was switched to, so its header, its size and its budget are rlwe's.  Used as the differential-testing oracle and as the
fast lane for CI and desk-scale cost runs.
"""

from __future__ import annotations

import numpy as np

from . import (SEED_BYTES, MalformedBytes, aux_basis, check_decrypt, check_operands,
               check_product, check_reply, pack_slots, read_ct, scalar_slot, write_ct)
from ..modarith import addmod, mod, mulmod, submod
from ..params import HeParams
from . import noise

BACKEND_ID = 0


class ClearPublicKey:
    def __init__(self, owner: str, has_relin: bool = True):
        self.owner = owner
        self.has_relin = has_relin

    def to_bytes(self) -> bytes:
        return b"CLRK" + self.owner.encode()


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


class ClearBackend:
    kind = "clear"

    def __init__(self, params: HeParams, rng=None):
        self.params = params
        self.rng = rng or np.random.default_rng()
        self.L = params.limbs
        _, self.max_fan_in = aux_basis(params)  # the rlwe backend's cap

    # -- keys ---------------------------------------------------------------
    def keygen(self, owner: str, with_relin: bool = True) -> ClearKeyPair:
        return ClearKeyPair(owner, with_relin)

    def parse_public_key(self, data: bytes) -> ClearPublicKey:
        """The peer's key from its blob: the magic and an owner of A or B,
        nothing more (``MalformedBytes`` otherwise).  The blob has no
        relinearization flag, so the parsed key admits products."""
        if len(data) != 5 or data[:4] != b"CLRK" or data[4:] not in (b"A", b"B"):
            raise MalformedBytes("bad clear public key blob")
        return ClearPublicKey(bytes(data[4:]).decode())

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
        the same value in every slot), a vector as its N slots."""
        if isinstance(slots, (int, np.integer)) or np.ndim(slots) == 0:
            return scalar_slot(slots, self.params)
        return pack_slots(slots, self.params)

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

    def reply(self, x: ClearCiphertext, mask, whole: bool = False) -> ClearCiphertext:
        """x - mask for x's key holder to decrypt, at ``reply_limbs`` (at
        every limb if ``whole``; see ``hecore``)."""
        limbs, nb = check_reply(self.params, x, whole)
        p = self.params.p
        v = pack_slots(mask, self.params)
        return ClearCiphertext(submod(x.slots, v, p), x.owner, nb, limbs)

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
