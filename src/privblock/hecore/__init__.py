"""SIMD lattice HE core.

Exactly the operation surface the protocols need: KeyGen, Encrypt, Decrypt,
ciphertext+plaintext add/sub, ciphertext*plaintext multiply, a sum of
ciphertext*ciphertext products (relinearized once; a pair (x, x) is a
square), and Reply (a masked ciphertext switched down for its key
holder).  A plaintext operand is a slot vector, or an int c: the
constant polynomial c, which holds c in every slot.  There is deliberately
no rotation anywhere in this API.

Two interchangeable backends implement the surface: ``rlwe`` (a real
RLWE/NTT scheme with exact plaintext semantics mod p) and ``clear``
(plaintext slot vectors with a mirrored noise-budget model) for fast oracle
testing.  Both serialize ciphertexts to the identical wire format and byte
size, so cost accounting is backend-independent.

Every ciphertext has two components, since each product is relinearized,
and L limbs, the whole modulus Q, except a reply.  ``reply(ct, mask)``
readies a computed ciphertext for its key holder to decrypt: it subtracts
floor(Q/p) mask at the whole modulus (below it, at 2 limbs, Q_l < p^2 and
the mask's rounding would not decrypt exactly), then switches the modulus
down (Brakerski, Gentry and Vaikuntanathan, ITCS 2012) to
``reply_limbs(params)``: the fewest limbs, at least 2, whose budget clears
the switch's rounding term.  The switch divides the noise by the dropped
limbs' product.  A reply can only be serialized and decrypted; any other
op on it raises ``LevelMismatch``.

A ciphertext on the wire is a 16-byte header (magic, parameter hash, a
layout byte with the limb count in its high and the component count 2 in
its low nibble, owner, backend id, a flags byte and the float32 noise
estimate) and its body.  A fresh secret-key encryption (c0, a) draws its
uniform ``a`` from a 32-byte seed; until an operation touches it, it
carries that seed, and it is written seeded: flag bit 0 set, the seed,
then c0 alone, 16 + 32 + L N 4 bytes in place of 16 + 2 L N 4.  No other
flag bit is defined.  So a ciphertext takes one of three wire forms:
``FRESH`` (seeded, L limbs), ``WHOLE`` (L limbs) or ``REPLY``
(``reply_limbs``, 16 + 2 l N 4 bytes).  The reader names the form it
expects (``deserialize(data, seeded, limbs)``), checks the flag, the limb
count and the length against it, and re-expands ``a`` from the seed.

Every rule the two backends share is written once here, and a backend
supplies only its arithmetic and the noise update of each op:
``check_operands`` (whole operands under one key), ``check_decrypt``,
``check_product`` (the ct*ct gate), ``check_reply`` (the reply's limbs and
budget) and the wire pair ``write_ct``/``read_ct``, which alone writes and
checks the layout byte.  So both fail the same way on the same input.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from ..params import AUX_PRIMES, HeParams, ParamError
from . import noise

CT_MAGIC = b"PBC1"
HEADER_BYTES = 16
SEED_BYTES = 32
SEEDED = 1  # the one defined bit of the header's flags byte
# the wire forms a frame declares, one per vector: a party's own untouched
# encryptions, any other whole ciphertexts, and replies
FRESH, WHOLE, REPLY = "fresh", "whole", "reply"


class KeyMismatch(ValueError):
    pass


class MissingRelinKey(ValueError):
    pass


class NoiseExhausted(RuntimeError):
    pass


class MalformedBytes(ValueError):
    pass


class LevelMismatch(ValueError):
    """An operation on a reply, which only its key holder's decrypt takes."""


def scalar_slot(value, params: HeParams) -> int:
    """A scalar plaintext operand as an int, checked below p."""
    c = int(value)
    if not 0 <= c < params.p:
        raise ParamError("slot values must be < p")
    return c


def pack_slots(values, params: HeParams) -> np.ndarray:
    """The N plaintext slots over Z_p holding ``values``: a vector fills the
    leading slots and leaves the tail zero, an int fills every slot."""
    if np.ndim(values) == 0:
        return np.full(params.n, scalar_slot(values, params), dtype=np.uint64)
    v = np.asarray(values, dtype=np.uint64).ravel()
    if v.size > params.n:
        raise ParamError(f"{v.size} values exceed {params.n} slots")
    if v.size and int(v.max()) >= params.p:
        raise ParamError("slot values must be < p")
    out = np.zeros(params.n, dtype=np.uint64)
    out[:v.size] = v
    return out


def ct_bytes(params: HeParams, seeded: bool = False, limbs: int | None = None) -> int:
    """Serialized size of a ciphertext of ``limbs`` limbs (every limb by
    default); identical for both backends.  A seeded ciphertext carries the
    seed of its second component in place of it."""
    component = (params.limbs if limbs is None else limbs) * params.n * 4
    return HEADER_BYTES + (SEED_BYTES if seeded else component) + component


@functools.lru_cache(maxsize=None)
def reply_limbs(params: HeParams) -> int:
    """The limbs a reply keeps: the fewest, at least 2, whose budget clears
    the rounding term of a switch down to them; every limb if none does."""
    bits = noise.switch_bits(params)
    return next((limbs for limbs in range(2, params.limbs)
                 if noise_budget_bits(params, bits, limbs) > 0), params.limbs)


def wire_form(params: HeParams, form: str) -> tuple:
    """(seeded, limbs) of a ciphertext of wire form ``form``."""
    if form not in (FRESH, WHOLE, REPLY):
        raise ParamError(f"unknown ciphertext form {form!r}")
    return form == FRESH, reply_limbs(params) if form == REPLY else params.limbs


def write_ct(params: HeParams, ct, backend_id: int, body: np.ndarray, dtype: str,
             out=None):
    """The wire form of ``ct``: its header, its seed if it has one, ``body``
    cast to ``dtype``, then zero padding up to ``ct_bytes``.  With ``out``,
    a zero-filled writable buffer of exactly that size, these are written
    into it in place (the padding is not touched) and ``out`` is returned;
    without it, the same bytes are returned new."""
    seeded = ct.seed is not None
    size = ct_bytes(params, seeded, ct.limbs)
    buf = np.zeros(size, np.uint8) if out is None else np.frombuffer(out, np.uint8)
    if buf.size != size:
        raise MalformedBytes(f"a buffer of {buf.size} bytes for a ciphertext of {size}")
    start = HEADER_BYTES + SEED_BYTES * seeded
    end = start + body.size * np.dtype(dtype).itemsize
    head = (CT_MAGIC + params.param_hash()
            + struct.pack(">BBBBf", ct.limbs << 4 | 2, ord(ct.owner), backend_id,
                          SEEDED * seeded, ct.noise_bits))
    buf[:HEADER_BYTES] = np.frombuffer(head, np.uint8)
    if seeded:
        buf[HEADER_BYTES:start] = np.frombuffer(ct.seed, np.uint8)
    np.copyto(buf[start:end].view(dtype).reshape(body.shape), body, casting="unsafe")
    return buf.tobytes() if out is None else out


def parse_header(data: bytes, params: HeParams):
    """(owner, backend id, noise bits, seeded, limbs) of a header under
    ``params``; a component count other than 2, a limb count outside 2 to
    L, or a flags byte other than 0 or ``SEEDED``, is malformed."""
    if len(data) < HEADER_BYTES or data[:4] != CT_MAGIC:
        raise MalformedBytes("bad ciphertext magic")
    if data[4:8] != params.param_hash():
        raise MalformedBytes("ciphertext was built under different parameters")
    layout, owner, backend_id, flags = struct.unpack(">BBBB", data[8:12])
    if flags not in (0, SEEDED):
        raise MalformedBytes(f"undefined ciphertext flags {flags:#04x}")
    ncomp, limbs = layout & 15, layout >> 4
    if ncomp != 2:
        raise MalformedBytes(f"a ciphertext of {ncomp} components, expected 2")
    if not 2 <= limbs <= params.limbs:
        raise MalformedBytes(f"a ciphertext of {limbs} limbs, expected 2 to {params.limbs}")
    (noise_bits,) = struct.unpack(">f", data[12:16])
    return chr(owner), backend_id, noise_bits, flags == SEEDED, limbs


def read_ct(params: HeParams, data: bytes, backend_id: int, dtype: str,
            seeded: bool = False, count: int = -1, limbs: int | None = None):
    """The inverse of ``write_ct``: (owner, noise_bits, seed, body) of a
    whole two-component ciphertext of backend ``backend_id`` and ``limbs``
    limbs (every limb by default), seeded exactly when ``seeded`` (its
    seed, else None), whose noise estimate is finite and not negative, the
    body its first ``count`` words (every word by default) of ``dtype``
    after the header and seed, unconverted."""
    limbs = params.limbs if limbs is None else limbs
    owner, got_id, noise_bits, got_seeded, got_limbs = parse_header(data, params)
    if got_id != backend_id:
        raise MalformedBytes("ciphertext from a different backend")
    if got_seeded != seeded:
        raise MalformedBytes(f"{'a seeded' if got_seeded else 'an unseeded'} ciphertext "
                             f"where {'a seeded' if seeded else 'an unseeded'} one "
                             f"is expected")
    if got_limbs != limbs:
        raise MalformedBytes(f"a ciphertext of {got_limbs} limbs where {limbs} are expected")
    if not (math.isfinite(noise_bits) and noise_bits >= 0):
        raise MalformedBytes(f"a noise estimate of {noise_bits} bits")
    if len(data) != ct_bytes(params, seeded, limbs):
        raise MalformedBytes("truncated or padded ciphertext stream")
    start = HEADER_BYTES + SEED_BYTES * seeded
    seed = bytes(data[HEADER_BYTES:start]) if seeded else None
    body = np.frombuffer(data, dtype=dtype, count=count, offset=start)
    return owner, noise_bits, seed, body


def noise_budget_bits(params: HeParams, noise_bits: float,
                      limbs: int | None = None) -> float:
    """Remaining headroom before decryption becomes unreliable, at the
    modulus of the first ``limbs`` limbs (every limb by default)."""
    q = params.q if limbs is None else math.prod(params.q_primes[:limbs])
    return q.bit_length() - params.p.bit_length() - 1 - noise_bits


def aux_basis(params: HeParams) -> tuple:
    """The ct*ct auxiliary basis P and the most products one relinearization
    may sum.  P is the fewest ``AUX_PRIMES`` with P > 4 p N Q, so one
    product's tensor (|d| <= N Q^2 / 2) is exact mod QP and round(p d / Q)
    is centered in P; a sum of k products needs P > 4 k p N Q."""
    bound = 4 * params.p * params.n * params.q
    big_p = 1
    for k, prime in enumerate(AUX_PRIMES, 1):
        big_p *= prime
        if big_p > bound:
            return list(AUX_PRIMES[:k]), (big_p - 1) // bound
    raise ParamError("auxiliary basis too small for the ct*ct tensor")


def check_operands(params: HeParams, *cts):
    """The operands of an op: whole, not replies (``LevelMismatch``), and
    under one key (``KeyMismatch``)."""
    if any(ct.limbs != params.limbs for ct in cts):
        raise LevelMismatch("a reply is only decrypted; no operation takes it")
    if len({ct.owner for ct in cts}) != 1:
        raise KeyMismatch("ciphertexts under different keys")


def check_decrypt(params: HeParams, ct, keypair):
    """A ciphertext ``keypair`` may decrypt: its own, with budget left at
    its limbs."""
    if ct.owner != keypair.owner:
        raise KeyMismatch(f"ciphertext owned by {ct.owner}, key is {keypair.owner}")
    if noise_budget_bits(params, ct.noise_bits, ct.limbs) <= 0:
        raise NoiseExhausted("noise budget exhausted")


def check_reply(params: HeParams, ct, whole: bool = False) -> tuple:
    """The limbs of the reply to ``ct`` (``reply_limbs``, or every limb if
    ``whole``: no switch) and its noise bits: ``ct`` whole, and budget
    left at those limbs (``NoiseExhausted``)."""
    check_operands(params, ct)
    limbs = params.limbs if whole else reply_limbs(params)
    nb = noise.reply_bits(params, ct.noise_bits, limbs)
    if noise_budget_bits(params, nb, limbs) <= 0:
        raise NoiseExhausted(f"a reply at {limbs} limbs would not decrypt")
    return limbs, nb


def check_product(params: HeParams, pairs, public, max_fan_in: int) -> tuple:
    """The (x, y) pairs of a sum of products as a list, and the noise bits
    of the sum: 1 to ``max_fan_in`` pairs of ciphertexts under one key, a
    public key with relinearization, and budget left after the product."""
    pairs = list(pairs)
    if not 1 <= len(pairs) <= max_fan_in:
        raise ParamError(f"a sum of {len(pairs)} ct*ct products; the auxiliary "
                         f"basis allows 1 to {max_fan_in}")
    check_operands(params, *(ct for pair in pairs for ct in pair))
    if not public.has_relin:
        raise MissingRelinKey("relinearization key required for ct*ct")
    nb = noise.mul_ct_bits(params, [(x.noise_bits, y.noise_bits) for x, y in pairs])
    if noise_budget_bits(params, nb) <= 0:
        raise NoiseExhausted("multiplication would exhaust the noise budget")
    return pairs, nb


def create_backend(params: HeParams, kind: str, rng: np.random.Generator | None = None):
    if kind == "clear":
        from .clear import ClearBackend
        return ClearBackend(params, rng)
    if kind == "rlwe":
        from .rlwe import RlweBackend
        return RlweBackend(params, rng)
    raise ParamError(f"unknown HE backend {kind!r}")
