"""RLWE backend: scale-invariant scheme over R_q = Z_q[X]/(X^N+1), RNS form.

Ciphertext polynomials live permanently in per-limb NTT (evaluation) form,
so additions and plaintext multiplies are pointwise; every such step works
on the whole (2, L, N) array at once against the (L, 1) column of limb
moduli.  Every operation stays in machine words (full RNS, after Halevi,
Polyakov and Shoup, CT-RSA 2019): ct*ct extends its inputs from the basis Q
to an auxiliary basis P, tensors them pointwise over Q and P, scales by p/Q
into P and extends the result back to Q, where the quadratic component's
residues are the digits of the limb-decomposed relinearization, so every
ciphertext has two components.  Decrypt takes round(p v / Q) mod p from the
limb residues of the phase v = c0 + c1 s.  Plaintext slots are the CRT
components of Z_p[X]/(X^N+1), reached through a mod-p negacyclic
transform; there is no slot permutation anywhere.

A secret-key encryption, a ciphertext or a row of the relinearization key,
draws its uniform ``a`` from a fresh 32-byte seed out of the backend RNG
and keeps that seed, so it serializes at half size (see ``hecore``): limb
i of ``a`` is read in NTT form from shake_128(seed || i), by rejection
sampling of ``<u4`` words.

A reply keeps the first l limbs: with D the product of the dropped ones,
each component c becomes (c - [c]_D) / D mod Q_l, [c]_D the centered
residue, which a base extension carries from the dropped limbs to the kept
ones.  Only the dropped limbs are inverse-transformed (the mask's
floor(Q/p) m joins c0 there in coefficient form), and the correction and
the mask's kept residues share one forward transform per kept limb.
Decrypt takes the phase at whatever limbs the ciphertext has.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import (SEED_BYTES, MalformedBytes, PtSum, aux_basis, check_decrypt,
               check_operands, check_product, check_reply, pack_slots, read_ct,
               reply_limbs, scalar_slot, write_ct)
from ..modarith import lazy_terms, matmod, mod, mulmod, signed_lift
from ..params import HeParams
from . import noise
from .ntt import get_plan

BACKEND_ID = 1


def _column(values) -> np.ndarray:
    """One modulus (or residue) per limb as a (L, 1) uint64 column."""
    return np.array([int(v) for v in values], dtype=np.uint64).reshape(-1, 1)


def _transform(rows: np.ndarray, plans, inverse: bool = False) -> np.ndarray:
    """Forward (or inverse) NTT of each limb row of a (..., len(plans), N)
    array, limb j under plans[j]: one plan call per limb over every leading
    row."""
    out = np.empty(rows.shape, dtype=np.uint64)
    for j, plan in enumerate(plans):
        out[..., j, :] = (plan.inverse if inverse else plan.forward)(rows[..., j, :])
    return out


class _BaseExtension:
    """Centered fast base extension from the RNS basis ``src`` (product M)
    to ``dst``: with y_i = [x_i (M/m_i)^-1]_{m_i} and v = rint(sum y_i/m_i),
    x = sum y_i [M/m_i]_d - v [M]_d in each d of ``dst``, for the x with
    |x| < M/2.  The float v can be off by one only for |x| within about
    2^-50 M of M/2."""

    def __init__(self, src, dst):
        big = math.prod(src)
        self.src = _column(src)
        self.inv_hat = _column(pow(big // m, -1, m) for m in src)
        self.hat = np.array([[big // m % d for m in src] for d in dst], dtype=np.uint64)
        self.neg_big = _column(-big % d for d in dst)
        self.dst = _column(dst)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """(..., L, N) residues mod ``src`` -> (..., K, N) residues mod ``dst``."""
        y = mulmod(x, self.inv_hat, self.src)
        v = np.rint((y / self.src).sum(axis=-2, keepdims=True)).astype(np.uint64)
        return mod(matmod(self.hat, y, self.dst) + v * self.neg_big, self.dst)


class _ScaleRound:
    """Rounded scaling by t/M from the residues x_i of x mod the basis ``src``
    into each modulus of ``dst``: t (M/m_i)^-1 mod m_i / m_i = w_i + f_i
    (integer and fraction), so round(t x / M) = sum x_i w_i + rint(sum x_i
    f_i) + (terms of the limbs of M beyond ``src``, added by the caller) up
    to a multiple of t, which vanishes in each modulus of ``dst``.

    Each f_i is split at ``bits`` binary places: an exact uint64 sum of
    x_i floor(f_i 2^bits) and a float sum of the rest.  That keeps the error
    of the rounded sum near 2^-50 (one float sum: 2^-21), so a coefficient
    rounds wrongly only within that distance of a tie."""

    def __init__(self, src, t: int, big: int, dst):
        self.bits = 64 - max(src).bit_length() - len(src).bit_length()
        parts = [divmod(t * pow(big // m, -1, m), m) for m in src]
        self.whole = np.array([[w % d for w, _ in parts] for d in dst], dtype=np.uint64)
        fracs = [(f << self.bits, m) for (_, f), m in zip(parts, src)]
        self.frac_hi = np.array([[f // m for f, m in fracs]], dtype=np.uint64)
        self.frac_lo = np.array([[f % m / m for f, m in fracs]])
        self.dst = _column(dst)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """(..., L, N) residues x_i < m_i -> (..., K, N) residues mod ``dst``."""
        hi = self.frac_hi @ x
        low_bits = hi & np.uint64((1 << self.bits) - 1)
        carry = np.rint((low_bits + self.frac_lo @ x) / 2.0 ** self.bits).astype(np.uint64)
        return mod(matmod(self.whole, x, self.dst) + (hi >> np.uint64(self.bits))
                   + carry, self.dst)


class RlwePublicKey:
    def __init__(self, owner: str, pk: np.ndarray | None, rlk: np.ndarray | None, seeds):
        self.owner = owner
        self.pk = pk          # (2, L, N) NTT domain; never leaves its owner
        self.rlk = rlk        # (L, 2, L, N) NTT domain
        self.seeds = seeds    # the L seeds rlk[:, 1] expands from
        self.has_relin = rlk is not None

    def to_bytes(self) -> bytes:
        """The blob a party sends at set-up: ``RLPK``, the owner, a flag, and
        with the relinearization key each row's seed, then every row's c0
        limbs as ``<u4``."""
        head = b"RLPK" + self.owner.encode() + bytes([self.has_relin])
        if not self.has_relin:
            return head
        return head + b"".join(self.seeds) + self.rlk[:, 0].astype("<u4").tobytes()


class RlweKeyPair:
    def __init__(self, owner: str, s_ntt: np.ndarray, public: RlwePublicKey):
        self.owner = owner
        self._s = s_ntt
        self.public = public


class RlweCiphertext:
    __slots__ = ("data", "owner", "noise_bits", "seed")

    def __init__(self, data: np.ndarray, owner: str, noise_bits: float,
                 seed: bytes | None = None):
        self.data = data  # (2, limbs, N) uint64, NTT domain per limb
        self.owner = owner
        self.noise_bits = float(noise_bits)
        self.seed = seed  # the seed data[1] expands from, while it is fresh

    @property
    def limbs(self) -> int:
        return self.data.shape[1]


class _RlwePtSum(PtSum):
    """``PtSum`` on NTT-form limbs: each plaintext becomes its NTT column
    or rows as ``mul_pt`` makes them, and x.data times it, each product
    below q_i^2 < 2^60, is summed unreduced in one (2, L, N) array, reduced
    every ``lazy_terms`` terms (16 at 30-bit limbs) and once at the end."""

    def __init__(self, backend: "RlweBackend"):
        q = max(backend.qs)
        super().__init__(backend.params, lazy_terms((q - 1) ** 2, q))
        self.backend = backend
        self.acc = None

    def _operand(self, slots):
        return self.backend._pt_ntt(slots)

    def _accumulate(self, x: RlweCiphertext, m: np.ndarray):
        if self.acc is None:
            self.acc = x.data * m
        else:
            self.acc += x.data * m

    def _reduce(self):
        self.acc = mod(self.acc, self.backend.q_col)

    def _result(self) -> RlweCiphertext:
        acc, self.acc = self.acc, None
        return RlweCiphertext(mod(acc, self.backend.q_col), self.owner, self.bits)


class RlweBackend:
    kind = "rlwe"

    def __init__(self, params: HeParams, rng=None):
        self.params = params
        self.rng = rng or np.random.default_rng()
        self.qs = [int(q) for q in params.q_primes]
        self.q_col = _column(self.qs)
        self.q_signed = self.q_col.astype(np.int64)  # int64 // uint64 is float64
        self.q = params.q
        self.p = params.p
        self.n = params.n
        self.L = params.limbs
        self.plans = [get_plan(q, self.n) for q in self.qs]
        # the words drawn per limb of ``a`` at first: about N / P(accept),
        # with slack enough that the XOF rarely has to be extended
        self.a_words = [self.n * (1 << q.bit_length()) // q + self.n // 64 + 16
                        for q in self.qs]
        self.plan_p = get_plan(self.p, self.n)
        self.delta_col = _column(self.q // self.p % q for q in self.qs)
        self.ps, self.max_fan_in = aux_basis(params)
        big_p = math.prod(self.ps)
        self.p_col = _column(self.ps)
        self.qp_col = _column(self.qs + self.ps)
        self.p_plans = [get_plan(pr, self.n) for pr in self.ps]
        self.q_to_p = _BaseExtension(self.qs, self.ps)
        self.p_to_q = _BaseExtension(self.ps, self.qs)
        # round(p d / Q) mod P from d mod QP: the Q limbs by _ScaleRound, and
        # each P limb x_k times p (P/p_k) [(QP/p_k)^-1]_{p_k}
        self.scale_qp = _ScaleRound(self.qs, self.p * big_p, self.q * big_p, self.ps)
        self.lam_col = _column(self.p * (big_p // pk) * pow(self.q * big_p // pk, -1, pk) % pk
                               for pk in self.ps)
        # decryption at every limb and at a reply's; a reply's switch, from
        # the dropped limbs (product D) to the kept ones, then times D^-1
        keep = reply_limbs(params)
        self.scale_q = {k: _ScaleRound(self.qs[:k], self.p, math.prod(self.qs[:k]), [self.p])
                        for k in {self.L, keep}}
        self.switch = _BaseExtension(self.qs[keep:], self.qs[:keep])
        self.inv_dropped = _column(pow(math.prod(self.qs[keep:]), -1, q)
                                   for q in self.qs[:keep])

    # -- sampling -------------------------------------------------------------
    def _ternary(self) -> np.ndarray:
        return self.rng.integers(-1, 2, size=self.n, dtype=np.int64)

    def _gauss(self) -> np.ndarray:
        e = np.rint(self.rng.normal(0.0, noise.SIGMA, size=self.n)).astype(np.int64)
        return np.clip(e, -6 * int(noise.SIGMA) - 1, 6 * int(noise.SIGMA) + 1)

    def _limbs(self, coeffs: np.ndarray) -> np.ndarray:
        """Signed int64 coefficients (..., N) -> their residues in every
        limb, (..., L, N)."""
        return mod(coeffs[..., None, :], self.q_signed).astype(np.uint64)

    def _to_ntt(self, coeffs: np.ndarray) -> np.ndarray:
        """Signed int64 coefficients (..., N) -> their NTT in every limb."""
        return _transform(self._limbs(coeffs), self.plans)

    def _expand_a(self, seed: bytes) -> np.ndarray:
        """The uniform (L, N) NTT-form ``a`` of a seed: limb i holds the
        first N of the ``<u4`` words of shake_128(seed || i), each cut to
        the bit length of q_i, that fall below q_i.  The XOF output is read
        ``a_words[i]`` words at first and twice as many each time that is
        short; a longer read extends a shorter one, so ``a`` depends on the
        seed alone."""
        a = np.empty((self.L, self.n), dtype=np.uint64)
        for i, (q, words) in enumerate(zip(self.qs, self.a_words)):
            xof = hashlib.shake_128(seed + bytes([i]))
            low = np.uint32((1 << q.bit_length()) - 1)
            while True:
                w = np.frombuffer(xof.digest(4 * words), "<u4") & low
                w = w[w < q]
                if w.size >= self.n:
                    break
                words *= 2
            a[i] = w[:self.n]
        return a

    def _sk_encrypt(self, s_ntt: np.ndarray, dm=0) -> tuple:
        """(NTT(dm + e) - a s, a) for fresh Gaussian e and uniform a, sampled
        in NTT form: the (L, N) coefficient rows ``dm`` under the secret s,
        in one forward transform per limb; and the fresh seed of a."""
        row = self._limbs(self._gauss()) + dm  # the transform reduces it
        seed = self.rng.bytes(SEED_BYTES)
        a = self._expand_a(seed)
        body = _transform(row, self.plans) + self.q_col - mulmod(a, s_ntt, self.q_col)
        return np.stack([mod(body, self.q_col), a]), seed

    # -- keys -------------------------------------------------------------------
    def keygen(self, owner: str, with_relin: bool = True) -> RlweKeyPair:
        s_ntt = self._to_ntt(self._ternary())
        pk, _ = self._sk_encrypt(s_ntt)
        rlk = seeds = None
        if with_relin:
            # row i encrypts s^2 in limb i: (e_i - a_i s + [j == i] s^2, a_i)
            rows, seeds = zip(*(self._sk_encrypt(s_ntt) for _ in range(self.L)))
            rlk, diag = np.stack(rows), np.arange(self.L)
            rlk[diag, 0, diag] = mod(rlk[diag, 0, diag] + mulmod(s_ntt, s_ntt, self.q_col),
                                     self.q_col)
        return RlweKeyPair(owner, s_ntt, RlwePublicKey(owner, pk, rlk, seeds))

    def parse_public_key(self, data: bytes) -> RlwePublicKey:
        """The peer's key from its blob (``RlwePublicKey.to_bytes``), each
        row's ``a`` re-expanded from its seed; anything but a whole blob of
        these parameters, owned by A or B, with a flag of 0 or 1, raises
        ``MalformedBytes``."""
        if len(data) < 6 or data[:4] != b"RLPK":
            raise MalformedBytes("bad public key blob")
        if data[4:5] not in (b"A", b"B") or data[5] not in (0, 1):
            raise MalformedBytes("bad public key owner or relinearization flag")
        L, N = self.L, self.n
        if len(data) != 6 + data[5] * L * (SEED_BYTES + 4 * L * N):
            raise MalformedBytes("truncated or padded public key blob")
        rlk = seeds = None
        if data[5]:
            seeds = [bytes(data[6 + i * SEED_BYTES:6 + (i + 1) * SEED_BYTES]) for i in range(L)]
            c0 = np.frombuffer(data, "<u4", offset=6 + L * SEED_BYTES).reshape(L, L, N)
            rlk = np.stack([c0, np.stack([self._expand_a(seed) for seed in seeds])], axis=1)
        return RlwePublicKey(bytes(data[4:5]).decode(), None, rlk, seeds)

    # -- plaintext codec ---------------------------------------------------------
    def _slots_to_coeffs(self, slots) -> np.ndarray:
        return self.plan_p.inverse(pack_slots(slots, self.params))

    def _coeffs_to_slots(self, coeffs: np.ndarray) -> np.ndarray:
        return self.plan_p.forward(coeffs)

    def _pt_delta(self, slots) -> np.ndarray:
        """floor(q/p) * m mod each limb, in coefficient form, for the
        plaintext with these slots."""
        m = self._slots_to_coeffs(slots)
        return mulmod(mod(m, self.q_col), self.delta_col, self.q_col)

    def _const(self, value) -> np.ndarray:
        """The constant polynomial of an int c (signed or not) in NTT form: c
        mod each limb as an (L, 1) column, since it evaluates to c at every
        root."""
        return mod(np.array([[value]], dtype=np.int64), self.q_signed).astype(np.uint64)

    def _pt_delta_ntt(self, slots) -> np.ndarray:
        """floor(q/p) * m in NTT form: an (L, 1) column for a scalar."""
        if np.ndim(slots) == 0:
            return mulmod(self._const(scalar_slot(slots, self.params)), self.delta_col,
                          self.q_col)
        return _transform(self._pt_delta(slots), self.plans)

    # -- encrypt / decrypt ---------------------------------------------------------
    def encrypt(self, slots, key) -> RlweCiphertext:
        """Encrypt under a key pair (secret key: e and floor(q/p) m share one
        row, 6 forward row transforms at 6 limbs; the result is seeded) or
        a public key (u, e1 with floor(q/p) m, and e2: 18)."""
        dm = self._pt_delta(slots)
        seed = None
        if isinstance(key, RlweKeyPair):
            data, seed = self._sk_encrypt(key._s, dm)
        else:
            u, e1, e2 = self._ternary(), self._gauss(), self._gauss()
            rows = self._limbs(np.stack([u, e1, e2]))
            rows[1] += dm  # e1 and floor(q/p) m both go to c0
            u_ntt, *c = _transform(rows, self.plans)
            data = mod(mulmod(key.pk, u_ntt, self.q_col) + np.stack(c), self.q_col)
        return RlweCiphertext(data, key.owner, noise.fresh_bits(self.params), seed)

    def _phase(self, ct: RlweCiphertext, kp: RlweKeyPair) -> np.ndarray:
        """c0 + c1 s mod each limb of ``ct``, in coefficient form."""
        k = ct.limbs
        q = self.q_col[:k]
        acc = ct.data[0] + mulmod(ct.data[1], kp._s[:k], q)
        return _transform(mod(acc, q), self.plans[:k], inverse=True)

    def decrypt(self, ct: RlweCiphertext, kp: RlweKeyPair) -> np.ndarray:
        check_decrypt(self.params, ct, kp)
        # round(p v / Q) mod p does not change when the phase v shifts by Q
        return self._coeffs_to_slots(self.scale_q[ct.limbs](self._phase(ct, kp))[0])

    # -- linear ops -------------------------------------------------------------
    def add_ct(self, x: RlweCiphertext, y: RlweCiphertext) -> RlweCiphertext:
        check_operands(self.params, x, y)
        return RlweCiphertext(mod(x.data + y.data, self.q_col), x.owner,
                              noise.add_ct_bits(x.noise_bits, y.noise_bits))

    def neg_ct(self, x: RlweCiphertext) -> RlweCiphertext:
        check_operands(self.params, x)
        return RlweCiphertext(mod(self.q_col - x.data, self.q_col), x.owner, x.noise_bits)

    def _add_to_c0(self, x: RlweCiphertext, dm: np.ndarray) -> RlweCiphertext:
        check_operands(self.params, x)
        out = x.data.copy()
        out[0] = mod(out[0] + dm, self.q_col)
        return RlweCiphertext(out, x.owner, noise.add_pt_bits(self.params, x.noise_bits))

    def add_pt(self, x: RlweCiphertext, slots) -> RlweCiphertext:
        return self._add_to_c0(x, self._pt_delta_ntt(slots))

    def sub_pt(self, x: RlweCiphertext, slots) -> RlweCiphertext:
        return self._add_to_c0(x, self.q_col - self._pt_delta_ntt(slots))

    def _pt_ntt(self, slots) -> np.ndarray:
        """A multiply's plaintext m in NTT form, centered: an (L, 1) column
        for a scalar, the (L, N) rows of a vector."""
        if np.ndim(slots) == 0:
            return self._const(signed_lift(scalar_slot(slots, self.params), self.p))
        return self._to_ntt(signed_lift(self._slots_to_coeffs(slots), self.p))

    def mul_pt(self, x: RlweCiphertext, slots) -> RlweCiphertext:
        check_operands(self.params, x)
        return RlweCiphertext(mulmod(x.data, self._pt_ntt(slots), self.q_col), x.owner,
                              noise.mul_pt_bits(self.params, x.noise_bits, slots))

    def pt_sum(self) -> PtSum:
        """An empty sum of ciphertext*plaintext products (``_RlwePtSum``)."""
        return _RlwePtSum(self)

    # -- ct * ct -----------------------------------------------------------------
    def _relin(self, d2: np.ndarray, public: RlwePublicKey) -> np.ndarray:
        """Key-switch the quadratic component; returns the (2, L, N) NTT pair
        to add.  Its digits are the limb residues d2 mod q_i (coefficient
        form), each below q_i."""
        digits = self._to_ntt(d2.astype(np.int64))[:, None]
        return mod(mulmod(public.rlk, digits, self.q_col).sum(axis=0), self.q_col)

    def _tensor(self, x: RlweCiphertext, y: RlweCiphertext) -> np.ndarray:
        """The (3, L + K, N) tensor of x and y over Q and P, NTT form."""
        comps = x.data if y is x else np.concatenate([x.data, y.data])
        # each component over Q and P: the Q limbs are its NTT rows, the P
        # limbs the NTT of the centered extension of its coefficients
        ext = self.q_to_p(_transform(comps, self.plans, inverse=True))
        ab = np.concatenate([comps, _transform(ext, self.p_plans)], axis=1)
        a0, a1, b0, b1 = (*ab, *ab) if y is x else ab
        m = self.qp_col
        return np.stack([mulmod(a0, b0, m), mod(mulmod(a0, b1, m) + mulmod(a1, b0, m), m),
                         mulmod(a1, b1, m)])

    def mul_ct_sum(self, pairs, public: RlwePublicKey) -> RlweCiphertext:
        """The sum of the products x*y of the (x, y) ``pairs``: the tensors
        add up mod QP, and the inverse transforms, the scaling by p/Q and the
        relinearization run once.  At most ``max_fan_in`` pairs keep the
        summed tensor exact mod QP and its scaling centered in P."""
        pairs, nb = check_product(self.params, pairs, public, self.max_fan_in)
        d = self._tensor(*pairs[0])
        for x, y in pairs[1:]:
            d = mod(d + self._tensor(x, y), self.qp_col)
        d = _transform(d, self.plans + self.p_plans, inverse=True)
        # round(p d / Q) into P, then back to Q
        r = self.scale_qp(d[:, :self.L]) + mulmod(d[:, self.L:], self.lam_col, self.p_col)
        d = self.p_to_q(mod(r, self.p_col))
        data = _transform(d[:2], self.plans) + self._relin(d[2], public)
        return RlweCiphertext(mod(data, self.q_col), pairs[0][0].owner, nb)

    # -- replies -------------------------------------------------------------------
    def reply(self, x: RlweCiphertext, mask, whole: bool = False) -> RlweCiphertext:
        """x - floor(Q/p) mask, switched down to ``reply_limbs`` l (unless
        ``whole``) for x's key holder to decrypt: 2 (L - l) inverse and 2 l
        forward row transforms."""
        limbs, nb = check_reply(self.params, x, whole)
        if limbs == self.L:
            return self.sub_pt(x, mask)  # under the same estimate, nb
        dm = self._pt_delta(mask)
        q, qd = self.q_col[:limbs], self.q_col[limbs:]
        low = _transform(x.data[:, limbs:], self.plans[limbs:], inverse=True)
        low[0] = mod(low[0] + qd - dm[limbs:], qd)
        corr = self.switch(low)  # [c]_D in each kept limb
        corr[0] += dm[:limbs]
        kept = x.data[:, :limbs] + q - _transform(corr, self.plans[:limbs])
        return RlweCiphertext(mulmod(kept, self.inv_dropped, q), x.owner, nb)

    # -- wire format ----------------------------------------------------------------
    def serialize(self, ct: RlweCiphertext, out=None):
        """Every limb as ``<u4`` after the header, of c0 alone after the seed
        when ``ct`` is seeded; written into ``out`` when given (see
        ``write_ct``)."""
        body = ct.data if ct.seed is None else ct.data[:1]
        return write_ct(self.params, ct, BACKEND_ID, body, "<u4", out)

    def deserialize(self, data: bytes, seeded: bool = False,
                    limbs: int | None = None) -> RlweCiphertext:
        """The ciphertext of ``data``, which must be seeded exactly when
        ``seeded`` and hold ``limbs`` limbs (every limb by default); a
        seeded one gets its ``a`` re-expanded."""
        limbs = self.L if limbs is None else limbs
        owner, noise_bits, seed, body = read_ct(self.params, data, BACKEND_ID, "<u4",
                                                seeded, limbs=limbs)
        rows = body.astype(np.uint64).reshape(-1, limbs, self.n)
        if seeded:
            rows = np.stack([rows[0], self._expand_a(seed)])
        return RlweCiphertext(rows, owner, noise_bits, seed)
