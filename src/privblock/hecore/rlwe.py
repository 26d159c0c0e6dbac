"""RLWE backend: scale-invariant scheme over R_q = Z_q[X]/(X^N+1), RNS form.

Ciphertext polynomials live permanently in per-limb NTT (evaluation) form,
so additions and plaintext multiplies are pointwise; every such step works
on the whole (ncomp, L, N) array at once against the (L, 1) column of limb
moduli.  Decrypt and ct*ct leave the RNS form through the one CRT
reconstruction (``ntt.crt_reconstruct_centered``) to exact centered
Python-int coefficients: ct*ct tensors them negacyclically over an auxiliary
CRT basis, rounds by p/q, and relinearizes the quadratic component with
limb-decomposed switching keys.  Plaintext slots are the CRT components of
Z_p[X]/(X^N+1), reached through a mod-p negacyclic transform; there is no
slot permutation anywhere.
"""

from __future__ import annotations

import math

import numpy as np

from . import (HEADER_BYTES, KeyMismatch, MalformedBytes, MissingRelinKey,
               NoiseExhausted, SimdPlaintext, ct_bytes, noise_budget_bits,
               pack_header, parse_header)
from ..modarith import centered_max, mulmod, signed_lift
from ..params import AUX_PRIMES, HeParams, ParamError
from . import noise
from .ntt import crt_reconstruct_centered, get_plan

BACKEND_ID = 1


def _column(values) -> np.ndarray:
    """One modulus (or residue) per limb as a (L, 1) uint64 column."""
    return np.array([int(v) for v in values], dtype=np.uint64).reshape(-1, 1)


def _to_ntt(coeffs: np.ndarray, plans) -> np.ndarray:
    """Signed integer coefficients (int64 or Python ints) -> one NTT row per
    plan's prime; Python's % gives the non-negative residue."""
    return np.stack([plan.forward(np.asarray(coeffs % plan.prime, dtype=np.uint64))
                     for plan in plans])


def _from_ntt(values: np.ndarray, plans) -> np.ndarray:
    """One NTT row per plan's prime -> centered Python-int coefficients."""
    return crt_reconstruct_centered([plan.inverse(v) for plan, v in zip(plans, values)],
                                    [plan.prime for plan in plans])


class RlwePublicKey:
    def __init__(self, owner: str, pk: np.ndarray, rlk: np.ndarray | None):
        self.owner = owner
        self.pk = pk          # (2, L, N) NTT domain
        self.rlk = rlk        # (L, 2, L, N) NTT domain
        self.has_relin = rlk is not None

    def to_bytes(self) -> bytes:
        head = b"RLPK" + self.owner.encode() + (b"\x01" if self.has_relin else b"\x00")
        body = self.pk.astype("<u8").tobytes()
        if self.has_relin:
            body += self.rlk.astype("<u8").tobytes()
        return head + body

    @classmethod
    def from_bytes(cls, data: bytes, params: HeParams):
        if data[:4] != b"RLPK":
            raise MalformedBytes("bad public key blob")
        owner = data[4:5].decode()
        has_relin = data[5] == 1
        L, N = params.limbs, params.n
        off = 6
        pk = np.frombuffer(data, dtype="<u8", count=2 * L * N, offset=off).reshape(2, L, N).copy()
        rlk = None
        if has_relin:
            off += 2 * L * N * 8
            rlk = np.frombuffer(data, dtype="<u8", count=L * 2 * L * N,
                                offset=off).reshape(L, 2, L, N).copy()
        return cls(owner, pk, rlk)


class RlweKeyPair:
    def __init__(self, owner: str, s_ntt: np.ndarray, s2_ntt: np.ndarray,
                 public: RlwePublicKey):
        self.owner = owner
        self._s = s_ntt
        self._s2 = s2_ntt
        self.public = public


class RlweCiphertext:
    __slots__ = ("data", "owner", "noise_bits")

    def __init__(self, data: np.ndarray, owner: str, noise_bits: float):
        self.data = data  # (ncomp, L, N) uint64, NTT domain per limb
        self.owner = owner
        self.noise_bits = float(noise_bits)

    @property
    def ncomp(self) -> int:
        return self.data.shape[0]


class RlweBackend:
    kind = "rlwe"

    def __init__(self, params: HeParams, rng=None):
        self.params = params
        self.rng = rng or np.random.default_rng()
        self.qs = [int(q) for q in params.q_primes]
        self.q_col = _column(self.qs)
        self.q = params.q
        self.p = params.p
        self.n = params.n
        self.L = params.limbs
        self.plans = [get_plan(q, self.n) for q in self.qs]
        self.plan_p = get_plan(self.p, self.n)
        self.delta_col = _column(self.q // self.p % q for q in self.qs)
        need = 2 * self.n * self.q * self.q
        self.aux = []
        acc = 1
        for pr in AUX_PRIMES:
            self.aux.append(int(pr))
            acc *= int(pr)
            if acc > 2 * need:
                break
        if acc <= 2 * need:
            raise ParamError("auxiliary CRT basis too small for exact tensoring")
        self.aux_col = _column(self.aux)
        self.aux_plans = [get_plan(pr, self.n) for pr in self.aux]

    # -- sampling -------------------------------------------------------------
    def _ternary(self) -> np.ndarray:
        return self.rng.integers(-1, 2, size=self.n, dtype=np.int64)

    def _gauss(self) -> np.ndarray:
        e = np.rint(self.rng.normal(0.0, noise.SIGMA, size=self.n)).astype(np.int64)
        return np.clip(e, -6 * int(noise.SIGMA) - 1, 6 * int(noise.SIGMA) + 1)

    def _key_row(self, s_ntt: np.ndarray) -> np.ndarray:
        """(-(a s + e), a) in NTT form for fresh uniform a and Gaussian e."""
        a = np.stack([self.rng.integers(0, q, size=self.n, dtype=np.uint64)
                      for q in self.qs])
        e_ntt = _to_ntt(self._gauss(), self.plans)
        body = (mulmod(a, s_ntt, self.q_col) + e_ntt) % self.q_col
        return np.stack([(self.q_col - body) % self.q_col, a])

    # -- keys -------------------------------------------------------------------
    def keygen(self, owner: str, with_relin: bool = True) -> RlweKeyPair:
        s_ntt = _to_ntt(self._ternary(), self.plans)
        s2_ntt = mulmod(s_ntt, s_ntt, self.q_col)
        pk = self._key_row(s_ntt)
        rlk = None
        if with_relin:
            # row i encrypts s^2 in limb i: (-(a_i s + e_i) + [j == i] s^2, a_i)
            rlk = np.stack([self._key_row(s_ntt) for _ in range(self.L)])
            diag = np.arange(self.L)
            rlk[diag, 0, diag] = (rlk[diag, 0, diag] + s2_ntt) % self.q_col
        public = RlwePublicKey(owner, pk, rlk)
        return RlweKeyPair(owner, s_ntt, s2_ntt, public)

    # -- plaintext codec ---------------------------------------------------------
    def _slots_to_coeffs(self, slots) -> np.ndarray:
        return self.plan_p.inverse(SimdPlaintext.pack(slots, self.params).slots)

    def _coeffs_to_slots(self, coeffs: np.ndarray) -> np.ndarray:
        return self.plan_p.forward(coeffs)

    def _pt_delta_ntt(self, slots) -> np.ndarray:
        """floor(q/p) * m in NTT form for the plaintext with these slots."""
        m_ntt = _to_ntt(self._slots_to_coeffs(slots), self.plans)
        return mulmod(m_ntt, self.delta_col, self.q_col)

    def _round_pq(self, v: np.ndarray) -> np.ndarray:
        """round(p * v / q), halves up, for Python-int coefficients."""
        return (2 * self.p * v + self.q) // (2 * self.q)

    # -- encrypt / decrypt ---------------------------------------------------------
    def encrypt(self, slots, public: RlwePublicKey) -> RlweCiphertext:
        dm = self._pt_delta_ntt(slots)
        u_ntt = _to_ntt(self._ternary(), self.plans)
        e1_ntt = _to_ntt(self._gauss(), self.plans)
        e2_ntt = _to_ntt(self._gauss(), self.plans)
        data = mulmod(public.pk, u_ntt, self.q_col) + np.stack([e1_ntt + dm, e2_ntt])
        return RlweCiphertext(data % self.q_col, public.owner,
                              noise.fresh_bits(self.params))

    def _phase(self, ct: RlweCiphertext, kp: RlweKeyPair) -> np.ndarray:
        """c0 + c1 s (+ c2 s^2) as centered Python-int coefficients."""
        keys = np.stack((kp._s, kp._s2)[:ct.ncomp - 1])
        acc = ct.data[0] + mulmod(ct.data[1:], keys, self.q_col).sum(axis=0)
        return _from_ntt(acc % self.q_col, self.plans)

    def decrypt(self, ct: RlweCiphertext, kp: RlweKeyPair) -> np.ndarray:
        if ct.owner != kp.owner:
            raise KeyMismatch(f"ciphertext owned by {ct.owner}, key is {kp.owner}")
        if noise_budget_bits(self.params, ct.noise_bits) <= 0:
            raise NoiseExhausted("noise budget exhausted")
        # round(p v / q) mod p does not change when the phase v shifts by q
        m = self._round_pq(self._phase(ct, kp)) % self.p
        return self._coeffs_to_slots(m.astype(np.uint64))

    def measured_noise_bits(self, ct: RlweCiphertext, kp: RlweKeyPair) -> float:
        """True residual noise (test instrumentation)."""
        phi = self._phase(ct, kp)
        # distance to the code point
        r = phi - (self._round_pq(phi) * self.q + self.p // 2) // self.p
        return math.log2(max(int(np.abs(r).max()), 1))

    # -- linear ops -------------------------------------------------------------
    def _check_pair(self, x: RlweCiphertext, y: RlweCiphertext):
        if x.owner != y.owner:
            raise KeyMismatch("ciphertexts under different keys")

    def add_ct(self, x: RlweCiphertext, y: RlweCiphertext) -> RlweCiphertext:
        self._check_pair(x, y)
        if x.ncomp != y.ncomp:
            raise MalformedBytes("component count mismatch")
        return RlweCiphertext((x.data + y.data) % self.q_col, x.owner,
                              noise.add_ct_bits(x.noise_bits, y.noise_bits))

    def neg_ct(self, x: RlweCiphertext) -> RlweCiphertext:
        return RlweCiphertext((self.q_col - x.data) % self.q_col, x.owner, x.noise_bits)

    def _add_to_c0(self, x: RlweCiphertext, dm: np.ndarray) -> RlweCiphertext:
        out = x.data.copy()
        out[0] = (out[0] + dm) % self.q_col
        return RlweCiphertext(out, x.owner, noise.add_pt_bits(self.params, x.noise_bits))

    def add_pt(self, x: RlweCiphertext, slots) -> RlweCiphertext:
        return self._add_to_c0(x, self._pt_delta_ntt(slots))

    def sub_pt(self, x: RlweCiphertext, slots) -> RlweCiphertext:
        return self._add_to_c0(x, self.q_col - self._pt_delta_ntt(slots))

    def mul_pt(self, x: RlweCiphertext, slots) -> RlweCiphertext:
        m = self._slots_to_coeffs(slots)
        m_ntt = _to_ntt(signed_lift(m, self.p), self.plans)
        return RlweCiphertext(mulmod(x.data, m_ntt, self.q_col), x.owner,
                              noise.mul_pt_bits(self.params, x.noise_bits,
                                                centered_max(m, self.p)))

    # -- ct * ct -----------------------------------------------------------------
    def _tensor(self, a_comps, b_comps):
        """Exact integer tensor (d0, d1, d2) over the auxiliary basis."""
        a0, a1 = (_to_ntt(c, self.aux_plans) for c in a_comps)
        b0, b1 = (_to_ntt(c, self.aux_plans) for c in b_comps)
        m = self.aux_col
        d1 = (mulmod(a0, b1, m) + mulmod(a1, b0, m)) % m
        return [_from_ntt(d, self.aux_plans)
                for d in (mulmod(a0, b0, m), d1, mulmod(a1, b1, m))]

    def _relin(self, d2: np.ndarray, public: RlwePublicKey) -> np.ndarray:
        """Key-switch the quadratic component; returns the (2, L, N) NTT pair
        to add.  Its digits are the residues d2 mod q_i, each below q_i."""
        acc = np.zeros((2, self.L, self.n), dtype=np.uint64)
        for i, qi in enumerate(self.qs):
            w_ntt = _to_ntt((d2 % qi).astype(np.uint64), self.plans)
            acc = (acc + mulmod(public.rlk[i], w_ntt, self.q_col)) % self.q_col
        return acc

    def mul_ct(self, x: RlweCiphertext, y: RlweCiphertext,
               public: RlwePublicKey) -> RlweCiphertext:
        self._check_pair(x, y)
        if public.rlk is None:
            raise MissingRelinKey("relinearization key required for ct*ct")
        nb = noise.mul_ct_bits(self.params, x.noise_bits, y.noise_bits)
        if noise_budget_bits(self.params, nb) <= 0:
            raise NoiseExhausted("multiplication would exhaust the noise budget")
        a = [_from_ntt(c, self.plans) for c in x.data]
        b = a if y is x else [_from_ntt(c, self.plans) for c in y.data]
        d0, d1, d2 = (self._round_pq(d) for d in self._tensor(a, b))
        data = np.stack([_to_ntt(d0, self.plans), _to_ntt(d1, self.plans)])
        return RlweCiphertext((data + self._relin(d2, public)) % self.q_col, x.owner, nb)

    def square(self, x: RlweCiphertext, public: RlwePublicKey) -> RlweCiphertext:
        return self.mul_ct(x, x, public)

    # -- wire format ----------------------------------------------------------------
    def serialize(self, ct: RlweCiphertext) -> bytes:
        head = pack_header(self.params, ct.ncomp, ct.owner, BACKEND_ID, ct.noise_bits)
        body = ct.data.astype("<u4").tobytes()
        out = head + body
        assert len(out) == ct_bytes(self.params, ct.ncomp)
        return out

    def deserialize(self, data: bytes) -> RlweCiphertext:
        ncomp, owner, backend_id, noise_bits = parse_header(data, self.params)
        if backend_id != BACKEND_ID:
            raise MalformedBytes("ciphertext from a different backend")
        if len(data) != ct_bytes(self.params, ncomp):
            raise MalformedBytes("truncated or padded ciphertext stream")
        arr = np.frombuffer(data, dtype="<u4", offset=HEADER_BYTES).astype(np.uint64)
        return RlweCiphertext(arr.reshape(ncomp, self.L, self.n), owner, noise_bits)
