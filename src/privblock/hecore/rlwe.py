"""RLWE backend: scale-invariant scheme over R_q = Z_q[X]/(X^N+1), RNS form.

Ciphertext polynomials live permanently in per-limb NTT (evaluation) form,
so additions and plaintext multiplies are pointwise.  Ct*ct multiplication
lifts to exact big-integer coefficients, tensors negacyclically over an
auxiliary CRT basis, rescales by p/q with rounding, and relinearizes the
quadratic component with limb-decomposed switching keys.  Plaintext slots
are the CRT components of Z_p[X]/(X^N+1), reached through a mod-p negacyclic
transform; there is no slot permutation anywhere.
"""

from __future__ import annotations

import math

import numpy as np

from . import (HEADER_BYTES, KeyMismatch, MalformedBytes, MissingRelinKey,
               NoiseExhausted, ct_bytes, noise_budget_bits, pack_header,
               parse_header)
from ..modarith import centered_max, signed_lift
from ..params import AUX_PRIMES, HeParams, ParamError
from . import noise
from .ntt import get_plan

BACKEND_ID = 1
_M64 = (1 << 64) - 1


def _split_limbs(values_obj: np.ndarray, n_limbs: int):
    """Signed bigint vector -> (sign mask, n_limbs uint64 magnitude limbs)."""
    neg = np.array([int(v) < 0 for v in values_obj], dtype=bool)
    mags = [(-int(v) if int(v) < 0 else int(v)) for v in values_obj]
    limbs = []
    for k in range(n_limbs):
        sh = 64 * k
        limbs.append(np.array([(m >> sh) & _M64 for m in mags], dtype=np.uint64))
    return neg, limbs


def _residues(neg, limbs, prime: int) -> np.ndarray:
    """Residue vector mod prime from the 64-bit limb decomposition."""
    pr = np.uint64(prime)
    acc = np.zeros(limbs[0].size, dtype=np.uint64)
    shift_mod = 1
    for limb in limbs:
        lo = limb & np.uint64(0xFFFFFFFF)
        hi = limb >> np.uint64(32)
        part = (lo % pr + (hi % pr) * (np.uint64((1 << 32) % prime))) % pr
        acc = (acc + part * np.uint64(shift_mod % prime)) % pr
        shift_mod = (shift_mod << 64) % prime
    return np.where(neg, (pr - acc) % pr, acc)


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
        self.q = params.q
        self.p = params.p
        self.n = params.n
        self.L = params.limbs
        self.plans = [get_plan(q, self.n) for q in self.qs]
        self.plan_p = get_plan(self.p, self.n)
        self.delta = self.q // self.p
        self.delta_mod = [np.uint64(self.delta % q) for q in self.qs]
        # CRT garner elements for q-basis reconstruction
        self.crt_g = []
        for q in self.qs:
            mi = self.q // q
            self.crt_g.append((mi * pow(mi, -1, q)) % self.q)
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
        self.aux_plans = [get_plan(pr, self.n) for pr in self.aux]
        self.q_half = self.q >> 1
        self.in_limbs = (self.q.bit_length() + 63) // 64

    # -- sampling -------------------------------------------------------------
    def _ternary(self) -> np.ndarray:
        return self.rng.integers(-1, 2, size=self.n, dtype=np.int64)

    def _gauss(self) -> np.ndarray:
        e = np.rint(self.rng.normal(0.0, noise.SIGMA, size=self.n)).astype(np.int64)
        return np.clip(e, -6 * int(noise.SIGMA) - 1, 6 * int(noise.SIGMA) + 1)

    def _small_to_ntt(self, coeffs: np.ndarray) -> np.ndarray:
        """Small signed coefficient poly -> per-limb NTT representation."""
        out = np.empty((self.L, self.n), dtype=np.uint64)
        for j, (q, plan) in enumerate(zip(self.qs, self.plans)):
            out[j] = plan.forward(np.asarray(coeffs % q, dtype=np.uint64))
        return out

    # -- keys -------------------------------------------------------------------
    def keygen(self, owner: str, with_relin: bool = True) -> RlweKeyPair:
        s = self._ternary()
        s_ntt = self._small_to_ntt(s)
        s2_ntt = np.empty_like(s_ntt)
        for j, plan in enumerate(self.plans):
            s2_ntt[j] = plan.pointwise(s_ntt[j], s_ntt[j])
        a = np.empty((self.L, self.n), dtype=np.uint64)
        for j, q in enumerate(self.qs):
            a[j] = self.rng.integers(0, q, size=self.n, dtype=np.uint64)
        e_ntt = self._small_to_ntt(self._gauss())
        pk0 = np.empty_like(a)
        for j, (q, plan) in enumerate(zip(self.qs, self.plans)):
            q64 = np.uint64(q)
            pk0[j] = (q64 - (plan.pointwise(a[j], s_ntt[j]) + e_ntt[j]) % q64) % q64
        pk = np.stack([pk0, a])
        rlk = None
        if with_relin:
            rlk = np.empty((self.L, 2, self.L, self.n), dtype=np.uint64)
            for i in range(self.L):
                ai = np.empty((self.L, self.n), dtype=np.uint64)
                for j, q in enumerate(self.qs):
                    ai[j] = self.rng.integers(0, q, size=self.n, dtype=np.uint64)
                ei_ntt = self._small_to_ntt(self._gauss())
                for j, (q, plan) in enumerate(zip(self.qs, self.plans)):
                    q64 = np.uint64(q)
                    body = (plan.pointwise(ai[j], s_ntt[j]) + ei_ntt[j]) % q64
                    val = (q64 - body) % q64
                    if j == i:
                        val = (val + s2_ntt[j]) % q64
                    rlk[i, 0, j] = val
                    rlk[i, 1, j] = ai[j]
        public = RlwePublicKey(owner, pk, rlk)
        return RlweKeyPair(owner, s_ntt, s2_ntt, public)

    # -- plaintext codec ---------------------------------------------------------
    def _slots_to_coeffs(self, slots) -> np.ndarray:
        v = np.zeros(self.n, dtype=np.uint64)
        src = np.asarray(slots, dtype=np.uint64).ravel()
        v[:src.size] = src
        return self.plan_p.inverse(v)

    def _coeffs_to_slots(self, coeffs: np.ndarray) -> np.ndarray:
        return self.plan_p.forward(coeffs)

    # -- encrypt / decrypt ---------------------------------------------------------
    def encrypt(self, slots, public: RlwePublicKey) -> RlweCiphertext:
        m = self._slots_to_coeffs(slots)  # coeffs < p
        u_ntt = self._small_to_ntt(self._ternary())
        e1_ntt = self._small_to_ntt(self._gauss())
        e2_ntt = self._small_to_ntt(self._gauss())
        data = np.empty((2, self.L, self.n), dtype=np.uint64)
        for j, (q, plan) in enumerate(zip(self.qs, self.plans)):
            q64 = np.uint64(q)
            m_ntt = plan.forward(m % q64)
            dm = plan.pointwise(m_ntt, np.full(self.n, self.delta_mod[j], dtype=np.uint64))
            data[0, j] = (plan.pointwise(public.pk[0, j], u_ntt[j]) + e1_ntt[j] + dm) % q64
            data[1, j] = (plan.pointwise(public.pk[1, j], u_ntt[j]) + e2_ntt[j]) % q64
        return RlweCiphertext(data, public.owner, noise.fresh_bits(self.params))

    def _phase_coeffs(self, ct: RlweCiphertext, kp: RlweKeyPair) -> np.ndarray:
        """c0 + c1 s (+ c2 s^2) as bigint coefficients in [0, q)."""
        residues = []
        for j, (q, plan) in enumerate(zip(self.qs, self.plans)):
            q64 = np.uint64(q)
            acc = (ct.data[0, j] + plan.pointwise(ct.data[1, j], kp._s[j])) % q64
            if ct.ncomp == 3:
                acc = (acc + plan.pointwise(ct.data[2, j], kp._s2[j])) % q64
            residues.append(plan.inverse(acc))
        acc = np.zeros(self.n, dtype=object)
        for r, g in zip(residues, self.crt_g):
            acc = acc + r.astype(object) * g
        return acc % self.q

    def decrypt(self, ct: RlweCiphertext, kp: RlweKeyPair) -> np.ndarray:
        if ct.owner != kp.owner:
            raise KeyMismatch(f"ciphertext owned by {ct.owner}, key is {kp.owner}")
        if noise_budget_bits(self.params, ct.noise_bits) <= 0:
            raise NoiseExhausted("noise budget exhausted")
        phi = self._phase_coeffs(ct, kp)
        p, q = self.p, self.q
        m = np.array([((2 * p * int(v) + q) // (2 * q)) % p for v in phi],
                     dtype=np.uint64)
        return self._coeffs_to_slots(m)

    def measured_noise_bits(self, ct: RlweCiphertext, kp: RlweKeyPair) -> float:
        """True residual noise (test instrumentation)."""
        phi = self._phase_coeffs(ct, kp)
        p, q = self.p, self.q
        worst = 0
        for v in phi:
            m = (2 * p * int(v) + q) // (2 * q)
            r = int(v) - (m * q + p // 2) // p  # distance to the code point
            worst = max(worst, abs(r))
        return math.log2(max(worst, 1))

    # -- linear ops -------------------------------------------------------------
    def _check_pair(self, x: RlweCiphertext, y: RlweCiphertext):
        if x.owner != y.owner:
            raise KeyMismatch("ciphertexts under different keys")

    def add_ct(self, x: RlweCiphertext, y: RlweCiphertext) -> RlweCiphertext:
        self._check_pair(x, y)
        if x.ncomp != y.ncomp:
            raise MalformedBytes("component count mismatch")
        out = np.empty_like(x.data)
        for j, q in enumerate(self.qs):
            out[:, j] = (x.data[:, j] + y.data[:, j]) % np.uint64(q)
        return RlweCiphertext(out, x.owner, noise.add_ct_bits(x.noise_bits, y.noise_bits))

    def neg_ct(self, x: RlweCiphertext) -> RlweCiphertext:
        out = np.empty_like(x.data)
        for j, q in enumerate(self.qs):
            out[:, j] = (np.uint64(q) - x.data[:, j]) % np.uint64(q)
        return RlweCiphertext(out, x.owner, x.noise_bits)

    def _pt_delta_ntt(self, slots) -> np.ndarray:
        m = self._slots_to_coeffs(slots)
        out = np.empty((self.L, self.n), dtype=np.uint64)
        for j, (q, plan) in enumerate(zip(self.qs, self.plans)):
            m_ntt = plan.forward(m % np.uint64(q))
            out[j] = plan.pointwise(m_ntt, np.full(self.n, self.delta_mod[j],
                                                   dtype=np.uint64))
        return out

    def add_pt(self, x: RlweCiphertext, slots) -> RlweCiphertext:
        dm = self._pt_delta_ntt(slots)
        out = x.data.copy()
        for j, q in enumerate(self.qs):
            out[0, j] = (out[0, j] + dm[j]) % np.uint64(q)
        return RlweCiphertext(out, x.owner, noise.add_pt_bits(self.params, x.noise_bits))

    def sub_pt(self, x: RlweCiphertext, slots) -> RlweCiphertext:
        dm = self._pt_delta_ntt(slots)
        out = x.data.copy()
        for j, q in enumerate(self.qs):
            out[0, j] = (out[0, j] + np.uint64(q) - dm[j]) % np.uint64(q)
        return RlweCiphertext(out, x.owner, noise.add_pt_bits(self.params, x.noise_bits))

    def mul_pt(self, x: RlweCiphertext, slots) -> RlweCiphertext:
        m = self._slots_to_coeffs(slots)
        centered = signed_lift(m, self.p)
        maxc = centered_max(m, self.p)
        out = np.empty_like(x.data)
        for j, (q, plan) in enumerate(zip(self.qs, self.plans)):
            m_ntt = plan.forward(np.asarray(centered % q, dtype=np.uint64))
            for c in range(x.ncomp):
                out[c, j] = plan.pointwise(x.data[c, j], m_ntt)
        return RlweCiphertext(out, x.owner,
                              noise.mul_pt_bits(self.params, x.noise_bits, maxc))

    # -- ct * ct -----------------------------------------------------------------
    def _lift_centered(self, ct: RlweCiphertext):
        """Each component -> centered bigint coefficient vector."""
        comps = []
        for c in range(ct.ncomp):
            residues = [self.plans[j].inverse(ct.data[c, j]) for j in range(self.L)]
            acc = np.zeros(self.n, dtype=object)
            for r, g in zip(residues, self.crt_g):
                acc = acc + r.astype(object) * g
            acc %= self.q
            comps.append(np.where(acc > self.q_half, acc - self.q, acc))
        return comps

    def _scale_round(self, d: np.ndarray) -> np.ndarray:
        """round(p * d / q) for signed bigint coefficients."""
        p, q = self.p, self.q
        return np.array([(2 * p * int(v) + q) // (2 * q) for v in d], dtype=object)

    def _to_rns_ntt(self, coeffs_obj: np.ndarray) -> np.ndarray:
        coeffs_obj = coeffs_obj % self.q
        neg, limbs = _split_limbs(coeffs_obj, self.in_limbs)
        out = np.empty((self.L, self.n), dtype=np.uint64)
        for j, (q, plan) in enumerate(zip(self.qs, self.plans)):
            out[j] = plan.forward(_residues(neg, limbs, q))
        return out

    def _tensor(self, a_comps, b_comps):
        """Exact integer tensor (d0, d1, d2) over the auxiliary basis."""
        d_res = {0: [], 1: [], 2: []}
        pre_a, pre_b = [], []
        for poly in a_comps:
            pre_a.append(_split_limbs(poly, self.in_limbs))
        for poly in b_comps:
            pre_b.append(_split_limbs(poly, self.in_limbs))
        for plan, pr in zip(self.aux_plans, self.aux):
            fa = [plan.forward(_residues(neg, limbs, pr)) for neg, limbs in pre_a]
            fb = [plan.forward(_residues(neg, limbs, pr)) for neg, limbs in pre_b]
            p64 = np.uint64(pr)
            d0 = plan.pointwise(fa[0], fb[0])
            d2 = plan.pointwise(fa[1], fb[1])
            d1 = (plan.pointwise(fa[0], fb[1]) + plan.pointwise(fa[1], fb[0])) % p64
            d_res[0].append(plan.inverse(d0))
            d_res[1].append(plan.inverse(d1))
            d_res[2].append(plan.inverse(d2))
        from .ntt import crt_reconstruct_centered
        return [crt_reconstruct_centered(d_res[i], self.aux) for i in range(3)]

    def _relin(self, d2_scaled: np.ndarray, public: RlwePublicKey):
        """Key-switch the quadratic component; returns (L,N) NTT pair to add."""
        nonneg = d2_scaled % self.q
        neg, limbs = _split_limbs(nonneg, self.in_limbs)
        add0 = np.zeros((self.L, self.n), dtype=np.uint64)
        add1 = np.zeros((self.L, self.n), dtype=np.uint64)
        for i, qi in enumerate(self.qs):
            wi = _residues(neg, limbs, qi)  # small poly, coeffs < q_i
            for j, (qj, plan) in enumerate(zip(self.qs, self.plans)):
                w_ntt = plan.forward(wi % np.uint64(qj))
                q64 = np.uint64(qj)
                add0[j] = (add0[j] + plan.pointwise(w_ntt, public.rlk[i, 0, j])) % q64
                add1[j] = (add1[j] + plan.pointwise(w_ntt, public.rlk[i, 1, j])) % q64
        return add0, add1

    def mul_ct(self, x: RlweCiphertext, y: RlweCiphertext,
               public: RlwePublicKey) -> RlweCiphertext:
        self._check_pair(x, y)
        if public.rlk is None:
            raise MissingRelinKey("relinearization key required for ct*ct")
        nb = noise.mul_ct_bits(self.params, x.noise_bits, y.noise_bits)
        if noise_budget_bits(self.params, nb) <= 0:
            raise NoiseExhausted("multiplication would exhaust the noise budget")
        a = self._lift_centered(x)
        b = a if y is x else self._lift_centered(y)
        d0, d1, d2 = self._tensor(a, b)
        d0 = self._scale_round(d0)
        d1 = self._scale_round(d1)
        d2 = self._scale_round(d2)
        data = np.empty((2, self.L, self.n), dtype=np.uint64)
        data[0] = self._to_rns_ntt(d0)
        data[1] = self._to_rns_ntt(d1)
        r0, r1 = self._relin(d2, public)
        for j, q in enumerate(self.qs):
            q64 = np.uint64(q)
            data[0, j] = (data[0, j] + r0[j]) % q64
            data[1, j] = (data[1, j] + r1[j]) % q64
        return RlweCiphertext(data, x.owner, nb)

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
        return RlweCiphertext(arr.reshape(ncomp, self.L, self.n).copy(), owner,
                              noise_bits)
