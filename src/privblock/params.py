"""Global numeric parameters: fixed-point layout, lattice parameters, cost tables.

Everything downstream keys off two objects: ``FixedPointConfig`` (ring width k,
prime field modulus p, fractional scale s) and ``HeParams`` (polynomial degree N,
RNS limbs of the ciphertext modulus q, plaintext modulus p).  Both serialize
to/from the JSON config file consumed by the CLI.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .modarith import MAX_MODULUS_BITS

# Default fixed-point layout.  k and s follow the standard 2PC fixed-point
# setting; p is the largest NTT-friendly prime below 2^k so that field
# elements always embed into the ring and slot packing splits completely.
DEFAULT_K = 37
DEFAULT_S = 12
DEFAULT_N = 8192
DEFAULT_P = 137438822401  # largest prime < 2^37 with p = 1 (mod 2*8192)

# Ciphertext modulus: six 30-bit primes, 180 bits total.  Sized for the
# worst homomorphic chain used anywhere here (two ct-ct levels between
# re-encryptions plus plaintext multiplies) at ~128-bit lattice security
# for N = 8192.
DEFAULT_Q_PRIMES = (
    1073692673,
    1073643521,
    1073479681,
    1073430529,
    1073299457,
    1073233921,
)

# Auxiliary RNS basis P of ct-ct multiplication: the rlwe backend takes the
# fewest leading primes with P > 4 * p * N * q, so the tensor is exact over
# q * P and its scaling by p/q is centered in P.
AUX_PRIMES = (
    1073184769,
    1073135617,
    1073053697,
    1072857089,
    1072611329,
    1072496641,
    1072218113,
    1071628289,
    1071562753,
    1071513601,
    1071415297,
    1071087617,
    1071071233,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ParamError(ValueError):
    """Raised for invalid or inconsistent parameter sets."""


def _checked(d, section: str, allowed, required=()) -> dict:
    """``d`` once it is an object naming only ``allowed`` and all ``required`` keys."""
    if not isinstance(d, dict):
        raise ParamError(f"{section}: expected an object, got {type(d).__name__}")
    for what, keys in (("unknown", sorted(set(d) - set(allowed))),
                       ("missing", [k for k in required if k not in d])):
        if keys:
            raise ParamError(f"{section}: {what} key(s) {', '.join(keys)}")
    return d


def _check_int(key: str, value):
    """Reject a config value that is not an integer (``bool`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParamError(f"{key} must be an integer, got {value!r}")


def _check_word_size(p: int):
    if p.bit_length() > MAX_MODULUS_BITS:
        raise ParamError(f"p={p} exceeds the {MAX_MODULUS_BITS}-bit modular kernel")


@dataclass(frozen=True)
class FixedPointConfig:
    """Fixed-point layout over the ring Z_{2^k} and the field Z_p.

    Reals are encoded as round(x * 2^s); negatives embed in the upper half of
    the respective modulus.  Products land at scale 2s and must be truncated
    before they are multiplied again.
    """

    k: int = DEFAULT_K
    s: int = DEFAULT_S
    p: int = DEFAULT_P

    def __post_init__(self):
        for key in ("k", "s", "p"):
            _check_int(f"fixedpoint.{key}", getattr(self, key))
        if not (2 ** self.s < self.p < 2 ** self.k):
            raise ParamError(f"need 2^s < p < 2^k, got s={self.s} p={self.p} k={self.k}")
        _check_word_size(self.p)
        if self.s >= self.k - 2:
            raise ParamError("need s < k - 2 for sign bit and carry headroom")
        if not _is_prime(self.p):
            raise ParamError(f"p={self.p} is not prime")

    @property
    def ring_mod(self) -> int:
        return 1 << self.k

    def to_dict(self) -> dict:
        return {"k": self.k, "s": self.s, "p": self.p}

    @classmethod
    def from_dict(cls, d: dict) -> "FixedPointConfig":
        return cls(**_checked(d, "fixedpoint", ("k", "s", "p")))


@dataclass(frozen=True)
class HeParams:
    """Lattice parameters for the SIMD scheme.

    N slots over Z_p per ciphertext; q is carried as an RNS basis of 30-bit
    primes.  p must split the plaintext ring completely (p = 1 mod 2N).
    """

    n: int = DEFAULT_N
    q_primes: tuple = DEFAULT_Q_PRIMES
    p: int = DEFAULT_P

    def __post_init__(self):
        for key in ("n", "p"):
            _check_int(f"he.{key}", getattr(self, key))
        for q in self.q_primes:
            _check_int("he.q_primes", q)
        if len(self.q_primes) < 2:
            # a seeded ciphertext's one component must hold N clear slots
            raise ParamError(f"he.q_primes needs at least 2 limbs, got {len(self.q_primes)}")
        if len(self.q_primes) > 15:
            # a ciphertext header gives its limb count 4 bits
            raise ParamError(f"he.q_primes allows at most 15 limbs, got {len(self.q_primes)}")
        if self.n & (self.n - 1) or self.n < 8:
            raise ParamError(f"N must be a power of two >= 8, got {self.n}")
        _check_word_size(self.p)
        if self.p % (2 * self.n) != 1:
            raise ParamError(f"p={self.p} is not 1 mod 2N={2 * self.n}; slots do not split")
        for q in self.q_primes:
            if q % (2 * self.n) != 1:
                raise ParamError(f"q limb {q} is not 1 mod 2N")
            if not _is_prime(q):
                raise ParamError(f"q limb {q} is not prime")
        # every ciphertext header carries this; hash it once
        blob = json.dumps([self.n, list(self.q_primes), self.p]).encode()
        object.__setattr__(self, "_hash", hashlib.blake2b(blob, digest_size=4).digest())

    @property
    def q(self) -> int:
        return math.prod(self.q_primes)

    @property
    def q_bits(self) -> int:
        return self.q.bit_length()

    @property
    def limbs(self) -> int:
        return len(self.q_primes)

    def param_hash(self) -> bytes:
        return self._hash

    def to_dict(self) -> dict:
        return {"n": self.n, "q_primes": list(self.q_primes), "p": self.p}

    @classmethod
    def from_dict(cls, d: dict) -> "HeParams":
        keys = ("n", "q_primes", "p")
        d = _checked(d, "he", keys, keys)
        if not isinstance(d["q_primes"], list):
            raise ParamError(f"he.q_primes must be a list, got {d['q_primes']!r}")
        return cls(n=d["n"], q_primes=tuple(d["q_primes"]), p=d["p"])


# Per-element byte/round charges for the imported two-party sub-protocols.
# The exponential entry is the published per-element cost of the cited
# prior-art protocol at this matrix size (592 KB / 117 rounds per 128x128);
# comparison and bit-conversion entries are lambda*l-style estimates at
# l = 37, lambda = 128; the inverse-sqrt entry is an engineering estimate of
# the same order as other fixed-point math kernels.  All entries are
# config-overridable; a zero-byte entry raises a warning flag in the report.
DEFAULT_GADGET_COSTS = {
    "lt":      {"bytes_per_element": 592,  "rounds": 4},
    "b2a":     {"bytes_per_element": 21,   "rounds": 1},
    "rexp":    {"bytes_per_element": 37,   "rounds": 117},
    "invsqrt": {"bytes_per_element": 2048, "rounds": 25},
    "convert": {"bytes_per_element": 613,  "rounds": 5},
    "trunc":   {"bytes_per_element": 613,  "rounds": 5},
    "rowmax":  {"bytes_per_element": 1839, "rounds": 28},
}


@dataclass
class GadgetCostTable:
    """Byte/round accounting for ideal-backend gadget invocations."""

    entries: dict = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_GADGET_COSTS)))

    def cost(self, name: str, n_elements: int) -> tuple[int, int, bool]:
        """Return (total_bytes, rounds, zero_cost_flag) for a gadget call."""
        e = self.entries.get(name)
        if e is None:
            return 0, 0, True
        total = int(e["bytes_per_element"]) * int(n_elements)
        return total, int(e["rounds"]), total == 0

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.entries))

    @classmethod
    def from_dict(cls, d: dict) -> "GadgetCostTable":
        base = json.loads(json.dumps(DEFAULT_GADGET_COSTS))
        keys = ("bytes_per_element", "rounds")
        for name, e in _checked(d, "gadget_costs", allowed=d).items():  # any name
            for key, value in _checked(e, f"gadget_costs.{name}", keys, keys).items():
                _check_int(f"gadget_costs.{name}.{key}", value)
                if value < 0:
                    raise ParamError(f"gadget_costs.{name}.{key} must be >= 0, got {value}")
        base.update(d)
        return cls(entries=base)


@dataclass
class Config:
    """Top-level configuration bundle, JSON round-trippable."""

    fixedpoint: FixedPointConfig = field(default_factory=FixedPointConfig)
    he: HeParams = field(default_factory=HeParams)
    gadget_costs: GadgetCostTable = field(default_factory=GadgetCostTable)
    he_backend: str = "clear"  # "clear" or "rlwe"

    def __post_init__(self):
        if self.he.p != self.fixedpoint.p:
            raise ParamError(f"he.p={self.he.p} must equal fixedpoint.p={self.fixedpoint.p}: "
                             "the HE slots carry the field shares")

    def fingerprint(self) -> bytes:
        """Parameter fingerprint both parties compare in the handshake."""
        return self.he.param_hash() + bytes([self.fixedpoint.k, self.fixedpoint.s])

    def to_dict(self) -> dict:
        return {
            "fixedpoint": self.fixedpoint.to_dict(),
            "he": self.he.to_dict(),
            "gadget_costs": self.gadget_costs.to_dict(),
            "he_backend": self.he_backend,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        _checked(d, "config", ("fixedpoint", "he", "gadget_costs", "he_backend"))
        return cls(
            fixedpoint=FixedPointConfig.from_dict(d.get("fixedpoint", {})),
            he=HeParams.from_dict(d["he"]) if "he" in d else HeParams(),
            gadget_costs=GadgetCostTable.from_dict(d.get("gadget_costs", {})),
            he_backend=d.get("he_backend", "clear"),
        )

    @classmethod
    def load(cls, path: str) -> "Config":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def toy_he_params(n: int = 64, p: int = 12289, limbs: int = 3) -> HeParams:
    """Small parameter set for fast tests (not secure)."""
    return HeParams(n=n, q_primes=DEFAULT_Q_PRIMES[:limbs], p=p)
