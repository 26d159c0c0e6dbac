"""The four two-party protocols as deterministic party drivers over a session:
secure matrix multiplication, softmax, layernorm, and gelu."""

from .common import (PartyCtx, ProtocolOutputShares, ShapeMismatch,
                     CapacityExceeded, DegenerateRow, make_party)
from .matmul import pi_matmul, pi_matmul_shared
from .softmax import pi_softmax, SOFTMAX_GUARD_BITS
from .layernorm import pi_ln, LnParams
from .gelu import pi_gelu
from . import costs

__all__ = [
    "PartyCtx", "ProtocolOutputShares", "ShapeMismatch", "CapacityExceeded",
    "DegenerateRow", "make_party", "pi_matmul", "pi_matmul_shared",
    "pi_softmax", "SOFTMAX_GUARD_BITS", "pi_ln", "LnParams", "pi_gelu",
    "costs",
]
