"""Shared protocol machinery: party context, ciphertext framing, block
packing, and the masked row-sum exchange."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import Session
from ..hecore import create_backend, ct_bytes
from ..params import Config, FixedPointConfig, HeParams
from ..sharing import FIELD, RING, GadgetProvider, Share

MAX_BLOCKS = 64


class ShapeMismatch(ValueError):
    pass


class CapacityExceeded(ValueError):
    pass


class DegenerateRow(ValueError):
    pass


@dataclass
class ProtocolOutputShares:
    """One party's protocol output: a share plus its numeric metadata."""

    share: Share
    shape: tuple
    scale: int
    label: str

    def matrix(self):
        return self.share.payload.reshape(self.shape)


class PartyCtx:
    """Everything one party needs to drive protocols over one session."""

    def __init__(self, role: str, session: Session, cfg: Config,
                 seed: int = 0):
        self.role = role
        self.session = session
        self.fp: FixedPointConfig = cfg.fixedpoint
        self.he_params: HeParams = cfg.he
        root = np.random.SeedSequence([seed, ord(role)])
        enc_seed, mask_seed = root.spawn(2)
        self.backend = create_backend(cfg.he, cfg.he_backend,
                                      np.random.default_rng(enc_seed))
        self.rng = np.random.default_rng(mask_seed)
        self.provider = GadgetProvider(session, cfg.fixedpoint, cfg.gadget_costs,
                                       dealer_seed=seed)
        self.keypair = None
        self.peer_public = None

    # -- key plumbing -------------------------------------------------------
    def exchange_keys(self):
        self.keypair = self.backend.keygen(self.role)
        blob = self.keypair.public.to_bytes()
        if self.role == "A":
            self.session.send("keyexchange", blob)
            other = self.session.recv("keyexchange")
        else:
            other = self.session.recv("keyexchange")
            self.session.send("keyexchange", blob)
        if self.backend.kind == "clear":
            from ..hecore.clear import ClearPublicKey
            self.peer_public = ClearPublicKey.from_bytes(other)
        else:
            from ..hecore.rlwe import RlwePublicKey
            self.peer_public = RlwePublicKey.from_bytes(other, self.he_params)

    def public_of(self, owner: str):
        if self.keypair is not None and owner == self.role:
            return self.keypair.public
        return self.peer_public

    # -- vector helpers -------------------------------------------------------
    def rand_field(self, size: int) -> np.ndarray:
        return self.rng.integers(0, self.fp.p, size=size, dtype=np.uint64)

    def field_share(self, payload) -> Share:
        return Share(FIELD, self.role, payload, self.fp.p)

    def ring_share(self, payload) -> Share:
        return Share(RING, self.role, payload, self.fp.ring_mod)

    # -- ciphertext block framing -------------------------------------------
    def n_blocks(self, n_values: int) -> int:
        blocks = -(-n_values // self.he_params.n)
        if blocks > MAX_BLOCKS:
            raise CapacityExceeded(f"{n_values} values span {blocks} blocks")
        return blocks

    def encrypt_blocks(self, values: np.ndarray, owner: str) -> list:
        """Split a flat field vector into N-slot blocks and encrypt each."""
        n = self.he_params.n
        values = np.asarray(values, dtype=np.uint64).ravel()
        pub = self.public_of(owner)
        out = []
        for b in range(self.n_blocks(values.size)):
            out.append(self.backend.encrypt(values[b * n:(b + 1) * n], pub))
        return out

    def decrypt_blocks(self, cts: list, n_values: int) -> np.ndarray:
        out = np.concatenate([self.backend.decrypt(ct, self.keypair) for ct in cts])
        return out[:n_values]

    def send_cts(self, label: str, cts: list):
        payload = b"".join(self.backend.serialize(ct) for ct in cts)
        self.session.send(label, payload)

    def recv_cts(self, label: str) -> list:
        payload = self.session.recv(label)
        size = ct_bytes(self.he_params, 2)
        if len(payload) % size:
            raise ShapeMismatch("ciphertext frame is not block aligned")
        return [self.backend.deserialize(payload[i:i + size])
                for i in range(0, len(payload), size)]

    def send_array(self, label: str, arr: np.ndarray):
        self.session.send(label, np.ascontiguousarray(arr, dtype=np.uint64).tobytes())

    def recv_array(self, label: str) -> np.ndarray:
        return np.frombuffer(self.session.recv(label), dtype=np.uint64).copy()

    # -- slotwise block ops ------------------------------------------------------
    def blockwise(self, op, cts: list, flat: np.ndarray):
        """Apply a (ct, slot-vector) backend op block by block."""
        n = self.he_params.n
        return [op(ct, flat[b * n:(b + 1) * n]) for b, ct in enumerate(cts)]


def make_party(role: str, session: Session, cfg: Config, seed: int = 0) -> PartyCtx:
    """Handshake parameters, exchange public keys, return a ready context."""
    blob = cfg.he.param_hash() + bytes([cfg.fixedpoint.k, cfg.fixedpoint.s])
    session.handshake(blob)
    ctx = PartyCtx(role, session, cfg, seed)
    ctx.exchange_keys()
    return ctx


# ---------------------------------------------------------------------------
# masked row-sum exchange
# ---------------------------------------------------------------------------

def _row_sums(flat: np.ndarray, shape: tuple, p: int) -> np.ndarray:
    return flat.reshape(shape).sum(axis=1) % np.uint64(p)


def send_masked_rows(ctx: PartyCtx, label: str, cts: list, shape: tuple):
    """Party A's half of the masked row-sum exchange: blind the m x d slot
    matrix of ``cts`` (under B's key) with a fresh mask r and send it with
    A's encryption of the row sums of r."""
    r = ctx.rand_field(shape[0] * shape[1])
    masked = ctx.blockwise(ctx.backend.add_pt, cts, r)
    ctx.send_cts(label, masked + ctx.encrypt_blocks(_row_sums(r, shape, ctx.fp.p), "A"))


def recv_masked_row_sums(ctx: PartyCtx, label: str, shape: tuple) -> list:
    """Party B's half: decrypt the blinded matrix, sum its rows and remove
    the mask under A's key.  Returns A-key ciphertexts of the row sums."""
    got = ctx.recv_cts(label)
    blocks = ctx.n_blocks(shape[0] * shape[1])
    masked = ctx.decrypt_blocks(got[:blocks], shape[0] * shape[1])
    sums = _row_sums(masked, shape, ctx.fp.p)
    return ctx.blockwise(ctx.backend.add_pt,
                         [ctx.backend.neg_ct(c) for c in got[blocks:]], sums)
