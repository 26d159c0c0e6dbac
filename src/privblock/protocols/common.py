"""Shared protocol machinery: the party context and encrypted vectors.

An encrypted vector (``CtVec``) is the one place that knows how a vector of
field values maps onto N-slot ciphertexts: one backend ciphertext per block,
the tail slots of the last block zero when encrypted.  An int operand is the
backend's constant polynomial and reaches the tail slots too, so a tail
slot holds zero or a value computed from public constants, never a secret
or a mask.  Protocols encrypt, operate on,
frame and decrypt whole vectors; ``PartyCtx.send_cts`` and ``recv_cts``
hold all ciphertext framing.  Both sides of a frame name its vectors' sizes
and the wire form of each (``hecore``): ``FRESH``, this party's own
encryptions, untouched by any operation, which go over the wire seeded, at
about half the size of a whole ciphertext; ``WHOLE``, any other computed
ciphertext at every limb; or ``REPLY``, a computed ciphertext under the
receiver's key, masked and switched down to ``reply_limbs`` for it to
decrypt (2 of 6 limbs at the defaults, a third of a whole one).  A frame
streams: the sender takes each vector from its iterable only as its chunk
fills, and the receiver reads each vector as it is taken.  Over TCP the
chunks hold the most whole ciphertexts that fit in ``CHUNK_BYTES`` (at
least one), so neither side holds a whole frame; on the in-process pair a
frame is one chunk.  ``recv_cts`` reads and meters the frame's header when
called, and rejects a frame that does not hold exactly the ciphertexts of
the sizes and forms it expects before reading any of its payload.  Every
other frame is capped at ``max_frame`` of the parameters.

Every protocol checks its input shares with ``PartyCtx.expect`` before any
frame moves, and is a chain of two conversions, each a method pair of
``PartyCtx``: ``send_masked``/``recv_decrypted`` turn a vector encrypted
under the peer's key into additive shares (this party keeps the masks, the
key holder decrypts the rest), and ``send_encrypted``/``recv_added``
turn shares back into a vector under the sender's key.  A product of two
shared values x*y needs no ciphertext*ciphertext product: a party
multiplies the peer's fresh encryptions of its shares (``recv_cts``, not
``recv_added``) by its own shares, the cross terms, and adds its local term
x_own*y_own in the clear; the key holder adds its own once it decrypts.
Layernorm and softmax form every product this way, and gelu its square,
cubes and quartics; gelu's selector-weighted sum (``CtVec.mul_ct_sum``) is
the one ciphertext*ciphertext product of any protocol.  A sum of
ciphertext*plaintext products, the weight party's matmul outputs,
layernorm's ratio, softmax's result and gelu's cube terms and tails, is a
``PtSum`` (``CtVec.mul_pt_sum``
for a list of terms): the backend's ``pt_sum`` per block, which joins
``mul_ct_sum`` as the second sum reduced once, not once per term.
``PartyCtx.mask`` draws every additive mask.  Every ciphertext a party
returns to its key holder leaves through the backend's ``reply``:
``send_masked``'s, ln's masked ratio and softmax's multiplicatively masked
denominator, a reply of no additive mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..channel import CapacityExceeded, Session, ShapeMismatch
from ..hecore import FRESH, REPLY, WHOLE, create_backend, ct_bytes, wire_form
from ..params import Config, FixedPointConfig, HeParams
from ..sharing import FIELD, GadgetProvider, Share

MAX_BLOCKS = 64
# a ciphertext frame moves in chunks of the most whole ciphertexts that fit
# in this many bytes, and at least one
CHUNK_BYTES = 8 << 20
# the most vectors of MAX_BLOCKS blocks one gadget frame carries: the bits
# of a comparison of a vector against this many constants
GADGET_FAN_IN = 8


class DegenerateRow(ValueError):
    pass


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def max_frame(he: HeParams) -> int:
    """The longest frame other than a ciphertext frame that a party sends
    under ``he``: a gadget frame, a tag byte and one word per value of
    ``GADGET_FAN_IN`` vectors of ``MAX_BLOCKS`` blocks."""
    return 1 + 8 * GADGET_FAN_IN * MAX_BLOCKS * he.n


@dataclass
class ProtocolOutputShares:
    """One party's protocol output: a share plus its numeric metadata."""

    share: Share
    shape: tuple
    scale: int

    def matrix(self):
        return self.share.payload.reshape(self.shape)


class CtVec:
    """A vector of ``size`` field values encrypted under one key, held as one
    backend ciphertext per N-slot block.

    The methods carry the backend's op names and apply that op block by
    block.  A plaintext operand is a vector of ``size`` values or one int,
    which the backend applies to every slot of every block as a constant
    polynomial (no transform); a ciphertext operand is a ``CtVec`` of the
    same size.
    """

    def __init__(self, ctx: "PartyCtx", cts, size: int):
        self.ctx = ctx
        self.cts = list(cts)
        self.size = size

    def _blocks(self, values) -> list:
        """A plaintext operand per block: an int as itself, a vector of
        ``size`` values (else ``ShapeMismatch``) as its N-slot slices."""
        if np.ndim(values) == 0:
            return [values] * len(self.cts)
        if np.shape(values) != (self.size,):
            raise ShapeMismatch(f"plaintext of shape {np.shape(values)} against "
                                f"an encrypted vector of {self.size} values")
        n = self.ctx.he_params.n
        return [values[b * n:(b + 1) * n] for b in range(len(self.cts))]

    def _with_pt(self, op, values) -> "CtVec":
        return CtVec(self.ctx, map(op, self.cts, self._blocks(values)), self.size)

    def _same_size(self, other: "CtVec"):
        if other.size != self.size:
            raise ShapeMismatch(f"encrypted vectors of {self.size} and "
                                f"{other.size} values")

    def _with_ct(self, op, other: "CtVec") -> "CtVec":
        self._same_size(other)
        return CtVec(self.ctx, map(op, self.cts, other.cts), self.size)

    def add_pt(self, values) -> "CtVec":
        return self._with_pt(self.ctx.backend.add_pt, values)

    def sub_pt(self, values) -> "CtVec":
        return self._with_pt(self.ctx.backend.sub_pt, values)

    def mul_pt(self, values) -> "CtVec":
        return self._with_pt(self.ctx.backend.mul_pt, values)

    def add_ct(self, other: "CtVec") -> "CtVec":
        return self._with_ct(self.ctx.backend.add_ct, other)

    @staticmethod
    def mul_ct_sum(pairs) -> "CtVec":
        """The sum of x*y over the (x, y) ``pairs`` of same-size vectors under
        one key, scaled and relinearized once per block."""
        pairs = list(pairs)
        first = pairs[0][0]
        for pair in pairs:
            for vec in pair:
                first._same_size(vec)
        ctx = first.ctx
        public = ctx.public_of(first.cts[0].owner)
        return CtVec(ctx, (ctx.backend.mul_ct_sum([(x.cts[b], y.cts[b]) for x, y in pairs],
                                                  public)
                           for b in range(len(first.cts))), first.size)

    @staticmethod
    def mul_pt_sum(terms) -> "CtVec":
        """The sum of x*pt over the (x, pt) ``terms``, vectors of one size
        under one key and their plaintext operands (``PtSum``)."""
        terms = list(terms)
        first = terms[0][0]
        total = PtSum(first.ctx, first.size)
        for vec, values in terms:
            total.add(vec, values)
        return total.result()

    def neg_ct(self) -> "CtVec":
        return CtVec(self.ctx, map(self.ctx.backend.neg_ct, self.cts), self.size)

    def reply(self, mask, form: str = REPLY) -> "CtVec":
        """This vector less ``mask``, for its key holder to decrypt, in wire
        form ``form``: ``REPLY`` (switched down) or ``WHOLE``."""
        backend = self.ctx.backend
        return self._with_pt(lambda ct, m: backend.reply(ct, m, form == WHOLE), mask)


class PtSum:
    """The sum of x*pt over encrypted vectors x of ``size`` values under one
    key and their plaintext operands pt, added one term at a time as the
    vectors arrive: one backend ``pt_sum`` per block, which checks each
    term as ``mul_pt`` and ``add_ct`` would and reduces lazily
    (``hecore.PtSum``)."""

    def __init__(self, ctx: "PartyCtx", size: int):
        self.ctx = ctx
        self.size = size
        self.sums = [ctx.backend.pt_sum() for _ in range(ctx.n_blocks(size))]

    def add(self, vec: CtVec, values):
        """Add vec * ``values``, a vector of ``size`` values or an int."""
        if vec.size != self.size:
            raise ShapeMismatch(f"encrypted vectors of {self.size} and {vec.size} values")
        for total, ct, pt in zip(self.sums, vec.cts, vec._blocks(values)):
            total.add(ct, pt)

    def result(self) -> CtVec:
        return CtVec(self.ctx, (total.result() for total in self.sums), self.size)


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
        session.max_frame = max_frame(cfg.he)
        self.keypair = None
        self.peer_public = None

    # -- key plumbing -------------------------------------------------------
    def exchange_keys(self):
        # only gelu's selector sum multiplies ciphertexts, B under A's key
        self.keypair = self.backend.keygen(self.role, with_relin=self.role == "A")
        other = self.session._exchange("keyexchange", self.keypair.public.to_bytes())
        self.peer_public = self.backend.parse_public_key(other)

    def public_of(self, owner: str):
        if self.keypair is not None and owner == self.role:
            return self.keypair.public
        return self.peer_public

    # -- vector helpers -------------------------------------------------------
    def mask(self, size: int, bits: int | None = None) -> np.ndarray:
        """A fresh additive mask: uniform mod p, or, with ``bits``, uniform
        below p - 2^(bits+1), the headroom the peer's ``lift_shift`` of a
        masked ``bits``-bit value needs."""
        high = self.fp.p if bits is None else self.fp.p - (1 << (bits + 1))
        return self.rng.integers(0, high, size=size, dtype=np.uint64)

    def field_share(self, payload) -> Share:
        return Share(FIELD, self.role, payload, self.fp.p)

    @staticmethod
    def expect(share: Share, domain: str, shape: tuple, what: str):
        """A protocol's entry check, the same on both parties before any
        frame moves: ``ShapeMismatch`` for a share of a domain other than
        ``domain``, a dimension of ``shape`` below 1, or a share length
        other than the product of ``shape``."""
        if share.domain != domain:
            raise ShapeMismatch(f"{what} expects {domain} shares, got {share.domain}")
        if min(shape) < 1:
            raise ShapeMismatch(f"{what}: shape {tuple(shape)} has a dimension below 1")
        if len(share) != math.prod(shape):
            raise ShapeMismatch(f"{what}: a share of {len(share)} values for shape "
                                f"{tuple(shape)}")

    # -- encrypted vectors --------------------------------------------------
    def n_blocks(self, n_values: int) -> int:
        blocks = ceil_div(n_values, self.he_params.n)
        if blocks > MAX_BLOCKS:
            raise CapacityExceeded(f"{n_values} values span {blocks} blocks")
        return blocks

    def encrypt(self, values) -> CtVec:
        """Encrypt a flat field vector under this party's own secret key."""
        n = self.he_params.n
        values = np.asarray(values, dtype=np.uint64).ravel()
        return CtVec(self, (self.backend.encrypt(values[b * n:(b + 1) * n], self.keypair)
                            for b in range(self.n_blocks(values.size))), values.size)

    def decrypt(self, vec: CtVec) -> np.ndarray:
        out = np.concatenate([self.backend.decrypt(ct, self.keypair) for ct in vec.cts])
        return out[:vec.size]

    def _layout(self, sizes, forms) -> list:
        """The (seeded, limbs) of each ciphertext of a frame of vectors of
        ``sizes`` values in the wire ``forms``, one per vector (none for
        every vector ``WHOLE``)."""
        forms = tuple(forms) or (WHOLE,) * len(sizes)
        if len(forms) != len(sizes):
            raise ShapeMismatch(f"{len(forms)} wire forms for {len(sizes)} vectors")
        return [wire_form(self.he_params, form) for size, form in zip(sizes, forms)
                for _ in range(self.n_blocks(size))]

    def _chunks(self, layout: list) -> list:
        """The widths of a frame's ciphertexts of the (seeded, limbs)
        ``layout``, split into the chunks the frame moves in: the most
        whole ciphertexts that fit in ``CHUNK_BYTES``, at least one, or one
        chunk on a transport that keeps its chunks."""
        widths = [ct_bytes(self.he_params, *form) for form in layout]
        if not self.session.copies_chunks:
            return [widths] if widths else []
        out = []
        for width in widths:
            if out and sum(out[-1]) + width <= CHUNK_BYTES:
                out[-1].append(width)
            else:
                out.append([width])
        return out

    def _cts_of(self, label: str, vecs, sizes, layout):
        """Yield the ciphertexts of the encrypted vectors ``vecs``, checking
        each vector as it is taken: ``ShapeMismatch`` for a vector of other
        than its size in ``sizes``, a ciphertext whose seed or limbs differ
        from its (seeded, limbs) in ``layout``, or a count of vectors other
        than ``len(sizes)``."""
        vecs, layout = iter(vecs), iter(layout)
        for size in sizes:
            vec = next(vecs, None)
            if vec is None:
                raise ShapeMismatch(f"{label}: fewer than {len(sizes)} encrypted vectors")
            if vec.size != size:
                raise ShapeMismatch(f"{label}: an encrypted vector of {vec.size} "
                                    f"values, expected {size}")
            for ct in vec.cts:
                seeded, limbs = next(layout)
                if (ct.seed is not None) != seeded:
                    raise ShapeMismatch(f"{label}: {'a ' if ct.seed else 'an un'}seeded "
                                        f"ciphertext in a {'non-' if ct.seed else ''}"
                                        f"fresh vector")
                if ct.limbs != limbs:
                    raise ShapeMismatch(f"{label}: a ciphertext of {ct.limbs} limbs in "
                                        f"a vector of {limbs}")
                yield ct
        if next(vecs, None) is not None:
            raise ShapeMismatch(f"{label}: more than {len(sizes)} encrypted vectors")

    def send_cts(self, label: str, vecs, *sizes: int, forms=()):
        """Send the encrypted vectors of ``vecs``, of ``sizes`` values, as
        one frame.  ``forms`` names the wire form of each vector (every
        vector ``WHOLE`` by default): only the ciphertexts of ``FRESH``
        vectors may be seeded, and a ciphertext must have the limbs of its
        vector's form.  A list or tuple is checked whole before a
        byte is sent.  Any other iterable (which must not use the session)
        is read, and each vector checked, only when the chunk it goes in is
        filled; so over TCP a bad vector past the first chunk raises after
        the header and the earlier chunks are on the wire, and the peer,
        holding a cut frame, sees ``PeerClosed`` once the sender closes.
        Each ciphertext is serialized in place into its slice of a
        zero-filled buffer, whose untouched padding pages cost no memory
        (``np.zeros`` is calloc).  Chunks bound memory only on a transport
        that copies each one out before the next, which then refills one
        buffer; the pair's queue keeps what it is given, so there the frame
        is one chunk."""
        layout = self._layout(sizes, forms)
        plan = self._chunks(layout)
        cts = self._cts_of(label, vecs, sizes, layout)
        if isinstance(vecs, (list, tuple)):
            cts = iter(list(cts))

        def chunks():
            buf, last = None, []
            for widths in plan:
                # a chunk laid out as the start of the last one rewrites the
                # same bytes of each slice, so a refilled buffer's padding
                # stays zero; any other layout takes a new buffer
                if widths != last[:len(widths)]:
                    buf, last = np.zeros(sum(widths), np.uint8), widths
                chunk, at = buf[:sum(widths)], 0
                for width in widths:
                    self.backend.serialize(next(cts), chunk[at:at + width])
                    at += width
                yield chunk
            next(cts, None)  # check that no vector is left over

        self.session.send(label, chunks(), length=sum(map(sum, plan)))

    def recv_cts(self, label: str, *sizes: int, forms=()):
        """Read the header of one frame, which meters it, and return an
        iterator of its encrypted vectors of ``sizes`` values, each read as
        it is taken.  ``forms`` is the sender's.  A frame of any other
        length raises ``ShapeMismatch`` here, before its payload is read,
        and a ciphertext seeded other than its form says, or of other
        limbs, ``MalformedBytes`` before its body is read."""
        layout = self._layout(sizes, forms)
        pieces = list(map(sum, self._chunks(layout)))
        chunks = self.session.recv_chunks(label, sum(pieces), pieces)

        def deserialized():
            forms = iter(layout)
            for chunk in chunks:
                at = 0
                while at < len(chunk):
                    form = next(forms)
                    width = ct_bytes(self.he_params, *form)
                    yield self.backend.deserialize(chunk[at:at + width], *form)
                    at += width

        cts = deserialized()
        return (CtVec(self, islice(cts, self.n_blocks(size)), size) for size in sizes)

    # -- HE <-> share conversions -------------------------------------------
    def send_masked(self, label: str, vecs, *sizes: int, bits: int | None = None,
                    form: str = REPLY) -> list:
        """Reply to the peer with each vector of ``vecs`` (under the peer's
        key, of ``sizes`` values) less a fresh ``mask(bits=bits)``, in wire
        form ``form``, in one ``send_cts`` frame: the replies of a list or
        tuple are formed and checked whole before a byte is sent, those of
        any other iterable as each is sent.  Return the masks: this party's
        shares."""
        masks = []

        def reply(vec):
            masks.append(self.mask(vec.size, bits))
            return vec.reply(masks[-1], form)

        replies = map(reply, vecs)
        if isinstance(vecs, (list, tuple)):
            replies = list(replies)
        self.send_cts(label, replies, *sizes, forms=[form] * len(sizes))
        return masks

    def recv_decrypted(self, label: str, *sizes: int, form: str = REPLY) -> list:
        """The peer's ``send_masked`` frame, each vector decrypted."""
        return [self.decrypt(vec)
                for vec in self.recv_cts(label, *sizes, forms=[form] * len(sizes))]

    def send_encrypted(self, label: str, *shares):
        """Encrypt each share under this party's key as it is sent in one
        frame, seeded."""
        self.send_cts(label, map(self.encrypt, shares), *map(len, shares),
                      forms=[FRESH] * len(shares))

    def recv_added(self, label: str, *shares) -> list:
        """The peer's ``send_encrypted`` frame, this party's share added to
        each vector: the shared values under the peer's key."""
        got = self.recv_cts(label, *map(len, shares), forms=[FRESH] * len(shares))
        return [vec.add_pt(sh) for vec, sh in zip(got, shares)]


def make_party(role: str, session: Session, cfg: Config, seed: int = 0) -> PartyCtx:
    """Handshake parameters, exchange public keys, return a ready context;
    the context caps the session's frames first."""
    ctx = PartyCtx(role, session, cfg, seed)
    session.handshake(cfg.fingerprint())
    ctx.exchange_keys()
    return ctx

