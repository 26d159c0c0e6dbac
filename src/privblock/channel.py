"""Two-party transport with byte/round accounting and simulated network timing.

A ``Session`` is one side of one logical conversation.  Both endpoints log
every metered message with a step label and ``FRAME_OVERHEAD + length``
bytes, so a finished run yields identical ``CostReport`` objects on both sides
on either transport: the in-process pair queues a frame as one item, its
length and its chunks, and only TCP writes ``magic(4) | length(4,
big-endian) | payload``.  A frame is a stream of chunks.  ``send`` declares
the length, then writes each buffer its iterable yields before the next one
is produced (``PartyCtx.send_cts`` serializes a few ciphertexts into each;
TCP sends the header with the first in one ``sendmsg``).  ``recv_chunks``
reads the header when called, rejects a length other than the one the
receiver expects before it reserves or reads a payload byte, meters the
frame, and returns an iterator of its payload: TCP ``recv_into``s each
piece, of the lengths the receiver asks for, into one reused buffer, one
kernel-to-user copy.  A single buffer is the one-chunk case of ``send``,
and ``recv`` returns a whole frame as a memoryview on both transports.
A frame of no expected length (any but a ciphertext frame) longer than
the session's ``max_frame``, once a party context sets it, raises
``IoError`` on either side: the sender's before it writes a byte, the
receiver's before it reserves or reads one.
Simulated time is computed analytically from the transcript: ``latency +
8 * frame_bytes / bandwidth`` per message along the (sequential) critical
path, never by sleeping.
"""

from __future__ import annotations

import socket
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from queue import Queue

import numpy as np

MAGIC = b"PBF1"
FRAME_OVERHEAD = 8  # 4-byte magic + 4-byte length
RUN_PAIR_TIMEOUT_S = 600.0  # run_pair fails once no message has moved this long

A, B = "A", "B"


class IoError(OSError):
    pass


class PeerClosed(IoError):
    pass


class HandshakeMismatch(ValueError):
    pass


class ShapeMismatch(ValueError):
    """A message or operand whose size is not the one the protocol expects."""


class CapacityExceeded(ValueError):
    """A call wider than the frames this configuration sends."""


@dataclass(frozen=True)
class NetworkProfile:
    """Link model: bits/second bandwidth and one-way latency in seconds."""

    name: str
    bandwidth: float
    latency: float

    def __post_init__(self):
        if self.bandwidth <= 0 or self.latency < 0:
            raise ValueError("bandwidth must be > 0 and latency >= 0")

    def message_time(self, nbytes: int) -> float:
        return self.latency + 8.0 * nbytes / self.bandwidth


PROFILES = {
    "lan": NetworkProfile("lan", 1_000_000_000, 0.0002),
    "wan1": NetworkProfile("wan1", 400_000_000, 0.010),
    "wan2": NetworkProfile("wan2", 200_000_000, 0.040),
}


@dataclass
class CostReport:
    """Accounting for one session: bytes per party, messages, rounds, time.

    ``phases`` maps step label -> {bytes_a, bytes_b, messages, rounds,
    sim_time, warnings}.  Rounds are direction alternations over real frames
    plus the declared round counts of charged gadget invocations.  Bytes
    are those of frames that crossed the session (``sent_bytes``) plus the
    cost-table charges of gadgets (``charged_bytes``), which move none.
    """

    bytes_sent: dict = field(default_factory=lambda: {A: 0, B: 0})
    sent_bytes: int = 0
    charged_bytes: int = 0
    message_count: int = 0
    round_count: int = 0
    simulated_time: float = 0.0
    phases: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.sent_bytes + self.charged_bytes

    def bytes_for(self, label_prefix: str) -> int:
        return sum(ph["bytes_a"] + ph["bytes_b"]
                   for lbl, ph in self.phases.items()
                   if lbl.startswith(label_prefix))

    def to_dict(self) -> dict:
        return {
            "bytes_a": self.bytes_sent[A],
            "bytes_b": self.bytes_sent[B],
            "sent_bytes": self.sent_bytes,
            "charged_bytes": self.charged_bytes,
            "total_bytes": self.total_bytes,
            "message_count": self.message_count,
            "round_count": self.round_count,
            "simulated_time": self.simulated_time,
            "phases": self.phases,
            "warnings": list(self.warnings),
        }


class _Ledger:
    """Shared transcript bookkeeping for one endpoint."""

    def __init__(self, profile: NetworkProfile):
        self.profile = profile
        self.entries = []  # (kind, direction, label, nbytes, rounds)

    def log_frame(self, direction: str, label: str, nbytes: int):
        self.entries.append(("frame", direction, label, nbytes, 0))

    def log_charge(self, label: str, bytes_ab: int, bytes_ba: int, rounds: int, warn: bool):
        self.entries.append(("charge", "AB", label, (bytes_ab, bytes_ba), rounds))
        if warn:
            self.entries.append(("warn", "", label, 0, 0))

    def report(self) -> CostReport:
        rep = CostReport()
        prev_dir = None
        for kind, direction, label, nbytes, rounds in self.entries:
            ph = rep.phases.setdefault(label, {
                "bytes_a": 0, "bytes_b": 0, "messages": 0, "rounds": 0,
                "sim_time": 0.0,
            })
            if kind == "frame":
                sender = direction
                rep.bytes_sent[sender] += nbytes
                rep.sent_bytes += nbytes
                ph["bytes_a" if sender == A else "bytes_b"] += nbytes
                rep.message_count += 1
                ph["messages"] += 1
                # a round is a maximal run of same-direction messages
                if direction != prev_dir:
                    rep.round_count += 1
                    ph["rounds"] += 1
                prev_dir = direction
                t = self.profile.message_time(nbytes)
                rep.simulated_time += t
                ph["sim_time"] += t
            elif kind == "charge":
                ba, bb = nbytes
                rep.bytes_sent[A] += ba
                rep.bytes_sent[B] += bb
                rep.charged_bytes += ba + bb
                ph["bytes_a"] += ba
                ph["bytes_b"] += bb
                rep.round_count += rounds
                ph["rounds"] += rounds
                prev_dir = None  # the next frame opens a round of its own
                t = rounds * self.profile.latency + 8.0 * (ba + bb) / self.profile.bandwidth
                rep.simulated_time += t
                ph["sim_time"] += t
            else:
                rep.warnings.append(f"zero-cost gadget charge under label {label!r}")
        return rep


class Session:
    """One party's endpoint of a two-party conversation.

    Subclasses move payloads; this class provides labeling, accounting, and
    virtual gadget charges.  One driver thread per session; distinct
    sessions are independent.
    """

    # whether each chunk handed to ``send`` is copied out before the next is
    # produced, so that its buffer may be refilled
    copies_chunks = False
    # the longest frame of no expected length either side accepts (see
    # ``protocols.common.max_frame``); None until a party context sets it
    max_frame = None

    def __init__(self, role: str, profile: NetworkProfile):
        assert role in (A, B)
        self.role = role
        self.peer_role = B if role == A else A
        self.profile = profile
        self.ledger = _Ledger(profile)
        self._label_stack = []
        self._agreed = None  # the fingerprint both parties handshook on

    # -- frame transport, provided by subclass -------------------------------
    def _send_chunks(self, length: int, chunks):
        """Write one frame of ``length`` bytes, the buffers ``chunks`` yields."""
        raise NotImplementedError

    def _recv_frame(self, pieces: list | None):
        """The next frame's declared payload length, and an iterator of its
        payload (pieces of the lengths in ``pieces`` if they sum to that
        length, or one piece, where the transport chooses), read as it is
        iterated."""
        raise NotImplementedError

    def close(self):
        pass

    # -- labeling and accounting -------------------------------------------
    def _qualify(self, label: str) -> str:
        if self._label_stack:
            return self._label_stack[-1] + "/" + label
        return label

    def push_phase(self, prefix: str):
        self._label_stack.append(self._qualify(prefix))

    def pop_phase(self):
        self._label_stack.pop()

    @contextmanager
    def phase(self, prefix: str):
        """Qualify every label inside the ``with`` block by ``prefix``."""
        self.push_phase(prefix)
        try:
            yield
        finally:
            self.pop_phase()

    def send(self, label: str, payload, metered: bool = True, length: int | None = None):
        """Send one frame: the buffer ``payload``, or, given the frame's
        ``length``, the buffers of the iterable ``payload`` (its chunks),
        each written before the next is produced, on this thread, so the
        sender's work stays on the sender's thread."""
        if length is None:
            payload, length = [payload], len(payload)
            self._check_cap(label, length)
        self._send_chunks(length, payload)
        if metered:
            self.ledger.log_frame(self.role, self._qualify(label),
                                  FRAME_OVERHEAD + length)

    def recv_chunks(self, label: str, length: int | None = None,
                    pieces: list | None = None, metered: bool = True):
        """Read the next frame's header, meter the frame, and return an
        iterator of its payload in order as memoryviews: over TCP pieces of
        the lengths in ``pieces`` if they sum to the declared length, else
        one piece, read into one buffer that the next piece overwrites, and
        the sender's chunks on the pair.  A declared length other than
        ``length`` raises ``ShapeMismatch`` before a payload byte is
        reserved or read."""
        declared, chunks = self._recv_frame(pieces)
        if length is None:
            self._check_cap(label, declared)
        elif declared != length:
            raise ShapeMismatch(f"{self._qualify(label)}: a frame of {declared} "
                                f"bytes, expected {length}")
        if metered:
            self.ledger.log_frame(self.peer_role, self._qualify(label),
                                  FRAME_OVERHEAD + declared)
        return chunks

    def _check_cap(self, label: str, length: int):
        if self.max_frame is not None and length > self.max_frame:
            raise IoError(f"{self._qualify(label)}: a frame of {length} bytes, over the "
                          f"{self.max_frame} this configuration sends; not reserved")

    def recv(self, label: str, metered: bool = True,
             length: int | None = None) -> memoryview:
        """The whole payload, in a buffer of its own: it slices and compares
        like bytes; take ``bytes()`` of a slice to decode it.  ``length``,
        if given, is the one length accepted (see ``recv_chunks``)."""
        pieces = list(self.recv_chunks(label, length, metered=metered))
        return pieces[0] if len(pieces) == 1 else memoryview(b"".join(pieces))

    def charge(self, label: str, bytes_ab: int, bytes_ba: int, rounds: int,
               warn_zero: bool = False):
        """Account a virtual cost (ideal-gadget traffic) without moving bytes."""
        self.ledger.log_charge(self._qualify(label), bytes_ab, bytes_ba, rounds,
                               warn_zero)

    def report(self) -> CostReport:
        return self.ledger.report()

    def transcript_labels(self) -> list:
        """(kind, direction, label) triples of the metered transcript."""
        return [(k, d, l) for k, d, l, _, _ in self.ledger.entries if k != "warn"]

    # -- handshake ---------------------------------------------------------
    def _exchange(self, label: str, blob: bytes, length: int | None = None) -> memoryview:
        """Swap ``blob`` for the peer's (of ``length`` bytes, if given), A
        sending first."""
        if self.role == A:
            self.send(label, blob)
            return self.recv(label, length=length)
        other = self.recv(label, length=length)
        self.send(label, blob)
        return other

    def handshake(self, params_blob: bytes):
        """Exchange a parameter fingerprint once; abort on mismatch, a peer
        frame of another length before it is read.  A repeat call moves
        nothing, and raises unless its fingerprint is the agreed one."""
        if self._agreed is not None:
            if params_blob != self._agreed:
                raise HandshakeMismatch("fingerprint differs from the one agreed")
            return
        try:
            other = self._exchange("handshake", params_blob, len(params_blob))
        except ShapeMismatch as e:
            raise HandshakeMismatch(f"parameter fingerprints differ in length: {e}") from e
        if other != params_blob:
            raise HandshakeMismatch("parameter fingerprints differ between parties")
        self._agreed = bytes(params_blob)


class PairSession(Session):
    """In-process session backed by a pair of queues: one item a frame, its
    length and its chunks."""

    def __init__(self, role, profile, inbox: Queue, outbox: Queue):
        super().__init__(role, profile)
        self._inbox = inbox
        self._outbox = outbox
        self.last_io = time.monotonic()  # when a message last moved

    def _put(self, item):
        self._outbox.put(item)
        self.last_io = time.monotonic()

    def _get(self):
        item = self._inbox.get()
        self.last_io = time.monotonic()
        if item is None:
            raise PeerClosed("peer closed the pair")
        return item

    def _send_chunks(self, length, chunks):
        self._put((length, list(chunks)))

    def _recv_frame(self, pieces):
        length, chunks = self._get()
        return length, map(memoryview, chunks)

    def close(self):
        self._outbox.put(None)


def make_pair(profile: NetworkProfile) -> tuple[PairSession, PairSession]:
    qa, qb = Queue(), Queue()
    return (PairSession(A, profile, inbox=qa, outbox=qb),
            PairSession(B, profile, inbox=qb, outbox=qa))


class TcpSession(Session):
    """TCP-backed session; it alone writes and checks each frame's header."""

    copies_chunks = True

    def __init__(self, role, profile, sock: socket.socket):
        super().__init__(role, profile)
        self._sock = sock

    def _send_chunks(self, length, chunks):
        head = MAGIC + struct.pack(">I", length)
        try:
            for chunk in chunks:
                body = memoryview(chunk)
                # the header goes out in one write with the first chunk;
                # no chunk is copied
                n = self._sock.sendmsg([head, body])
                if n < len(head):
                    self._sock.sendall(head[n:])
                if n < len(head) + len(body):
                    self._sock.sendall(body[max(n - len(head), 0):])
                head = b""
            if head:
                self._sock.sendall(head)
        except OSError as e:
            raise IoError(str(e)) from e

    def _recv_into(self, view: memoryview):
        got = 0
        while got < len(view):
            n = self._sock.recv_into(view[got:])
            if not n:
                raise PeerClosed("connection closed mid-frame")
            got += n

    def _recv_frame(self, pieces):
        head = bytearray(FRAME_OVERHEAD)
        self._recv_into(memoryview(head))
        if head[:4] != MAGIC:
            raise IoError("bad frame magic")
        (length,) = struct.unpack(">I", head[4:])
        if not pieces or sum(pieces) != length:
            pieces = [length] * bool(length)
        return length, self._pieces(length, pieces)

    def _pieces(self, length, pieces):
        try:
            # reserved virtually: pages become resident as the payload lands
            buf = memoryview(np.empty(max(pieces, default=0), np.uint8))
        except MemoryError as e:
            raise IoError(f"cannot reserve a frame of {length} bytes") from e
        for size in pieces:
            piece = buf[:size]
            self._recv_into(piece)
            yield piece

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def connect(role: str, endpoint: tuple, profile: NetworkProfile,
            params_blob: bytes, timeout: float = 30.0) -> TcpSession:
    """Open a TCP session: role B listens, role A connects, retrying a
    refused connect after 50 us, doubling up to 50 ms: parties started
    together often find B not yet listening, and it is listening within
    well under a millisecond.  ``timeout`` bounds
    only the wait for the connection; the connected socket blocks, so a
    peer may compute for any time between frames.  The handshake exchanges
    ``params_blob``; a mismatch aborts the session.  Nagle is off, so the
    tail of a frame never waits for the ACK of the data before it."""
    host, port = endpoint
    if role == B:
        srv = socket.create_server((host, port))
        srv.settimeout(timeout)
        sock, _ = srv.accept()
        srv.close()
    else:
        deadline = time.monotonic() + timeout
        pause = 50e-6
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
                break
            except OSError as e:
                if time.monotonic() > deadline:
                    raise IoError(f"connect failed: {e}") from e
                time.sleep(pause)
                pause = min(2 * pause, 0.05)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sess = TcpSession(role, profile, sock)
    sess.handshake(params_blob)
    return sess


def run_pair(fn_a, fn_b, profile: NetworkProfile | None = None):
    """Drive two party functions over an in-process pair on two threads.

    Each function receives its Session; returns (result_a, result_b).
    A run in which no message has moved on either side for
    ``RUN_PAIR_TIMEOUT_S`` while a party still runs is a deadlock
    (``IoError``), however long the run has taken so far.
    Exceptions propagate to the caller.  A party that raises closes its
    session, so a peer blocked in ``recv`` fails with ``PeerClosed`` instead
    of waiting for the join timeout; the originating error is the one raised.
    """
    import threading

    profile = profile or PROFILES["lan"]
    sa, sb = make_pair(profile)
    out = {}
    err = {}

    def runner(name, fn, sess):
        try:
            out[name] = fn(sess)
        except BaseException as e:  # re-raised in the parent
            err[name] = e
            sess.close()

    ta = threading.Thread(target=runner, args=("a", fn_a, sa), daemon=True)
    tb = threading.Thread(target=runner, args=("b", fn_b, sb), daemon=True)
    ta.start()
    tb.start()
    for t in (ta, tb):
        while t.is_alive():
            idle_until = max(sa.last_io, sb.last_io) + RUN_PAIR_TIMEOUT_S
            if time.monotonic() >= idle_until:
                raise IoError("party driver deadlocked")
            t.join(timeout=max(idle_until - time.monotonic(), 0.0))
    errors = [err[name] for name in ("a", "b") if name in err]
    if errors:
        raise min(errors, key=lambda e: isinstance(e, PeerClosed))
    return out["a"], out["b"]
