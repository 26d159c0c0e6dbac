import resource
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privblock import channel
from privblock.channel import (FRAME_OVERHEAD, MAGIC, PROFILES,
                               HandshakeMismatch, IoError, NetworkProfile,
                               PeerClosed, TcpSession, connect, make_pair,
                               run_pair)
from privblock.hecore import FRESH, HEADER_BYTES, REPLY, WHOLE, MalformedBytes, ct_bytes
from privblock.modarith import mod, mulmod
from privblock.params import Config, toy_he_params
from privblock.protocols import ShapeMismatch, common
from privblock.protocols.common import PartyCtx


def test_fresh_session_zero_report():
    sa, _ = make_pair(PROFILES["lan"])
    rep = sa.report()
    assert rep.total_bytes == 0 and rep.message_count == 0
    assert rep.round_count == 0 and rep.simulated_time == 0.0


def test_frame_overhead_accounting():
    sa, sb = make_pair(PROFILES["lan"])
    sa.send("x", b"a" * 100)
    sb.recv("x")
    assert sa.report().bytes_sent["A"] == 100 + FRAME_OVERHEAD
    assert sb.report().bytes_sent["A"] == 100 + FRAME_OVERHEAD



def test_phase_qualifies_labels_and_pops_on_error():
    sa, sb = make_pair(PROFILES["lan"])
    with sa.phase("outer"):
        with sa.phase("inner"):
            sa.send("x", b"a")
        sa.charge("g", 1, 1, 1)
    with pytest.raises(RuntimeError):
        with sa.phase("failing"):
            raise RuntimeError("body failed")
    sa.send("y", b"b")
    assert [label for _, _, label in sa.transcript_labels()] == [
        "outer/inner/x", "outer/g", "y"]

def test_wan1_megabyte_message_time():
    """A message whose on-wire size is exactly 1 MB costs exactly
    0.010 + 8e6/400e6 = 0.030 s under the first WAN profile."""
    sa, sb = make_pair(PROFILES["wan1"])
    sa.send("payload", b"z" * (10 ** 6 - FRAME_OVERHEAD))
    sb.recv("payload")
    assert sa.report().simulated_time == pytest.approx(0.030, abs=0)
    assert sb.report().simulated_time == pytest.approx(0.030, abs=0)


def test_round_counting_alternations():
    sa, sb = make_pair(PROFILES["lan"])
    sa.send("m1", b"x")
    sb.recv("m1")
    sb.send("m2", b"y")
    sa.recv("m2")
    # two one-direction runs -> two rounds
    assert sa.report().round_count == 2
    sa.send("m3", b"p")
    sa.send("m4", b"q")
    sb.recv("m3")
    sb.recv("m4")
    # a same-direction burst adds a single round
    assert sa.report().round_count == 3


def test_frame_after_a_charge_opens_a_round():
    """A gadget charge sits between two same-direction frames, so the frame
    after it cannot share the round of the frame before it."""
    sa, sb = make_pair(PROFILES["lan"])
    sa.send("m1", b"x")
    sb.recv("m1")
    for sess in (sa, sb):
        sess.charge("gadget:test", 10, 10, 3)
    sa.send("m2", b"y")
    sb.recv("m2")
    assert sa.report().round_count == 2 + 3
    assert sa.report().to_dict() == sb.report().to_dict()


def test_scripted_transcript_totals():
    prof = PROFILES["wan2"]
    sa, sb = make_pair(prof)
    sizes = [100, 5000, 42]
    sa.send("s1", b"a" * sizes[0])
    sb.recv("s1")
    sb.send("s2", b"b" * sizes[1])
    sa.recv("s2")
    sa.send("s3", b"c" * sizes[2])
    sb.recv("s3")
    rep = sa.report()
    framed = [s + FRAME_OVERHEAD for s in sizes]
    assert rep.bytes_sent["A"] == framed[0] + framed[2]
    assert rep.bytes_sent["B"] == framed[1]
    assert rep.message_count == 3
    assert rep.round_count == 3
    want_time = sum(prof.latency + 8 * f / prof.bandwidth for f in framed)
    assert rep.simulated_time == pytest.approx(want_time, rel=1e-12)
    assert rep.to_dict() == sb.report().to_dict()


def test_charge_accounting():
    sa, _ = make_pair(PROFILES["wan1"])
    sa.charge("gadget:test", 600, 400, 7)
    rep = sa.report()
    assert rep.bytes_sent == {"A": 600, "B": 400}
    assert rep.round_count == 7
    want = 7 * 0.010 + 8 * 1000 / 400e6
    assert rep.simulated_time == pytest.approx(want, rel=1e-12)


def test_zero_charge_warns():
    sa, _ = make_pair(PROFILES["lan"])
    sa.charge("gadget:mystery", 0, 0, 0, warn_zero=True)
    assert sa.report().warnings


def test_tcp_loopback_echo():
    """A 1 MiB frame each way over loopback.  ``connect``'s timeout bounds
    only the wait for the connection: B computes for longer than it before
    echoing, and A waits instead of timing out."""
    prof = PROFILES["lan"]
    blob = b"params"
    payload = bytes(np.random.default_rng(0).integers(0, 256, 1 << 20, dtype=np.uint8))
    out = {}

    def server():
        sess = connect("B", ("127.0.0.1", 19731), prof, blob, timeout=0.5)
        data = sess.recv("blob")
        time.sleep(1.0)
        sess.send("echo", data)
        out["b"] = sess.report()
        sess.close()

    th = threading.Thread(target=server, daemon=True)
    th.start()
    sess = connect("A", ("127.0.0.1", 19731), prof, blob, timeout=0.5)
    sess.send("blob", payload)
    back = sess.recv("echo")
    th.join(timeout=10)
    sess.close()
    assert back == payload
    assert sess.report().to_dict() == out["b"].to_dict()


def _tcp_end():
    """A TcpSession around one end of a socket pair, and the raw other end."""
    ours, theirs = socket.socketpair()
    return TcpSession("B", PROFILES["lan"], ours), theirs


def test_tcp_bad_magic_raises_ioerror():
    sess, raw = _tcp_end()
    raw.sendall(b"XXXX" + struct.pack(">I", 3) + b"abc")
    with pytest.raises(IoError, match="magic"):
        sess.recv("x")
    sess.close()
    raw.close()


def test_tcp_truncated_payload_raises_peer_closed():
    sess, raw = _tcp_end()
    raw.sendall(MAGIC + struct.pack(">I", 100) + b"a" * 50)
    raw.close()
    with pytest.raises(PeerClosed):
        sess.recv("x")
    sess.close()


def test_tcp_unreservable_declared_length_is_an_io_error(monkeypatch):
    """A peer declaring 2^32 - 1 bytes and then closing fails the receiver
    with an I/O error, and the reserved buffer stays virtual: resident
    memory grows with the bytes that arrived, not with the declared length.
    A length that cannot be reserved at all is an I/O error too."""
    sess, raw = _tcp_end()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw.sendall(MAGIC + struct.pack(">I", 2 ** 32 - 1) + b"a" * 10)
    raw.close()
    with pytest.raises(IoError):
        sess.recv("x")
    grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    assert grown_kb < 64 * 1024
    sess.close()

    def no_memory(*args, **kwargs):
        raise MemoryError

    sess, raw = _tcp_end()
    raw.sendall(MAGIC + struct.pack(">I", 2 ** 32 - 1))
    monkeypatch.setattr(channel.np, "empty", no_memory)
    with pytest.raises(IoError, match="reserve"):
        sess.recv("x")
    sess.close()
    raw.close()


def _stream_ctx(role, sess, backend):
    cfg = Config(he=toy_he_params(n=64, p=137438822401, limbs=6), he_backend=backend)
    ctx = PartyCtx(role, sess, cfg, seed=7)
    ctx.keypair = ctx.backend.keygen(role)
    return ctx


def _session_pair(transport):
    if transport == "pair":
        return make_pair(PROFILES["lan"])
    ours, theirs = socket.socketpair()
    return TcpSession("A", PROFILES["lan"], ours), TcpSession("B", PROFILES["lan"], theirs)


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
def test_streamed_tcp_frames_are_the_serialized_ciphertexts(backend, monkeypatch):
    """Over TCP, a ciphertext frame of fewer ciphertexts than one chunk
    holds, of exactly one chunk and of a count that is not a multiple of
    it is the header and the ciphertexts' ``serialize`` output back to
    back, and a receiving ``TcpSession`` yields the same ciphertexts.  The
    frames mix seeded fresh vectors with unseeded ones, so a chunk's layout
    changes within a frame, and no chunk carries bytes of the one before."""
    ours, theirs = socket.socketpair()
    ctx = _stream_ctx("A", TcpSession("A", PROFILES["lan"], ours), backend)
    width = ct_bytes(ctx.he_params)
    monkeypatch.setattr(common, "CHUNK_BYTES", 3 * width)
    into, out = socket.socketpair()
    peer = _stream_ctx("B", TcpSession("B", PROFILES["lan"], out), backend)
    theirs.settimeout(10)
    for count in (2, 3, 7):
        sizes = [64] * (count - 2) + [100]  # the last vector spans two ciphertexts
        forms = [FRESH if k % 3 != 1 else WHOLE for k in range(len(sizes))]
        vecs = [ctx.encrypt(np.arange(size, dtype=np.uint64) * count) for size in sizes]
        vecs = [vec if f == FRESH else vec.add_pt(1) for vec, f in zip(vecs, forms)]
        ctx.send_cts("x", iter(vecs), *sizes, forms=forms)
        blobs = b"".join(ctx.backend.serialize(ct) for vec in vecs for ct in vec.cts)
        want = MAGIC + struct.pack(">I", len(blobs)) + blobs
        got = bytearray()
        while len(got) < len(want):
            got += theirs.recv(len(want) - len(got))
        assert got == want
        into.sendall(got)
        back = b"".join(peer.backend.serialize(ct)
                        for vec in peer.recv_cts("x", *sizes, forms=forms)
                        for ct in vec.cts)
        assert back == blobs
    assert peer.session.report().to_dict() == ctx.session.report().to_dict()
    for sock in (ours, theirs, into, out):
        sock.close()


@pytest.mark.parametrize("transport", ["pair", "tcp"])
def test_empty_ciphertext_frame_is_read_and_metered(transport):
    """A frame of no encrypted vectors is sent, read and metered like any
    other, so the frame after it is read in its place on both sides."""
    sa, sb = _session_pair(transport)
    ctx, peer = _stream_ctx("A", sa, "clear"), _stream_ctx("B", sb, "clear")
    x = np.arange(100, dtype=np.uint64)
    ctx.send_cts("none", [])
    ctx.send_cts("x", [ctx.encrypt(x)], 100, forms=[FRESH])
    assert list(peer.recv_cts("none")) == []
    [vec] = peer.recv_cts("x", 100, forms=[FRESH])
    assert (ctx.decrypt(vec) == x).all()
    assert sb.report().to_dict() == sa.report().to_dict()
    assert sa.report().bytes_sent["A"] == (2 * FRAME_OVERHEAD
                                           + 2 * ct_bytes(ctx.he_params, seeded=True))
    sa.close()
    sb.close()


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
@pytest.mark.parametrize("transport", ["pair", "tcp"])
def test_seeded_vectors_decrypt_after_a_round_trip(backend, transport):
    """A fresh vector of three blocks goes over the wire seeded, next to a
    computed one that goes whole; the receiver re-expands each seeded
    ciphertext to the sender's (c0, a) and it decrypts exactly."""
    sa, sb = _session_pair(transport)
    ctx, peer = _stream_ctx("A", sa, backend), _stream_ctx("B", sb, backend)
    x = np.random.default_rng(8).integers(0, ctx.fp.p, size=150, dtype=np.uint64)
    sent = [ctx.encrypt(x), ctx.encrypt(x[:70]).add_pt(5)]
    ctx.send_cts("x", sent, 150, 70, forms=(FRESH, WHOLE))
    got = list(peer.recv_cts("x", 150, 70, forms=(FRESH, WHOLE)))
    assert [ct.seed for ct in got[0].cts] == [ct.seed for ct in sent[0].cts]
    assert all(ct.seed is not None for ct in got[0].cts)
    assert all(ct.seed is None for ct in got[1].cts)
    for vec, want in zip(got, sent):
        for ct, ref in zip(vec.cts, want.cts):
            assert ctx.backend.serialize(ct) == ctx.backend.serialize(ref)
    assert (ctx.decrypt(got[0]) == x).all()
    assert (ctx.decrypt(got[1]) == (x[:70] + 5) % ctx.fp.p).all()
    width, fresh = ct_bytes(ctx.he_params), ct_bytes(ctx.he_params, seeded=True)
    assert sa.report().bytes_sent["A"] == FRAME_OVERHEAD + 3 * fresh + 2 * width
    sa.close()
    sb.close()


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
def test_misdeclared_seeded_frames_are_rejected(backend):
    """Over TCP, a frame whose seeded ciphertexts are not where the
    receiver expects them raises before it is read: ``ShapeMismatch`` when
    the frame length differs (a seeded vector where an unseeded one is
    expected, or the reverse; the payload stays unread), and
    ``MalformedBytes`` from the first header whose flag disagrees when the
    lengths cancel out."""
    ours, theirs = socket.socketpair()
    ctx = _stream_ctx("A", TcpSession("A", PROFILES["lan"], ours), backend)
    into, out = socket.socketpair()
    peer = _stream_ctx("B", TcpSession("B", PROFILES["lan"], out), backend)
    theirs.settimeout(10)
    out.settimeout(10)
    x = np.arange(64, dtype=np.uint64)
    fresh, computed = ctx.encrypt(x), ctx.encrypt(x).add_pt(1)

    def relay(vecs, flags):
        """Send ``vecs`` as A flags them; hand B the frame; return its payload."""
        ctx.send_cts("x", vecs, *[64] * len(vecs),
                     forms=[FRESH if f else WHOLE for f in flags])
        length = sum(ct_bytes(ctx.he_params, f) for f in flags)
        frame = bytearray()
        while len(frame) < FRAME_OVERHEAD + length:
            frame += theirs.recv(FRAME_OVERHEAD + length - len(frame))
        into.sendall(frame)
        return bytes(frame[FRAME_OVERHEAD:])

    for vec, flag in ((fresh, True), (computed, False)):
        payload = relay([vec], [flag])
        with pytest.raises(ShapeMismatch, match="bytes, expected"):
            list(peer.recv_cts("x", 64, forms=[WHOLE if flag else FRESH]))
        got = bytearray()
        while len(got) < len(payload):
            got += out.recv(len(payload) - len(got))
        assert got == payload  # unread by the receiver
    relay([fresh, computed, fresh], [True, False, True])
    with pytest.raises(MalformedBytes, match="a seeded ciphertext where an unseeded"):
        list(peer.recv_cts("x", 64, 64, 64, forms=[WHOLE, FRESH, FRESH]))
    for sock in (ours, theirs, into, out):
        sock.close()


def test_tcp_ciphertext_frame_length_is_checked_before_its_payload(monkeypatch):
    """A ciphertext frame declaring 2^32 - 1 bytes where 2 ciphertexts are
    expected raises ``ShapeMismatch`` before a payload buffer is reserved
    or a payload byte read: the bytes after the header stay unread."""
    ours, theirs = socket.socketpair()
    ctx = _stream_ctx("B", TcpSession("B", PROFILES["lan"], ours), "clear")
    theirs.sendall(MAGIC + struct.pack(">I", 0xFFFFFFFF) + b"payload")

    def no_reserve(*args, **kwargs):
        raise AssertionError("a payload buffer was reserved")

    monkeypatch.setattr(channel.np, "empty", no_reserve)
    with pytest.raises(ShapeMismatch, match="4294967295 bytes"):
        list(ctx.recv_cts("x", 100))
    monkeypatch.undo()
    ours.settimeout(10)
    assert ours.recv(64) == b"payload"
    ours.close()
    theirs.close()


def test_pair_chunks_are_produced_on_the_sender_thread():
    """The pair transport produces every chunk of a frame on the sender's
    thread; the receiver gets the chunks in order, and the frame is metered
    once, at its declared length, on both sides."""
    made = []

    def chunks():
        for i in range(3):
            made.append(threading.get_ident())
            yield bytes([i]) * (i + 1)

    def fa(sess):
        sess.send("x", chunks(), length=6)
        return threading.get_ident()

    def fb(sess):
        return [bytes(piece) for piece in sess.recv_chunks("x", 6)], sess.report()

    ident, (pieces, rep) = run_pair(fa, fb)
    assert made == [ident] * 3
    assert pieces == [b"\x00", b"\x01\x01", b"\x02\x02\x02"]
    assert rep.bytes_sent == {"A": FRAME_OVERHEAD + 6, "B": 0}


def test_pair_frame_is_one_queue_item():
    """A frame of three chunks is one item on the pair's queue, and the
    receiver iterates the three chunks from it."""
    sa, sb = make_pair(PROFILES["lan"])
    sa.send("x", (bytes([i]) * (i + 1) for i in range(3)), length=6)
    assert sb._inbox.qsize() == 1
    pieces = sb.recv_chunks("x", 6)
    assert sb._inbox.qsize() == 0
    assert [bytes(piece) for piece in pieces] == [b"\x00", b"\x01\x01", b"\x02\x02\x02"]


@pytest.mark.parametrize("transport", ["pair", "tcp"])
def test_recv_cts_meters_the_frame_before_a_vector_is_taken(transport):
    """``recv_cts`` reads the header of a two-vector frame and meters it on
    the call; the vectors are read as they are taken, after."""
    sa, sb = _session_pair(transport)
    ctx, peer = _stream_ctx("A", sa, "clear"), _stream_ctx("B", sb, "clear")
    x = np.arange(100, dtype=np.uint64)
    ctx.send_cts("x", [ctx.encrypt(x), ctx.encrypt(x[:64]).add_pt(1)], 100, 64,
                 forms=(FRESH, WHOLE))
    vecs = peer.recv_cts("x", 100, 64, forms=(FRESH, WHOLE))
    assert sb.report().to_dict() == sa.report().to_dict()
    width, fresh = ct_bytes(ctx.he_params), ct_bytes(ctx.he_params, seeded=True)
    assert sb.report().bytes_sent["A"] == FRAME_OVERHEAD + 2 * fresh + width
    first, second = vecs
    assert (ctx.decrypt(first) == x).all() and (ctx.decrypt(second) == x[:64] + 1).all()
    sa.close()
    sb.close()


@pytest.mark.parametrize("transport", ["pair", "tcp"])
def test_untaken_empty_frame_keeps_the_next_frame_in_order(transport):
    """An empty ciphertext frame whose ``recv_cts`` is never iterated is
    still read and metered, so the frame after it is read in order."""
    sa, sb = _session_pair(transport)
    ctx, peer = _stream_ctx("A", sa, "clear"), _stream_ctx("B", sb, "clear")
    x = np.arange(100, dtype=np.uint64)
    ctx.send_cts("none", [])
    ctx.send_cts("x", [ctx.encrypt(x)], 100, forms=[FRESH])
    peer.recv_cts("none")
    [vec] = peer.recv_cts("x", 100, forms=[FRESH])
    assert (ctx.decrypt(vec) == x).all()
    assert sb.report().to_dict() == sa.report().to_dict()
    assert [label for _, _, label in sb.transcript_labels()] == ["none", "x"]
    sa.close()
    sb.close()


def test_tcp_and_pair_meter_the_same_frame():
    payload = b"p" * 1000
    ours, theirs = socket.socketpair()
    tcp = (TcpSession("A", PROFILES["lan"], ours),
           TcpSession("B", PROFILES["lan"], theirs))
    for sa, sb in (tcp, make_pair(PROFILES["lan"])):
        sa.send("x", payload)
        assert sb.recv("x") == payload
        for sess in (sa, sb):
            assert sess.report().bytes_sent == {"A": FRAME_OVERHEAD + len(payload),
                                                "B": 0}
        sa.close()
        sb.close()


def test_tcp_frame_larger_than_socket_buffer():
    """A partial first write continues until header and payload are out."""
    ours, theirs = socket.socketpair()
    ours.settimeout(10)
    sa = TcpSession("A", PROFILES["lan"], ours)
    sb = TcpSession("B", PROFILES["lan"], theirs)
    payload = bytes(np.random.default_rng(1).integers(0, 256, 8 << 20, dtype=np.uint8))
    got = {}
    reader = threading.Thread(target=lambda: got.update(data=sb.recv("x")))
    reader.start()
    sa.send("x", payload)
    reader.join(timeout=10)
    assert not reader.is_alive() and got["data"] == payload
    sa.close()
    sb.close()


def test_handshake_mismatch_tcp():
    prof = PROFILES["lan"]
    errs = {}

    def server():
        try:
            connect("B", ("127.0.0.1", 19732), prof, b"paramsB")
        except HandshakeMismatch as e:
            errs["b"] = e

    th = threading.Thread(target=server, daemon=True)
    th.start()
    with pytest.raises(HandshakeMismatch):
        connect("A", ("127.0.0.1", 19732), prof, b"paramsA")
    th.join(timeout=10)
    assert "b" in errs


@pytest.mark.parametrize("cfg_name", ["toy_cfg", "rlwe_toy_cfg"])
def test_transport_independent_accounting(cfg_name, request):
    """The same protocol over TCP and over the in-process pair produces an
    identical cost report and identical output shares, on either backend
    (an rlwe key blob is parsed from the received TCP buffer)."""
    from privblock.protocols import make_party, pi_matmul
    from privblock.sharing import reconstruct

    cfg = request.getfixturevalue(cfg_name)
    a = np.arange(6, dtype=np.uint64).reshape(2, 3)
    b = np.arange(12, dtype=np.uint64).reshape(3, 4)

    def drive(sess, role):
        ctx = make_party(role, sess, cfg, seed=0)
        out = pi_matmul(ctx, a if role == "A" else b, (2, 3, 4))
        return out, sess.report()

    pair = run_pair(lambda s: drive(s, "A"), lambda s: drive(s, "B"), PROFILES["wan1"])

    tcp = {}
    blob = cfg.he.param_hash() + bytes([37, 12])

    def drive_tcp(role):
        sess = connect(role, ("127.0.0.1", 19733), PROFILES["wan1"], blob)
        tcp[role] = drive(sess, role)
        sess.close()

    th = threading.Thread(target=drive_tcp, args=("B",), daemon=True)
    th.start()
    drive_tcp("A")
    th.join(timeout=30)
    tcp = (tcp["A"], tcp["B"])
    for (out_p, rep_p), (out_t, rep_t) in zip(pair, tcp):
        assert rep_p.to_dict() == rep_t.to_dict()
        assert np.array_equal(out_p.share.payload, out_t.share.payload)
    assert np.array_equal(reconstruct(tcp[0][0].share, tcp[1][0].share).reshape(2, 4),
                          a @ b)


def test_repeat_handshake():
    """A session handshakes once: a repeat with the agreed fingerprint moves
    nothing, a repeat with another fingerprint raises without traffic."""
    def party(sess):
        sess.handshake(b"params")
        before = sess.report().to_dict()
        sess.handshake(b"params")
        assert sess.report().to_dict() == before
        with pytest.raises(HandshakeMismatch):
            sess.handshake(b"other")
        return sess.report()

    rep_a, rep_b = run_pair(party, party, PROFILES["lan"])
    assert rep_a.message_count == rep_b.message_count == 2


def test_run_pair_has_one_deadline(monkeypatch):
    """Both parties share one deadline: two parties that each run past it
    (but not past twice it) are a deadlock, not two separate waits, which
    would see both finish and return their results."""
    monkeypatch.setattr(channel, "RUN_PAIR_TIMEOUT_S", 0.5)

    def party(sess):
        time.sleep(0.9)
        return sess.role

    start = time.monotonic()
    with pytest.raises(IoError, match="deadlocked"):
        run_pair(party, party)
    assert time.monotonic() - start < 0.9


def test_run_pair_times_out_on_silence_not_on_length(monkeypatch):
    """The deadline counts from the last message moved: parties that
    exchange a frame every 0.1 s for 1 s outlive a 0.5 s timeout."""
    monkeypatch.setattr(channel, "RUN_PAIR_TIMEOUT_S", 0.5)

    def party(sess):
        for i in range(10):
            time.sleep(0.1)
            if sess.role == "A":
                sess.send("tick", bytes([i]))
            else:
                assert sess.recv("tick") == bytes([i])
        return sess.role

    assert run_pair(party, party) == ("A", "B")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10 ** 8), st.floats(0, 1), st.floats(1e6, 1e10))
def test_time_monotone(nbytes, latency, bandwidth):
    p1 = NetworkProfile("x", bandwidth, latency)
    assert p1.message_time(nbytes + 1) >= p1.message_time(nbytes)
    p2 = NetworkProfile("y", bandwidth, latency + 0.1)
    assert p2.message_time(nbytes) >= p1.message_time(nbytes)


def test_profile_validation():
    with pytest.raises(ValueError):
        NetworkProfile("bad", 0, 0)


def test_sent_and_charged_bytes_are_reported_apart():
    """Frames count as sent bytes, gadget charges as charged bytes, and the
    total is their sum; the per-party totals hold both."""
    sa, sb = make_pair(PROFILES["lan"])
    sa.send("x", b"abc")
    sa.charge("gadget:test", 600, 400, 7)
    assert sb.recv("x") == b"abc"
    rep = sa.report()
    assert (rep.sent_bytes, rep.charged_bytes) == (FRAME_OVERHEAD + 3, 1000)
    assert rep.total_bytes == sum(rep.bytes_sent.values()) == FRAME_OVERHEAD + 1003
    got = rep.to_dict()
    assert (got["sent_bytes"], got["charged_bytes"], got["total_bytes"]) == \
        (FRAME_OVERHEAD + 3, 1000, FRAME_OVERHEAD + 1003)


def test_declared_4gib_frame_is_refused_unreserved(monkeypatch):
    """Once a party context has set the configuration's cap, a peer that
    declares a frame of 4 GiB (the largest length field) where no frame
    length is expected gets ``IoError`` before any buffer is reserved or
    payload byte read, and a sender cannot send such a frame; the cap
    covers the public key and the handshake stays length-checked."""
    cfg = Config(he=toy_he_params(n=64, p=137438822401, limbs=6), he_backend="rlwe")
    sess, raw = _tcp_end()
    ctx = PartyCtx("B", sess, cfg, seed=1)
    assert sess.max_frame == common.max_frame(cfg.he)
    assert len(ctx.backend.keygen("B").public.to_bytes()) <= sess.max_frame
    assert 6 + 15 * (32 + 60 * cfg.he.n) < sess.max_frame  # a key at 15 limbs
    raw.sendall(MAGIC + struct.pack(">I", 2 ** 32 - 1) + b"payload")

    def no_buffer(*args, **kwargs):
        raise AssertionError("a buffer was reserved")

    monkeypatch.setattr(channel.np, "empty", no_buffer)
    with pytest.raises(IoError, match="not reserved"):
        sess.recv("_gadget", metered=False)
    assert sess._sock.recv(16) == b"payload"  # unread
    assert sess.report().message_count == 0
    monkeypatch.setattr(sess, "max_frame", 4)
    with pytest.raises(IoError, match="over the 4"):
        sess.send("x", b"12345")
    raw.setblocking(False)
    with pytest.raises(BlockingIOError):
        raw.recv(1)  # nothing was written
    sess.close()
    raw.close()


def test_handshake_of_another_length_is_refused_unread():
    """A peer fingerprint of another length is a ``HandshakeMismatch``
    before its payload is read."""
    sess, raw = _tcp_end()
    raw.sendall(MAGIC + struct.pack(">I", 2 ** 32 - 1) + b"xy")
    with pytest.raises(HandshakeMismatch, match="length"):
        sess.handshake(b"params")
    assert sess._sock.recv(16) == b"xy"
    sess.close()
    raw.close()


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
@pytest.mark.parametrize("transport", ["pair", "tcp"])
def test_replies_round_trip(backend, transport):
    """B replies to A's fresh vector of three blocks with its masked
    product: each ciphertext leaves switched down to ``reply_limbs`` and A
    decrypts shares of the product; a whole reply (no switch) round-trips
    beside it."""
    sa, sb = _session_pair(transport)
    ctx, peer = _stream_ctx("A", sa, backend), _stream_ctx("B", sb, backend)
    p = ctx.fp.p
    x, w = np.random.default_rng(9).integers(0, p, size=(2, 150), dtype=np.uint64)
    ctx.send_encrypted("x", x)
    [vec] = peer.recv_cts("x", 150, forms=[FRESH])
    masks = peer.send_masked("y", [vec.mul_pt(w)], 150)
    [whole] = peer.send_masked("z", [vec.add_pt(w)], 150, form=WHOLE)
    [got] = list(ctx.recv_cts("y", 150, forms=[REPLY]))
    assert [ct.limbs for ct in got.cts] == [2, 2, 2]
    assert np.array_equal(mod(ctx.decrypt(got) + masks[0], p), mulmod(x, w, p))
    [share] = ctx.recv_decrypted("z", 150, form=WHOLE)
    assert np.array_equal(mod(share + whole, p), mod(x + w, p))
    reply, full = ct_bytes(ctx.he_params, limbs=2), ct_bytes(ctx.he_params)
    assert reply == HEADER_BYTES + 2 * 2 * 64 * 4
    assert sb.report().bytes_sent["B"] == 2 * FRAME_OVERHEAD + 3 * reply + 3 * full
    assert sa.report().to_dict() == sb.report().to_dict()
    sa.close()
    sb.close()


@pytest.mark.parametrize("backend", ["clear", "rlwe"])
def test_misdeclared_reply_frames_are_rejected(backend):
    """Over TCP, a reply frame read as whole (or the reverse) raises
    ``ShapeMismatch`` on its length before a payload byte is read; where
    the lengths cancel, the first header whose limb count disagrees raises
    ``MalformedBytes``.  A sender cannot put a whole ciphertext in a reply
    vector."""
    ours, theirs = socket.socketpair()
    ctx = _stream_ctx("A", TcpSession("A", PROFILES["lan"], ours), backend)
    into, out = socket.socketpair()
    peer = _stream_ctx("B", TcpSession("B", PROFILES["lan"], out), backend)
    theirs.settimeout(10)
    out.settimeout(10)
    x = np.arange(64, dtype=np.uint64)
    whole = ctx.encrypt(x).add_pt(1)
    reply = whole.reply(x)

    def relay(vecs, forms):
        ctx.send_cts("x", vecs, *[64] * len(vecs), forms=forms)
        length = sum(len(ctx.backend.serialize(ct)) for vec in vecs for ct in vec.cts)
        frame = bytearray()
        while len(frame) < FRAME_OVERHEAD + length:
            frame += theirs.recv(FRAME_OVERHEAD + length - len(frame))
        into.sendall(frame)
        return bytes(frame[FRAME_OVERHEAD:])

    for vec, form, other in ((reply, REPLY, WHOLE), (whole, WHOLE, REPLY)):
        payload = relay([vec], [form])
        with pytest.raises(ShapeMismatch, match="bytes, expected"):
            list(peer.recv_cts("x", 64, forms=[other]))
        got = bytearray()
        while len(got) < len(payload):
            got += out.recv(len(payload) - len(got))
        assert got == payload  # unread by the receiver
    relay([reply, whole], [REPLY, WHOLE])
    with pytest.raises(MalformedBytes, match="2 limbs where 6 are expected"):
        list(peer.recv_cts("x", 64, 64, forms=[WHOLE, REPLY]))
    with pytest.raises(ShapeMismatch, match="6 limbs in a vector of 2"):
        ctx.send_cts("y", [whole], 64, forms=[REPLY])
    for sock in (ours, theirs, into, out):
        sock.close()
