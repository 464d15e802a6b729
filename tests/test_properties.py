"""Property tests: the wire codec, send/receive flows sharing a session, and
a responder's session lifecycle, over inputs generated by hypothesis. Skipped where hypothesis is not
installed."""

import random
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import AFTER_GC_US, FakeSession, Responder, snapshot  # noqa: E402
from rtmfpsim import wire  # noqa: E402
from rtmfpsim.engine import HANDSHAKE_SID, S_CLOSED, S_RHELLO_SENT  # noqa: E402
from rtmfpsim.flows import ST_IN_FLIGHT, Message, RecvFlow, SendFlow, fill_packet  # noqa: E402

# Derandomized, so that every run tries the same examples and a failure
# replays; no example database is written.
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
MTU_PAYLOAD = 1472
CHUNK_CAP = MTU_PAYLOAD - wire.PACKET_HEADER - wire.CHUNK_HEADER

u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)

data_chunks = st.builds(
    wire.DataChunk, flow_id=u16, seq=u32,
    frag=st.sampled_from((wire.FRAG_WHOLE, wire.FRAG_FIRST, wire.FRAG_MIDDLE,
                          wire.FRAG_LAST)),
    time_critical=st.booleans(), payload=st.binary(min_size=1, max_size=CHUNK_CAP))
ack_chunks = st.builds(
    wire.AckChunk, flow_id=u16, cum_ack=u32,
    gaps=st.lists(st.tuples(u32, u32), max_size=12), adv_buffer=u32)
handshake_chunks = st.builds(
    wire.HandshakeChunk, kind=st.sampled_from(wire.HANDSHAKE_TYPES), epd=u32, sid=u32,
    cookie=st.binary(max_size=wire.COOKIE_LEN))
packets = st.builds(
    wire.Packet, session_id=u32, flags=st.integers(0, 0xFF), timestamp=u16, ts_echo=u16,
    chunks=st.lists(st.one_of(data_chunks, ack_chunks, handshake_chunks,
                              st.just(wire.CloseChunk())), min_size=1, max_size=6))


@st.composite
def damaged_encodings(draw):
    """A valid encoding, cut short and with some bytes overwritten."""
    buf = bytearray(wire.encode(draw(packets)))
    del buf[draw(st.integers(0, len(buf))):]
    for _ in range(draw(st.integers(0, 4))):
        if buf:
            buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 0xFF))
    return bytes(buf)


@SETTINGS
@given(st.one_of(st.binary(max_size=400), damaged_encodings()))
def test_any_bytes_decode_or_raise_decode_error(buf):
    try:
        pkt = wire.decode(buf)
    except wire.DecodeError:
        return
    assert pkt.chunks


@SETTINGS
@given(packets)
def test_decode_inverts_encode_and_size_is_header_plus_chunks(pkt):
    buf = wire.encode(pkt)
    assert len(buf) == 12 + sum(10 + c.body_len() for c in pkt.chunks)
    assert len(buf) == wire.encoded_size(pkt)
    assert wire.decode(buf) == pkt


def transfer(flows, drop, dup, rng, max_steps=20_000):
    """Send flow i's payloads, for each (time_critical, payloads) of `flows`,
    through a channel that drops, duplicates and reorders packets both ways;
    -> the messages the receiver read, per flow.

    Every data packet and ack goes through the wire codec, and each packet is
    filled under a payload budget drawn at random, so some fills find nothing
    that fits. Every fill that returns None must leave the session as it was.
    When nothing is in the channel, the receiver sends its pending acks or,
    failing that, the sender retransmits everything in flight, as the engine's
    delayed-ack and retransmission timers do. After every step each sender's
    flight is the payload of its chunks in flight, within what is outstanding.
    """
    senders = [SendFlow(i, tc, CHUNK_CAP) for i, (tc, _) in enumerate(flows)]
    receivers = [RecvFlow(i, rcv_buffer_size=1 << 20) for i in range(len(flows))]
    session = FakeSession(*senders)
    for sf, (_, payloads) in zip(senders, flows):
        for p in payloads:
            sf.enqueue_message(Message(p))
    channel: list[tuple[str, bytes]] = []

    def put(direction, chunks):
        if rng.random() < drop:
            return
        item = (direction, wire.encode(wire.Packet(1, chunks=chunks), MTU_PAYLOAD))
        channel.append(item)
        if rng.random() < dup:
            channel.append(item)

    def check_flight():
        for sf in senders:
            assert sf.flight_bytes == sum(len(c.payload) for c in sf.outstanding.values()
                                          if c.state == ST_IN_FLIGHT)
            assert 0 <= sf.flight_bytes <= sf.outstanding_payload

    got: list[list[bytes]] = [[] for _ in flows]
    for _ in range(max_steps):
        check_flight()
        while True:
            before = snapshot(session)
            chunks = fill_packet(session, MTU_PAYLOAD, rng.choice((None, rng.randrange(2000))))
            if chunks is None:
                assert snapshot(session) == before
                break
            put("data", chunks)
        check_flight()
        if not channel:
            pending = [rf for rf in receivers if rf.ack_pending()]
            for rf in pending:
                put("ack", [rf.make_ack(0)])
            if pending:
                continue
            if not any(sf.has_pending() for sf in senders):
                return got
            for sf in senders:
                sf.force_retransmit_all()
            continue
        direction, buf = channel.pop(rng.randrange(len(channel)))
        pkt = wire.decode(buf)
        if direction == "ack":
            for ack in pkt.chunks:
                senders[ack.flow_id].on_ack(ack, 0)
            continue
        touched = []
        for c in pkt.chunks:
            receivers[c.flow_id].on_data_chunk(c, 0)
            if receivers[c.flow_id] not in touched:
                touched.append(receivers[c.flow_id])
        for rf in touched:
            ack = rf.end_of_packet(0)
            if ack is not None:
                put("ack", [ack])
            got[rf.flow_id].extend(m.payload for m in rf.app_read())
    raise AssertionError(f"no completion in {max_steps} steps")


def payloads_of(sizes):
    return [i.to_bytes(4, "big") + bytes([i % 251]) * (n - 4) if n >= 4
            else bytes([i % 251]) * n for i, n in enumerate(sizes)]


@settings(SETTINGS, max_examples=100)
@given(sizes=st.lists(st.integers(1, 3 * CHUNK_CAP + 17), min_size=1, max_size=25),
       drop=st.floats(0.0, 0.3), dup=st.floats(0.0, 0.3),
       seed=st.integers(0, 2**32 - 1))
def test_flow_pair_delivers_every_message_once_in_order(sizes, drop, dup, seed):
    payloads = payloads_of(sizes)
    assert transfer([(False, payloads)], drop, dup, random.Random(seed)) == [payloads]


@settings(SETTINGS, max_examples=60)
@given(flows=st.lists(st.tuples(st.booleans(),
                                st.lists(st.integers(1, 3 * CHUNK_CAP + 17), max_size=15)),
                      min_size=2, max_size=3),
       drop=st.floats(0.0, 0.3), dup=st.floats(0.0, 0.3),
       seed=st.integers(0, 2**32 - 1))
def test_flows_sharing_a_session_each_deliver_once_in_order(flows, drop, dup, seed):
    sent = [(tc, payloads_of(sizes)) for tc, sizes in flows]
    got = transfer(sent, drop, dup, random.Random(seed))
    assert got == [payloads for _, payloads in sent]


# One step of a peer at host9:5000: an IHello under one of two session ids, an
# IIKeying or a Close to the n-th session the responder ever made, or a jump
# of the clock past the half-open GC.
lifecycle_steps = st.lists(st.one_of(
    st.tuples(st.just("ihello"), st.sampled_from((777, 778))),
    st.tuples(st.sampled_from(("iikeying", "close")), st.integers(0, 3)),
    st.tuples(st.just("gc"), st.just(0))), max_size=15)


def key(s):
    """The (address, session id, EPD) an IHello files a responder session under."""
    return (s.peer_address, s.peer_sid, s.local_epd)


@settings(SETTINGS, max_examples=100)
@given(lifecycle_steps)
def test_responder_lifecycle_keeps_one_session_per_key_and_reclaims_the_rest(steps):
    r = Responder()
    engine = r.engine
    seen = []  # every session the responder made, in order
    closed = []  # the sessions a Close chunk was sent to
    now = 0
    for op, arg in steps:
        now += AFTER_GC_US if op == "gc" else 1_000
        if op == "ihello":
            r.receive(HANDSHAKE_SID, wire.HandshakeChunk(wire.T_IHELLO, epd=2014, sid=arg), now)
        elif op == "gc":
            r.sim.run_until(now)
        elif seen:
            s = seen[arg % len(seen)]
            if op == "iikeying":
                chunk = wire.HandshakeChunk(wire.T_IIKEYING, sid=s.peer_sid)
            else:
                chunk = wire.CloseChunk()
                closed.append(s)
            r.receive(s.local_sid, chunk, now)
        seen += [s for s in engine.sessions.values() if s not in seen]
        live = Counter(key(s) for s in engine.sessions.values() if s.state != S_CLOSED)
        assert all(n == 1 for n in live.values())
        for s in seen:
            if s.state == S_RHELLO_SENT:
                assert engine.sessions[s.local_sid] is s
                assert engine._half_open[key(s)] is s
            elif s.state == S_CLOSED and s not in r.opened:
                assert engine.sessions.get(s.local_sid) is not s
                assert engine._half_open.get(key(s)) is not s
        # Only its peer closes a session that opened; the GC leaves it be.
        for s in r.opened:
            assert (s.state == S_CLOSED) == (s in closed)
