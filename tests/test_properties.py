"""Property tests: the event queue with cancels, the wire codec, send/receive
flows sharing a session, an app's send backlog against queueing every payload
at once, and a responder's handshake, over inputs generated by hypothesis.
Skipped where hypothesis is not installed."""

import hashlib
import random
from functools import partial
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import FakeSession, Responder, snapshot  # noqa: E402
from rtmfpsim import netsim, wire  # noqa: E402
from rtmfpsim.app import AppConfig, FlowSpec, RtmfpApp, make_payload  # noqa: E402
from rtmfpsim.engine import S_OPEN  # noqa: E402
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
    chunks=st.lists(st.one_of(data_chunks, ack_chunks, handshake_chunks),
                    min_size=1, max_size=6))


@st.composite
def event_plans(draw):
    """-> (fire times with many ties, canceller per event, run end). A
    canceller is None (never cancelled), -1 (cancelled before the run) or the
    index of the event whose action cancels it, which may fire before or
    after it, or be cancelled itself."""
    n = draw(st.integers(0, 30))
    times = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    cancellers = draw(st.lists(st.one_of(st.none(), st.integers(-1, n - 1)),
                               min_size=n, max_size=n))
    return times, cancellers, draw(st.integers(0, 6))


@settings(SETTINGS)
@given(event_plans())
def test_exactly_the_uncancelled_events_fire_in_fire_time_then_schedule_order(plan):
    times, cancellers, t = plan
    lines = []
    sim = netsim.Simulator(trace=lines.append)
    fired = []
    events = []
    cancels_of = {i: [j for j, k in enumerate(cancellers) if k == i]
                  for i in range(len(times))}

    def action(i, now):
        fired.append(i)
        for j in cancels_of[i]:
            sim.cancel(events[j])

    for i, at in enumerate(times):
        events.append(sim.schedule(at, "n", netsim.KIND_TIMER, partial(action, i), str(i)))
    for j, k in enumerate(cancellers):
        if k == -1:
            sim.cancel(events[j])

    expected = []
    cancelled = {j for j, k in enumerate(cancellers) if k == -1}
    for i in sorted(range(len(times)), key=lambda i: (times[i], i)):
        if times[i] <= t and i not in cancelled:
            expected.append(i)
            cancelled.update(cancels_of[i])
    assert sim.run_until(t) == len(expected)
    assert fired == expected
    assert sim.processed_events == len(lines) == len(expected)
    assert sim.now == t
    # Cancelling an event that has fired changes nothing.
    for i in expected:
        sim.cancel(events[i])
    sim.run_until(7)
    assert fired[:len(expected)] == expected
    assert sim.processed_events == len(lines) == len(fired)


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
            # Full: some flow's next chunk no longer fits in the packet.
            used = wire.PACKET_HEADER + sum(wire.CHUNK_HEADER + len(c.payload) for c in chunks)
            assert session.last_fill_was_full == any(
                c is not None and used + wire.CHUNK_HEADER + len(c.payload) > MTU_PAYLOAD
                for c in (sf.next_chunk() for sf in senders))
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
            got[rf.flow_id].extend(rf.app_read())
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


class QueueingSession(FakeSession):
    """An open initiator session: the surface an app's send side uses."""

    role = "initiator"
    state = S_OPEN

    def create_send_flow(self, flow_id, time_critical):
        f = self.send_flows[flow_id] = SendFlow(flow_id, time_critical, CHUNK_CAP)
        return f


class QueueingEngine:
    """The engine surface an app's send side uses. send_message only queues:
    the test fills packets itself."""

    host = SimpleNamespace(node_id="host1")

    def register_app(self, epd, app):
        pass

    def send_message(self, session, flow_id, payload, now):
        session.send_flows[flow_id].enqueue_message(payload)


class NextSize:
    """A size distribution that returns the size the test set last."""

    value = 1

    def sample(self, rng):
        return self.value


backlog_steps = st.lists(st.one_of(
    st.tuples(st.just("tick"), st.integers(1, 3 * CHUNK_CAP + 17)),
    st.tuples(st.just("fill"), st.integers(0, 3 * MTU_PAYLOAD)),
    st.tuples(st.just("ack"), st.integers(0, 1 << 16), st.booleans(),
              st.sampled_from((0, 2_000, 65_536)))), max_size=80)


@settings(SETTINGS, max_examples=150)
@given(backlog_steps)
def test_backlog_sends_what_queueing_every_payload_at_once_sends(steps):
    """An app's send side, whose flow builds each payload when it takes it,
    puts the same (seq, frag, bytes) stream on the wire and ends with the
    same send digest as a flow given make_payload(flow_id, i, size) at each
    tick, under any mix of ticks, packet fills and acks; and its flow runs
    out of unsent chunks only when the backlog is empty."""
    sizes = NextSize()
    app = RtmfpApp(netsim.Simulator(seed=1), QueueingEngine(), AppConfig(
        local_epd=1, flows=[FlowSpec(7, sizes, netsim.Dist.constant(10), 1 << 30)]))
    app.session_opened(QueueingSession(), 0)
    side, = app._send
    flow = side.flow
    ref = SendFlow(7, False, CHUNK_CAP)
    ref_session = FakeSession(ref)
    ref_hash = hashlib.sha256()
    for now, (op, *args) in enumerate(steps, 1):
        if op == "tick":
            sizes.value, = args
            payload = make_payload(7, side.stats.msgs, sizes.value)
            app.send_tick(side, now)
            ref.enqueue_message(Message(payload))
            ref_hash.update(payload)
        elif op == "fill":
            got, want = (fill_packet(s, MTU_PAYLOAD, args[0])
                         for s in (app.session, ref_session))
            assert ([(c.seq, c.frag, c.payload) for c in got or ()] ==
                    [(c.seq, c.frag, c.payload) for c in want or ()])
        else:
            x, gap, adv = args
            highest = ref.highest_sent_seq
            cum_ack = x % (highest + 1)
            gaps = [(cum_ack + 2, highest)] if gap and cum_ack + 2 <= highest else []
            for f in (flow, ref):
                f.on_ack(wire.AckChunk(7, cum_ack, gaps, adv), now)
        assert flow.unsent or not side.backlog
    assert app.finalize()[0].digest == ref_hash.hexdigest()


HOME = ("host9", 5000)
MOVED = ("host9", 5001)

# One step of a peer from initiator session 777 or 778: an IHello from
# host9:5000, or an IIKeying whose cookie is the one its RHello carried or a
# wrong one, from host9:5000 or, after a move, from host9:5001.
lifecycle_steps = st.lists(st.tuples(
    st.sampled_from(("ihello", "iikeying", "move")), st.sampled_from((777, 778)),
    st.booleans()), max_size=15)


@settings(SETTINGS, max_examples=100)
@given(lifecycle_steps)
def test_responder_opens_a_session_only_for_an_echoed_cookie(steps):
    r = Responder()
    engine = r.engine
    cookies = {}  # initiator sid -> the cookie its last RHello carried
    echoed = {}  # initiator sid -> the source of its last IIKeying answered
    unknown = 0
    answered = 0
    now = 0
    for op, sid, right in steps:
        now += 1_000
        sessions = dict(engine.sessions)
        if op == "ihello":
            n_rhellos = len(r.rhellos())
            r.ihello(sid, now)
            assert engine.sessions == sessions
            if sid in echoed:
                assert len(r.rhellos()) == n_rhellos
            else:
                cookies[sid] = r.rhellos()[-1].chunks[0].cookie
        else:
            src = HOME if op == "iikeying" else MOVED
            cookie = cookies.get(sid, wire.NO_COOKIE)
            if not (right and sid in cookies):
                cookie = cookie[:-1] + bytes([cookie[-1] ^ 1])
            r.iikeying(sid, cookie, now, src)
            # The cookie binds the address it was issued to, so only an open
            # session's cookie is answered from the moved address.
            if cookie == cookies.get(sid) and (sid in echoed or src == HOME):
                echoed[sid] = src
                answered += 1
            else:
                unknown += 1
        # One session per cookie, each at the source of its last IIKeying.
        assert sorted(engine._responders) == sorted(cookies[sid] for sid in echoed)
        assert len(engine.sessions) == len(echoed)
        assert {s.peer_sid: s.peer_address for s in engine.sessions.values()} == echoed
        assert len(r.rikeyings()) == answered
        assert engine.unknown_session == unknown
