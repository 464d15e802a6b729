"""Property tests: the event queue with cancels, the wire codec, send/receive
flows sharing a session, an app's lazy traffic source against an eager one,
a responder's handshake, a flow into a small receive buffer, the congestion
window's floors, the dumbbell's routes and the order of the cwnd log, over
inputs generated by hypothesis.
Skipped where hypothesis is not installed."""

import hashlib
import heapq
import random
from collections import deque
from functools import partial
from types import SimpleNamespace
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import FakeSession, Responder, snapshot  # noqa: E402
from rtmfpsim import engine as engine_mod  # noqa: E402
from rtmfpsim import netsim, wire  # noqa: E402
from rtmfpsim.app import FlowStats, RtmfpApp, make_payload  # noqa: E402
from rtmfpsim.cc import (MODE_DEFERRING, MODE_NORMAL, MODE_TIME_CRITICAL,  # noqa: E402
                         CongestionController)
from rtmfpsim.config import MIN_CC_MSS, AppConfig, FlowSpec, parse_config  # noqa: E402
from rtmfpsim.engine import CWND_HEADER, S_OPEN, CwndLog  # noqa: E402
from rtmfpsim.flows import (DEFAULT_ADV_BUFFER, ST_IN_FLIGHT, Message, RecvFlow,  # noqa: E402
                            SendFlow, fill_packet)
from rtmfpsim.harness import preset_points, run_config  # noqa: E402
from rtmfpsim.topology import build_bottleneck  # noqa: E402

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


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from((True, True, True, False))),
                max_size=60))
def test_cancelled_entries_never_outnumber_live_ones_and_order_holds(plan):
    """Mostly cancelled events, with many ties: the queue drops its cancelled
    entries once they outnumber the live ones, and the rest still fire in
    (fire time, schedule order)."""
    sim = netsim.Simulator()
    fired = []
    events = [sim.schedule(at, "n", netsim.KIND_TIMER, partial(lambda i, now: fired.append(i), i))
              for i, (at, _) in enumerate(plan)]
    live = len(plan)
    for ev, (_, cancel) in zip(events, plan):
        if cancel:
            sim.cancel(ev)
            live -= 1
            assert len(sim._heap) <= 2 * live
    sim.run_until(5)
    assert fired == sorted((i for i, (_, cancel) in enumerate(plan) if not cancel),
                           key=lambda i: (plan[i][0], i))


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
            ack = rf.end_of_packet()
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


class CreditEngine:
    """The engine surface an app's send side uses, over a window of payload
    credit that the test's drain events open. send_message queues and sends
    while credit lasts, as transmit_opportunity sends while the congestion
    window has room. Records each packet as (time, [(seq, frag, bytes)])."""

    host = SimpleNamespace(node_id="host1")

    def __init__(self, session):
        self.session = session
        self.credit = 0
        self.sent = []

    def register_app(self, epd, app):
        pass

    def send_message(self, session, flow_id, payload, now):
        session.send_flows[flow_id].enqueue_message(payload)
        self.transmit(now)

    def drain(self, credit, now):
        """An ack of everything sent, with `credit` more bytes to send."""
        for f in self.session.send_flows.values():
            f.on_ack(wire.AckChunk(f.flow_id, f.highest_sent_seq, [], DEFAULT_ADV_BUFFER), now)
        self.credit += credit
        self.transmit(now)

    def transmit(self, now):
        while self.credit > 0:
            chunks = fill_packet(self.session, MTU_PAYLOAD, self.credit)
            if not chunks:
                return
            self.credit -= sum(len(c.payload) for c in chunks)
            self.sent.append((now, [(c.seq, c.frag, c.payload) for c in chunks]))


class Script:
    """A distribution that returns its values in turn."""

    kind = "script"  # not "constant": the app draws each value

    def __init__(self, values):
        self.values = iter(values)

    def sample(self, rng):
        return next(self.values)


class EagerSource:
    """The reference traffic source: every tick is an event. A tick behind a
    busy flow leaves its message's size in a backlog, and the flow takes the
    oldest one each time its last unsent chunk goes out."""

    def __init__(self, sim, engine, spec, max_runtime_us):
        self.sim, self.engine, self.spec = sim, engine, spec
        self.max_runtime_us = max_runtime_us
        self.stats = FlowStats("host1", 1, spec.flow_id, "send")
        self.hasher = hashlib.sha256()
        self.backlog = deque()
        self.flow = engine.session.create_send_flow(spec.flow_id, False)
        self.flow.refill = self.refill

    def tick(self, now):
        st = self.stats
        if st.msgs >= self.spec.num_packets or now >= self.max_runtime_us:
            return
        size = round(self.spec.size_dist.sample(None))
        st.msgs += 1
        st.bytes += size
        st.touch(now)
        self.backlog.append(size)
        if not self.flow.unsent:
            self.engine.send_message(self.engine.session, self.spec.flow_id, self.take(), now)
        if st.msgs < self.spec.num_packets:
            interval = round(self.spec.interval_dist.sample(None))
            self.sim.schedule(now + interval, "host1", netsim.KIND_APP_TICK, self.tick)

    def take(self):
        payload = make_payload(self.spec.flow_id, self.stats.msgs - len(self.backlog),
                               self.backlog.popleft())
        self.hasher.update(payload)
        return payload

    def refill(self):
        if self.backlog:
            self.flow.enqueue_message(self.take())


@settings(SETTINGS, max_examples=300)
@given(sizes=st.lists(st.integers(1, 3 * CHUNK_CAP + 17), max_size=60),
       intervals=st.lists(st.one_of(st.just(0), st.integers(0, 4)), min_size=60,
                          max_size=60),
       drains=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3 * MTU_PAYLOAD)),
                       max_size=30),
       max_runtime=st.integers(1, 60), end=st.integers(0, 50), constant=st.booleans())
def test_lazy_source_sends_what_an_eager_source_sends(sizes, intervals, drains,
                                                      max_runtime, end, constant):
    """The app draws a tick behind a busy flow only when the flow asks for
    its next message, and makes a tick an event only while the flow is idle.
    Against a source whose every tick is an event, it puts the same timed
    (seq, frag, bytes) stream on the wire and ends with the same FlowStats,
    send digest included, under any mix of ticks and drains, with intervals
    full of zeros and ties. The drains are scheduled before the first tick,
    so in the reference a drain fires before a tick of the same
    microsecond, and the app must not draw that tick inside the drain.
    With `constant`, every size and interval is the first one, and the app
    counts the ticks due at the end by arithmetic."""
    if constant:
        sizes, intervals = [sizes[0] if sizes else 1] * len(sizes), [intervals[0]] * 60
    runs = []
    for lazy in (True, False):
        sim = netsim.Simulator(seed=1)
        engine = CreditEngine(QueueingSession())
        for at, credit in drains:
            sim.schedule(at, "test", netsim.KIND_TIMER, partial(engine.drain, credit))
        spec = FlowSpec(flow_id=7, size_dist=Script(sizes), interval_dist=Script(intervals),
                        num_packets=len(sizes))
        if lazy and constant:
            spec = FlowSpec(flow_id=7, size_dist=netsim.Dist.constant(sizes[0] if sizes else 1),
                            interval_dist=netsim.Dist.constant(intervals[0]),
                            num_packets=len(sizes))
        if lazy:
            app = RtmfpApp(sim, engine, AppConfig(local_epd=1, flows=[spec],
                                                  max_runtime_us=max_runtime))
            app.session_opened(engine.session, 0)
        else:
            source = EagerSource(sim, engine, spec, max_runtime)
            sim.schedule(0, "host1", netsim.KIND_APP_TICK, source.tick)
        sim.run_until(end)
        if lazy:
            stats = app.finalize()
        else:
            source.stats.digest = source.hasher.hexdigest()
            stats = [source.stats]
        runs.append((engine.sent, stats))
    assert runs[0] == runs[1]


@settings(SETTINGS, max_examples=100)
@given(buffer=st.integers(wire.MAX_CHUNK_PAYLOAD, 2899), read_delay=st.integers(0, 100_000),
       seed=st.integers(0, 2**32 - 1))
def test_a_receive_buffer_under_two_chunks_keeps_delivering(buffer, read_delay, seed):
    """A buffer that holds the first flight but less than two of the
    sender's chunks, read after any delay: messages of random sizes still
    arrive in the last third of a 3 s run."""
    (scenario_id, text), = preset_points("bottleneck-basic", seed)
    res = run_config(text, {"host.1.ccCwndInit": f"{wire.MAX_CHUNK_PAYLOAD}byte",
                            "host.2.rcvBufferSize": f"{buffer}byte",
                            "app.1.0.flowPacketSize": "uniform(100byte,1450byte)",
                            "app.1.0.flowSendInterval": "1ms",
                            "app.2.0.readDelay": f"{read_delay}us",
                            "scenario.duration": "3s"}, scenario_id)
    assert res.stats("host2", 2014, 19, "recv").last_us > 2_000_000


# One step of a session's congestion controller: acked bytes, a loss event
# after some time with some SRTT, a retransmission timeout, or a mode switch.
cc_steps = st.lists(st.one_of(
    st.tuples(st.just("ack"), st.integers(1, 20_000)),
    st.tuples(st.just("loss"), st.integers(0, 300_000), st.integers(0, 300_000)),
    st.tuples(st.just("timeout")),
    st.tuples(st.just("mode"), st.sampled_from((MODE_NORMAL, MODE_TIME_CRITICAL,
                                                MODE_DEFERRING)))), max_size=80)


@settings(SETTINGS, max_examples=300)
@given(cwnd_init=st.integers(wire.MAX_CHUNK_PAYLOAD, 8760), mss=st.integers(MIN_CC_MSS, 1460),
       steps=cc_steps)
def test_the_window_keeps_its_floors_through_acks_losses_and_timeouts(cwnd_init, mss, steps):
    """A loss keeps cwnd and ssthresh at or above two segments, but the
    start and every timeout set cwnd to ccCwndInit, which may be smaller."""
    cc = CongestionController(cwnd_init, mss)
    floor = 2 * mss
    now = 0
    for op, *args in steps:
        if op == "ack":
            cc.on_ack_progress(*args)
        elif op == "loss":
            elapsed, srtt_us = args
            now += elapsed
            cc.on_loss_event(now, srtt_us)
        elif op == "timeout":
            cc.on_timeout()
        else:
            cc.mode = args[0]
        assert cc.cwnd >= min(cwnd_init, floor)
        assert cc.ssthresh >= floor


@st.composite
def dumbbells(draw):
    """-> (config text, the side each host should sit on): 2-6 hosts, each
    with one app that opens a session to another host or only listens, each
    host on a side it names or on the one its role gives it, and background
    traffic on or off. No app starts within the first 100 s."""
    n = draw(st.integers(2, 6))
    background = draw(st.booleans())
    lines = ["[topology]", f"background = {int(background)}"]
    sides = {}
    for i in range(1, n + 1):
        side = draw(st.sampled_from((None, "left", "right")))
        remote = draw(st.sampled_from([None] + [j for j in range(1, n + 1) if j != i]))
        lines += [f"[host.{i}]"] + ([f"side = {side}"] if side else [])
        lines += [f"[app.{i}.0]", f"localEpd = {i}", "startTime = 100s"]
        if remote is not None:
            lines += [f"remoteAddress = host{remote}", "remotePort = 4711",
                      f"remoteEpd = {remote}"]
        sides[f"host{i}"] = side or ("left" if remote is not None else "right")
    if background:
        sides.update({"bg.send": "left", "bg.sink": "right"})
    return "\n".join(lines) + "\n", sides


@SETTINGS
@given(dumbbells())
def test_every_host_reaches_every_other_across_the_bottleneck_only_between_sides(case):
    text, sides = case
    bundle = build_bottleneck(parse_config(text))
    links = bundle.links
    toward = {"left": links["bottleneck:rl"], "right": links["bottleneck:lr"]}
    routers = {"left": bundle.routers["router.l"], "right": bundle.routers["router.r"]}
    assert list(bundle.hosts) == list(sides)
    for router_side, router in routers.items():
        assert router.routes == {
            name: links[f"access:{name}:down"] if side == router_side else toward[side]
            for name, side in sides.items()}

    # One probe from every host to every other, on a port nothing else uses;
    # each link notes the probes it admits.
    port = 7
    crossed = {}
    for name, link in links.items():
        link.observer = (lambda now, d, outcome, arrival, name=name:
                         crossed.setdefault(d, []).append((name, outcome)))
    arrived = []
    for host in bundle.hosts.values():
        host.bind(port, lambda d, now: arrived.append(d))
    probes = {}
    for src, host in bundle.hosts.items():
        for dst in bundle.hosts:
            if dst != src:
                probes[src, dst] = netsim.Datagram((src, port), (dst, port), b"probe")
                host.send(probes[src, dst], 0)
    bundle.sim.run_until(1_000_000)
    assert sorted(map(id, arrived)) == sorted(map(id, probes.values()))
    for (src, dst), probe in probes.items():
        across = [(toward[sides[dst]].name, "sent")] if sides[src] != sides[dst] else []
        assert crossed[probe] == [(f"access:{src}:up", "sent"), *across,
                                  (f"access:{dst}:down", "sent")]


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


# ------------------------------------------------------------------ cwnd log


@SETTINGS
@given(entries=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                  st.text(st.characters(exclude_characters="\n"),
                                          max_size=8)), max_size=60),
       join_rows=st.integers(1, 8))
def test_the_cwnd_log_orders_rows_by_time_then_engine_rank(entries, join_rows):
    """Nondecreasing times, many of them tied, engine ranks 0-3: the text is
    the header plus the rows stably sorted by (time, rank), which is what a
    heapq.merge of one time-ordered list per engine gives. A small join size
    makes the log join its kept rows often."""
    rows, now = [], 0
    for i, (step, rank, text) in enumerate(entries):
        now += step
        rows.append((now, rank, f"{now},{rank},{i},{text}\n"))
    log = CwndLog()
    with mock.patch.object(engine_mod, "CWND_JOIN_ROWS", join_rows):
        for now, rank, row in rows:
            log.add(now, rank, row)
        text = log.text()
    expected = [row for _, _, row in sorted(rows, key=lambda r: r[:2])]
    merged = heapq.merge(*([(t, row) for t, r, row in rows if r == rank] for rank in range(4)),
                         key=lambda r: r[0])
    assert [row for _, row in merged] == expected
    assert text == CWND_HEADER + "\n" + "".join(expected)
    assert log.text() is text
