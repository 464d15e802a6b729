import copy
import random

import pytest

from rtmfpsim import harness, netsim, wire
from rtmfpsim.config import HostSpec
from rtmfpsim.engine import HANDSHAKE_SID, RtmfpEngine


@pytest.fixture(scope="session")
def full_runs():
    """preset name -> its RunResults at full duration, seed 1. Each preset
    runs once per session: the acceptance criteria and the full-duration pins
    share the runs."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = harness.run_preset(name, seed=1)
        return cache[name]

    return get


class PacketSniffer:
    """Link observer recording every send attempt with its outcome."""

    def __init__(self):
        self.records = []  # (now, dgram, outcome, deliver_at, packet|None)

    def __call__(self, now, dgram, outcome, deliver_at):
        # Bytes are background traffic.
        pkt = dgram.payload if isinstance(dgram.payload, wire.Packet) else None
        self.records.append((now, dgram, outcome, deliver_at, pkt))

    def packets(self):
        return [(now, pkt, outcome) for now, _, outcome, _, pkt in self.records
                if pkt is not None]

    def data_packets(self):
        return [(now, pkt, outcome) for now, pkt, outcome in self.packets()
                if any(isinstance(c, wire.DataChunk) for c in pkt.chunks)]

    def handshake_packets(self):
        return [(now, pkt, outcome) for now, pkt, outcome in self.packets()
                if any(isinstance(c, wire.HandshakeChunk) for c in pkt.chunks)]


@pytest.fixture
def sniffer():
    return PacketSniffer()


class FakeSession:
    """The session surface the bundler, flows.fill_packet, reads and writes."""

    def __init__(self, *flows):
        self.send_flows = {f.flow_id: f for f in flows}
        self.last_fill_was_full = False


def snapshot(session):
    """Every session field, the flow order and every flow's state, copied."""
    return copy.deepcopy(({**vars(session), "send_flows": list(session.send_flows)},
                          [vars(f) for f in session.send_flows.values()]))


class Responder:
    """A bare engine on host2:2013 with an app on EPD 2014; records what it
    sends."""

    node_id = "host2"

    def __init__(self):
        self.sent = []
        self.opened = []
        self.sim = netsim.Simulator(seed=1)
        self.engine = RtmfpEngine(self.sim, self, HostSpec("host2", local_port=2013))
        self.engine.register_app(2014, self)

    def bind(self, port, handler):
        pass

    def send(self, dgram, now):
        self.sent.append(dgram.payload)

    def session_opened(self, session, now):
        self.opened.append(session)

    def data_notification(self, session, flow_id, now):
        pass  # a test reads, through engine.read_flow, when it chooses

    def receive(self, sid, chunk, at, src=("host9", 5000)):
        """A packet to session id `sid` from the peer at `src`."""
        self.sim.run_until(at)
        pkt = wire.Packet(sid, 0, 0, wire.TS_NONE, [chunk])
        self.engine.handle_datagram(
            netsim.Datagram(src, ("host2", 2013), pkt), at)

    def ihello(self, initiator_sid, at):
        self.receive(HANDSHAKE_SID, wire.HandshakeChunk(
            wire.T_IHELLO, epd=2014, sid=initiator_sid), at)

    def iikeying(self, initiator_sid, cookie, at, src=("host9", 5000)):
        self.receive(HANDSHAKE_SID, wire.HandshakeChunk(
            wire.T_IIKEYING, epd=2014, sid=initiator_sid, cookie=cookie), at, src)

    def rhellos(self):
        return [p for p in self.sent if p.chunks[0].kind == wire.T_RHELLO]

    def rikeyings(self):
        return [p for p in self.sent if p.chunks[0].kind == wire.T_RIKEYING]


def random_packet(rng: random.Random) -> wire.Packet:
    """A structurally valid packet with a random mix of chunk kinds."""
    n = rng.randint(1, 9)
    chunks = []
    for _ in range(n):
        kind = rng.choice(("data", "data", "data", "ack", "hs"))
        if kind == "data":
            size = rng.randint(1, 1450)
            chunks.append(wire.DataChunk(
                flow_id=rng.randint(0, 0xFFFF),
                seq=rng.randint(0, 0xFFFFFFFF),
                frag=rng.choice((wire.FRAG_WHOLE, wire.FRAG_FIRST,
                                 wire.FRAG_MIDDLE, wire.FRAG_LAST)),
                time_critical=rng.random() < 0.5,
                payload=rng.randbytes(size)))
        elif kind == "ack":
            cum = rng.randint(0, 1 << 20)
            gaps = []
            lo = cum + 2
            for _ in range(rng.randint(0, 5)):
                hi = lo + rng.randint(0, 9)
                gaps.append((lo, hi))
                lo = hi + 2
            chunks.append(wire.AckChunk(
                flow_id=rng.randint(0, 0xFFFF), cum_ack=cum, gaps=gaps,
                adv_buffer=rng.randint(0, 1 << 24)))
        else:
            chunks.append(wire.HandshakeChunk(
                kind=rng.choice(wire.HANDSHAKE_TYPES),
                epd=rng.randint(0, 0xFFFFFFFF),
                sid=rng.randint(0, 0xFFFFFFFF),
                cookie=rng.randbytes(64)))
    return wire.Packet(
        session_id=rng.randint(0, 0xFFFFFFFF),
        flags=rng.randint(0, 3),
        timestamp=rng.randint(0, 0xFFFF),
        ts_echo=rng.randint(0, 0xFFFF),
        chunks=chunks)
