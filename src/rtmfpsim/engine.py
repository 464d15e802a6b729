"""The protocol layer: sessions, four-way handshake, demultiplexing, address
mobility, packet transmission and loss recovery timers.

One engine instance binds one UDP port on one host. Applications register
under an endpoint discriminator (EPD); inbound handshakes for that EPD are
routed to the registered app. Each session owns its congestion controller
and its send/receive flow tables; all activity is driven by the simulator's
single event loop.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Optional

from . import cc as cc_mod
from . import flows as flows_mod
from . import netsim, wire
from .config import HostSpec

HANDSHAKE_SID = 0
# The first handshake retry waits this long; each further one waits twice as
# long as the one before.
HANDSHAKE_TIMEOUT_US = 1_000_000
HANDSHAKE_ATTEMPTS = 5
# Retransmission timeout: RTO_INITIAL_US until the first RTT sample, then
# srtt + 4 * rttvar but at least RTO_MIN_US.
RTO_MIN_US = 200_000
RTO_INITIAL_US = 1_000_000
DELAYED_ACK_US = 50_000
CWND_HEADER = "time_us,host,session,cwnd_bytes,flight_bytes,mode"
CWND_JOIN_ROWS = 1024

S_IHELLO_SENT = "IHelloSent"
S_KEYING_SENT = "KeyingSent"
S_OPEN = "Open"


class CwndLog:
    """A run's cwnd CSV, header first, written as its engines log. The rows of
    the current time stay last, by engine rank, then log order; once the clock
    moves on, every CWND_JOIN_ROWS rows are joined into one string."""

    def __init__(self):
        self._time = 0
        self._ranks: list[int] = []  # of the last rows, all logged at _time
        self._rows = [CWND_HEADER + "\n"]
        self._parts: list[str] = []

    def add(self, now: int, rank: int, row: str) -> None:
        if now != self._time:
            assert now > self._time, "cwnd row logged before an earlier one"
            self._time, self._ranks = now, []
            if len(self._rows) >= CWND_JOIN_ROWS:
                self._parts.append("".join(self._rows))
                self._rows.clear()
        at = bisect.bisect_right(self._ranks, rank)
        self._rows.insert(len(self._rows) - len(self._ranks) + at, row)
        self._ranks.insert(at, rank)

    def text(self) -> str:
        """The whole CSV, once the run is over, as one string the log keeps."""
        self._parts, self._rows = [], ["".join(self._parts + self._rows)]
        return self._rows[0]


class Session:
    """Bidirectional peer relationship with handshake state and flow tables."""

    def __init__(self, engine: "RtmfpEngine", role: str, local_epd: int,
                 remote_epd: int, local_sid: int, state: str):
        self.engine = engine
        self.role = role  # "initiator" | "responder"
        self.local_epd = local_epd
        self.remote_epd = remote_epd
        self.local_sid = local_sid          # the peer addresses us with this id
        self.peer_sid: Optional[int] = None
        self.peer_address: Optional[tuple[str, int]] = None
        self.state = state
        self.app = None
        self.cc = cc_mod.CongestionController(engine.spec.cc_cwnd_init, engine.spec.cc_mss)
        self.send_flows: dict[int, flows_mod.SendFlow] = {}
        self.recv_flows: dict[int, flows_mod.RecvFlow] = {}
        self.last_fill_was_full = False
        self.tc_active = False
        self.peer_signaled_tc = False
        self.cookie = wire.NO_COOKIE  # the responder's, from its RHello
        self.hs_sends = 0
        self.hs_timer: Optional[list] = None  # a Simulator.schedule entry
        self.srtt_us: Optional[int] = None
        self.rttvar_us: int = 0
        self.rto_backoff = 1
        self.rto_timer: Optional[list] = None
        self.last_peer_ts: int = wire.TS_NONE
        # Counters exported to the harness.
        self.mobility_events = 0
        self.rto_fires = 0
        self.data_packets_out = 0
        self.full_packets_out = 0
        self.full_packet_chunks = 0
        # Names the session in the cwnd log and the trace; its inputs are fixed.
        self.label = f"{local_epd}{'->' if role == 'initiator' else '<-'}{remote_epd}"

    def rto_us(self) -> int:
        if self.srtt_us is None:
            base = RTO_INITIAL_US
        else:
            base = max(RTO_MIN_US, self.srtt_us + 4 * self.rttvar_us)
        return base * self.rto_backoff

    def heard(self, pkt: wire.Packet, src: tuple[str, int], now: int) -> None:
        """Note a packet from `src`, where an open session's peer moves; keep its
        timestamp for our echo, and take its echo, if any, as an RTT sample."""
        if self.state == S_OPEN and src != self.peer_address:
            self.peer_address = src
            self.mobility_events += 1
        self.last_peer_ts = pkt.timestamp
        rtt_ms = (now // 1000 - pkt.ts_echo) & 0xFFFF
        if pkt.ts_echo == wire.TS_NONE or rtt_ms >= 30_000:
            return
        sample_us = rtt_ms * 1000
        if self.srtt_us is None:
            self.srtt_us = sample_us
            self.rttvar_us = sample_us // 2
        else:
            self.rttvar_us = (3 * self.rttvar_us + abs(self.srtt_us - sample_us)) // 4
            self.srtt_us = (7 * self.srtt_us + sample_us) // 8

    def flight(self) -> int:
        """Payload bytes in flight: the congestion window's share in use."""
        # A plain loop: sum() over a generator costs three times as much on
        # the one or two flows a session has, and this runs per packet.
        n = 0
        for f in self.send_flows.values():
            n += f.flight_bytes
        return n

    def in_flight(self) -> bool:
        return any(f.outstanding for f in self.send_flows.values())

    def create_send_flow(self, flow_id: int, time_critical: bool) -> flows_mod.SendFlow:
        f = flows_mod.SendFlow(flow_id, time_critical, self.engine.chunk_capacity)
        self.send_flows[flow_id] = f
        return f


class RtmfpEngine:
    """Protocol layer bound to one (host, port)."""

    def __init__(self, sim: netsim.Simulator, host, spec: HostSpec,
                 cwnd_log: CwndLog, cwnd_rank: int):
        self.sim = sim
        self.host = host
        self.spec = spec
        self.local_port = spec.local_port
        self.chunk_capacity = wire.chunk_capacity(spec.max_segment_size)
        host.bind(self.local_port, self.handle_datagram)
        self.apps: dict[int, object] = {}
        self.sessions: dict[int, Session] = {}
        # Responder sessions by the cookie they opened with.
        self._responders: dict[bytes, Session] = {}
        self.registry = cc_mod.CcRegistry()
        self._rng = sim.stream(f"engine:{host.node_id}:{self.local_port}")
        self._cookie_key = sim.stream(f"cookie:{host.node_id}:{self.local_port}").randbytes(32)
        self.decode_errors = 0  # engines pass packet objects: nothing to decode
        self.unknown_session = 0
        self.unknown_epd = 0
        self.delivered_packets = 0
        self.handshakes_completed = 0
        self.sessions_failed = 0
        self.cwnd_log, self.cwnd_rank = cwnd_log, cwnd_rank  # ties in the log go by rank

    # ------------------------------------------------------------------ setup

    def register_app(self, epd: int, app) -> None:
        self.apps[epd] = app

    def open_session(self, local_epd: int, remote_epd: int,
                     address: tuple[str, int], now: int) -> None:
        s = Session(self, "initiator", local_epd, remote_epd, self._fresh_sid(),
                    S_IHELLO_SENT)
        s.app = self.apps[local_epd]
        s.peer_address = address
        self.sessions[s.local_sid] = s
        self._handshake_step(s, now)

    def _fresh_sid(self) -> int:
        while True:
            sid = self._rng.getrandbits(32)
            if sid != HANDSHAKE_SID and sid not in self.sessions:
                return sid

    # ------------------------------------------------------------- handshake

    def _handshake_step(self, s: Session, now: int) -> None:
        """The initiator's one send rule: the chunk its state calls for, an
        IHello or an IIKeying echoing the responder's cookie, goes to the
        peer's address (the one opened to, until an RHello's source replaces
        it); then the retry, which waits twice as long as the one before."""
        s.hs_sends += 1
        kind = wire.T_IHELLO if s.state == S_IHELLO_SENT else wire.T_IIKEYING
        self._send_packet(s, [wire.HandshakeChunk(kind, s.remote_epd, s.local_sid, s.cookie)], now)
        s.hs_timer = self.sim.schedule(
            now + (HANDSHAKE_TIMEOUT_US << (s.hs_sends - 1)), self.host.node_id, netsim.KIND_TIMER,
            lambda t: self._on_handshake_timer(s, t), f"handshake {s.label}")

    def _on_handshake_timer(self, s: Session, now: int) -> None:
        """Retry, or give up: a failed session leaves the session table, so
        later packets for it count as unknown. Opening cancels the timer."""
        if s.hs_sends < HANDSHAKE_ATTEMPTS:
            self._handshake_step(s, now)
        else:
            self.sessions_failed += 1
            del self.sessions[s.local_sid]

    def _respond(self, dgram: netsim.Datagram, chunk: wire.HandshakeChunk,
                 pkt: wire.Packet, now: int) -> bool:
        """The responder, stateless before the IIKeying (RFC 7016, 3.5.1). An
        IHello gets an RHello whose cookie is a keyed hash of its (address,
        initiator sid, EPD), unless a session opened with that cookie. An
        IIKeying echoing the cookie opens the session. One echoing the cookie
        of an open session repeats its RIKeying to the packet's source, which
        becomes the peer's address, as for data. False, opening nothing, for
        any other cookie."""
        key = (dgram.src, chunk.sid, chunk.epd)
        cookie = hashlib.blake2b(repr(key).encode(), key=self._cookie_key,
                                 digest_size=wire.COOKIE_LEN).digest()
        if chunk.kind == wire.T_IHELLO:
            if chunk.epd not in self.apps:
                self.unknown_epd += 1
            elif cookie not in self._responders:
                rhello = wire.HandshakeChunk(wire.T_RHELLO, chunk.epd, 0, cookie)
                self._send(chunk.sid, 0, pkt.timestamp, [rhello], dgram.src, now)
            return True
        s = self._responders.get(chunk.cookie)
        if s is None:
            if chunk.cookie != cookie:
                return False
            s = Session(self, "responder", chunk.epd, 0, self._fresh_sid(), S_OPEN)
            s.app = self.apps[chunk.epd]
            s.peer_sid = chunk.sid
            s.peer_address = dgram.src
            self.sessions[s.local_sid] = self._responders[cookie] = s
            self._opened(s, now)
        s.heard(pkt, dgram.src, now)
        self._send_packet(s, [wire.HandshakeChunk(wire.T_RIKEYING, sid=s.local_sid)], now)
        return True

    def _on_handshake_chunk(self, s: Session, chunk: wire.HandshakeChunk,
                            dgram: netsim.Datagram, now: int) -> None:
        """The initiator's side: an RHello brings the cookie, an RIKeying the
        responder's session id."""
        if chunk.kind == wire.T_RHELLO:
            if s.state != S_IHELLO_SENT:
                return
            s.cookie = chunk.cookie
            s.peer_address = dgram.src
            s.state = S_KEYING_SENT
            self.sim.cancel(s.hs_timer)
            self._handshake_step(s, now)
        elif chunk.kind == wire.T_RIKEYING:
            if s.state != S_KEYING_SENT:
                return
            s.peer_sid = chunk.sid
            self.sim.cancel(s.hs_timer)
            self._opened(s, now)
            self.transmit_opportunity(s, now)

    def _opened(self, s: Session, now: int) -> None:
        """The handshake completed, on either side: the session carries data."""
        s.state = S_OPEN
        self.handshakes_completed += 1
        self.registry.add(s)
        self._update_modes(now)
        s.app.session_opened(s, now)

    # ----------------------------------------------------------------- demux

    def handle_datagram(self, dgram: netsim.Datagram, now: int) -> None:
        # The sender's own packet, chunks and ack gap lists included: never change it.
        pkt: wire.Packet = dgram.payload
        if pkt.session_id == HANDSHAKE_SID:
            handled = False
            for chunk in pkt.chunks:
                if isinstance(chunk, wire.HandshakeChunk) and chunk.kind in (
                        wire.T_IHELLO, wire.T_IIKEYING):
                    handled = self._respond(dgram, chunk, pkt, now) or handled
            if handled:
                self.delivered_packets += 1
            else:
                self.unknown_session += 1
            return
        s = self.sessions.get(pkt.session_id)
        if s is None:
            self.unknown_session += 1
            return
        self.delivered_packets += 1
        s.heard(pkt, dgram.src, now)
        if s.state == S_OPEN:
            tc = bool(pkt.flags & wire.FLAG_TIME_CRITICAL)
            if tc != s.peer_signaled_tc:
                s.peer_signaled_tc = tc
                self._update_modes(now)
        self._process_chunks(s, pkt, dgram, now)

    def _process_chunks(self, s: Session, pkt: wire.Packet,
                        dgram: netsim.Datagram, now: int) -> None:
        touched: list[flows_mod.RecvFlow] = []
        acked = 0
        losses = 0
        saw_ack = False
        for chunk in pkt.chunks:
            # Data first: most chunks are data.
            if isinstance(chunk, wire.DataChunk):
                if s.state != S_OPEN:
                    continue
                rf = s.recv_flows.get(chunk.flow_id)
                if rf is None:
                    rf = flows_mod.RecvFlow(chunk.flow_id, self.spec.rcv_buffer_size)
                    s.recv_flows[chunk.flow_id] = rf
                rf.on_data_chunk(chunk, now)
                if rf not in touched:
                    touched.append(rf)
            elif isinstance(chunk, wire.HandshakeChunk):
                self._on_handshake_chunk(s, chunk, dgram, now)
            elif isinstance(chunk, wire.AckChunk):
                sf = s.send_flows.get(chunk.flow_id)
                if sf is None:
                    continue
                saw_ack = True
                res = sf.on_ack(chunk, now)
                acked += res.acked_bytes
                losses += res.losses_detected
        acks = []
        for rf in touched:
            ack = rf.end_of_packet()
            if ack is not None:
                acks.append(ack)
            else:  # the packet counted, so an ack is pending
                self._arm_delack(s, rf, now)
        self._send_acks(s, acks, now)
        for rf in touched:
            if rf.has_ready():
                s.app.data_notification(s, rf.flow_id, now)
        if saw_ack:
            # Even a pure window update (nothing newly acked) may unblock the
            # flow-control gate, so always retry transmission after an ack.
            if acked:
                s.cc.on_ack_progress(acked)
                s.rto_backoff = 1
            if losses:
                s.cc.on_loss_event(now, s.srtt_us or 0)
            if acked or losses:
                self._rearm_rto(s, now)
                self._log_cc(s, now)
            self._update_tc_active(s, now)
            self.transmit_opportunity(s, now)

    # ---------------------------------------------------------------- timers

    def _arm_delack(self, s: Session, rf: flows_mod.RecvFlow, now: int) -> None:
        # Only a flow's first data packet since its last ack arms it; that ack cleared it.
        assert rf.delack_timer is None, "delayed-ack flush armed twice"
        rf.delack_timer = self.sim.schedule(
            now + DELAYED_ACK_US, self.host.node_id, netsim.KIND_TIMER,
            lambda t: self._on_delack(s, rf, t),
            f"delack {s.label}/{rf.flow_id}" if self.sim.tracing else "")

    def _on_delack(self, s: Session, rf: flows_mod.RecvFlow, now: int) -> None:
        rf.delack_timer = None
        # Every ack sent cancels this flush, so one is always pending.
        assert rf.ack_pending(), "delayed-ack flush with nothing to ack"
        self._send_acks(s, [rf.make_ack(now)], now)

    def _rearm_rto(self, s: Session, now: int) -> None:
        if s.rto_timer is not None:
            self.sim.cancel(s.rto_timer)
            s.rto_timer = None
        if not s.in_flight():
            return
        s.rto_timer = self.sim.schedule(
            now + s.rto_us(), self.host.node_id, netsim.KIND_TIMER,
            lambda t: self._on_rto(s, t), f"rto {s.label}" if self.sim.tracing else "")

    def _on_rto(self, s: Session, now: int) -> None:
        s.rto_timer = None
        # Flight 0 lets a retransmission go, and the ack of the last chunk in flight cancels this.
        assert s.in_flight(), "retransmission timeout with nothing outstanding"
        s.rto_fires += 1
        for f in s.send_flows.values():
            f.force_retransmit_all()
        s.cc.on_timeout()
        s.rto_backoff *= 2
        self._rearm_rto(s, now)
        self._log_cc(s, now)
        self.transmit_opportunity(s, now)

    # ------------------------------------------------------------- transmit

    def send_message(self, s: Session, flow_id: int, payload: bytes, now: int) -> None:
        f = s.send_flows[flow_id]
        f.enqueue_message(payload)
        # Queueing on another flow cannot change whether a time-critical flow
        # has data; every path that drains a flow runs the update itself.
        if f.time_critical:
            self._update_tc_active(s, now)
        self.transmit_opportunity(s, now)

    def _update_tc_active(self, s: Session, now: int) -> None:
        active = any(f.time_critical and f.has_pending()
                     for f in s.send_flows.values())
        if active != s.tc_active:
            s.tc_active = active
            self._update_modes(now)

    def _update_modes(self, now: int) -> None:
        """Recompute every local session's mode; log each one that switched."""
        for changed in self.registry.update():
            self._log_cc(changed, now)

    def transmit_opportunity(self, s: Session, now: int) -> int:
        """Send as many packets as the window, flow control and queues allow."""
        sent = 0
        while (payload_budget := int(s.cc.cwnd) - s.flight()) > 0:
            chunks = flows_mod.fill_packet(s, self.spec.max_segment_size,
                                           payload_budget, now)
            if not chunks:
                break
            assert s.flight() <= s.cc.cwnd, "window gate violated at send time"
            self._send_packet(s, chunks, now)
            s.data_packets_out += 1
            if s.last_fill_was_full:
                s.full_packets_out += 1
                s.full_packet_chunks += len(chunks)
            if s.rto_timer is None:
                self._rearm_rto(s, now)
            sent += 1
        if sent:
            self._log_cc(s, now)
        return sent

    def _send_acks(self, s: Session, acks: list[wire.AckChunk], now: int) -> None:
        """Every ack a session sends leaves here and cancels its flow's pending
        delayed-ack flush, since it answers all the flow has received. Greedy
        packing: a new packet whenever the next ack does not fit."""
        packets: list[list[wire.AckChunk]] = []
        room = 0
        for ack in acks:
            rf = s.recv_flows[ack.flow_id]
            if rf.delack_timer is not None:
                self.sim.cancel(rf.delack_timer)
                rf.delack_timer = None
            size = wire.CHUNK_HEADER + ack.body_len()
            if size > room:
                packets.append([])
                room = self.spec.max_segment_size - wire.PACKET_HEADER
            packets[-1].append(ack)
            room -= size
        for batch in packets:
            self._send_packet(s, batch, now)

    def _send_packet(self, s: Session, chunks: list, now: int) -> None:
        """Every packet a session sends goes to the peer's address; until the
        RIKeying names the peer's session id, to HANDSHAKE_SID."""
        flags = wire.FLAG_TIME_CRITICAL if s.tc_active else 0
        self._send(s.peer_sid if s.peer_sid is not None else HANDSHAKE_SID, flags,
                   s.last_peer_ts, chunks, s.peer_address, now)

    def _send(self, sid: int, flags: int, ts_echo: int, chunks: list,
              dst: tuple[str, int], now: int) -> None:
        """Build and send one packet; every packet sent passes here."""
        pkt = wire.Packet(sid, flags, (now // 1000) & 0xFFFF, ts_echo, chunks)
        dgram = netsim.Datagram((self.host.node_id, self.local_port), dst, pkt)
        assert dgram.size <= self.spec.max_segment_size, f"{dgram.size}B > maxSegmentSize"
        self.host.send(dgram, now)

    # ----------------------------------------------------------- app surface

    def read_flow(self, s: Session, flow_id: int) -> list[flows_mod.Message]:
        rf = s.recv_flows[flow_id]
        msgs = rf.app_read()
        if msgs and rf.window_update_due():
            self._send_acks(s, [rf.make_ack(self.sim.now)], self.sim.now)
        return msgs

    def migrate(self, new_port: int) -> None:
        """Rebind to a different local port; the peer learns the new address
        from the source of the next packets it receives (address mobility)."""
        self.host.rebind(self.local_port, new_port)
        self.local_port = new_port

    # ------------------------------------------------------------ reporting

    def _log_cc(self, s: Session, now: int) -> None:
        self.cwnd_log.add(now, self.cwnd_rank, f"{now},{self.host.node_id},{s.label},"
                          f"{int(s.cc.cwnd)},{s.flight()},{s.cc.mode}\n")
