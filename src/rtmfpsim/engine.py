"""The protocol layer: sessions, four-way handshake, demultiplexing, address
mobility, packet transmission and loss recovery timers.

One engine instance binds one UDP port on one host. Applications register
under an endpoint discriminator (EPD); inbound handshakes for that EPD are
routed to the registered app. Each session owns its congestion controller
and its send/receive flow tables; all activity is driven by the simulator's
single event loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import cc as cc_mod
from . import flows as flows_mod
from . import netsim, wire

if TYPE_CHECKING:  # config imports app, which imports this module
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

S_IHELLO_SENT = "IHelloSent"
S_RHELLO_SENT = "RHelloSent"
S_KEYING_SENT = "KeyingSent"
S_OPEN = "Open"
S_CLOSED = "Closed"


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
        self.candidates: list[tuple[str, int]] = []
        self.hs_sends = 0
        self.hs_timer: Optional[netsim.Event] = None
        self.srtt_us: Optional[int] = None
        self.rttvar_us: int = 0
        self.rto_backoff = 1
        self.rto_timer: Optional[netsim.Event] = None
        self.last_peer_ts: int = wire.TS_NONE
        # Counters exported to the harness.
        self.mobility_events = 0
        self.rto_fires = 0
        self.data_packets_out = 0
        self.full_packets_out = 0
        self.full_packet_chunks = 0

    @property
    def label(self) -> str:
        arrow = "->" if self.role == "initiator" else "<-"
        return f"{self.local_epd}{arrow}{self.remote_epd}"

    def rto_us(self) -> int:
        if self.srtt_us is None:
            base = RTO_INITIAL_US
        else:
            base = max(RTO_MIN_US, self.srtt_us + 4 * self.rttvar_us)
        return base * self.rto_backoff

    def observe_rtt(self, sample_us: int) -> None:
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

    def __init__(self, sim: netsim.Simulator, host, spec: HostSpec):
        self.sim = sim
        self.host = host
        self.spec = spec
        self.local_port = spec.local_port
        self.chunk_capacity = spec.max_segment_size - wire.PACKET_HEADER - wire.CHUNK_HEADER
        host.bind(self.local_port, self.handle_datagram)
        self.apps: dict[int, object] = {}
        self.sessions: dict[int, Session] = {}
        self._half_open: dict[tuple, Session] = {}
        self.registry = cc_mod.CcRegistry()
        self._rng = sim.stream(f"engine:{host.node_id}:{self.local_port}")
        self.decode_errors = 0
        self.unknown_session = 0
        self.unknown_epd = 0
        self.delivered_packets = 0
        self.handshakes_completed = 0
        self.sessions_failed = 0
        self.cwnd_log: list[tuple[int, str, str, int, int, str]] = []

    # ------------------------------------------------------------------ setup

    def register_app(self, epd: int, app) -> None:
        self.apps[epd] = app

    def open_session(self, local_epd: int, remote_epd: int,
                     candidates: list[tuple[str, int]], now: int) -> Session:
        s = Session(self, "initiator", local_epd, remote_epd, self._fresh_sid(),
                    S_IHELLO_SENT)
        s.app = self.apps[local_epd]
        s.candidates = list(candidates)
        self.sessions[s.local_sid] = s
        self._handshake_step(s, now)
        return s

    def _fresh_sid(self) -> int:
        while True:
            sid = self._rng.getrandbits(32)
            if sid != HANDSHAKE_SID and sid not in self.sessions:
                return sid

    # ------------------------------------------------------------- handshake

    def _handshake_step(self, s: Session, now: int) -> None:
        """The initiator's one send rule: the chunk its state calls for (an
        IHello to every candidate, or an IIKeying to the responder), then
        the retry, which waits twice as long as the one before."""
        s.hs_sends += 1
        if s.state == S_IHELLO_SENT:
            chunk = wire.HandshakeChunk(wire.T_IHELLO, epd=s.remote_epd, sid=s.local_sid)
            for addr in s.candidates:
                self._send_packet(s, [chunk], now, addr, established=False)
        else:
            self._send_handshake(s, wire.T_IIKEYING, now)
        s.hs_timer = self.sim.after(
            HANDSHAKE_TIMEOUT_US << (s.hs_sends - 1), self.host.node_id, netsim.KIND_TIMER,
            lambda t: self._on_handshake_timer(s, t), f"handshake {s.label}")

    def _on_handshake_timer(self, s: Session, now: int) -> None:
        # Opening cancels the timer; a Close chunk does not.
        if s.state == S_CLOSED:
            return
        if s.hs_sends < HANDSHAKE_ATTEMPTS:
            self._handshake_step(s, now)
        else:
            self.sessions_failed += 1
            self._close(s, now)

    def _on_ihello(self, dgram: netsim.Datagram, chunk: wire.HandshakeChunk,
                   peer_ts: int, now: int) -> None:
        app = self.apps.get(chunk.epd)
        if app is None:
            self.unknown_epd += 1
            return
        key = (dgram.src, chunk.sid, chunk.epd)
        s = self._half_open.get(key)
        if s is None:
            s = Session(self, "responder", chunk.epd, 0, self._fresh_sid(), S_RHELLO_SENT)
            s.app = app
            s.peer_sid = chunk.sid
            s.peer_address = dgram.src
            self.sessions[s.local_sid] = s
            self._half_open[key] = s
            # Garbage-collect a half-open responder session that never completes.
            total_wait = HANDSHAKE_TIMEOUT_US * ((1 << HANDSHAKE_ATTEMPTS) - 1)
            self.sim.after(total_wait, self.host.node_id, netsim.KIND_TIMER,
                           lambda t: s.state == S_RHELLO_SENT and self._close(s, t),
                           f"hs-gc {s.label}")
        s.last_peer_ts = peer_ts
        if s.state == S_RHELLO_SENT:
            self._send_handshake(s, wire.T_RHELLO, now, epd=chunk.epd)

    def _send_handshake(self, s: Session, kind: int, now: int, epd: int = 0) -> None:
        """RHello, IIKeying or RIKeying: carries our session id to the known peer."""
        chunk = wire.HandshakeChunk(kind, epd=epd, sid=s.local_sid)
        self._send_packet(s, [chunk], now, established=False)

    def _on_handshake_chunk(self, s: Session, chunk: wire.HandshakeChunk,
                            dgram: netsim.Datagram, now: int) -> None:
        if chunk.kind == wire.T_RHELLO:
            if s.state != S_IHELLO_SENT:
                return
            s.peer_sid = chunk.sid
            s.peer_address = dgram.src
            s.state = S_KEYING_SENT
            s.hs_timer.cancel()
            self._handshake_step(s, now)
        elif chunk.kind == wire.T_IIKEYING:
            if s.state == S_RHELLO_SENT:
                self._opened(s, now)
                self._send_handshake(s, wire.T_RIKEYING, now)
            elif s.state == S_OPEN:
                # Our RIKeying was lost; repeat it.
                self._send_handshake(s, wire.T_RIKEYING, now)
        elif chunk.kind == wire.T_RIKEYING:
            if s.state != S_KEYING_SENT:
                return
            s.hs_timer.cancel()
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
        try:
            pkt = wire.decode(dgram.payload)
        except wire.DecodeError:
            self.decode_errors += 1
            return
        if pkt.session_id == HANDSHAKE_SID:
            handled = False
            for chunk in pkt.chunks:
                if isinstance(chunk, wire.HandshakeChunk) and chunk.kind == wire.T_IHELLO:
                    self._on_ihello(dgram, chunk, pkt.timestamp, now)
                    handled = True
            if handled:
                self.delivered_packets += 1
            else:
                self.unknown_session += 1
            return
        s = self.sessions.get(pkt.session_id)
        if s is None or s.state == S_CLOSED:
            self.unknown_session += 1
            return
        self.delivered_packets += 1
        s.last_peer_ts = pkt.timestamp
        if pkt.ts_echo != wire.TS_NONE:
            rtt_ms = (now // 1000 - pkt.ts_echo) & 0xFFFF
            if rtt_ms < 30_000:
                s.observe_rtt(rtt_ms * 1000)
        if s.state == S_OPEN:
            if dgram.src != s.peer_address:
                s.peer_address = dgram.src
                s.mobility_events += 1
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
            if isinstance(chunk, wire.HandshakeChunk):
                self._on_handshake_chunk(s, chunk, dgram, now)
            elif isinstance(chunk, wire.DataChunk):
                if s.state != S_OPEN:
                    continue
                rf = s.recv_flows.get(chunk.flow_id)
                if rf is None:
                    rf = flows_mod.RecvFlow(chunk.flow_id, self.spec.rcv_buffer_size)
                    s.recv_flows[chunk.flow_id] = rf
                rf.on_data_chunk(chunk, now)
                if rf not in touched:
                    touched.append(rf)
            elif isinstance(chunk, wire.AckChunk):
                sf = s.send_flows.get(chunk.flow_id)
                if sf is None:
                    continue
                saw_ack = True
                res = sf.on_ack(chunk, now)
                acked += res.acked_bytes
                losses += res.losses_detected
            elif isinstance(chunk, wire.CloseChunk):
                self._close(s, now)
                return
        ack_chunks = []
        for rf in touched:
            ack = rf.end_of_packet(now)
            if ack is not None:
                ack_chunks.append(ack)
                if rf.delack_timer is not None:
                    rf.delack_timer.cancel()
                    rf.delack_timer = None
            elif rf.ack_pending():
                self._arm_delack(s, rf, now)
        # Greedy packing: a new packet whenever the next ack does not fit.
        packets: list[list[wire.AckChunk]] = []
        room = 0
        for ack in ack_chunks:
            size = wire.CHUNK_HEADER + ack.body_len()
            if size > room:
                packets.append([])
                room = self.spec.max_segment_size - wire.PACKET_HEADER
            packets[-1].append(ack)
            room -= size
        for batch in packets:
            self._send_packet(s, batch, now)
        for rf in touched:
            if rf.has_ready():
                s.app.data_notification(s, rf.flow_id, now)
        if saw_ack:
            # Even a pure window update (nothing newly acked) may unblock the
            # flow-control gate, so always retry transmission after an ack.
            if acked:
                s.cc.on_ack_progress(acked, now)
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
        if rf.delack_timer is not None:
            return
        rf.delack_timer = self.sim.after(
            DELAYED_ACK_US, self.host.node_id, netsim.KIND_TIMER,
            lambda t: self._on_delack(s, rf, t),
            f"delack {s.label}/{rf.flow_id}" if self.sim.tracing else "")

    def _on_delack(self, s: Session, rf: flows_mod.RecvFlow, now: int) -> None:
        rf.delack_timer = None
        if s.state != S_OPEN or not rf.ack_pending():
            return
        self._send_packet(s, [rf.make_ack(now)], now)

    def _rearm_rto(self, s: Session, now: int) -> None:
        if s.rto_timer is not None:
            s.rto_timer.cancel()
            s.rto_timer = None
        if not s.in_flight():
            return
        s.rto_timer = self.sim.schedule(
            now + s.rto_us(), self.host.node_id, netsim.KIND_TIMER,
            lambda t: self._on_rto(s, t), f"rto {s.label}" if self.sim.tracing else "")

    def _on_rto(self, s: Session, now: int) -> None:
        s.rto_timer = None
        if s.state != S_OPEN or not s.in_flight():
            return
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
        waiting = bool(f.unsent)
        f.enqueue_message(flows_mod.Message(payload))
        # Queueing on another flow cannot change whether a time-critical flow
        # has data; every path that drains a flow runs the update itself.
        if f.time_critical:
            self._update_tc_active(s, now)
        # Every transmit opportunity ends blocked, and whatever can unblock it
        # (an ack, an RTO, the RIKeying) makes one itself. A chunk queued
        # behind one that is already waiting changes no flow's next chunk, so
        # trying again would find nothing to send, and a try that finds
        # nothing changes nothing.
        if not waiting:
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
        if s.state != S_OPEN:
            return 0
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

    def _send_packet(self, s: Session, chunks: list, now: int,
                     dst: Optional[tuple[str, int]] = None, established: bool = True) -> None:
        """To the peer, or to `dst` (an IHello candidate). Until the RHello
        names the peer's session id, packets go to HANDSHAKE_SID."""
        flags = wire.FLAG_ESTABLISHED if established else 0
        if s.tc_active:
            flags |= wire.FLAG_TIME_CRITICAL
        pkt = wire.Packet(s.peer_sid if s.peer_sid is not None else HANDSHAKE_SID, flags,
                          timestamp=(now // 1000) & 0xFFFF,
                          ts_echo=s.last_peer_ts,
                          chunks=chunks)
        buf = wire.encode(pkt, max_size=self.spec.max_segment_size)
        dst = dst or s.peer_address
        self.host.send(netsim.Datagram((self.host.node_id, self.local_port), dst, buf), now)

    # ----------------------------------------------------------- app surface

    def read_flow(self, s: Session, flow_id: int) -> list[flows_mod.Message]:
        rf = s.recv_flows.get(flow_id)
        if rf is None:
            return []
        msgs = rf.app_read()
        if msgs and rf.window_update_due(self.chunk_capacity) and s.state == S_OPEN:
            self._send_packet(s, [rf.make_ack(self.sim.now)], self.sim.now)
        return msgs

    def _close(self, s: Session, now: int) -> None:
        """Close a session: on a Close chunk, when the initiator runs out of
        attempts, or when the half-open GC fires. An open session leaves the
        mode registry. A responder session that never opened is forgotten,
        so that a fresh IHello with its key opens a new one; one that opened
        stays keyed, so a late duplicate IHello opens no second session."""
        if s.state == S_OPEN:
            self.registry.remove(s)
            self._update_modes(now)
        elif s.state == S_RHELLO_SENT:
            # The key _on_ihello filed it under; none of these change before Open.
            del self._half_open[(s.peer_address, s.peer_sid, s.local_epd)]
            del self.sessions[s.local_sid]
        s.state = S_CLOSED

    def migrate(self, new_port: int, now: int) -> None:
        """Rebind to a different local port; the peer learns the new address
        from the source of the next packets it receives (address mobility)."""
        self.host.rebind(self.local_port, new_port)
        self.local_port = new_port

    # ------------------------------------------------------------ reporting

    def _log_cc(self, s: Session, now: int) -> None:
        self.cwnd_log.append((now, self.host.node_id, s.label,
                              int(s.cc.cwnd), s.flight(), s.cc.mode))
