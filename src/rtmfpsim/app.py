"""Configurable traffic application: endpoint registration, per-flow send
schedules driven by sampling distributions, delayed reads and statistics.

Each app is one endpoint. An app with a configured remote opens exactly one
session and drives its outgoing flows; every app can receive on flows that
appear on inbound sessions. Message payloads embed the flow id and a running
index so the receiving side can verify ordering, and both sides keep a
running SHA-256 over the payload stream for end-to-end integrity checks.

Ticks are drawn lazily: only a tick of an idle flow is an event. A tick
behind a busy flow is drawn when the flow asks for its next message, as its
last unsent chunk goes out, if it fell due strictly before that time. A tick
of that same microsecond becomes an event after the current one: the order a
source that schedules every tick gives, unless it scheduled that tick before
the current event. `finalize` draws the ticks due by the end of the run, or
counts them by arithmetic when the size and interval are constant. The send
digest covers the messages handed to the flow, in order.
"""

from __future__ import annotations

import hashlib
import struct
from functools import partial
from typing import Optional

from . import netsim
from .config import SIZE_CLAMP_MAX, SIZE_CLAMP_MIN, AppConfig, FlowSpec
from .engine import RtmfpEngine, Session
from .flows import SendFlow

_PATTERN = bytes(range(256))
_HEADER = struct.Struct("!IQ")

# Every message body of up to SIZE_CLAMP_MAX bytes is one slice of this.
_FILL = _PATTERN * (SIZE_CLAMP_MAX // 256 + 2)


def make_payload(flow_id: int, index: int, size: int) -> bytes:
    """Deterministic pseudo-payload; carries (flow_id, index) when it fits."""
    if size >= _HEADER.size:
        fill = size - _HEADER.size
        off = index % 256
        pattern = _FILL if off + fill <= len(_FILL) else _PATTERN * (fill // 256 + 2)
        return _HEADER.pack(flow_id & 0xFFFFFFFF, index) + pattern[off:off + fill]
    return _PATTERN[:size]


class FlowStats(netsim.Record):
    __slots__ = ("host", "app_epd", "flow_id", "direction", "msgs", "bytes", "first_us",
                 "last_us", "retransmissions", "digest", "order_violations")

    def __init__(self, host: str, app_epd: int, flow_id: int, direction: str):
        self.host = host
        self.app_epd = app_epd
        self.flow_id = flow_id
        self.direction = direction  # "send" | "recv"
        self.msgs = self.bytes = self.retransmissions = self.order_violations = 0
        self.first_us: Optional[int] = None
        self.last_us: Optional[int] = None
        self.digest = ""

    def touch(self, now: int) -> None:
        if self.first_us is None:
            self.first_us = now
        self.last_us = now

    @property
    def goodput_bps(self) -> float:
        if self.first_us is None or self.last_us is None or self.last_us <= self.first_us:
            return 0.0
        return self.bytes * 8 * 1_000_000 / (self.last_us - self.first_us)


class _SendSide:
    """One outgoing flow: its spec, statistics, payload hash, the two random
    streams its message sizes and intervals are drawn from, the bound tick
    callable scheduled while the flow is idle, the session's flow and the
    time of its next tick not yet drawn, None when it sends no more."""

    __slots__ = ("spec", "stats", "hasher", "size_rng", "ival_rng", "tick",
                 "flow", "next_at")

    def __init__(self, spec: FlowSpec, stats: FlowStats, size_rng, ival_rng):
        self.spec = spec
        self.stats = stats
        self.hasher = hashlib.sha256()
        self.size_rng = size_rng
        self.ival_rng = ival_rng
        self.tick = None
        self.flow: Optional[SendFlow] = None
        self.next_at: Optional[int] = None


class _RecvSide:
    def __init__(self, stats: FlowStats):
        self.stats = stats
        self.hasher = hashlib.sha256()
        self.expected_index = 0
        self.read_pending = False


class RtmfpApp:
    """Traffic source/sink bound to one EPD on one engine."""

    def __init__(self, sim: netsim.Simulator, engine: RtmfpEngine, config: AppConfig):
        self.sim = sim
        self.engine = engine
        self.config = config
        self.host_id = engine.host.node_id
        engine.register_app(config.local_epd, self)
        self.session: Optional[Session] = None
        rng_base = f"app:{self.host_id}:{config.local_epd}"
        self._send = [_SendSide(fs, FlowStats(self.host_id, config.local_epd,
                                              fs.flow_id, "send"),
                                sim.stream(f"{rng_base}:flow:{fs.flow_id}:size"),
                                sim.stream(f"{rng_base}:flow:{fs.flow_id}:interval"))
                      for fs in config.flows]
        self._recv: dict[int, _RecvSide] = {}

    # -------------------------------------------------------------- lifecycle

    def start(self, now: int) -> None:
        """Kick off the session open (registration happened at construction)."""
        if self.config.remote_address is not None:
            self.engine.open_session(
                self.config.local_epd, self.config.remote_epd,
                (self.config.remote_address, self.config.remote_port), now)

    def session_opened(self, session: Session, now: int) -> None:
        if session.role != "initiator":
            return
        self.session = session
        for side in self._send:
            side.flow = session.create_send_flow(side.spec.flow_id,
                                                 side.spec.time_critical)
            side.flow.refill = partial(self._refill, side)
            side.tick = partial(self.send_tick, side)
            side.next_at = now
            self._schedule_tick(side, now)

    # ---------------------------------------------------------------- sending

    def _schedule_tick(self, side: _SendSide, at: int) -> None:
        self.sim.schedule(at, self.host_id, netsim.KIND_APP_TICK, side.tick,
                          f"epd={self.config.local_epd} flow={side.spec.flow_id}"
                          if self.sim.tracing else "")

    def send_tick(self, side: _SendSide, now: int) -> None:
        """The tick of an idle flow: its message goes to the engine now."""
        size = self._draw(side, now)
        if size is None:
            return
        # Hidden during the send, so that a refill in it schedules no tick.
        next_at, side.next_at = side.next_at, None
        self.engine.send_message(self.session, side.spec.flow_id, self._build(side, size), now)
        side.next_at = next_at
        if next_at is not None and not side.flow.unsent:
            self._schedule_tick(side, next_at)

    def _draw(self, side: _SendSide, at: int) -> Optional[int]:
        """Draw and count the size of the tick at `at`, and the time of the
        next one; None, ending the flow's ticks, once it has sent them all or
        maxRuntime has passed."""
        st = side.stats
        fs = side.spec
        # start() is scheduled at start_time_us: this is the time since start.
        if (st.msgs >= fs.num_packets
                or at - self.config.start_time_us >= self.config.max_runtime_us):
            side.next_at = None
            return None
        size = round(fs.size_dist.sample(side.size_rng))
        # The guard keeps the min/max calls off the per-message path.
        if not SIZE_CLAMP_MIN <= size <= SIZE_CLAMP_MAX:
            size = min(max(size, SIZE_CLAMP_MIN), SIZE_CLAMP_MAX)
        st.msgs += 1
        st.bytes += size
        if st.first_us is None:  # FlowStats.touch, inline
            st.first_us = at
        st.last_us = at
        side.next_at = (at + max(0, round(fs.interval_dist.sample(side.ival_rng)))
                        if st.msgs < fs.num_packets else None)
        return size

    def _build(self, side: _SendSide, size: int) -> bytes:
        """Build and hash the message of the tick drawn last."""
        payload = make_payload(side.spec.flow_id, side.stats.msgs - 1, size)
        side.hasher.update(payload)
        return payload

    def _refill(self, side: _SendSide) -> None:
        """The flow's last unsent chunk went out: queue the message of the
        next tick if it fell due before now, else make that tick an event."""
        at = side.next_at
        if at is None:
            return
        if at >= self.sim.now:
            self._schedule_tick(side, at)
        elif (size := self._draw(side, at)) is not None:
            side.flow.enqueue_message(self._build(side, size))

    # -------------------------------------------------------------- receiving

    def _recv_side(self, flow_id: int) -> _RecvSide:
        side = self._recv.get(flow_id)
        if side is None:
            side = _RecvSide(FlowStats(self.host_id, self.config.local_epd,
                                       flow_id, "recv"))
            self._recv[flow_id] = side
        return side

    def data_notification(self, session: Session, flow_id: int, now: int) -> None:
        side = self._recv_side(flow_id)
        if side.read_pending:
            return
        side.read_pending = True
        self.sim.schedule(now + self.config.read_delay_us, self.host_id,
                          netsim.KIND_APP_TICK, lambda t: self._do_read(session, flow_id, t),
                          f"read epd={self.config.local_epd} flow={flow_id}"
                          if self.sim.tracing else "")

    def _do_read(self, session: Session, flow_id: int, now: int) -> None:
        side = self._recv_side(flow_id)
        side.read_pending = False
        msgs = self.engine.read_flow(session, flow_id)
        # Scheduled only for ready data, one per flow, and no other read pops it.
        assert msgs, "a scheduled read found no message"
        st = side.stats
        st.msgs += len(msgs)
        st.touch(now)
        update = side.hasher.update
        unpack_from = _HEADER.unpack_from
        expected = side.expected_index
        n_bytes = 0
        for payload in msgs:
            n_bytes += len(payload)
            update(payload)
            if len(payload) >= _HEADER.size:  # it carries (flow id, index)
                fid, idx = unpack_from(payload, 0)
                if fid != flow_id or idx != expected:
                    st.order_violations += 1
                expected = idx  # resync on what arrived
            expected += 1
        st.bytes += n_bytes
        side.expected_index = expected

    # -------------------------------------------------------------- reporting

    def recv_bytes_by_flow(self) -> dict[int, int]:
        """Cumulative payload bytes delivered to the app, per receive flow."""
        return {flow_id: side.stats.bytes for flow_id, side in self._recv.items()}

    def finalize(self) -> list[FlowStats]:
        """Emit statistics for every configured send flow and touched recv flow."""
        rows = []
        end = self.sim.now
        # The last tick time _draw accepts, measured from start().
        last = min(end, self.config.start_time_us + self.config.max_runtime_us - 1)
        for side in self._send:
            st = side.stats
            fs = side.spec
            if ((at := side.next_at) is not None and at <= last and st.msgs < fs.num_packets
                    and fs.size_dist.kind == fs.interval_dist.kind == "constant"):
                # The ticks due, by arithmetic. Both streams are the flow's
                # own, so skipping their draws changes nothing else.
                step = max(0, round(fs.interval_dist.a))
                n = fs.num_packets - st.msgs
                if step:
                    n = min(n, (last - at) // step + 1)
                st.msgs += n
                st.bytes += n * min(max(round(fs.size_dist.a), SIZE_CLAMP_MIN), SIZE_CLAMP_MAX)
                st.touch(at)
                st.last_us = at + (n - 1) * step
                side.next_at = None
            while (at := side.next_at) is not None and at <= end:
                self._draw(side, at)
            st.digest = side.hasher.hexdigest()
            if side.flow is not None:
                st.retransmissions = side.flow.retransmissions
            rows.append(st)
        for flow_id, side in self._recv.items():
            side.stats.digest = side.hasher.hexdigest()
            rows.append(side.stats)
        return rows
