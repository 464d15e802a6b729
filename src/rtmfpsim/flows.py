"""Unidirectional message flows inside a session.

A SendFlow fragments application messages into sequenced chunks, tracks what
is outstanding, applies the receiver's advertised-buffer gate and marks a
chunk for retransmission after its third loss report. A RecvFlow buffers and
reorders chunks, reassembles messages, generates acknowledgment chunks
(normally one per two data packets, immediately when a gap is seen) and
accounts the receive buffer that it advertises back to the sender.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from . import netsim, wire

# Chunk states on the send side.
ST_QUEUED = 0
ST_IN_FLIGHT = 1
ST_RETRANSMIT = 2

LOSS_REPORT_LIMIT = 3
ACK_EVERY_N_PACKETS = 2
MAX_ACK_GAPS = 128
DEFAULT_ADV_BUFFER = 65536


# An application message is its payload.
Message = bytes


class OutboundChunk(wire.DataChunk):
    """A data chunk as its send flow keeps it; the bundler sends it as is."""

    __slots__ = ("state", "loss_reports", "recover_seq")

    def __init__(self, flow_id: int, seq: int, frag: int, time_critical: bool,
                 payload: bytes, state: int = ST_QUEUED, loss_reports: int = 0,
                 recover_seq: int = 0):
        self.flow_id = flow_id
        self.seq = seq
        self.frag = frag
        self.time_critical = time_critical
        self.payload = payload
        self.state = state
        self.loss_reports = loss_reports
        # After a retransmission, only acks that cover data sent later may report
        # this chunk missing again; otherwise stale acks from before the repair
        # re-mark it every round trip.
        self.recover_seq = recover_seq


class AckResult(netsim.Record):
    """What one ack tells the congestion controller."""

    __slots__ = ("acked_bytes", "losses_detected")

    def __init__(self, acked_bytes: int = 0, losses_detected: int = 0):
        self.acked_bytes = acked_bytes
        self.losses_detected = losses_detected


class SendFlow:
    def __init__(self, flow_id: int, time_critical: bool, chunk_capacity: int):
        self.flow_id = flow_id
        self.time_critical = time_critical
        self.chunk_capacity = chunk_capacity
        self.next_seq = 1
        self.peer_adv_buffer = DEFAULT_ADV_BUFFER
        self.highest_sent_seq = 0
        # Queued, never sent, ascending by seq.
        self.unsent: deque[OutboundChunk] = deque()
        # Sent but not yet acknowledged, ascending by seq (insertion order).
        self.outstanding: dict[int, OutboundChunk] = {}
        # The seqs of the outstanding chunks in ST_RETRANSMIT, in resend order.
        self._retx: deque[int] = deque()
        self.outstanding_payload = 0
        # Payload of the outstanding chunks in ST_IN_FLIGHT: sent and not yet
        # acked, reported lost or reset by an RTO.
        self.flight_bytes = 0
        self.retransmissions = 0
        self.loss_reports_received = 0
        # Called when the last unsent chunk goes out, so the owner can queue
        # its next message; it may call enqueue_message but must not send.
        self.refill: Optional[Callable[[], None]] = None

    def enqueue_message(self, payload: Message) -> None:
        """Queue a message as one whole chunk, or as fragments when it
        exceeds the chunk capacity."""
        cap = self.chunk_capacity
        seq = self.next_seq
        if len(payload) <= cap:
            self.unsent.append(OutboundChunk(self.flow_id, seq, wire.FRAG_WHOLE,
                                             self.time_critical, payload))
            self.next_seq = seq + 1
        else:
            pieces = [payload[i:i + cap] for i in range(0, len(payload), cap)]
            last = len(pieces) - 1
            self.unsent.extend(
                OutboundChunk(self.flow_id, seq + i, wire.FRAG_FIRST if i == 0 else
                              wire.FRAG_LAST if i == last else wire.FRAG_MIDDLE,
                              self.time_critical, piece)
                for i, piece in enumerate(pieces))
            self.next_seq = seq + len(pieces)

    def has_pending(self) -> bool:
        return bool(self.unsent or self.outstanding)

    def next_chunk(self) -> Optional[OutboundChunk]:
        """Next chunk this flow would put on the wire, or None.

        Retransmissions go first; new chunks are gated so that the payload
        outstanding at the receiver never exceeds its advertised buffer.
        """
        if self._retx:
            return self.outstanding[self._retx[0]]
        if self.unsent:
            head = self.unsent[0]
            if self.outstanding_payload + len(head.payload) <= self.peer_adv_buffer:
                return head
        return None

    def mark_sent(self, ch: OutboundChunk, now: int) -> None:
        if ch.state == ST_RETRANSMIT:
            self._retx.popleft()
            ch.loss_reports = 0
            ch.recover_seq = self.highest_sent_seq
            self.retransmissions += 1
        else:
            popped = self.unsent.popleft()
            assert popped is ch, "send order must follow the queue"
            self.outstanding[ch.seq] = ch
            self.outstanding_payload += len(ch.payload)
            # Unsent chunks are ascending and above every seq sent before.
            self.highest_sent_seq = ch.seq
            if not self.unsent and self.refill is not None:
                self.refill()
        ch.state = ST_IN_FLIGHT
        self.flight_bytes += len(ch.payload)

    def on_ack(self, ack: wire.AckChunk, now: int) -> AckResult:
        """Retire covered chunks, refresh the flow-control gate, count losses."""
        self.peer_adv_buffer = ack.adv_buffer
        # One walk over the outstanding seqs (ascending) against the sorted
        # gaps: the cost is bounded by what we have in flight and by the ack's
        # length, never by how wide a range the peer claims.
        cum_ack = ack.cum_ack
        gaps = sorted(ack.gaps) if ack.gaps else ()
        n_gaps = len(gaps)
        g = 0
        covered: list[int] = []
        for seq in self.outstanding:
            if seq <= cum_ack:
                covered.append(seq)
                continue
            while g < n_gaps and gaps[g][1] < seq:
                g += 1
            if g == n_gaps:
                break
            if gaps[g][0] <= seq:
                covered.append(seq)
        acked = freed = 0
        for seq in covered:
            ch = self.outstanding.pop(seq)
            freed += len(ch.payload)
            if ch.state == ST_IN_FLIGHT:
                acked += len(ch.payload)
            else:  # acked while it waited to be resent
                self._retx.remove(seq)
        self.outstanding_payload -= freed
        self.flight_bytes -= acked
        res = AckResult(acked)
        if not gaps:  # every outstanding seq is above cum_ack: none is missing
            return res
        max_acked = max(cum_ack, max(hi for _, hi in gaps))
        for seq, ch in self.outstanding.items():
            if seq >= max_acked:
                break
            if ch.state != ST_IN_FLIGHT or max_acked <= ch.recover_seq:
                continue
            ch.loss_reports += 1
            self.loss_reports_received += 1
            if ch.loss_reports >= LOSS_REPORT_LIMIT:
                ch.state = ST_RETRANSMIT
                self._retx.append(seq)
                res.losses_detected += 1
                self.flight_bytes -= len(ch.payload)
        return res

    def force_retransmit_all(self) -> None:
        """RTO: mark everything in flight for retransmission."""
        for seq, ch in self.outstanding.items():
            if ch.state == ST_IN_FLIGHT:
                ch.state = ST_RETRANSMIT
                ch.loss_reports = 0
                self._retx.append(seq)
        self.flight_bytes = 0


class RecvFlow:
    def __init__(self, flow_id: int, rcv_buffer_size: int):
        self.flow_id = flow_id
        self.rcv_buffer_size = rcv_buffer_size
        self.cum_ack = 0
        self._buffer: dict[int, tuple[int, bytes]] = {}  # seq > cum_ack -> (frag, payload)
        self._partial: list[bytes] = []
        self._ready: deque[Message] = deque()
        self.delack_timer: Optional[list] = None  # a Simulator.schedule entry
        self.occupied_bytes = 0
        self.data_since_last_ack = 0
        self.last_advertised = rcv_buffer_size
        self.acks_sent = 0
        self.duplicates = 0
        self.discarded_full = 0

    def adv_buffer(self) -> int:
        return max(0, self.rcv_buffer_size - self.occupied_bytes)

    def on_data_chunk(self, c: wire.DataChunk, now: int) -> None:
        """Buffer one chunk; ack emission is decided at end_of_packet()."""
        size = len(c.payload)
        if c.seq <= self.cum_ack or c.seq in self._buffer:
            self.duplicates += 1
            return
        if self.occupied_bytes + size > self.rcv_buffer_size:
            self.discarded_full += 1
            return
        self.occupied_bytes += size
        if c.seq == self.cum_ack + 1 and c.frag == wire.FRAG_WHOLE and not self._buffer:
            # In order, whole, and nothing to reorder behind it: ready now.
            assert not self._partial, "whole chunk inside a fragment run"
            self.cum_ack = c.seq
            self._ready.append(c.payload)
            return
        self._buffer[c.seq] = (c.frag, c.payload)
        while self.cum_ack + 1 in self._buffer:
            self.cum_ack += 1
            frag, payload = self._buffer.pop(self.cum_ack)
            if frag == wire.FRAG_WHOLE:
                assert not self._partial, "whole chunk inside a fragment run"
                self._ready.append(payload)
            elif frag == wire.FRAG_FIRST:
                assert not self._partial, "nested first fragment"
                self._partial = [payload]
            elif frag == wire.FRAG_MIDDLE:
                assert self._partial, "middle fragment without first"
                self._partial.append(payload)
            else:  # FRAG_LAST
                assert self._partial, "last fragment without first"
                self._partial.append(payload)
                self._ready.append(b"".join(self._partial))
                self._partial = []

    def end_of_packet(self) -> Optional[wire.AckChunk]:
        """Count one received data packet; ack on cadence or on a gap."""
        self.data_since_last_ack += 1
        # In-order chunks leave the buffer as cum_ack passes them: any left are gaps.
        if self._buffer or self.data_since_last_ack >= ACK_EVERY_N_PACKETS:
            return self.make_ack(0)  # make_ack ignores its time
        return None

    def make_ack(self, now: int) -> wire.AckChunk:
        gaps: list[tuple[int, int]] = []
        if self._buffer:
            run_start = None
            prev = None
            for seq in sorted(self._buffer):
                if run_start is None:
                    run_start, prev = seq, seq
                elif seq == prev + 1:
                    prev = seq
                else:
                    gaps.append((run_start, prev))
                    run_start, prev = seq, seq
            if run_start is not None:
                gaps.append((run_start, prev))
            del gaps[MAX_ACK_GAPS:]
        adv = self.adv_buffer()
        self.last_advertised = adv
        self.data_since_last_ack = 0
        self.acks_sent += 1
        return wire.AckChunk(self.flow_id, self.cum_ack, gaps, adv)

    def ack_pending(self) -> bool:
        return self.data_since_last_ack > 0

    def has_ready(self) -> bool:
        return bool(self._ready)

    def app_read(self) -> list[Message]:
        """Pop every reassembled message in order, freeing their buffer space."""
        out = list(self._ready)
        self._ready.clear()
        self.occupied_bytes -= sum(map(len, out))
        return out

    def window_update_due(self) -> bool:
        """True when the window has grown since the last ack and that ack
        advertised less than the largest chunk any sender can send: the sender
        may be waiting for room that it now has."""
        return self.last_advertised < min(wire.MAX_CHUNK_PAYLOAD, self.adv_buffer())


def fill_packet(session, budget: int, payload_budget: Optional[int] = None,
                now: int = 0) -> Optional[list[OutboundChunk]]:
    """Greedy bundler: pick sendable chunks for one packet of at most `budget`
    wire bytes (and optionally at most `payload_budget` payload bytes).

    Send order: time-critical flows before normal ones; within a flow,
    retransmissions before new chunks; within a priority, round-robin by
    service. The order of `session.send_flows` is the round-robin order: the
    flow that leads its priority's part of a packet moves to the back. Returns
    the flows' own chunks, or None, changing nothing, when nothing fits.

    `session.last_fill_was_full` tells whether some flow's next chunk no
    longer fits in the packet's `budget`. A chunk the walk passes over never
    fits later in the same packet, and its flow does not change, so the
    largest one passed over decides; a packet that passed over nothing is not
    full, however close it ends to `budget`.
    """
    send_flows = session.send_flows
    flows = list(send_flows.values())
    picked: list[OutboundChunk] = []
    wire_len = wire.PACKET_HEADER
    pay_len = 0
    passed = -1  # largest payload passed over, -1 for none
    for group in ([f for f in flows if f.time_critical],
                  [f for f in flows if not f.time_critical]):
        first = len(picked)
        progress = True
        while progress:
            progress = False
            for f in group:
                ch = f.next_chunk()
                if ch is None:
                    continue
                size = len(ch.payload)
                if (wire_len + wire.CHUNK_HEADER + size > budget
                        or payload_budget is not None and pay_len + size > payload_budget):
                    if size > passed:
                        passed = size
                    continue
                f.mark_sent(ch, now)
                picked.append(ch)
                wire_len += wire.CHUNK_HEADER + size
                pay_len += size
                progress = True
        if len(picked) > first:
            leader = picked[first].flow_id
            send_flows[leader] = send_flows.pop(leader)
    if not picked:
        return None
    session.last_fill_was_full = (passed >= 0
                                  and wire_len + wire.CHUNK_HEADER + passed > budget)
    return picked
