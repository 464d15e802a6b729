"""Per-layer microbenchmarks: ns per operation on fixed inputs, through public
calls only.

Each case builds its inputs untimed, times a batch of operations, and is
repeated; the median batch is reported. The comment on each case names the
workload whose run_s it should move, because that workload spends the most
time in that operation.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

from rtmfpsim import flows, netsim, wire

REPEATS = 7


def _median_ns(batch, n_ops: int) -> float:
    """batch() -> elapsed ns for n_ops operations; median over REPEATS."""
    return statistics.median(batch() / n_ops for _ in range(REPEATS))


# bulk (every packet and timer of every workload goes through the heap).
def heap_schedule_pop(n=20_000) -> float:
    def batch():
        sim = netsim.Simulator(seed=1)
        noop = lambda t: None  # noqa: E731
        t0 = time.perf_counter_ns()
        for i in range(n):
            sim.schedule((i * 7919) % n, "n", netsim.KIND_TIMER, noop)
        sim.run_until(n)
        return time.perf_counter_ns() - t0
    return _median_ns(batch, n)


class _Sink:
    node_id = "sink"

    def handle_datagram(self, dgram, now):
        pass


# bulk (three Link.send per data packet at line rate, no drops).
def link_send_1472(n=5_000) -> float:
    dgram = netsim.Datagram(("a", 1), ("b", 2), b"\x00" * 1472)

    def batch():
        sim = netsim.Simulator(seed=1)
        link = netsim.Link(sim, "micro", _Sink(), 1_000_000_000, 1000)
        t0 = time.perf_counter_ns()
        for i in range(n):
            link.send(dgram, i * 12)  # one serialization time apart: no queueing
        return time.perf_counter_ns() - t0
    return _median_ns(batch, n)


def _packet_9x140() -> wire.Packet:
    chunks = [wire.DataChunk(19, 1000 + i, wire.FRAG_WHOLE, False, bytes([i]) * 140)
              for i in range(9)]
    return wire.Packet(0x12345678, wire.FLAG_ESTABLISHED, 100, 200, chunks)


# small-msg (per-chunk codec cost; 24 chunks per data packet there).
def wire_encode_9x140(n=5_000) -> float:
    pkt = _packet_9x140()

    def batch():
        t0 = time.perf_counter_ns()
        for _ in range(n):
            wire.encode(pkt, 1472)
        return time.perf_counter_ns() - t0
    return _median_ns(batch, n)


# small-msg (as wire_encode_9x140, receive side).
def wire_decode_9x140(n=5_000) -> float:
    buf = wire.encode(_packet_9x140(), 1472)

    def batch():
        t0 = time.perf_counter_ns()
        for _ in range(n):
            wire.decode(buf)
        return time.perf_counter_ns() - t0
    return _median_ns(batch, n)


# small-msg (most fill_packet calls per message sent happen there).
def fill_packet_2flows(n=2_000) -> float:
    def batch():
        session = SimpleNamespace(send_flows={}, rr_cursor={}, last_fill_was_full=False)
        for flow_id in (19, 88):
            f = flows.SendFlow(flow_id, False, 1450)
            f.peer_adv_buffer = 1 << 40
            for _ in range(9 * n):
                f.enqueue_message(flows.Message(b"\x00" * 140))
            session.send_flows[flow_id] = f
        t0 = time.perf_counter_ns()
        for _ in range(n):
            flows.fill_packet(session, 1472)
        return time.perf_counter_ns() - t0
    return _median_ns(batch, n)


def _on_ack(n_gaps: int, n=300) -> float:
    """Acks sliding over a sent window: each advances cum_ack by 3*gaps+2 and
    reports n_gaps two-chunk ranges above it, one lost chunk before each."""
    stride = 3 * n_gaps + 2
    acks = []
    for k in range(1, n + 1):
        cum = k * stride
        gaps = [(cum + 2 + 3 * j, cum + 3 + 3 * j) for j in range(n_gaps)]
        acks.append(wire.AckChunk(19, cum, gaps, 65536))

    def batch():
        f = flows.SendFlow(19, False, 1450)
        f.peer_adv_buffer = 1 << 40
        for _ in range((n + 1) * stride):
            f.enqueue_message(flows.Message(b"\x00" * 140))
        while (ch := f.next_chunk()) is not None:
            f.mark_sent(ch, 0)
        t0 = time.perf_counter_ns()
        for ack in acks:
            f.on_ack(ack, 0)
        return time.perf_counter_ns() - t0
    return _median_ns(batch, n)


# bulk (cumulative acks only, no loss).
def on_ack_gaps0() -> float:
    return _on_ack(0)


# contended (queue drops leave a few holes per ack).
def on_ack_gaps4() -> float:
    return _on_ack(4)


# contended (worst case the receiver may report, MAX_ACK_GAPS ranges).
def on_ack_gaps128() -> float:
    return _on_ack(flows.MAX_ACK_GAPS, n=50)


# contended (acks built over a reordering buffer after drops).
def make_ack_361(n=2_000) -> float:
    rf = flows.RecvFlow(19, 1 << 30)
    seqs = [s for s in range(2, 600) if s % 3 != 1][:361]
    for s in seqs:
        rf.on_data_chunk(wire.DataChunk(19, s, wire.FRAG_WHOLE, False, b"\x00" * 140), 0)
    assert len(seqs) == 361 and rf.cum_ack == 0

    def batch():
        t0 = time.perf_counter_ns()
        for _ in range(n):
            rf.make_ack(0)
        return time.perf_counter_ns() - t0
    return _median_ns(batch, n)


CASES = {
    "micro.heap_schedule_pop": heap_schedule_pop,
    "micro.link_send_1472": link_send_1472,
    "micro.wire_encode_9x140": wire_encode_9x140,
    "micro.wire_decode_9x140": wire_decode_9x140,
    "micro.fill_packet_2flows": fill_packet_2flows,
    "micro.on_ack_gaps0": on_ack_gaps0,
    "micro.on_ack_gaps4": on_ack_gaps4,
    "micro.on_ack_gaps128": on_ack_gaps128,
    "micro.make_ack_361": make_ack_361,
}


def run_all() -> dict[str, float]:
    return {name: case() for name, case in CASES.items()}
