import random
import time

import pytest

from conftest import FakeSession, snapshot
from rtmfpsim import wire
from rtmfpsim.flows import (LOSS_REPORT_LIMIT, ST_IN_FLIGHT, ST_RETRANSMIT, Message,
                            RecvFlow, SendFlow, fill_packet)

CHUNK_CAP = 1450  # 1472 - 12 - 10


def send_flow(flow_id=19, tc=False):
    return SendFlow(flow_id, tc, CHUNK_CAP)


def enqueue(f, payload):
    """Queue one message on `f`; -> the chunks it became."""
    before = len(f.unsent)
    f.enqueue_message(Message(payload))
    return list(f.unsent)[before:]


def drain(session, budget=1472, payload_budget=None, now=0):
    packets = []
    while True:
        chunks = fill_packet(session, budget, payload_budget, now)
        if not chunks:
            return packets
        packets.append(chunks)


# ------------------------------------------------------------- fragmentation


def test_140_byte_message_is_one_whole_chunk():
    f = send_flow()
    chunks = enqueue(f, b"x" * 140)
    assert [(c.seq, c.frag, len(c.payload)) for c in chunks] == [(1, wire.FRAG_WHOLE, 140)]


def test_exact_capacity_message_is_one_whole_chunk():
    f = send_flow()
    chunks = enqueue(f, b"x" * 1450)
    assert [(c.seq, c.frag, len(c.payload)) for c in chunks] == [(1, wire.FRAG_WHOLE, 1450)]


def test_3000_byte_message_fragments_into_three_consecutive_chunks():
    f = send_flow()
    chunks = enqueue(f, b"x" * 3000)
    assert [(c.seq, c.frag, len(c.payload)) for c in chunks] == [
        (1, wire.FRAG_FIRST, 1450),
        (2, wire.FRAG_MIDDLE, 1450),
        (3, wire.FRAG_LAST, 100),
    ]


def test_fragment_reassemble_inverse_for_random_sizes():
    rng = random.Random(5)
    for _ in range(60):
        size = rng.randint(1, 10 * 1472)
        payload = rng.randbytes(size)
        sf = send_flow()
        rf = RecvFlow(19, rcv_buffer_size=1 << 22)
        for ch in enqueue(sf, payload):
            rf.on_data_chunk(wire.DataChunk(19, ch.seq, ch.frag, False, ch.payload), 0)
        msgs = rf.app_read()
        assert len(msgs) == 1
        assert msgs[0] == payload


# ------------------------------------------------------------------ bundling


def test_mtu_budget_fits_nine_140_byte_chunks():
    f = send_flow()
    for _ in range(20):
        f.enqueue_message(Message(b"x" * 140))
    s = FakeSession(f)
    chunks = fill_packet(s, budget=1472)
    assert len(chunks) == 9  # floor((1472 - 12) / 150)
    assert s.last_fill_was_full


def test_a_packet_that_passes_over_nothing_is_not_full():
    f = send_flow()
    f.enqueue_message(Message(b"x" * 1445))
    s = FakeSession(f)
    s.last_fill_was_full = True
    chunks = fill_packet(s, budget=1472)
    assert wire.PACKET_HEADER + sum(wire.CHUNK_HEADER + len(c.payload) for c in chunks) == 1467
    assert not s.last_fill_was_full  # 5 bytes short of budget, but nothing waits


def test_time_critical_flow_has_absolute_priority():
    bulk = send_flow(flow_id=1, tc=False)
    rt = send_flow(flow_id=2, tc=True)
    for _ in range(30):
        bulk.enqueue_message(Message(b"b" * 140))
        rt.enqueue_message(Message(b"r" * 140))
    s = FakeSession(bulk, rt)
    packets = drain(s)
    saw_bulk = False
    for chunks in packets:
        for c in chunks:
            if c.flow_id == 1:
                saw_bulk = True
            else:
                assert not saw_bulk, "bulk chunk bundled while time-critical data waited"
    assert saw_bulk  # bulk eventually drains too


def test_round_robin_across_same_priority_flows():
    a = send_flow(flow_id=1)
    b = send_flow(flow_id=2)
    for _ in range(6):
        a.enqueue_message(Message(b"a" * 140))
        b.enqueue_message(Message(b"b" * 140))
    s = FakeSession(a, b)
    chunks = fill_packet(s, budget=1472)
    assert {c.flow_id for c in chunks} == {1, 2}


def test_advertised_buffer_gates_new_chunks():
    f = send_flow()
    f.enqueue_message(Message(b"x" * 140))
    f.peer_adv_buffer = 100
    s = FakeSession(f)
    assert fill_packet(s, budget=1472) is None


def test_payload_budget_caps_packet():
    f = send_flow()
    for _ in range(9):
        f.enqueue_message(Message(b"x" * 140))
    s = FakeSession(f)
    chunks = fill_packet(s, budget=1472, payload_budget=300)
    assert len(chunks) == 2


def test_retransmit_chunks_go_before_new_ones():
    f = send_flow()
    for _ in range(12):
        f.enqueue_message(Message(b"x" * 140))
    s = FakeSession(f)
    first = fill_packet(s, budget=1472)
    assert [c.seq for c in first] == list(range(1, 10))
    # Three acks omitting seq 1 while covering later seqs: a loss report each.
    for k in (2, 3, 4):
        f.on_ack(wire.AckChunk(19, 0, [(2, k)], 65536), now=0)
    second = fill_packet(s, budget=1472)
    assert second[0].seq == 1
    assert [c.seq for c in second[1:]] == [10, 11, 12]


def backlogged(*flow_ids, idle=()):
    """A session of normal flows, each but the `idle` ones with 60 messages."""
    flows = [send_flow(flow_id=i) for i in flow_ids]
    for f in flows:
        if f.flow_id not in idle:
            for _ in range(60):
                f.enqueue_message(Message(bytes([f.flow_id]) * 140))
    return FakeSession(*flows)


def leaders(s, packets, miss_between=False):
    """The flow of the first chunk of each of `packets` packets."""
    out = []
    for _ in range(packets):
        if miss_between:
            # 100 - 12 - 10 = 78 bytes of room: no 140-byte head chunk fits.
            assert fill_packet(s, budget=100) is None
        out.append(fill_packet(s, budget=1472)[0].flow_id)
    return out


def test_miss_leaves_the_session_unchanged():
    normal = [send_flow(flow_id=1), send_flow(flow_id=2)]
    rt = send_flow(flow_id=3, tc=True)
    for f in (*normal, rt):
        for _ in range(2):
            f.enqueue_message(Message(bytes([f.flow_id]) * 140))
    s = FakeSession(*normal, rt)
    before = snapshot(s)
    for _ in range(3):
        assert fill_packet(s, budget=100) is None
        assert snapshot(s) == before
    chunks = fill_packet(s, budget=1472)
    # Time-critical first, then the normal group in its unchanged order.
    assert [c.flow_id for c in chunks] == [3, 3, 1, 2, 1, 2]


@pytest.mark.parametrize("miss_between", [False, True])
def test_two_backlogged_flows_alternate_as_packet_leader(miss_between):
    s = backlogged(1, 2)
    assert leaders(s, 8, miss_between) == [1, 2] * 4


def test_idle_flow_ahead_of_two_busy_ones_lets_neither_lead_twice():
    s = backlogged(1, 2, 3, idle=(1,))
    assert leaders(s, 8) == [2, 3] * 4


def test_only_the_leader_of_each_priority_moves_to_the_back():
    rt = send_flow(flow_id=3, tc=True)
    rt.enqueue_message(Message(b"r" * 140))
    s = backlogged(1, 2)
    s.send_flows = {3: rt, **s.send_flows}
    chunks = fill_packet(s, budget=1472)
    assert [c.flow_id for c in chunks[:3]] == [3, 1, 2]
    assert list(s.send_flows) == [2, 3, 1]


# ----------------------------------------------------------------- acking


def recv_chunk(rf, seq, payload=b"x" * 140):
    rf.on_data_chunk(wire.DataChunk(rf.flow_id, seq, wire.FRAG_WHOLE, False, payload), 0)
    return rf.end_of_packet()


def test_ack_after_every_second_data_packet():
    rf = RecvFlow(19, 65536)
    assert recv_chunk(rf, 1) is None
    ack = recv_chunk(rf, 2)
    assert ack is not None
    assert ack.cum_ack == 2 and ack.gaps == []


def test_gap_triggers_immediate_ack_with_ranges():
    rf = RecvFlow(19, 65536)
    assert recv_chunk(rf, 1) is None
    ack = recv_chunk(rf, 3)
    assert ack is not None
    assert ack.cum_ack == 1
    assert ack.gaps == [(3, 3)]


def test_duplicate_chunk_counts_toward_acking_only():
    rf = RecvFlow(19, 65536)
    recv_chunk(rf, 1)
    before = (rf.cum_ack, rf.occupied_bytes)
    ack = recv_chunk(rf, 1)  # duplicate delivery
    assert (rf.cum_ack, rf.occupied_bytes) == before
    assert rf.duplicates == 1
    assert ack is not None  # second data packet -> cadence ack


def test_receive_buffer_overflow_discards_chunk():
    rf = RecvFlow(19, rcv_buffer_size=200)
    recv_chunk(rf, 1, payload=b"x" * 150)
    recv_chunk(rf, 2, payload=b"y" * 150)
    assert rf.discarded_full == 1
    assert rf.cum_ack == 1
    assert rf.adv_buffer() == 50


def test_ack_advertises_free_buffer():
    rf = RecvFlow(19, 65536)
    recv_chunk(rf, 1)
    ack = recv_chunk(rf, 2)
    assert ack.adv_buffer == 65536 - 280
    rf.app_read()
    assert rf.adv_buffer() == 65536


# ----------------------------------------------------------------- on_ack


def sent_flow(n=10, size=140):
    f = send_flow()
    for _ in range(n):
        f.enqueue_message(Message(b"x" * size))
    s = FakeSession(f)
    while fill_packet(s, budget=1472):
        pass
    return f


def test_cumulative_ack_returns_payload_byte_count():
    f = sent_flow(10)
    res = f.on_ack(wire.AckChunk(19, 10, [], 65536), now=0)
    assert res.acked_bytes == 1400
    assert res.losses_detected == 0
    assert not f.outstanding


def test_third_omission_marks_chunk_lost_exactly_once():
    f = sent_flow(9)
    r1 = f.on_ack(wire.AckChunk(19, 4, [(6, 7)], 65536), now=0)
    assert (r1.losses_detected, f.outstanding[5].loss_reports) == (0, 1)
    r2 = f.on_ack(wire.AckChunk(19, 4, [(6, 8)], 65536), now=0)
    assert (r2.losses_detected, f.outstanding[5].loss_reports) == (0, 2)
    assert f.flight_bytes == 2 * 140  # seqs 5 and 9
    r3 = f.on_ack(wire.AckChunk(19, 4, [(6, 9)], 65536), now=0)
    assert r3.losses_detected == 1
    assert f.outstanding[5].state == ST_RETRANSMIT
    # The lost chunk leaves flight but stays outstanding at the receiver.
    assert (f.flight_bytes, f.outstanding_payload) == (0, 140)
    r4 = f.on_ack(wire.AckChunk(19, 4, [(6, 9)], 65536), now=0)
    assert r4.losses_detected == 0  # never reported lost twice
    assert f.flight_bytes == 0


def test_identical_ack_is_idempotent():
    f = sent_flow(10)
    ack = wire.AckChunk(19, 10, [], 65536)
    f.on_ack(ack, now=0)
    res = f.on_ack(ack, now=0)
    assert (res.acked_bytes, res.losses_detected) == (0, 0)


def test_stale_ack_for_unsent_range_is_ignored():
    f = sent_flow(4)
    res = f.on_ack(wire.AckChunk(19, 90, [(95, 99)], 65536), now=0)
    assert res.acked_bytes == 560  # everything outstanding is below cum_ack
    res = f.on_ack(wire.AckChunk(19, 90, [(95, 99)], 65536), now=0)
    assert res.acked_bytes == 0


def test_ack_with_widest_gap_costs_what_is_outstanding_not_the_range():
    f = sent_flow(6)
    t0 = time.perf_counter()
    res = f.on_ack(wire.AckChunk(19, 1, [(3, 2**32 - 1)], 65536), now=0)
    assert time.perf_counter() - t0 < 1.0
    assert list(f.outstanding) == [2]
    assert (res.acked_bytes, res.losses_detected, f.flight_bytes) == (5 * 140, 0, 140)
    assert f.outstanding[2].loss_reports == 1


def test_ack_retires_exactly_the_covered_seqs():
    # Gaps in any order, overlapping each other or below cum_ack (what a
    # faulty peer might send) still retire each covered chunk once.
    rng = random.Random(7)
    for _ in range(200):
        f = sent_flow(40)
        cum = rng.randrange(0, 20)
        gaps = [tuple(sorted(rng.sample(range(1, 60), 2))) for _ in range(rng.randrange(0, 5))]
        covered = {seq for seq in f.outstanding
                   if seq <= cum or any(lo <= seq <= hi for lo, hi in gaps)}
        res = f.on_ack(wire.AckChunk(19, cum, gaps, 65536), now=0)
        assert set(f.outstanding) == set(range(1, 41)) - covered
        assert res.acked_bytes == 140 * len(covered)


def test_gap_order_does_not_change_loss_reports():
    # A peer may list its received ranges in any order; the ranges, not their
    # order, say which chunks are missing below the highest one.
    rng = random.Random(11)
    for _ in range(200):
        cum = rng.randrange(0, 10)
        gaps = []
        lo = cum + 2
        while lo < 40 and rng.random() < 0.7:
            hi = rng.randrange(lo, 41)
            gaps.append((lo, hi))
            lo = hi + 2
        shuffled = rng.sample(gaps, len(gaps))
        flows = [sent_flow(40), sent_flow(40)]
        for _ in range(LOSS_REPORT_LIMIT):
            results = [f.on_ack(wire.AckChunk(19, cum, g, 65536), now=0)
                       for f, g in zip(flows, (gaps, shuffled))]
            assert results[0] == results[1]
            assert [(seq, c.loss_reports, c.state) for seq, c in flows[0].outstanding.items()] \
                == [(seq, c.loss_reports, c.state) for seq, c in flows[1].outstanding.items()]
    f = sent_flow(12)
    f.on_ack(wire.AckChunk(19, 2, [(10, 12), (5, 6)], 65536), now=0)
    assert f.loss_reports_received == 5  # seqs 3, 4, 7, 8 and 9


def test_ack_updates_flow_control_gate():
    f = sent_flow(2)
    f.on_ack(wire.AckChunk(19, 2, [], 1234), now=0)
    assert f.peer_adv_buffer == 1234


def test_retransmission_resets_loss_reports_and_keeps_seq():
    f = sent_flow(9)
    for k in (6, 7, 8):
        f.on_ack(wire.AckChunk(19, 4, [(6, k)], 65536), now=0)
    s = FakeSession(f)
    chunks = fill_packet(s, budget=1472)
    assert chunks[0].seq == 5
    assert f.outstanding[5].state == ST_IN_FLIGHT
    assert f.outstanding[5].loss_reports == 0
    assert f.retransmissions == 1


def test_a_chunk_acked_while_it_waits_to_be_resent_leaves_no_trace():
    # Seq 5 is reported lost three times, then acked before it is resent:
    # a fill that finds nothing to send leaves the flow as it was.
    f = sent_flow(9)
    for k in (6, 7, 8):
        f.on_ack(wire.AckChunk(19, 4, [(6, k)], 65536), now=0)
    assert f.outstanding[5].state == ST_RETRANSMIT
    f.on_ack(wire.AckChunk(19, 9, [], 65536), now=0)
    s = FakeSession(f)
    before = snapshot(s)
    assert fill_packet(s, budget=1472) is None
    assert snapshot(s) == before


def test_force_retransmit_all_moves_in_flight_bytes():
    f = sent_flow(9)
    assert f.flight_bytes == 9 * 140
    f.force_retransmit_all()
    assert f.flight_bytes == 0 and f.outstanding_payload == 9 * 140
    assert all(c.state == ST_RETRANSMIT for c in f.outstanding.values())
    f.force_retransmit_all()
    assert f.flight_bytes == 0
    # Retransmitting puts the chunks back in flight.
    assert len(fill_packet(FakeSession(f), budget=1472)) == 9
    assert f.flight_bytes == 9 * 140


# ---------------------------------------------------------------- app_read


def test_app_read_returns_messages_in_order():
    rf = RecvFlow(19, 65536)
    for i, payload in enumerate((b"aa", b"bb", b"cc"), start=1):
        recv_chunk(rf, i, payload=payload)
    msgs = rf.app_read()
    assert msgs == [b"aa", b"bb", b"cc"]


def test_read_from_empty_flow_is_empty():
    rf = RecvFlow(19, 65536)
    assert rf.app_read() == []


def test_read_frees_buffer_and_flags_window_update():
    rf = RecvFlow(19, rcv_buffer_size=300)
    recv_chunk(rf, 1, payload=b"x" * 140)
    ack = recv_chunk(rf, 2, payload=b"x" * 140)
    assert ack.adv_buffer == 20
    assert not rf.window_update_due()
    rf.app_read()
    assert rf.window_update_due()


def test_window_update_is_due_below_the_largest_chunk_any_sender_can_send():
    # Our own chunks would hold 1078 bytes; a sender's may hold up to
    # wire.MAX_CHUNK_PAYLOAD. An advertised 1100 bytes admits none of the
    # 1450-byte chunks here, so freeing space is due.
    rf = RecvFlow(19, rcv_buffer_size=4000)
    recv_chunk(rf, 1, payload=b"x" * 1450)
    ack = recv_chunk(rf, 2, payload=b"x" * 1450)
    assert ack.adv_buffer == 1100
    assert not rf.window_update_due()
    rf.app_read()
    assert rf.window_update_due()


def test_window_update_is_due_on_a_buffer_under_two_chunks():
    # One 900-byte chunk leaves 1100 of 2000 bytes advertised, too little for
    # a chunk of up to wire.MAX_CHUNK_PAYLOAD, though more than half the
    # buffer: half the buffer is no bound on the sender's next chunk.
    rf = RecvFlow(19, rcv_buffer_size=2000)
    rf.on_data_chunk(wire.DataChunk(19, 1, wire.FRAG_WHOLE, False, b"x" * 900), 0)
    assert rf.make_ack(0).adv_buffer == 1100
    assert not rf.window_update_due()
    assert rf.app_read() == [b"x" * 900]
    assert rf.window_update_due()


def test_window_update_is_not_due_after_an_ack_that_admitted_any_chunk():
    rf = RecvFlow(19, rcv_buffer_size=4000)
    recv_chunk(rf, 1, payload=b"x" * 1261)
    assert recv_chunk(rf, 2, payload=b"x" * 1261).adv_buffer == wire.MAX_CHUNK_PAYLOAD
    rf.app_read()
    assert not rf.window_update_due()
