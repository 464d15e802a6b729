import pytest

from conftest import PacketSniffer, Responder
from rtmfpsim import netsim, wire
from rtmfpsim.engine import DELAYED_ACK_US, S_KEYING_SENT, S_OPEN
from rtmfpsim.flows import MAX_ACK_GAPS, Message, RecvFlow
from rtmfpsim.harness import preset_points, run_config


def mini_config(num=2000, size=140, interval_us=1000, seed=3, duration_s=15,
                loss=0.0, delay_ms=20, extra_host1="", flows=1):
    flow_ids = " ".join(str(19 + i * 69) for i in range(flows))
    return f"""
[scenario]
seed = {seed}
duration = {duration_s}s

[topology]
bottleneckBandwidth = 10Mbit
bottleneckDelay = {delay_ms}ms
bottleneckLoss = {loss}

[host.1]
localPort = 4711
{extra_host1}

[host.2]
localPort = 2013

[app.1.0]
localEpd = 4712
remoteAddress = "host2"
remotePort = 2013
remoteEpd = 2014
flowsOutgoing = {flows}
flowPacketSize = "{' '.join([f'{size}byte'] * flows)}"
flowSendInterval = "{' '.join([f'{interval_us}us'] * flows)}"
flowNumPackets = "{' '.join([str(num)] * flows)}"
flowId = "{flow_ids}"

[app.2.0]
localEpd = 2014
"""


def run_sniffed(text, **kw):
    sniffer = PacketSniffer()

    def prepare(bundle):
        bundle.links["bottleneck:lr"].observer = sniffer
        bundle.links["bottleneck:rl"].observer = sniffer
        if "prepare" in kw:
            kw["prepare"](bundle)

    res = run_config(text, scenario_id="engine-test", prepare=prepare)
    return res, sniffer


def handshake_dsts(sniffer):
    """Where each handshake packet host1 sent went, in send order."""
    return [dgram.dst for _, dgram, _, _, pkt in sniffer.records
            if dgram.src == ("host1", 4711) and pkt is not None
            and isinstance(pkt.chunks[0], wire.HandshakeChunk)]


# ---------------------------------------------------------------- handshake


def test_loss_free_handshake_is_exactly_four_packets_before_data():
    res, sniffer = run_sniffed(mini_config(num=50))
    packets = sniffer.packets()
    first_data = next(i for i, (_, pkt, _) in enumerate(packets)
                      if any(isinstance(c, wire.DataChunk) for c in pkt.chunks))
    assert first_data == 4
    kinds = [pkt.chunks[0].kind for _, pkt, _ in packets[:4]]
    assert kinds == [wire.T_IHELLO, wire.T_RHELLO, wire.T_IIKEYING, wire.T_RIKEYING]
    assert res.summary["handshakes_completed"] == 2  # one per side


def test_lost_ihello_retransmits_after_one_second_and_opens():
    def drop_first(bundle):
        bundle.links["bottleneck:lr"].forced_drops = {0}

    res, sniffer = run_sniffed(mini_config(num=50), prepare=drop_first)
    hs = sniffer.handshake_packets()
    assert len(hs) == 5  # IHello, IHello again, then the normal three
    assert hs[1][0] - hs[0][0] == 1_000_000
    # The IHello, its retry and the IIKeying all go to the one peer address.
    assert handshake_dsts(sniffer) == [("host2", 2013)] * 3
    assert res.summary["handshakes_completed"] == 2
    sender = res.stats("host1", 4712, 19, "send")
    receiver = res.stats("host2", 2014, 19, "recv")
    assert receiver.msgs == sender.msgs == 50


def run_keying_drops(ordinals, duration):
    """bottleneck-basic with the given packets of host1's uplink dropped;
    -> (result, [(send time, handshake kind)] of host1's handshake sends,
    the destination of each)."""
    [(_, text)] = preset_points("bottleneck-basic", seed=1)
    sniffer = PacketSniffer()

    def prepare(bundle):
        uplink = bundle.links["access:host1:up"]
        uplink.forced_drops = set(ordinals)
        uplink.observer = sniffer

    res = run_config(text, {"scenario.duration": duration}, "keying-drops",
                     prepare=prepare)
    return (res, [(now, pkt.chunks[0].kind) for now, pkt, _ in sniffer.handshake_packets()],
            handshake_dsts(sniffer))


def test_lost_iikeying_is_resent_on_the_doubled_timeout_and_opens():
    # Packet 0 is the IHello, packet 1 the first IIKeying. The retry doubles on
    # from the IHello step: the IIKeying is the second send, so it waits 2 s.
    res, sends, dsts = run_keying_drops({1}, "15s")
    assert sends[:3] == [(0, wire.T_IHELLO), (40_156, wire.T_IIKEYING),
                         (2_040_156, wire.T_IIKEYING)]
    assert dsts == [("host2", 2013)] * len(sends)
    assert res.summary["handshakes_completed"] == 2
    assert res.summary["sessions_failed"] == 0
    assert res.stats("host2", 2014, 19, "recv").msgs > 0


def test_iikeying_attempts_share_the_five_attempt_budget():
    res, sends, dsts = run_keying_drops({1, 2, 3, 4}, "31s")
    assert sends == [(0, wire.T_IHELLO), (40_156, wire.T_IIKEYING),
                     (2_040_156, wire.T_IIKEYING), (6_040_156, wire.T_IIKEYING),
                     (14_040_156, wire.T_IIKEYING)]
    assert dsts == [("host2", 2013)] * 5
    assert res.summary["sessions_failed"] == 1
    assert res.summary["handshakes_completed"] == 0


def test_all_packets_dropped_closes_after_five_attempts():
    res, sniffer = run_sniffed(mini_config(num=50, loss=1.0, duration_s=40))
    attempts = [now for now, pkt, _ in sniffer.handshake_packets()
                if pkt.chunks[0].kind == wire.T_IHELLO]
    assert len(attempts) == 5
    # Initial send plus 1, 2, 4, 8 s backoff gaps; failure comes 16 s later.
    assert [b - a for a, b in zip(attempts, attempts[1:])] == [
        1_000_000, 2_000_000, 4_000_000, 8_000_000]
    engine1 = res.bundle.engines["host1"]
    assert engine1.sessions == {}
    assert res.summary["sessions_failed"] == 1
    # A late packet to the failed session's id finds no session.
    failed_sid = sniffer.handshake_packets()[0][1].chunks[0].sid
    late = wire.Packet(failed_sid, 0, 0, wire.TS_NONE, [wire.AckChunk(19, 0)])
    before = engine1.unknown_session
    engine1.handle_datagram(netsim.Datagram(("host2", 2013), ("host1", 4711),
                                            late), res.bundle.sim.now)
    assert engine1.unknown_session == before + 1
    # The app still reports its configured flow, with zero traffic.
    st = res.stats("host1", 4712, 19, "send")
    assert st.msgs == 0 and st.goodput_bps == 0.0


def test_handshake_timing_reflects_path_rtt():
    res, _ = run_sniffed(mini_config(num=50, delay_ms=20))
    # The first message goes out when the session opens.
    opened_at = res.stats("host1", 4712, 19, "send").first_us
    assert 80_000 <= opened_at <= 84_000  # two RTTs of 2*20 ms
    session = res.bundle.apps[0].session
    assert 40_000 <= session.srtt_us <= 42_000


def opened_777(r):
    """IHello from initiator session 777, then the IIKeying echoing the
    RHello's cookie; -> (the responder session, the cookie)."""
    r.ihello(777, 0)
    cookie = r.rhellos()[0].chunks[0].cookie
    r.iikeying(777, cookie, 100_000)
    (s,) = r.opened
    return s, cookie


def test_ihello_gets_an_rhello_with_a_cookie_and_opens_nothing():
    r = Responder()
    r.ihello(777, 0)
    r.ihello(777, 1_000)
    r.ihello(778, 2_000)
    assert r.engine.sessions == {} and r.opened == []
    first, again, other = r.rhellos()
    # To the initiator's session; the responder has no session id to name yet.
    assert (first.session_id, first.chunks[0].sid, first.chunks[0].epd) == (777, 0, 2014)
    cookie = first.chunks[0].cookie
    assert len(cookie) == wire.COOKIE_LEN and cookie != wire.NO_COOKIE
    # Nothing is kept between IHellos: the same one gets the same cookie.
    assert again.chunks[0].cookie == cookie
    assert other.chunks[0].cookie != cookie
    assert r.engine.delivered_packets == 3 and r.engine.unknown_session == 0


def test_iikeying_echoing_the_cookie_opens_the_session():
    r = Responder()
    s, _ = opened_777(r)
    assert s.state == S_OPEN and r.engine.sessions == {s.local_sid: s}
    assert (s.peer_sid, s.peer_address) == (777, ("host9", 5000))
    (rik,) = r.rikeyings()
    assert (rik.session_id, rik.chunks[0].sid) == (777, s.local_sid)


def test_forged_cookie_opens_nothing_and_counts_as_unknown_session():
    r = Responder()
    r.ihello(777, 0)
    cookie = r.rhellos()[0].chunks[0].cookie
    r.ihello(778, 0)
    other = r.rhellos()[1].chunks[0].cookie
    forged = [wire.NO_COOKIE, cookie[:-1] + bytes([cookie[-1] ^ 1]), other]
    for i, bad in enumerate(forged, start=1):
        r.iikeying(777, bad, 100_000 * i)
        assert r.engine.unknown_session == i
    assert r.engine.sessions == {} and r.opened == [] and r.rikeyings() == []


def test_repeated_iikeying_repeats_the_rikeying_without_a_second_session():
    r = Responder()
    s, cookie = opened_777(r)
    r.iikeying(777, cookie, 200_000)
    assert r.opened == [s] and list(r.engine.sessions.values()) == [s]
    first, again = r.rikeyings()
    assert first.chunks == again.chunks
    # A late IHello for the open session gets no answer.
    r.ihello(777, 300_000)
    assert len(r.rhellos()) == 1
    assert r.engine.unknown_session == 0


def test_iikeying_from_a_new_address_moves_the_open_session():
    r = Responder()
    s, cookie = opened_777(r)
    r.iikeying(777, cookie, 200_000, src=("host9", 5001))
    assert r.opened == [s] and list(r.engine.sessions.values()) == [s]
    assert s.peer_address == ("host9", 5001) and s.mobility_events == 1
    assert len(r.rikeyings()) == 2 and r.engine.unknown_session == 0
    # An IHello from the new address is a new key: it gets a fresh cookie.
    r.ihello(777, 300_000)
    r.receive(0, wire.HandshakeChunk(wire.T_IHELLO, epd=2014, sid=777), 400_000,
              src=("host9", 5001))
    assert len(r.rhellos()) == 2 and r.rhellos()[1].chunks[0].cookie != cookie


# -------------------------------------------------------------------- demux


def test_unknown_session_id_counted_and_dropped():
    def inject(bundle):
        sim = bundle.sim
        host2 = bundle.hosts["host2"]
        pkt = wire.Packet(0xDEAD0001, wire.FLAG_ESTABLISHED,
                          chunks=[wire.AckChunk(1, 0, [], 0)])
        from rtmfpsim.netsim import Datagram
        sim.schedule(5_000_000, "host2", "app-tick",
                     lambda t: host2.handle_datagram(
                         Datagram(("host1", 4711), ("host2", 2013), pkt), t))

    res, _ = run_sniffed(mini_config(num=50), prepare=inject)
    assert res.bundle.engines["host2"].unknown_session == 1


def inject_into_initiator(at, chunk):
    """A 50-message run in which host1's session is handed, at `at`, a packet
    from the responder's address that carries `chunk`; -> (the result, the
    session, what it looked like just before and just after the packet).

    The packet counts as delivered: host1's engine counts one packet more
    than its links brought it."""
    seen = []

    def prepare(bundle):
        engine1 = bundle.engines["host1"]

        def deliver(now):
            (s,) = engine1.sessions.values()

            def look():
                return {"session": s, "state": s.state, "cwnd": s.cc.cwnd,
                        "cwnd_rows": len(engine1.cwnd_log), "send_flows": dict(s.send_flows),
                        "delivered": engine1.delivered_packets}

            seen.append(look())
            pkt = wire.Packet(s.local_sid, chunks=[chunk])
            engine1.handle_datagram(netsim.Datagram(("host2", 2013), ("host1", 4711), pkt), now)
            seen.append(look())

        bundle.sim.schedule(at, "host1", netsim.KIND_TIMER, deliver)

    res, _ = run_sniffed(mini_config(num=50), prepare=prepare)
    before, after = seen
    engine1 = res.bundle.engines["host1"]
    inbound = sum(link.admitted for link in res.bundle.links.values()
                  if link.dst_node is engine1.host)
    assert after["delivered"] == before["delivered"] + 1
    assert engine1.delivered_packets + engine1.unknown_session == inbound + 1
    return res, before["session"], before, after


def test_second_rikeying_to_an_open_initiator_changes_nothing():
    res, s, before, _ = inject_into_initiator(
        5_000_000, wire.HandshakeChunk(wire.T_RIKEYING, sid=0xBEEF))
    engine1 = res.bundle.engines["host1"]
    (responder,) = res.bundle.engines["host2"].sessions.values()
    assert before["state"] == S_OPEN and s.peer_sid == responder.local_sid != 0xBEEF
    assert engine1.handshakes_completed == 1
    assert engine1.registry.sessions == [s]
    assert list(s.send_flows) == list(before["send_flows"])
    assert all(s.send_flows[k] is f for k, f in before["send_flows"].items())


def test_late_rhello_to_an_open_initiator_changes_nothing():
    res, s, before, after = inject_into_initiator(
        5_000_000, wire.HandshakeChunk(wire.T_RHELLO, 2014, 0, b"\x01" * wire.COOKIE_LEN))
    engine2 = res.bundle.engines["host2"]
    (cookie,) = engine2._responders
    # It takes neither the new cookie nor a handshake step.
    assert before["state"] == after["state"] == S_OPEN
    assert (s.cookie, s.hs_sends) == (cookie, 2)
    assert s.peer_sid == engine2._responders[cookie].local_sid


def test_data_chunk_to_a_session_in_keying_sent_is_dropped():
    res, s, before, after = inject_into_initiator(
        60_000, wire.DataChunk(19, 1, wire.FRAG_WHOLE, False, b"x" * 140))
    assert before["state"] == after["state"] == S_KEYING_SENT
    assert s.state == S_OPEN and s.recv_flows == {}
    assert [st for st in res.flow_stats if st.direction == "recv"] == [
        res.stats("host2", 2014, 19, "recv")]
    assert res.stats("host2", 2014, 19, "recv").msgs == 50


def test_ack_for_a_flow_never_sent_changes_nothing():
    _, _, before, after = inject_into_initiator(
        5_000_000, wire.AckChunk(999, 5, [(7, 9)], 1000))
    assert before["state"] == S_OPEN and list(after["send_flows"]) == [19]
    assert (after["cwnd"], after["cwnd_rows"]) == (before["cwnd"], before["cwnd_rows"])


def test_a_packet_larger_than_max_segment_size_is_refused_at_send():
    r = Responder()  # maxSegmentSize 1472

    def send(payload_size):
        chunk = wire.DataChunk(19, 1, wire.FRAG_WHOLE, False, b"x" * payload_size)
        r.engine._send(7, 0, wire.TS_NONE, [chunk], ("host9", 5000), 0)

    send(1450)  # 12 + 10 + 1450 = 1472 bytes
    with pytest.raises(AssertionError, match="maxSegmentSize"):
        send(1451)
    assert [len(p) for p in r.sent] == [1472]


def test_demux_totality_every_datagram_hits_exactly_one_counter():
    res, _ = run_sniffed(mini_config(num=500))
    hosts = [engine.host for engine in res.bundle.engines.values()]
    inbound = sum(link.admitted for link in res.bundle.links.values()
                  if any(link.dst_node is host for host in hosts))
    s = res.summary
    assert s["delivered_packets"] + s["unknown_session"] == inbound


def test_ihello_for_unregistered_epd_is_ignored():
    def misdirect(bundle):
        app = bundle.apps[0]
        app.config.remote_epd = 9999  # nobody registered this EPD

    res, sniffer = run_sniffed(mini_config(num=50, duration_s=40),
                               prepare=misdirect)
    assert res.summary["unknown_epd"] == 5  # every IHello attempt
    assert res.summary["sessions_failed"] == 1
    assert not sniffer.data_packets()


def test_recv_flow_auto_created_on_first_data_chunk():
    res, _ = run_sniffed(mini_config(num=50, flows=2))
    engine2 = res.bundle.engines["host2"]
    session = next(iter(engine2.sessions.values()))
    assert sorted(session.recv_flows) == [19, 88]
    assert res.stats("host2", 2014, 88, "recv").msgs == 50


def test_acks_of_two_gappy_flows_are_split_to_fit_the_segment_size():
    # Two acks of MAX_ACK_GAPS ranges each are 2 x 1040 bytes: one packet
    # cannot hold both within maxSegmentSize (1472 bytes).
    uplink = PacketSniffer()

    def tap(bundle):
        bundle.links["access:host2:up"].observer = uplink

    res, _ = run_sniffed(mini_config(num=50, duration_s=1), prepare=tap)
    engine2 = res.bundle.engines["host2"]
    session = next(iter(engine2.sessions.values()))
    top = 2 * MAX_ACK_GAPS + 2
    chunks = []
    for flow_id in (101, 102):
        rf = session.recv_flows[flow_id] = RecvFlow(flow_id, 1 << 20)
        for seq in range(2, top, 2):  # every odd seq missing: one gap per chunk
            rf.on_data_chunk(wire.DataChunk(flow_id, seq, wire.FRAG_WHOLE, False, b"x"), 0)
        chunks.append(wire.DataChunk(flow_id, top + 1, wire.FRAG_WHOLE, False, b"x"))
    pkt = wire.Packet(session.local_sid, wire.FLAG_ESTABLISHED, 0, wire.TS_NONE, chunks)
    dgram = netsim.Datagram(session.peer_address, ("host2", engine2.local_port), pkt)
    before = len(uplink.records)
    engine2.handle_datagram(dgram, res.bundle.sim.now)
    sent = uplink.records[before:]
    assert [d.size for _, d, *_ in sent] == [1052, 1052]
    acks = [c for *_, p in sent for c in p.chunks]
    assert [(a.flow_id, len(a.gaps)) for a in acks] == [(101, MAX_ACK_GAPS),
                                                       (102, MAX_ACK_GAPS)]


# ----------------------------------------------------------------- transmit


def test_window_gates_initial_burst_to_three_packets():
    text = mini_config(num=50)
    text = text.replace('flowNumPackets = "50"', 'flowNumPackets = "0"')
    uplink = PacketSniffer()

    def tap(bundle):
        bundle.links["access:host1:up"].observer = uplink

    res, _ = run_sniffed(text, prepare=tap)
    engine1 = res.bundle.engines["host1"]
    session = next(iter(engine1.sessions.values()))
    assert session.state == S_OPEN
    flow = session.send_flows[19]  # created at session open, app sent nothing
    for _ in range(20):
        flow.enqueue_message(Message(b"x" * 140))
    before = len(uplink.data_packets())
    engine1.transmit_opportunity(session, res.bundle.sim.now)
    burst = uplink.data_packets()[before:]
    assert [len(pkt.chunks) for _, pkt, _ in burst] == [9, 9, 2]
    assert session.flight() == flow.flight_bytes == 20 * 140


def test_flight_equal_to_cwnd_sends_nothing():
    text = mini_config(num=50)
    text = text.replace('flowNumPackets = "50"', 'flowNumPackets = "0"')
    res, sniffer = run_sniffed(text)
    engine1 = res.bundle.engines["host1"]
    session = next(iter(engine1.sessions.values()))
    flow = session.send_flows[19]
    # 30 146-byte chunks fill the initial 4380-byte window exactly.
    assert session.cc.cwnd == 4380
    for _ in range(30):
        flow.enqueue_message(Message(b"x" * 146))
    assert engine1.transmit_opportunity(session, res.bundle.sim.now) == 4
    assert session.flight() == int(session.cc.cwnd) and not flow.unsent
    flow.enqueue_message(Message(b"x" * 1))
    before = len(sniffer.data_packets())
    assert engine1.transmit_opportunity(session, res.bundle.sim.now) == 0
    assert len(sniffer.data_packets()) == before


def test_sender_stalls_when_receiver_never_reads():
    # Reads are delayed beyond the run: the advertised buffer drains to zero
    # and the sender stops with at most one receive buffer of data delivered.
    text = mini_config(num=4000, interval_us=200, duration_s=10)
    text = text.replace("[app.2.0]\nlocalEpd = 2014",
                        "[app.2.0]\nlocalEpd = 2014\nreadDelay = 3600s")
    res, _ = run_sniffed(text)
    session1 = next(iter(res.bundle.engines["host1"].sessions.values()))
    flow = session1.send_flows[19]
    assert flow.unsent and flow.next_chunk() is None  # gated, not drained
    session2 = next(iter(res.bundle.engines["host2"].sessions.values()))
    rf = session2.recv_flows[19]
    assert 65536 - 2 * 1450 <= rf.occupied_bytes <= 65536
    assert res.stats("host2", 2014, 19, "recv").msgs == 0  # the app never read
    assert res.stats("host1", 4712, 19, "send").msgs == 4000  # app kept queueing


def test_window_update_ack_unblocks_a_stalled_sender():
    # The sender queues everything long before the receiver's first delayed
    # read; only the read's window-update ack can restart the transfer.
    text = mini_config(num=2000, interval_us=100, duration_s=20, delay_ms=10)
    text = text.replace("[app.2.0]\nlocalEpd = 2014",
                        "[app.2.0]\nlocalEpd = 2014\nreadDelay = 1s")
    res, _ = run_sniffed(text)
    assert res.stats("host2", 2014, 19, "recv").msgs == 2000


def test_window_update_reaches_a_sender_with_larger_segments():
    # host1 sends 1450-byte chunks to a receiver whose own chunks hold 1078
    # bytes. Once the advertised buffer falls below 1450 the sender waits;
    # only a window update measured against its chunks restarts it. Without
    # one, 76 messages arrive, the last at 251.7 ms.
    text = mini_config(num=1_000_000, size=1450, interval_us=100, duration_s=20,
                       delay_ms=10)
    res = run_config(text, {"host.2.maxSegmentSize": "1100byte",
                            "host.2.rcvBufferSize": "66500byte",
                            "app.2.0.readDelay": "100ms"}, "mss-mismatch")
    recv = res.stats("host2", 2014, 19, "recv")
    assert recv.msgs >= 6000 and recv.last_us > 19_000_000


@pytest.mark.parametrize("seed", [1, 3])
def test_window_update_keeps_variable_chunks_flowing_into_a_small_buffer(seed):
    # A 2,000-byte buffer advertises, after one chunk of up to 1,450 bytes,
    # less than the next chunk may need. Only the window update sent by the
    # read that frees it restarts the sender; without one, the last message
    # of these runs arrives before 0.7 s.
    (scenario_id, text), = preset_points("bottleneck-basic", seed)
    res = run_config(text, {"host.2.rcvBufferSize": "2000byte",
                            "app.1.0.flowPacketSize": "uniform(100byte,1450byte)",
                            "app.1.0.flowSendInterval": "1ms", "app.2.0.readDelay": "50ms",
                            "scenario.duration": "3s"}, scenario_id)
    assert res.stats("host2", 2014, 19, "recv").last_us > 2_000_000


@pytest.mark.parametrize("next_data_at", [170_000, 300_000])
def test_a_window_update_ack_clears_the_pending_flush(next_data_at):
    # A 2,000-byte buffer: two chunks bring an ack advertising 100 bytes, a
    # third arms the flush, due at 180 ms, and a read at 140 ms frees the
    # buffer and sends a window update. That ack answers the third chunk too,
    # so the flush goes with it: it neither fires with nothing to ack nor acks
    # the next chunk (at 170 ms or at 300 ms) before its own 50 ms are up.
    r = Responder()
    r.engine.spec.rcv_buffer_size = 2000
    flushes = []  # whether each flush that fired found an ack pending
    on_delack = r.engine._on_delack
    r.engine._on_delack = lambda s, rf, now: (flushes.append(rf.ack_pending()),
                                              on_delack(s, rf, now))
    s, _ = opened_777(r)

    def data(seq, size, at):
        r.receive(s.local_sid, wire.DataChunk(19, seq, wire.FRAG_WHOLE, False, b"x" * size), at)

    data(1, 1000, 110_000)
    data(2, 900, 120_000)
    data(3, 50, 130_000)
    rf = s.recv_flows[19]
    assert [p.chunks[0].adv_buffer for p in r.sent[2:]] == [100]
    assert rf.delack_timer is not None
    r.sim.run_until(140_000)
    assert len(r.engine.read_flow(s, 19)) == 3
    assert [(p.chunks[0].cum_ack, p.chunks[0].adv_buffer) for p in r.sent[2:]] == [
        (2, 100), (3, 2000)]
    assert rf.delack_timer is None
    data(4, 1, next_data_at)
    r.sim.run_until(next_data_at + DELAYED_ACK_US - 1)
    assert len(r.sent) == 4
    r.sim.run_until(next_data_at + DELAYED_ACK_US)
    assert [p.chunks[0].cum_ack for p in r.sent[2:]] == [2, 3, 4]
    assert flushes == [True]


def idle_sender(flows=1):
    """A run whose app sent nothing: -> (sim, sender engine, its open session)."""
    res, _ = run_sniffed(mini_config(num=0, duration_s=1, flows=flows))
    engine1 = res.bundle.engines["host1"]
    session = next(iter(engine1.sessions.values()))
    assert session.state == S_OPEN and len(session.send_flows) == flows
    return res.bundle.sim, engine1, session


def fill_window(sim, engine, session, flow_id):
    """Enqueue 140-B messages until one has to wait for the window; the
    window keeps some room, too little for a chunk."""
    flow = session.send_flows[flow_id]
    while not flow.unsent:
        engine.send_message(session, flow_id, b"x" * 140, sim.now)
    assert session.flight() < session.cc.cwnd and flow.next_chunk() is flow.unsent[0]
    return flow


def test_enqueue_on_an_empty_queue_with_an_open_window_sends_at_once():
    sim, engine1, session = idle_sender()
    flow = session.send_flows[19]
    engine1.send_message(session, 19, b"x" * 140, sim.now)
    assert not flow.unsent and list(flow.outstanding) == [1]
    assert session.data_packets_out == 1


def test_enqueue_behind_a_waiting_chunk_makes_no_send_attempt():
    # No packet leaves while a chunk waits for the window; the next ack
    # opens it and the queued chunks go out.
    sim, engine1, session = idle_sender()
    flow = fill_window(sim, engine1, session, 19)
    waiting, packets = len(flow.unsent), session.data_packets_out
    for _ in range(5):
        engine1.send_message(session, 19, b"y" * 140, sim.now)
    assert len(flow.unsent) == waiting + 5 and session.data_packets_out == packets
    sim.run_until(sim.now + 1_000_000)
    assert not flow.unsent and not flow.outstanding
    assert flow.highest_sent_seq == flow.next_seq - 1


def test_two_flow_session_tries_to_send_only_for_an_enqueue_on_an_empty_queue():
    sim, engine1, session = idle_sender(flows=2)
    flow = fill_window(sim, engine1, session, 19)
    waiting, packets = len(flow.unsent), session.data_packets_out
    for _ in range(5):
        engine1.send_message(session, 19, b"y" * 140, sim.now)
    # Flow 88's queue was empty, and its chunks wait behind the same window.
    engine1.send_message(session, 88, b"z" * 140, sim.now)
    engine1.send_message(session, 88, b"z" * 140, sim.now)
    assert len(flow.unsent) == waiting + 5 and len(session.send_flows[88].unsent) == 2
    assert session.data_packets_out == packets
    sim.run_until(sim.now + 1_000_000)
    for f in session.send_flows.values():
        assert not f.unsent and not f.outstanding
        assert f.highest_sent_seq == f.next_seq - 1


# ---------------------------------------------------------------- mobility


def test_mid_transfer_address_change_is_transparent():
    plain = run_config(mini_config(num=4000, seed=11), scenario_id="plain")
    moved = run_config(mini_config(num=4000, seed=11,
                                   extra_host1="migrateAt = 2s\nmigrateTo = 4721"),
                       scenario_id="moved")
    st_plain = plain.stats("host2", 2014, 19, "recv")
    st_moved = moved.stats("host2", 2014, 19, "recv")
    assert st_plain.msgs == st_moved.msgs == 4000
    assert st_plain.digest == st_moved.digest
    assert moved.summary["mobility_events"] == 1
    assert plain.summary["mobility_events"] == 0
    # No session was re-established: same single handshake on both runs.
    assert (plain.summary["handshakes_completed"]
            == moved.summary["handshakes_completed"] == 2)
    assert moved.summary["sessions_failed"] == 0


def test_initiator_that_moves_before_the_rikeying_opens():
    # The first IIKeying leaves from 4711 at 40 ms and opens the responder
    # session; its RIKeying reaches 4711 after the move and is lost. The
    # IIKeying retry from 4721 echoes the same cookie and gets the RIKeying.
    [(_, text)] = preset_points("bottleneck-basic", seed=1)
    res = run_config(text, {"host.1.migrateAt": "45ms", "host.1.migrateTo": "4721",
                            "scenario.duration": "20s"}, "move-at-45ms")
    assert res.summary["handshakes_completed"] == 2
    assert res.summary["unknown_session"] == 0
    sent = res.stats("host1", 4712, 19, "send")
    received = res.stats("host2", 2014, 19, "recv")
    assert received.msgs == sent.msgs == 5000
    assert received.digest == sent.digest


def test_replies_follow_the_new_address_within_one_rtt():
    res, sniffer = run_sniffed(
        mini_config(num=4000, seed=11,
                    extra_host1="migrateAt = 2s\nmigrateTo = 4721"))
    acks_to_new = [now for now, d, _, _, pkt in sniffer.records
                   if pkt is not None and d.dst == ("host1", 4721)]
    assert acks_to_new
    assert min(acks_to_new) < 2_000_000 + 2 * 41_000
