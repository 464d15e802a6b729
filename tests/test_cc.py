import pytest

from rtmfpsim import netsim, wire
from rtmfpsim.cc import (MODE_DEFERRING, MODE_NORMAL, MODE_TIME_CRITICAL,
                         CcRegistry, CongestionController)
from rtmfpsim.config import HostSpec
from rtmfpsim.engine import S_OPEN, RtmfpEngine, Session
from rtmfpsim.flows import Message, SendFlow


def make_cc(cwnd=None, ssthresh=None, mode=MODE_NORMAL):
    # A host's defaults: 4380-byte initial window, 1460-byte segments.
    host = HostSpec("host1")
    cc = CongestionController(host.cc_cwnd_init, host.cc_mss)
    if cwnd is not None:
        cc.cwnd = float(cwnd)
    if ssthresh is not None:
        cc.ssthresh = float(ssthresh)
    cc.mode = mode
    return cc


class FakeSession:
    def __init__(self, name):
        self.name = name
        self.cc = make_cc()
        self.tc_active = False
        self.peer_signaled_tc = False


# ------------------------------------------------------------------- growth


def test_avoidance_growth_is_one_mss_per_window_of_acks():
    cc = make_cc(cwnd=14600, ssthresh=1)  # 10 segments, avoidance phase
    # A window of ten 1460-byte chunks, sent and then acked one at a time.
    flow = SendFlow(19, False, 1460)
    for _ in range(10):
        flow.enqueue_message(Message(b"x" * 1460))
    while (ch := flow.next_chunk()) is not None:
        flow.mark_sent(ch, 0)
    assert flow.flight_bytes == 14600
    for seq in range(1, 11):
        res = flow.on_ack(wire.AckChunk(19, seq, [], 65536), now=0)
        cc.on_ack_progress(res.acked_bytes)
    growth = cc.cwnd - 14600
    assert abs(growth - 1460) < 1460 * 0.1
    assert flow.flight_bytes == 0


def test_time_critical_avoidance_grows_twice_as_fast():
    cc = make_cc(cwnd=14600, ssthresh=1, mode=MODE_TIME_CRITICAL)
    for _ in range(10):
        cc.on_ack_progress(1460)
    growth = cc.cwnd - 14600
    assert abs(growth - 2920) < 2920 * 0.1


def test_deferring_growth_is_halved():
    cc = make_cc(cwnd=14600, ssthresh=1, mode=MODE_DEFERRING)
    for _ in range(10):
        cc.on_ack_progress(1460)
    growth = cc.cwnd - 14600
    assert abs(growth - 730) < 730 * 0.12


def test_zero_bytes_acked_changes_nothing():
    for cwnd, ssthresh in ((10000, 20000), (20000, 10000)):  # slow start, then avoidance
        cc = make_cc(cwnd=cwnd, ssthresh=ssthresh)
        cc.on_ack_progress(0)
        assert cc.cwnd == cwnd and cc.ssthresh == ssthresh


def test_slow_start_adds_at_most_one_mss_per_ack():
    cc = make_cc(cwnd=4380)  # ssthresh is huge: slow start
    assert cc.cwnd < cc.ssthresh  # slow start
    cc.on_ack_progress(2920)
    assert cc.cwnd == 4380 + 1460


def test_slow_start_doubles_per_round_with_per_segment_acks():
    cc = make_cc(cwnd=4380)
    start = cc.cwnd
    acks = int(start // 1460)
    for _ in range(acks):
        cc.on_ack_progress(1460)
    assert cc.cwnd == pytest.approx(2 * start)


# ------------------------------------------------------------------- losses


def test_loss_halves_window_in_normal_mode():
    cc = make_cc(cwnd=10000, ssthresh=1)
    assert cc.on_loss_event(now=1000, srtt_us=0)
    assert cc.cwnd == 5000 and cc.ssthresh == 5000


def test_loss_reduces_by_one_eighth_in_time_critical_mode():
    cc = make_cc(cwnd=10000, ssthresh=1, mode=MODE_TIME_CRITICAL)
    cc.on_loss_event(now=1000, srtt_us=0)
    assert cc.cwnd == 8750


def test_loss_halves_window_in_deferring_mode():
    cc = make_cc(cwnd=10000, ssthresh=1, mode=MODE_DEFERRING)
    cc.on_loss_event(now=1000, srtt_us=0)
    assert cc.cwnd == 5000


def test_window_floor_is_two_segments():
    cc = make_cc(cwnd=2920, ssthresh=1)
    cc.on_loss_event(now=1000, srtt_us=0)
    assert cc.cwnd == 2920


def test_loss_events_within_one_srtt_coalesce():
    cc = make_cc(cwnd=40000, ssthresh=1)
    assert cc.on_loss_event(now=100_000, srtt_us=50_000)
    assert not cc.on_loss_event(now=120_000, srtt_us=50_000)  # same window of loss
    assert cc.cwnd == 20000
    assert cc.on_loss_event(now=200_000, srtt_us=50_000)
    assert cc.cwnd == 10000
    # Before the first RTT sample the SRTT is 0: no loss event is coalesced.
    assert cc.on_loss_event(now=200_000, srtt_us=0)
    assert cc.cwnd == 5000


# ------------------------------------------------------------------ timeout


def test_timeout_resets_window_and_halves_ssthresh():
    cc = make_cc(cwnd=20000)
    cc.on_timeout()
    assert cc.cwnd == 4380
    assert cc.ssthresh == 10000
    assert cc.cwnd < cc.ssthresh  # slow start


def test_repeated_timeouts_pin_window_at_initial():
    cc = make_cc(cwnd=4380)
    for _ in range(4):
        cc.on_timeout()
        assert cc.cwnd == 4380


# ------------------------------------------------------------------- gating


class RecordingHost:
    node_id = "host1"

    def __init__(self):
        self.sent = []

    def bind(self, port, handler):
        pass

    def send(self, dgram, now):
        self.sent.append(dgram)


def test_has_room_boundaries():
    # The engine sends only while flight < cwnd, and only whole payload bytes
    # of the window count: flight == int(cwnd) admits nothing.
    host = RecordingHost()
    engine = RtmfpEngine(netsim.Simulator(seed=1), host, HostSpec("host1"))
    s = Session(engine, "initiator", 1, 2, 7, S_OPEN)
    s.peer_address = ("host2", 2013)
    flow = s.create_send_flow(19, False)
    assert s.cc.cwnd == 4380
    flow.enqueue_message(Message(b"x" * 4379))  # four fragments
    assert engine.transmit_opportunity(s, 0) == 4
    assert s.flight() == flow.flight_bytes == 4379
    for _ in range(3):
        flow.enqueue_message(Message(b"y"))
    assert engine.transmit_opportunity(s, 0) == 1  # one byte of room
    assert s.flight() == 4380 and len(flow.unsent) == 2
    assert engine.transmit_opportunity(s, 0) == 0
    s.cc.cwnd = 4380.9
    assert engine.transmit_opportunity(s, 0) == 0
    s.cc.cwnd = 4379.0  # flight above the window
    assert engine.transmit_opportunity(s, 0) == 0
    assert len(host.sent) == 5 and len(flow.unsent) == 2


# ----------------------------------------------------------------- registry


def test_one_time_critical_session_makes_the_other_defer():
    reg = CcRegistry()
    a, b = FakeSession("a"), FakeSession("b")
    reg.add(a)
    reg.add(b)
    a.tc_active = True
    assert reg.update() == [a, b]
    assert a.cc.mode == MODE_TIME_CRITICAL
    assert b.cc.mode == MODE_DEFERRING


def test_modes_revert_when_time_critical_flow_drains():
    reg = CcRegistry()
    a, b = FakeSession("a"), FakeSession("b")
    reg.add(a)
    reg.add(b)
    a.tc_active = True
    reg.update()
    a.tc_active = False
    assert reg.update() == [a, b]
    assert a.cc.mode == MODE_NORMAL
    assert b.cc.mode == MODE_NORMAL


def test_single_session_host_only_changes_own_mode():
    reg = CcRegistry()
    a = FakeSession("a")
    reg.add(a)
    a.tc_active = True
    assert reg.update() == [a]
    assert a.cc.mode == MODE_TIME_CRITICAL
    a.tc_active = False
    assert reg.update() == [a]
    assert a.cc.mode == MODE_NORMAL


def test_deferring_iff_some_other_local_session_is_time_critical():
    reg = CcRegistry()
    sessions = [FakeSession(str(i)) for i in range(4)]
    for s in sessions:
        reg.add(s)
    sessions[2].tc_active = True
    assert reg.update() == sessions
    for i, s in enumerate(sessions):
        expected = MODE_TIME_CRITICAL if i == 2 else MODE_DEFERRING
        assert s.cc.mode == expected


def test_peer_signal_also_defers():
    reg = CcRegistry()
    a = FakeSession("a")
    reg.add(a)
    a.peer_signaled_tc = True
    reg.update()
    assert a.cc.mode == MODE_DEFERRING
