import pytest

from rtmfpsim.cc import (MODE_DEFERRING, MODE_NORMAL, MODE_TIME_CRITICAL,
                         CcRegistry, CongestionController)
from rtmfpsim.config import HostSpec


def make_cc(cwnd=None, ssthresh=None, mode=MODE_NORMAL):
    # A host's defaults: 4380-byte initial window, 1460-byte segments.
    cc = CongestionController(HostSpec.cc_cwnd_init, HostSpec.cc_mss)
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
    cc.flight_size = 14600
    for _ in range(10):
        cc.on_ack_progress(1460, now=0)
    growth = cc.cwnd - 14600
    assert abs(growth - 1460) < 1460 * 0.1
    assert cc.flight_size == 0


def test_time_critical_avoidance_grows_twice_as_fast():
    cc = make_cc(cwnd=14600, ssthresh=1, mode=MODE_TIME_CRITICAL)
    cc.flight_size = 14600
    for _ in range(10):
        cc.on_ack_progress(1460, now=0)
    growth = cc.cwnd - 14600
    assert abs(growth - 2920) < 2920 * 0.1


def test_deferring_growth_is_halved():
    cc = make_cc(cwnd=14600, ssthresh=1, mode=MODE_DEFERRING)
    cc.flight_size = 14600
    for _ in range(10):
        cc.on_ack_progress(1460, now=0)
    growth = cc.cwnd - 14600
    assert abs(growth - 730) < 730 * 0.12


def test_zero_bytes_acked_changes_nothing():
    cc = make_cc(cwnd=10000)
    cc.flight_size = 500
    cc.on_ack_progress(0, now=0)
    assert cc.cwnd == 10000 and cc.flight_size == 500


def test_slow_start_adds_at_most_one_mss_per_ack():
    cc = make_cc(cwnd=4380)  # ssthresh is huge: slow start
    assert cc.cwnd < cc.ssthresh  # slow start
    cc.flight_size = 4380
    cc.on_ack_progress(2920, now=0)
    assert cc.cwnd == 4380 + 1460


def test_slow_start_doubles_per_round_with_per_segment_acks():
    cc = make_cc(cwnd=4380)
    start = cc.cwnd
    acks = int(start // 1460)
    cc.flight_size = int(start)
    for _ in range(acks):
        cc.on_ack_progress(1460, now=0)
    assert cc.cwnd == pytest.approx(2 * start)


# ------------------------------------------------------------------- losses


def test_loss_halves_window_in_normal_mode():
    cc = make_cc(cwnd=10000, ssthresh=1)
    assert cc.on_loss_event(now=1000)
    assert cc.cwnd == 5000 and cc.ssthresh == 5000


def test_loss_reduces_by_one_eighth_in_time_critical_mode():
    cc = make_cc(cwnd=10000, ssthresh=1, mode=MODE_TIME_CRITICAL)
    cc.on_loss_event(now=1000)
    assert cc.cwnd == 8750


def test_loss_halves_window_in_deferring_mode():
    cc = make_cc(cwnd=10000, ssthresh=1, mode=MODE_DEFERRING)
    cc.on_loss_event(now=1000)
    assert cc.cwnd == 5000


def test_window_floor_is_two_segments():
    cc = make_cc(cwnd=2920, ssthresh=1)
    cc.on_loss_event(now=1000)
    assert cc.cwnd == 2920


def test_loss_events_within_one_srtt_coalesce():
    cc = make_cc(cwnd=40000, ssthresh=1)
    cc.loss_coalesce_us = 50_000
    assert cc.on_loss_event(now=100_000)
    assert not cc.on_loss_event(now=120_000)  # same window of loss
    assert cc.cwnd == 20000
    assert cc.on_loss_event(now=200_000)
    assert cc.cwnd == 10000


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


def test_has_room_boundaries():
    # The engine sends only while flight < cwnd: flight == cwnd admits nothing.
    cc = make_cc(cwnd=4380)
    cc.flight_size = 0
    assert cc.has_room()
    cc.flight_size = 4379
    assert cc.has_room()
    cc.flight_size = 4380
    assert not cc.has_room()
    cc.flight_size = 4381
    assert not cc.has_room()


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
