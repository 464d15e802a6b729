import csv
import io
import struct
from types import SimpleNamespace

import pytest

from rtmfpsim import netsim
from rtmfpsim.app import RtmfpApp, make_payload
from rtmfpsim.config import AppConfig
from rtmfpsim.harness import preset_points, results_csv, run_config


def app_config(size="140byte", interval="1000us", num=1000, read_delay="0ms",
               max_runtime="1800s", seed=5, duration_s=20, bandwidth="1Gbit",
               delay_ms=0):
    return f"""
[scenario]
seed = {seed}
duration = {duration_s}s

[topology]
bottleneckBandwidth = {bandwidth}
bottleneckDelay = {delay_ms}ms
bottleneckQueue = 262144byte

[host.1]
localPort = 4711

[host.2]
localPort = 2013

[app.1.0]
localEpd = 4712
remoteAddress = "host2"
remotePort = 2013
remoteEpd = 2014
flowsOutgoing = 1
flowPacketSize = "{size}"
flowSendInterval = "{interval}"
flowNumPackets = "{num}"
flowId = "19"
maxRuntime = {max_runtime}

[app.2.0]
localEpd = 2014
readDelay = {read_delay}
"""


# ----------------------------------------------------------------- payloads


def test_payload_embeds_flow_and_index_and_is_deterministic():
    p1 = make_payload(19, 7, 140)
    p2 = make_payload(19, 7, 140)
    assert p1 == p2 and len(p1) == 140
    assert struct.unpack_from("!IQ", p1) == (19, 7)  # flow id u32, index u64
    assert make_payload(1, 0, 4) == bytes(range(4))  # too small to embed


# ----------------------------------------------------------------- schedule


def test_constant_interval_schedule_is_exact():
    res = run_config(app_config(num=1000), scenario_id="sched")
    st = res.stats("host1", 4712, 19, "send")
    assert st.msgs == 1000
    # First tick at session open, then exactly one every 1000 us.
    assert st.last_us - st.first_us == 999 * 1000
    # 1000 messages within the first second of sending.
    assert st.first_us < 1_000_000


def test_flow_stops_at_num_packets():
    res = run_config(app_config(num=37), scenario_id="stop")
    assert res.stats("host1", 4712, 19, "send").msgs == 37
    assert res.stats("host2", 2014, 19, "recv").msgs == 37


def test_exponential_intervals_average_out():
    res = run_config(app_config(interval="exponential(1ms)", num=100_000,
                                read_delay="50ms", duration_s=150),
                     scenario_id="exp")
    st = res.stats("host1", 4712, 19, "send")
    assert st.msgs == 100_000
    mean_us = (st.last_us - st.first_us) / (st.msgs - 1)
    assert abs(mean_us - 1000.0) / 1000.0 < 0.02


def test_max_runtime_caps_sending_mid_transfer():
    res = run_config(app_config(num=10_000, max_runtime="2s"), scenario_id="cap")
    sent = res.stats("host1", 4712, 19, "send")
    recv = res.stats("host2", 2014, 19, "recv")
    assert 0 < sent.msgs < 10_000
    assert recv.msgs <= sent.msgs
    assert recv.msgs == sent.msgs  # plenty of drain time after the cap


def test_size_draws_are_clamped():
    res = run_config(app_config(size="uniform(0byte,2byte)", num=500),
                     scenario_id="clamp")
    st = res.stats("host1", 4712, 19, "send")
    # A 0-byte draw would make an empty data chunk, which the codec refuses.
    assert st.msgs == 500 and st.bytes >= st.msgs
    assert res.stats("host2", 2014, 19, "recv").msgs == 500


@pytest.mark.parametrize("overrides,backlog", [
    # Every tick at once: flowNumPackets caps the count.
    ({"flowSendInterval": "0us", "flowNumPackets": "100000", "flowPacketSize": "140byte"},
     1000),
    # flowNumPackets runs out before the end of the run.
    ({"flowSendInterval": "10us", "flowNumPackets": "20000", "flowPacketSize": "1000byte"},
     1000),
    # maxRuntime, measured from a nonzero startTime, runs out first; a tick
    # falls on its end, which no longer counts.
    ({"flowSendInterval": "1us", "flowNumPackets": "1000000", "flowPacketSize": "50byte",
      "startTime": "17ms", "maxRuntime": "150ms"}, 1000),
    # The end of the run comes first.
    ({"flowSendInterval": "7us", "flowNumPackets": "1000000", "flowPacketSize": "1450byte",
      "startTime": "40ms"}, 1000),
    # The busy flow's next tick falls after maxRuntime, before the end.
    ({"flowSendInterval": "20ms", "flowNumPackets": "1000", "flowPacketSize": "40000byte",
      "maxRuntime": "150ms"}, 0),
], ids=["interval-0", "num-packets", "max-runtime", "end-of-run", "tick-past-max-runtime"])
def test_ticks_due_at_the_end_count_the_same_in_closed_form_as_drawn(overrides, backlog):
    # uniform(x,x) draws x, one draw at a time; constant(x) takes the
    # closed form for the ticks that fell due behind the busy flow.
    [(_, text)] = preset_points("bottleneck-basic")
    size, interval = overrides["flowPacketSize"], overrides["flowSendInterval"]
    base = {"scenario.duration": "200ms", "host.2.rcvBufferSize": "524288byte",
            "topology.bottleneckDelay": "0ms", "topology.background": "0",
            **{f"app.1.0.{key}": value for key, value in overrides.items()}}
    closed = run_config(text, {**base, "app.1.0.flowPacketSize": f"constant({size})",
                               "app.1.0.flowSendInterval": f"constant({interval})"})
    drawn = run_config(text, {**base, "app.1.0.flowPacketSize": f"uniform({size},{size})",
                              "app.1.0.flowSendInterval": f"uniform({interval},{interval})"})
    assert results_csv([closed]) == results_csv([drawn])
    sent = closed.stats("host1", 4712, 19, "send")
    assert sent.msgs >= closed.stats("host2", 2014, 19, "recv").msgs + backlog


def test_a_billion_messages_due_at_once_end_in_bounded_time():
    [(_, text)] = preset_points("bottleneck-basic")
    res = run_config(text, {"scenario.duration": "200ms",
                            "app.1.0.flowSendInterval": "0us",
                            "app.1.0.flowNumPackets": "1000000000"})
    sent = res.stats("host1", 4712, 19, "send")
    assert (sent.msgs, sent.bytes) == (10**9, 140 * 10**9)
    row = next(csv.DictReader(io.StringIO(results_csv([res]))))
    assert (row["direction"], row["msgs_sent"]) == ("send", "1000000000")


# ------------------------------------------------------------------- reads


def run_counting_reads(**kw):
    """-> (result, the receiver's read events on flow 19). A read is scheduled
    only for ready data, and a flow has at most one pending, so every read
    event reads at least one message."""
    lines = []
    res = run_config(app_config(**kw), scenario_id="reads", trace=lines.append)
    return res, sum(line.endswith("\tread epd=2014 flow=19") for line in lines)


def test_read_delay_batches_messages():
    res, reads = run_counting_reads(num=2000, read_delay="50ms")
    st = res.stats("host2", 2014, 19, "recv")
    assert st.msgs == 2000
    per_read = st.msgs / reads
    assert 35 <= per_read <= 55  # one read drains ~50 ms of 1 ms arrivals


def test_notification_while_read_pending_coalesces():
    res, reads = run_counting_reads(num=2000, read_delay="50ms")
    # 2 s of traffic read in ~50 ms batches: far fewer reads than messages.
    assert reads <= 2000 / 35


# -------------------------------------------------------------------- stats


def test_loss_free_conservation_and_integrity():
    res = run_config(app_config(num=3000), scenario_id="conserve")
    sent = res.stats("host1", 4712, 19, "send")
    recv = res.stats("host2", 2014, 19, "recv")
    assert sent.msgs == recv.msgs == 3000
    assert sent.bytes == recv.bytes
    assert sent.digest == recv.digest
    assert recv.order_violations == 0
    assert sent.retransmissions == 0


def test_messages_too_short_for_an_index_cause_no_order_violations():
    # A message under 12 bytes carries no (flow id, index) header.
    [(_, text)] = preset_points("bottleneck-basic")
    res = run_config(text, {"scenario.duration": "2s",
                            "app.1.0.flowPacketSize": "uniform(1byte,40byte)"})
    recv = res.stats("host2", 2014, 19, "recv")
    assert recv.msgs > 1000
    assert recv.order_violations == 0


def order_violations(indexed_sizes):
    """Order violations the app counts over one read of these messages, given
    as (index, size) on flow 19."""
    msgs = [make_payload(19, index, size) for index, size in indexed_sizes]
    engine = SimpleNamespace(host=SimpleNamespace(node_id="host2"),
                             register_app=lambda epd, app: None,
                             read_flow=lambda session, flow_id: msgs)
    app = RtmfpApp(netsim.Simulator(), engine, AppConfig(local_epd=2014))
    app._do_read(None, 19, 0)
    [recv] = app.finalize()
    return recv.order_violations


@pytest.mark.parametrize("indexed_sizes,violations", [
    ([(0, 20), (1, 5), (2, 20), (3, 11), (4, 12)], 0),
    # Index 2 is missing: one violation, then the count resyncs on index 3.
    ([(0, 20), (1, 5), (3, 20), (4, 5), (5, 20)], 1),
    ([(1, 20), (0, 20)], 2),
    ([(0, 20), (0, 20)], 1),
])
def test_order_violations_count_each_message_short_or_not(indexed_sizes, violations):
    assert order_violations(indexed_sizes) == violations


def test_goodput_matches_recomputation_from_counters():
    res = run_config(app_config(num=2000), scenario_id="goodput")
    rows = csv.DictReader(io.StringIO(results_csv([res])))
    row = next(r for r in rows if r["direction"] == "recv")
    span_us = int(row["end_us"]) - int(row["start_us"])
    assert int(row["msgs_recv"]) == 2000 and span_us > 0
    expected = int(row["bytes_recv"]) * 8 * 1_000_000 / span_us
    # The column is printed with three decimals.
    assert float(row["goodput_bps"]) == pytest.approx(expected, abs=0.0005)


def test_receiver_only_app_just_waits():
    text = """
[scenario]
seed = 1
duration = 1s

[host.1]
localPort = 4711

[app.1.0]
localEpd = 42
"""
    res = run_config(text, scenario_id="idle")
    assert res.flow_stats == []
    assert res.summary["handshakes_completed"] == 0
