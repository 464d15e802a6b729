"""Acceptance suite: one test per validation criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Expensive scenario runs are shared through fixtures, the preset runs with
`tests/test_preset_digests.py` (see `conftest.full_runs`); every tolerance is
pinned in the assertions themselves.
"""

import random

import pytest

from conftest import PacketSniffer, random_packet
from rtmfpsim import harness, wire
from rtmfpsim.cli import main as cli_main
from rtmfpsim.harness import run_config, sawtooth_drops


def check(num: int, name: str, conditions: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in conditions)
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    for desc, flag in conditions:
        assert flag, f"criterion {num} ({name}): {desc}"


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def loss_sweep(full_runs):
    return full_runs("loss-sweep")


@pytest.fixture(scope="module")
def bdp_sweep(full_runs):
    return full_runs("bdp-sweep")


@pytest.fixture(scope="module")
def fairness_simultaneous(full_runs):
    return full_runs("fairness-simultaneous")[0]


@pytest.fixture(scope="module")
def fairness_staggered(full_runs):
    return full_runs("fairness-staggered")[0]


@pytest.fixture(scope="module")
def bundling_sweep(full_runs):
    return full_runs("bundling-sweep")


SAWTOOTH_TEMPLATE = """
[scenario]
seed = 2
duration = 60s

[topology]
bottleneckBandwidth = 10Mbit
bottleneckDelay = 20ms
bottleneckQueue = 32768byte

[host.1]
localPort = 4711

[host.2]
localPort = 2013
rcvBufferSize = 524288byte

[app.1.0]
localEpd = 4712
remoteAddress = "host2"
remotePort = 2013
remoteEpd = 2014
flowsOutgoing = 1
flowPacketSize = "1450byte"
flowSendInterval = "800us"
flowNumPackets = "1000000"
flowTimeCritical = "{tc}"
flowId = "19"

[app.2.0]
localEpd = 2014
"""


@pytest.fixture(scope="module")
def sawtooth_normal():
    return run_config(SAWTOOTH_TEMPLATE.replace("{tc}", "0"), scenario_id="saw-normal")


@pytest.fixture(scope="module")
def sawtooth_time_critical():
    return run_config(SAWTOOTH_TEMPLATE.replace("{tc}", "1"), scenario_id="saw-tc")


# --------------------------------------------------------------- criterion 1


def test_01_determinism_byte_identical_outputs(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        trace_path = tmp_path / f"trace-{run}.tsv"
        rc = cli_main(["preset", "bottleneck-basic", "--seed", "7",
                       "--out", str(out_dir), "--trace", str(trace_path)])
        assert rc == 0
        outputs.append((
            (out_dir / "results.csv").read_bytes(),
            (out_dir / "cwnd__bottleneck-basic.csv").read_bytes(),
            (out_dir / "summary__bottleneck-basic.json").read_bytes(),
            trace_path.read_bytes()))
    (res_a, cwnd_a, summary_a, trace_a), (res_b, cwnd_b, summary_b, trace_b) = outputs
    check(1, "determinism", [
        ("results.csv byte-identical", res_a == res_b),
        ("cwnd csv byte-identical", cwnd_a == cwnd_b),
        ("summary json byte-identical", summary_a == summary_b),
        ("trace byte-identical", trace_a == trace_b),
        ("trace is non-trivial", len(trace_a.splitlines()) > 1000),
    ])


# --------------------------------------------------------------- criterion 2


def test_02_codec_round_trip_and_size_formula():
    rng = random.Random(0xC0DEC)
    all_equal = True
    all_sized = True
    for _ in range(10_000):
        p = random_packet(rng)
        buf = wire.encode(p)
        expected = wire.PACKET_HEADER + sum(
            wire.CHUNK_HEADER + c.body_len() for c in p.chunks)
        all_sized &= len(buf) == expected
        all_equal &= wire.decode(buf) == p
    check(2, "codec", [
        ("decode(encode(p)) == p for 10^4 packets", all_equal),
        ("encoded size equals closed-form header arithmetic", all_sized),
    ])


# --------------------------------------------------------------- criterion 3


HANDSHAKE_CONFIG = """
[scenario]
seed = 3
duration = 20s

[topology]
bottleneckBandwidth = 10Mbit
bottleneckDelay = 20ms

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
flowPacketSize = "140byte"
flowSendInterval = "1000us"
flowNumPackets = "100"
flowId = "19"

[app.2.0]
localEpd = 2014
"""


def test_03_four_way_handshake():
    sniffer = PacketSniffer()

    def tap(bundle):
        bundle.links["bottleneck:lr"].observer = sniffer
        bundle.links["bottleneck:rl"].observer = sniffer

    res = run_config(HANDSHAKE_CONFIG, scenario_id="hs", prepare=tap)
    packets = sniffer.packets()
    first_data = next(i for i, (_, pkt, _) in enumerate(packets)
                      if any(isinstance(c, wire.DataChunk) for c in pkt.chunks))

    dropped = PacketSniffer()

    def tap_and_drop(bundle):
        bundle.links["bottleneck:lr"].observer = dropped
        bundle.links["bottleneck:rl"].observer = dropped
        bundle.links["bottleneck:lr"].forced_drops = {0}

    res2 = run_config(HANDSHAKE_CONFIG, scenario_id="hs-drop", prepare=tap_and_drop)
    check(3, "handshake", [
        ("exactly 4 packets precede the first data chunk", first_data == 4),
        ("clean run opens the session", res.summary["handshakes_completed"] == 2),
        ("session opens despite dropped IHello",
         res2.summary["handshakes_completed"] == 2),
        ("dropped-IHello run uses exactly 5 handshake packets",
         len(dropped.handshake_packets()) == 5),
        ("all 100 messages still delivered",
         res2.stats("host2", 2014, 19, "recv").msgs == 100),
    ])


# --------------------------------------------------------------- criterion 4


def test_04_reliability_under_two_percent_loss(loss_sweep):
    res = next(r for r in loss_sweep if r.scenario.endswith("loss=2pct"))
    sent = res.stats("host1", 4712, 19, "send")
    recv = res.stats("host2", 2014, 19, "recv")
    check(4, "reliability at 2% loss", [
        ("all 10^4 messages sent", sent.msgs == 10_000),
        ("all 10^4 messages delivered", recv.msgs == 10_000),
        ("delivery is in order", recv.order_violations == 0),
        ("payload hashes equal end-to-end", sent.digest == recv.digest),
        ("losses actually happened", sent.retransmissions > 0),
    ])


# --------------------------------------------------------------- criterion 5


ACK_CADENCE_CONFIG = """
[scenario]
seed = 5
duration = 20s

[topology]
bottleneckBandwidth = 100Mbit
bottleneckDelay = 5ms

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
flowPacketSize = "140byte"
flowSendInterval = "1000us"
flowNumPackets = "10000"
flowId = "19"

[app.2.0]
localEpd = 2014
"""


def test_05_ack_every_second_data_packet():
    res = run_config(ACK_CADENCE_CONFIG, scenario_id="cadence")
    sender = next(iter(res.bundle.engines["host1"].sessions.values()))
    rf = next(iter(res.bundle.engines["host2"].sessions.values())).recv_flows[19]
    # With no drops anywhere, every data packet host1 sent reached flow 19.
    expected = -(-sender.data_packets_out // 2)  # ceil(packets / 2)
    check(5, "ack cadence", [
        ("all messages arrived", res.stats("host2", 2014, 19, "recv").msgs == 10_000),
        ("no losses to disturb the cadence",
         all(link.dropped == 0 for link in res.bundle.links.values())),
        (f"acks {rf.acks_sent} within +-2 of ceil(packets/2) = {expected}",
         abs(rf.acks_sent - expected) <= 2),
    ])


# --------------------------------------------------------------- criterion 6


def test_06_retransmit_on_third_loss_report_before_rto():
    drop_ordinal = 20
    seen_seqs = set()
    retransmit_events = []

    state = {}

    def tap(bundle):
        engine1 = bundle.engines["host1"]
        state["engine"] = engine1

        def observer(now, dgram, outcome, deliver_at):
            pkt = dgram.payload
            if not isinstance(pkt, wire.Packet):  # background traffic
                return
            for c in pkt.chunks:
                if isinstance(c, wire.DataChunk):
                    if c.seq in seen_seqs:
                        session = next(iter(engine1.sessions.values()))
                        timer = session.rto_timer
                        retransmit_events.append(
                            (now, c.seq, timer[0] if timer is not None else None))
                    seen_seqs.add(c.seq)

        bundle.links["bottleneck:lr"].observer = observer
        bundle.links["bottleneck:lr"].forced_drops = {drop_ordinal}

    res = run_config(HANDSHAKE_CONFIG.replace('flowNumPackets = "100"',
                                              'flowNumPackets = "200"'),
                     scenario_id="retransmit", prepare=tap)
    session = next(iter(res.bundle.engines["host1"].sessions.values()))
    flow = session.send_flows[19]
    first_retx_time = retransmit_events[0][0] if retransmit_events else None
    armed_deadline = retransmit_events[0][2] if retransmit_events else None
    check(6, "three loss reports trigger retransmit", [
        ("the dropped chunks were retransmitted", bool(retransmit_events)),
        ("retransmission happened strictly before the armed RTO expiry",
         first_retx_time is not None and armed_deadline is not None
         and first_retx_time < armed_deadline),
        ("the RTO itself never fired", session.rto_fires == 0),
        ("each lost chunk saw exactly three loss reports",
         flow.loss_reports_received == 3 * flow.retransmissions > 0),
        ("transfer still completed",
         res.stats("host2", 2014, 19, "recv").msgs == 200),
    ])


# --------------------------------------------------------------- criterion 7


def test_07_flow_control_tracks_bandwidth_delay_product(bdp_sweep):
    conditions = []
    for res, delay_ms in zip(bdp_sweep, harness.BDP_DELAYS_MS):
        if delay_ms == 0:
            continue  # the link is the binding constraint there, not the window
        topo = res.cfg.topology
        bound = harness.bdp_bound_bps(topo.bottleneck_bandwidth_bps,
                                      topo.bottleneck_delay_us,
                                      res.cfg.hosts["host2"].rcv_buffer_size)
        measured = res.summary["window_rates_bps"]["2400000"]["host2:2014:19"]
        conditions.append(
            (f"delay {delay_ms} ms: {measured/1e6:.2f} Mbit within 10% of "
             f"bound {bound/1e6:.2f} Mbit", measured >= 0.9 * bound))
        conditions.append(
            (f"delay {delay_ms} ms: measured never above the bound",
             measured <= bound))
    check(7, "flow control / BDP", conditions)


# --------------------------------------------------------------- criterion 8


def test_08_fairness(fairness_simultaneous, fairness_staggered):
    sim = fairness_simultaneous.summary
    rates = sim["window_rates_bps"]["12000000"]
    r1, r2 = rates["host2:200:1"], rates["host4:400:1"]
    jain = sim["window_jain_index"]["12000000"]
    late = fairness_staggered.summary["window_rates_bps"]["40000000"]
    l1, l2 = late["host2:200:1"], late["host4:400:1"]
    late_share = l2 / (l1 + l2)
    check(8, "fairness", [
        (f"simultaneous start: Jain {jain:.4f} >= 0.95 over last 80%", jain >= 0.95),
        ("both sessions actually sent", min(r1, r2) > 0),
        (f"staggered start: late session share {late_share:.3f} >= 0.40 "
         f"of aggregate in final 20 s", late_share >= 0.40),
    ])


# --------------------------------------------------------------- criterion 9


def test_09_bundling(bundling_sweep):
    goodputs = []
    for res in bundling_sweep:
        goodputs.append(res.stats("host2", 2014, 19, "recv").goodput_bps)
    increasing = all(a < b for a, b in zip(goodputs, goodputs[1:]))
    res_140 = next(r for r in bundling_sweep if r.scenario.endswith("size=140B"))
    mean_chunks = res_140.summary["mean_full_packet_chunks"]
    check(9, "bundling", [
        (f"goodput strictly increases across sizes {harness.BUNDLING_SIZES}: "
         f"{[round(g/1e6, 3) for g in goodputs]} Mbit", increasing),
        (f"140 B flows bundle exactly 9 chunks per full packet "
         f"(measured {mean_chunks})", mean_chunks == 9.0),
        ("plenty of full packets were observed",
         res_140.summary["full_packets"] > 1000),
    ])


# -------------------------------------------------------------- criterion 10


MODE_ASYMMETRY_CONFIG = """
[scenario]
seed = 2
duration = 40s
probeTimes = "20s"

[topology]
bottleneckBandwidth = 10Mbit
bottleneckDelay = 20ms
bottleneckQueue = 32768byte
background = 1

[host.1]
localPort = 4711

[host.2]
localPort = 2013
rcvBufferSize = 524288byte

[app.1.0]
localEpd = 100
remoteAddress = "host2"
remotePort = 2013
remoteEpd = 200
flowsOutgoing = 1
flowPacketSize = "1450byte"
flowSendInterval = "800us"
flowNumPackets = "1000000"
flowTimeCritical = "1"
flowId = "1"

[app.1.1]
localEpd = 101
remoteAddress = "host2"
remotePort = 2013
remoteEpd = 201
flowsOutgoing = 1
flowPacketSize = "1450byte"
flowSendInterval = "800us"
flowNumPackets = "1000000"
flowTimeCritical = "0"
flowId = "1"

[app.2.0]
localEpd = 200

[app.2.1]
localEpd = 201
"""


def test_10_time_critical_mode_dominates():
    res = run_config(MODE_ASYMMETRY_CONFIG, scenario_id="mode-asym")
    rates = res.summary["window_rates_bps"]["20000000"]
    tc_rate, defer_rate = rates["host2:200:1"], rates["host2:201:1"]
    modes = {row.rsplit(",", 1)[1] for row in res.cwnd_series}
    check(10, "time-critical mode asymmetry", [
        ("one session ran time-critical", "time_critical" in modes),
        ("the other session deferred", "deferring" in modes),
        ("the deferring session still progresses", defer_rate > 0),
        (f"steady-state ratio {tc_rate/defer_rate:.2f} >= 1.5",
         tc_rate >= 1.5 * defer_rate),
    ])


def test_10_every_mode_switch_has_a_cwnd_row_at_its_time():
    # The time-critical flow drains after 300 messages, so both sessions of
    # host1 switch modes twice; each switch must be logged when it happens.
    switches = []

    def record(bundle):
        for engine in bundle.engines.values():
            def update(engine=engine, inner=engine.registry.update):
                changed = inner()
                switches.extend((engine.sim.now, engine.host.node_id, s.label, s.cc.mode)
                                for s in changed)
                return changed
            engine.registry.update = update

    res = run_config(MODE_ASYMMETRY_CONFIG, {"scenario.duration": "2s",
                                             "app.1.0.flowNumPackets": "300"},
                     scenario_id="mode-switch", prepare=record)
    rows = {(int(t), host, label, mode)
            for t, host, label, _, _, mode in (row.split(",") for row in res.cwnd_series)}
    assert {mode for *_, mode in switches} == {"normal", "time_critical", "deferring"}
    assert [sw for sw in switches if sw not in rows] == []


# -------------------------------------------------------------- criterion 11


def test_11_loss_impact_monotone(loss_sweep):
    rates = {}
    for res in loss_sweep:
        pct = res.scenario.split("loss=")[1].removesuffix("pct")
        rates[float(pct)] = res.stats("host2", 2014, 19, "recv").goodput_bps
    points = [0.0, 0.5, 1.0, 2.0, 5.0]
    series = [rates[p] for p in points]
    check(11, "loss impact on transfer rate", [
        (f"goodput strictly decreases over {points}%: "
         f"{[round(r/1e6, 3) for r in series]} Mbit",
         all(a > b for a, b in zip(series, series[1:]))),
        ("every point still delivered all messages",
         all(res.stats("host2", 2014, 19, "recv").msgs == 10_000
             for res in loss_sweep)),
    ])


# -------------------------------------------------------------- criterion 12


MOBILITY_CONFIG = """
[scenario]
seed = 11
duration = 15s

[topology]
bottleneckBandwidth = 10Mbit
bottleneckDelay = 20ms

[host.1]
localPort = 4711
{migration}

[host.2]
localPort = 2013

[app.1.0]
localEpd = 4712
remoteAddress = "host2"
remotePort = 2013
remoteEpd = 2014
flowsOutgoing = 1
flowPacketSize = "140byte"
flowSendInterval = "1000us"
flowNumPackets = "4000"
flowId = "19"

[app.2.0]
localEpd = 2014
"""


def test_12_address_mobility_is_transparent():
    plain = run_config(MOBILITY_CONFIG.replace("{migration}", ""),
                       scenario_id="mob-plain")
    moved = run_config(
        MOBILITY_CONFIG.replace("{migration}", "migrateAt = 2s\nmigrateTo = 4721"),
        scenario_id="mob-moved")
    st_plain = plain.stats("host2", 2014, 19, "recv")
    st_moved = moved.stats("host2", 2014, 19, "recv")
    check(12, "address mobility", [
        ("delivered totals equal the no-swap run with the same seed",
         st_plain.msgs == st_moved.msgs == 4000),
        ("payload streams identical", st_plain.digest == st_moved.digest),
        ("the receiver saw exactly one address change",
         moved.summary["mobility_events"] == 1),
        ("zero session re-establishments",
         moved.summary["handshakes_completed"] == 2
         and moved.summary["sessions_failed"] == 0),
    ])


# -------------------------------------------------------------- criterion 13


def _qualifying_drops(res, factor):
    drops = sawtooth_drops(res.cwnd_series, session_label="4712->2014")
    return [r for _, r in drops if abs(r - factor) <= 0.01 * factor]


def test_13_cwnd_sawtooth(sawtooth_normal, sawtooth_time_critical):
    normal = _qualifying_drops(sawtooth_normal, 0.5)
    tc = _qualifying_drops(sawtooth_time_critical, 0.875)
    check(13, "cwnd sawtooth dynamics", [
        (f"normal mode shows >= 3 cycles with drop factor 0.5 +-1% "
         f"(found {len(normal)})", len(normal) >= 3),
        (f"time-critical mode shows >= 3 cycles with drop factor 0.875 +-1% "
         f"(found {len(tc)})", len(tc) >= 3),
        ("saturation kept the link busy",
         sawtooth_normal.summary["bottleneck_utilization"] > 0.8),
    ])
