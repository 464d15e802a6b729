import json
import os
import pathlib
import re
import tracemalloc

import pytest

from rtmfpsim import harness
from rtmfpsim.config import ConfigError, parse_config
from rtmfpsim.harness import (bdp_bound_bps, compute_fairness, preset_points,
                              run_config, run_preset, sawtooth_drops, write_outputs)
from rtmfpsim.topology import build_bottleneck


# ----------------------------------------------------------------- fairness


def test_jain_equal_rates_is_one():
    assert compute_fairness([5.0, 5.0]) == 1.0


def test_jain_one_idle_flow_is_half():
    assert compute_fairness([5.0, 0.0]) == 0.5


def test_jain_three_to_one_is_point_eight():
    assert compute_fairness([3.0, 1.0]) == pytest.approx(0.8)  # 16 / (2 * 10)


def test_jain_needs_flows():
    with pytest.raises(ValueError):
        compute_fairness([])


def point_text(name, seed=1):
    """Config text of a single-point preset."""
    [(_, text)] = preset_points(name, seed)
    return text


# ----------------------------------------------------------------- topology


def test_build_dumbbell_shapes_routes():
    cfg = parse_config(point_text("fairness-simultaneous", seed=1))
    bundle = build_bottleneck(cfg)
    assert set(bundle.hosts) >= {"host1", "host2", "host3", "host4"}
    # Initiators sit left, receivers right; cross traffic uses the bottleneck.
    rl, rr = bundle.routers["router.l"], bundle.routers["router.r"]
    assert rl.routes["host2"] is bundle.links["bottleneck:lr"]
    assert rr.routes["host1"] is bundle.links["bottleneck:rl"]
    assert rl.routes["host1"] is bundle.links["access:host1:down"]
    assert bundle.background is not None  # enabled in the fairness preset


def test_background_offered_load_is_five_percent():
    cfg = parse_config(point_text("fairness-simultaneous", seed=3))
    bundle = build_bottleneck(cfg)
    bundle.sim.run_until(cfg.duration_us)
    uplink = bundle.links["access:bg.send:up"]
    assert uplink.dropped == 0  # every byte the source sent was admitted
    rate = uplink.bytes_admitted * 8 * 1_000_000 / cfg.duration_us
    assert rate == pytest.approx(0.05 * cfg.topology.bottleneck_bandwidth_bps,
                                 rel=0.06)


def test_background_disabled_leaves_only_protocol_traffic():
    res = run_preset("bottleneck-basic", seed=2,
                     overrides={"topology.background": "0"})[0]
    assert res.bundle.background is None
    lr = res.bundle.links["bottleneck:lr"]
    protocol_packets = sum(res.bundle.links[f"access:{host}:up"].sent
                           for host in res.bundle.hosts)
    assert lr.sent <= protocol_packets  # nothing else ever crossed left-to-right


def test_side_override_controls_placement():
    cfg = parse_config(point_text("bottleneck-basic"), overrides={"host.2.side": "left"})
    bundle = build_bottleneck(cfg)
    assert bundle.routers["router.l"].routes["host2"].name == "access:host2:down"


ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", ["README.md", "configs/two-peer-bottleneck.conf"])
def test_shipped_example_configs_parse_and_run(path):
    text = (ROOT / path).read_text()
    if path == "README.md":
        [text] = re.findall(r"```ini\n(.*?)```", text, re.S)
    res = run_config(text, {"scenario.duration": "300ms"}, scenario_id=path)
    assert res.stats("host2", 2014, 19, "recv").msgs > 0


# ------------------------------------------------------------------ presets


def test_unknown_preset_is_an_error():
    with pytest.raises(ConfigError):
        preset_points("warp-speed")


def test_every_preset_parses_and_names_points():
    for name in harness.PRESET_NAMES:
        points = preset_points(name, seed=1)
        assert points
        for scenario_id, text in points:
            cfg = parse_config(text)
            assert cfg.duration_us > 0
            assert scenario_id.startswith(name)


def test_preset_emits_one_row_per_flow_direction():
    res = run_preset("bottleneck-basic", seed=5)[0]
    assert len(res.flow_stats) == 2  # one send row, one recv row for the single flow
    directions = {(r.host, r.direction) for r in res.flow_stats}
    assert directions == {("host1", "send"), ("host2", "recv")}


def test_bdp_bound_formula():
    # 100 Mbit/s, 100 ms one-way, 64 KiB receive buffer: the window limits.
    bound = bdp_bound_bps(100_000_000, 100_000, 65536)
    assert bound == pytest.approx(65536 * 8 / 0.200236, rel=1e-6)
    # At zero delay the link itself limits.
    assert bdp_bound_bps(100_000_000, 0, 65536) == 100_000_000.0


def test_overrides_reach_the_simulation():
    res = run_preset("bottleneck-basic", seed=3,
                     overrides={"scenario.duration": "2s",
                                "app.1.0.flowNumPackets": "100"})[0]
    assert res.cfg.duration_us == 2_000_000
    assert res.stats("host1", 4712, 19, "send").msgs == 100


@pytest.mark.parametrize("duration", ["1us", "100us", "2s"])
def test_bottleneck_utilization_counts_only_bytes_serialized_in_the_run(duration):
    """A datagram admitted at t=0 takes longer than 100 us to serialize at
    10 Mbit, so only what left the queue within the run may count."""
    res = run_preset("bottleneck-basic", overrides={"scenario.duration": duration})[0]
    assert 0.0 <= res.summary["bottleneck_utilization"] <= 1.0


# ---------------------------------------------------------------- sawtooth


def test_sawtooth_detector_finds_multiplicative_drops():
    series = [
        "0,h,s,10000,0,normal",
        "1,h,s,12000,0,normal",
        "2,h,s,6000,0,normal",   # drop 0.5 after growth
        "3,h,s,7000,0,normal",
        "4,h,s,7000,0,normal",   # flat: not a drop
        "5,h,s,3500,0,normal",   # drop 0.5 after growth
        "6,h,s,3000,0,normal",   # second fall without growth: ignored
    ]
    drops = sawtooth_drops(series)
    assert [(t, round(r, 3)) for t, r in drops] == [(2, 0.5), (5, 0.5)]


# --------------------------------------------------------------------- CSV


def test_cwnd_rows_logged_at_one_time_come_out_in_engine_order():
    # Each engine logs at 10 ms granularity here, so the two senders tie
    # often; the CSV orders a tie by engine, then by log order.
    calls = []

    def coarsen(bundle):
        for engine in bundle.engines.values():
            def log(s, now, engine=engine, inner=engine._log_cc):
                now -= now % 10_000
                calls.append((str(now), engine.host.node_id, s.label))
                inner(s, now)
            engine._log_cc = log

    res = run_config(point_text("fairness-simultaneous"), {"scenario.duration": "1s"},
                     prepare=coarsen)
    order = {host: i for i, host in enumerate(res.bundle.engines)}
    expected = sorted(calls, key=lambda c: (int(c[0]), order[c[1]]))
    rows = [tuple(row.split(",")[:3]) for row in harness.cwnd_csv(res).splitlines()[1:]]
    assert rows == expected
    hosts_at = {}
    for t, host, _ in calls:
        hosts_at.setdefault(t, set()).add(host)
    assert sum(len(hosts) > 1 for hosts in hosts_at.values()) > 10


# Traced peak of a run and its cwnd CSV per cwnd row, bulk at 500 ms (4,153
# rows): 412 B with a tuple per row rendered at the end, 236 B with each row
# rendered as it is logged.
CWND_PEAK_BYTES_PER_ROW = 320


def test_cwnd_rows_cost_bounded_traced_memory():
    [text] = [t for p, t in preset_points("bdp-sweep") if p == "bdp-sweep/delay=0ms"]
    bundle = build_bottleneck(parse_config(text, {"scenario.duration": "500ms",
                                                  "topology.background": "1"}))
    tracemalloc.start()
    try:
        res = harness.execute(bundle, "bulk")
        harness.cwnd_csv(res)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(res.cwnd_series) <= CWND_PEAK_BYTES_PER_ROW


def test_results_csv_schema_and_determinism(tmp_path):
    res1 = run_preset("bottleneck-basic", seed=4)
    res2 = run_preset("bottleneck-basic", seed=4)
    csv1 = harness.results_csv(res1)
    csv2 = harness.results_csv(res2)
    assert csv1 == csv2
    header = csv1.splitlines()[0]
    assert header == ("scenario,seed,host,app,flow_id,direction,msgs_sent,msgs_recv,"
                      "bytes_sent,bytes_recv,retransmissions,start_us,end_us,goodput_bps")
    assert harness.cwnd_csv(res1[0]) == harness.cwnd_csv(res2[0])
    assert harness.cwnd_csv(res1[0]).splitlines()[0] == \
        "time_us,host,session,cwnd_bytes,flight_bytes,mode"


def test_write_outputs_and_report_roundtrip(tmp_path, capsys):
    from rtmfpsim.cli import main
    results = run_preset("bottleneck-basic", seed=4)
    paths = write_outputs(results, str(tmp_path))
    assert [os.path.basename(p) for p in paths] == [
        "results.csv", "cwnd__bottleneck-basic.csv", "summary__bottleneck-basic.json"]
    summary = json.loads((tmp_path / "summary__bottleneck-basic.json").read_text())
    assert summary == results[0].summary
    assert summary["scenario"] == "bottleneck-basic"
    assert summary["flows_recv"] == 1
    assert summary["jain_index"] == 1.0
    recv = results[0].stats("host2", 2014, 19, "recv")
    assert summary["total_recv_goodput_bps"] == recv.goodput_bps
    assert summary["total_retransmissions"] == sum(st.retransmissions
                                                   for st in results[0].flow_stats)
    assert main(["report", "--out", str(tmp_path)]) == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("bottleneck-basic: seed=4 ") and " jain=1.0000 " in line


def test_summary_of_a_run_without_receive_flows_has_jain_zero():
    # The session opens after two 40 ms round trips: no flow by 50 ms.
    s = run_preset("bottleneck-basic", overrides={"scenario.duration": "50ms",
                                                  "scenario.probeTimes": "10ms"})[0].summary
    assert s["flows_recv"] == 0 and s["jain_index"] == 0.0
    assert s["total_recv_goodput_bps"] == 0.0 and isinstance(s["total_recv_goodput_bps"], float)
    assert s["window_rates_bps"] == {"10000": {}} and s["window_jain_index"] == {"10000": 0.0}


def test_probe_windows_in_the_summary():
    # Probes before the first delivery (the session opens at ~80 ms), mid-run,
    # at the end and after it.
    res, = run_preset("bottleneck-basic", overrides={
        "scenario.duration": "1s", "scenario.probeTimes": "50ms 500ms 1s 2s"})
    s = res.summary
    assert sorted(s["window_rates_bps"]) == sorted(s["window_jain_index"]) == ["50000", "500000"]
    delivered = res.stats("host2", 2014, 19, "recv").bytes
    early, mid = (s["window_rates_bps"][t]["host2:2014:19"] for t in ("50000", "500000"))
    assert early == delivered * 8 * 1_000_000 / 950_000  # from 0 bytes
    assert 0 < mid * 500_000 / 8_000_000 < delivered
    assert s["window_jain_index"] == {"50000": 1.0, "500000": 1.0}
    assert json.loads(harness.summary_json(res)) == s


def test_write_outputs_leaves_one_run_in_the_directory(tmp_path, capsys):
    from rtmfpsim.cli import main
    (tmp_path / "notes.txt").write_text("kept")
    for name in ("bottleneck-basic", "bdp-sweep"):
        assert main(["preset", name, "--override", "scenario.duration=300ms",
                     "--out", str(tmp_path)]) == 0
    bdp_lines = capsys.readouterr().out.splitlines()[-5:]
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert sorted(capsys.readouterr().out.splitlines()) == sorted(bdp_lines)
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["notes.txt", "results.csv"] + [f"{kind}__bdp-sweep__delay-{d}ms.{ext}"
                                        for d in harness.BDP_DELAYS_MS
                                        for kind, ext in (("cwnd", "csv"), ("summary", "json"))])
    assert (tmp_path / "notes.txt").read_text() == "kept"


def test_rtt_floor_shows_in_handshake_timing():
    # 20 ms one-way delay: the four-way handshake needs two RTTs of 40 ms.
    res = run_preset("bottleneck-basic", seed=6)[0]
    # The first message goes out when the session opens.
    assert 80_000 <= res.stats("host1", 4712, 19, "send").first_us <= 84_000
    with pytest.raises(KeyError):
        res.stats("host1", 4712, 19, "recv")  # host1 only sends flow 19


def test_cli_run_and_report(tmp_path, capsys):
    from rtmfpsim.cli import main
    cfg_path = tmp_path / "scenario.conf"
    cfg_path.write_text(point_text("bottleneck-basic", seed=9).replace(
        "flowNumPackets = 5000", "flowNumPackets = 200"))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()
    run_line = capsys.readouterr().out.splitlines()[-1]
    assert main(["report", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines() == [run_line]
    assert "jain" in run_line


def test_cli_run_seed_replaces_the_config_seed(tmp_path, capsys):
    from rtmfpsim.cli import main
    assert main(["run", "--config", small_config(tmp_path), "--seed", "5"]) == 0
    assert " seed=5 " in capsys.readouterr().out.splitlines()[-1]


def test_cli_config_error_exit_code(tmp_path):
    from rtmfpsim.cli import main
    bad = tmp_path / "bad.conf"
    bad.write_text("[scenario]\nseed = banana\n")
    assert main(["run", "--config", str(bad)]) == 1


@pytest.mark.parametrize("command,make", [
    ("run", lambda d: None),                                       # no such file
    ("run", lambda d: (d / "scenario.conf").mkdir()),              # a directory
    ("report", lambda d: None),                                    # no summary file
    ("report", lambda d: (d / "summary__x.json").mkdir()),         # a directory
    ("report", lambda d: (d / "summary__x.json").write_text("a,b\n1,2\n")),  # not JSON
    ("report", lambda d: (d / "summary__x.json").write_text('{"scenario": "x"}')),  # keys missing
], ids=["run-missing", "run-directory", "report-missing", "report-directory",
        "report-not-json", "report-missing-key"])
def test_cli_unreadable_input_is_an_input_error(tmp_path, capsys, command, make):
    from rtmfpsim.cli import main
    make(tmp_path)
    if command == "run":
        flag, path = "--config", tmp_path / "scenario.conf"
    else:
        flag, path = "--out", tmp_path
    assert main([command, flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {flag} {path}: ") and err.count("\n") == 1


def small_config(tmp_path):
    cfg_path = tmp_path / "scenario.conf"
    cfg_path.write_text(point_text("bottleneck-basic", seed=9).replace(
        "flowNumPackets = 5000", "flowNumPackets = 20"))
    return str(cfg_path)


def test_cli_creates_the_directory_of_a_trace_path(tmp_path):
    from rtmfpsim.cli import main
    out_dir = tmp_path / "out"
    trace = out_dir / "t.tsv"
    assert main(["run", "--config", small_config(tmp_path), "--trace", str(trace),
                 "--out", str(out_dir)]) == 0
    assert trace.read_text().startswith("0\t") and (out_dir / "results.csv").exists()


@pytest.mark.parametrize("flag,what", [("--trace", "trace"),
                                       ("--out", "output directory")])
def test_cli_unwritable_output_path_is_an_output_error(tmp_path, capsys, flag, what):
    from rtmfpsim.cli import main
    # A directory cannot be opened as the trace file, nor a file used as --out.
    path = tmp_path if flag == "--trace" else tmp_path / "scenario.conf"
    assert main(["run", "--config", small_config(tmp_path), flag, str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"output error: {what} {path}: ")


def test_cli_runtime_failure_exit_code(monkeypatch):
    from rtmfpsim import cli
    from rtmfpsim.netsim import SimulationError

    def explode(*args, **kwargs):
        raise SimulationError("event scheduled in the past")

    monkeypatch.setattr(cli.harness, "run_preset", explode)
    assert cli.main(["preset", "bottleneck-basic"]) == 2


@pytest.mark.parametrize("overrides", [
    ["app.1.0.flowId=70000"],
    ["app.1.0.localEpd=4294967296"],
    ["app.1.0.remoteEpd=-1"],
    ["host.2.localPort=70000"],
    ["host.1.migrateAt=1s", "host.1.migrateTo=70000"],
    ["app.1.0.flowNumPackets=-5"],
    ["host.2.rcvBufferSize=0byte"],
    ["host.1.maxSegmentSize=30byte"],
    ["host.1.maxSegmentSize=1600byte"],
    ["host.1.ccCwndInit=8760byte", "host.1.ccWndInit=4380byte"],
    ["app.1.0.bogus=1"],
    ["host.1.ccCwndInit=0byte"],
    ["host.1.ccCwndInit=1449byte"],
    ["scenario.duration=-1s"],
    ["scenario.probeTimes=-1s"],
    ["topology.bottleneckDelay=-5ms"],
    ["topology.bottleneckBandwidth=0bit"],
    ["topology.accessBandwidth=0bit"],
    ["host.1.migrateTo=4721", "host.1.migrateAt=-1s"],
    ["app.1.0.startTime=-1s"],
    ["host.1.ccMss=0byte"],
    ["topology.accessQueue=0byte"],
    ["topology.backgroundPacketSize=0byte"],
    ["app.1.0.remoteEpd=4712"],
    ["app.1.0.remotePort=4711", "app.1.0.remoteAddress=host1"],
    ["host.2.rcvBufferSize=1byte"],
    # Wider than the ack's u32 buffer field.
    ["scenario.duration=3s", "host.2.rcvBufferSize=4294968296byte"],
    ["app.1.0.flowPacketSize=1450byte", "host.2.rcvBufferSize=1400byte"],
    ["app.1.0.flowPacketSize=4000byte", "app.1.0.flowSendInterval=10ms",
     "host.2.rcvBufferSize=2000byte"],
    # Rules that join keys: the key the error names comes last in each case.
    ["app.2.0.localEpd=4712"],
    ["host.1.migrateAt=1s"],
    ["host.1.migrateTo=4800"],
    ["app.2.0.flowPacketSize=140byte", "app.2.0.flowSendInterval=1ms",
     "app.2.0.flowNumPackets=10", "app.2.0.flowsOutgoing=1"],
    ["app.1.0.flowsOutgoing=2", "app.1.0.flowPacketSize=140byte 140byte",
     "app.1.0.flowSendInterval=1ms 1ms", "app.1.0.flowNumPackets=10 10",
     "app.1.0.flowId=19 19"],
    ["app.2.0.remoteAddress=host1"],
    ["app.1.0.flowId"],  # no '='
    # A negative size or time, bare or as a distribution's argument.
    ["app.1.0.flowSendInterval=-5us"],
    ["app.1.0.flowPacketSize=-5byte"],
    ["app.1.0.flowSendInterval=uniform(-10ms,1ms)"],
    ["topology.backgroundPacketSize=uniform(-100byte,300byte)"],
])
def test_cli_bad_override_is_a_config_error(overrides, capsys):
    from rtmfpsim.cli import main
    argv = ["preset", "bottleneck-basic"]
    for pair in overrides:
        argv += ["--override", pair]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: override {overrides[-1].partition('=')[0]}: ")
