"""Experiment harness: scenario execution, validation presets, fairness and
window-trace analysis, CSV and summary output.

Presets (each point is one base config plus `section.key` overrides, rendered
to config text by preset_points):

  bottleneck-basic        one flow over the 10 Mbit/20 ms bottleneck with
                          background traffic; the determinism reference.
  bdp-sweep               one-way delays 0/10/25/50/100 ms on a fast link with
                          a 64 KiB receive buffer: flow control against the
                          bandwidth-delay product.
  fairness-simultaneous   two sessions sharing the bottleneck, same start.
  fairness-staggered      second session starts 10 s later.
  bundling-sweep          message sizes 50..1450 B at saturation.
  loss-sweep              bottleneck loss rates 0..5 %.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Optional

from .app import FlowStats
from .config import ConfigError, ScenarioConfig, apply_overrides, parse_config
from .netsim import KIND_APP_TICK, ceil_div
from .topology import SimBundle, build_bottleneck

RESULTS_HEADER = ("scenario,seed,host,app,flow_id,direction,msgs_sent,msgs_recv,"
                  "bytes_sent,bytes_recv,retransmissions,start_us,end_us,goodput_bps")


class RunResult:
    def __init__(self, scenario: str, cfg: ScenarioConfig, bundle: SimBundle):
        self.scenario = scenario
        self.cfg = cfg
        self.bundle = bundle
        self.flow_stats: list[FlowStats] = []
        self.cwnd_text = ""  # the cwnd CSV
        self.summary: dict = {}

    @property
    def cwnd_series(self) -> list[str]:  # the cwnd CSV's rows, split on each read
        return self.cwnd_text.splitlines()[1:]

    def stats(self, host: str, epd: int, flow_id: int, direction: str) -> FlowStats:
        for st in self.flow_stats:
            if (st.host, st.app_epd, st.flow_id, st.direction) == (host, epd, flow_id,
                                                                   direction):
                return st
        raise KeyError((host, epd, flow_id, direction))


def compute_fairness(rates: list[float]) -> float:
    """Jain's index (sum x)^2 / (n * sum x^2) over per-flow rates."""
    if not rates:
        raise ValueError("fairness needs at least one rate")
    total = sum(rates)
    squares = sum(r * r for r in rates)
    if squares == 0:
        return 1.0
    return total * total / (len(rates) * squares)


def sawtooth_drops(series, session_label: Optional[str] = None) -> list[tuple[int, float]]:
    """Find window collapses in cwnd CSV rows: cwnd fell after prior growth.

    Returns (time_us, drop_ratio) pairs; ratio is post/pre collapse.
    """
    drops = []
    last: dict[str, int] = {}
    grew: dict[str, bool] = {}
    for time_us, _host, label, cwnd, *_ in (row.split(",") for row in series):
        if session_label is not None and label != session_label:
            continue
        cwnd = int(cwnd)
        prev = last.get(label)
        if prev is not None:
            if cwnd > prev:
                grew[label] = True
            elif cwnd < prev and grew.get(label):
                drops.append((int(time_us), cwnd / prev))
                grew[label] = False
        last[label] = cwnd
    return drops


def bdp_bound_bps(link_bps: int, one_way_delay_us: int, rwnd_bytes: int,
                  segment_bytes: int = 1472) -> float:
    """min(link rate, rwnd/RTT); RTT = 2 * delay + 2 * serialization time."""
    ser_us = ceil_div(segment_bytes * 8 * 1_000_000, link_bps)
    rtt_us = 2 * one_way_delay_us + 2 * ser_us
    return min(float(link_bps), rwnd_bytes * 8 * 1_000_000 / rtt_us)


# --------------------------------------------------------------------- running


def execute(bundle: SimBundle, scenario_id: str) -> RunResult:
    """Run a built scenario to its configured duration and gather results."""
    cfg = bundle.cfg
    result = RunResult(scenario_id, cfg, bundle)
    probes: dict[int, dict[str, int]] = {}  # time -> {"host:epd:flow_id": bytes so far}

    def snap(now: int):
        probes[now] = {f"{app.host_id}:{app.config.local_epd}:{flow_id}": nbytes
                       for app in bundle.apps
                       for flow_id, nbytes in app.recv_bytes_by_flow().items()}

    for t in cfg.probe_times_us:
        bundle.sim.schedule(t, "harness", KIND_APP_TICK, snap, f"probe@{t}")

    bundle.sim.run_until(cfg.duration_us)

    for app in bundle.apps:
        result.flow_stats.extend(app.finalize())
    result.flow_stats.sort(key=lambda st: (st.host, st.app_epd, st.flow_id, st.direction))

    result.cwnd_text = bundle.cwnd_log.text()

    bn = bundle.bottleneck
    engines = list(bundle.engines.values())
    sessions = [s for e in engines for s in e.sessions.values()]
    full_packets = sum(s.full_packets_out for s in sessions)
    full_chunks = sum(s.full_packet_chunks for s in sessions)
    recv = {f"{st.host}:{st.app_epd}:{st.flow_id}": st
            for st in result.flow_stats if st.direction == "recv"}
    recv_rates = [st.goodput_bps for st in recv.values()]
    window_rates = {str(t): {key: (st.bytes - seen.get(key, 0)) * 8 * 1_000_000
                             / (cfg.duration_us - t) for key, st in recv.items()}
                    for t, seen in probes.items() if t < cfg.duration_us}
    result.summary = {
        "scenario": scenario_id,
        "seed": cfg.seed,
        "duration_us": cfg.duration_us,
        "bottleneck_utilization": (bn.bytes_serialized_by(cfg.duration_us) * 8 * 1_000_000
                                   / cfg.duration_us / bn.bandwidth_bps),
        "bottleneck_sent": bn.sent,
        "bottleneck_admitted": bn.admitted,
        "bottleneck_dropped": bn.dropped,
        "full_packets": full_packets,
        "mean_full_packet_chunks": (full_chunks / full_packets) if full_packets else 0.0,
        "handshakes_completed": sum(e.handshakes_completed for e in engines),
        "sessions_failed": sum(e.sessions_failed for e in engines),
        "mobility_events": sum(s.mobility_events for s in sessions),
        "rto_fires": sum(s.rto_fires for s in sessions),
        "unknown_session": sum(e.unknown_session for e in engines),
        "unknown_epd": sum(e.unknown_epd for e in engines),
        "delivered_packets": sum(e.delivered_packets for e in engines),
        "flows_recv": len(recv_rates),
        "total_recv_goodput_bps": sum(recv_rates, 0.0),
        "jain_index": compute_fairness(recv_rates) if recv_rates else 0.0,
        "window_rates_bps": window_rates,
        "window_jain_index": {t: compute_fairness(list(rates.values())) if rates else 0.0
                              for t, rates in window_rates.items()},
        "total_retransmissions": sum(st.retransmissions for st in result.flow_stats),
    }
    return result


def run_config(text: str, overrides: Optional[dict[str, str]] = None,
               scenario_id: str = "run",
               trace: Optional[Callable[[str], None]] = None,
               prepare: Optional[Callable[[SimBundle], None]] = None) -> RunResult:
    """Parse, build and execute one scenario from config text."""
    cfg = parse_config(text, overrides)
    bundle = build_bottleneck(cfg, trace=trace)
    if prepare is not None:
        prepare(bundle)
    return execute(bundle, scenario_id)


# --------------------------------------------------------------------- presets


# Every preset point is this base plus `section.key` overrides, applied with
# the same semantics as `--override`.
_BASE = {
    "scenario": {"duration": "10s"},
    "topology": {"bottleneckBandwidth": "10Mbit", "bottleneckDelay": "10ms",
                 "bottleneckQueue": "65536byte"},
    "host.1": {"localPort": "4711"},
    "host.2": {"localPort": "2013", "rcvBufferSize": "524288byte"},
    "app.1.0": {"localEpd": "4712", "remoteAddress": "host2", "remotePort": "2013",
                "remoteEpd": "2014", "flowsOutgoing": "1", "flowPacketSize": "1450byte",
                "flowSendInterval": "100us", "flowNumPackets": "1000000",
                "flowId": "19"},
    "app.2.0": {"localEpd": "2014"},
}

# Two sessions, host1 -> host2 and host3 -> host4, over a 32 KiB queue.
_FAIRNESS = {
    "scenario.duration": "60s", "scenario.probeTimes": "12s 40s",
    "topology.bottleneckDelay": "20ms", "topology.bottleneckQueue": "32768byte",
    "topology.background": "1", "topology.backgroundPacketSize": "500byte",
    "host.3.localPort": "4711",
    "host.4.localPort": "2013", "host.4.rcvBufferSize": "524288byte",
    "app.1.0.localEpd": "100", "app.1.0.remoteEpd": "200",
    "app.1.0.flowSendInterval": "800us", "app.1.0.flowId": "1",
    "app.2.0.localEpd": "200",
    **{f"app.3.0.{key}": value for key, value in _BASE["app.1.0"].items()},
    "app.3.0.localEpd": "300", "app.3.0.remoteAddress": "host4",
    "app.3.0.remoteEpd": "400", "app.3.0.flowSendInterval": "800us",
    "app.3.0.flowId": "1",
    "app.4.0.localEpd": "400",
}

BDP_DELAYS_MS = (0, 10, 25, 50, 100)
BUNDLING_SIZES = (50, 140, 500, 1000, 1450)
LOSS_RATES_PCT = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)

# preset name -> [(scenario id, overrides onto _BASE)]
PRESETS: dict[str, list[tuple[str, dict[str, str]]]] = {
    "bottleneck-basic": [("bottleneck-basic", {
        "scenario.duration": "15s", "topology.bottleneckDelay": "20ms",
        "topology.background": "1", "host.2.rcvBufferSize": "65536byte",
        "app.1.0.flowPacketSize": "140byte", "app.1.0.flowSendInterval": "1000us",
        "app.1.0.flowNumPackets": "5000"})],
    "bdp-sweep": [(f"bdp-sweep/delay={d}ms", {
        "scenario.duration": "12s", "scenario.probeTimes": "2400ms",
        "topology.bottleneckBandwidth": "100Mbit", "topology.bottleneckDelay": f"{d}ms",
        "topology.bottleneckQueue": "131072byte", "host.2.rcvBufferSize": "65536byte"})
        for d in BDP_DELAYS_MS],
    "fairness-simultaneous": [("fairness-simultaneous", _FAIRNESS)],
    "fairness-staggered": [("fairness-staggered",
                            {**_FAIRNESS, "app.3.0.startTime": "10000000us"})],
    "bundling-sweep": [(f"bundling-sweep/size={s}B", {
        "app.1.0.flowPacketSize": f"{s}byte",
        # offered load ~12 Mbit/s
        "app.1.0.flowSendInterval": f"{max(10, s * 8 // 12)}us"})
        for s in BUNDLING_SIZES],
    "loss-sweep": [(f"loss-sweep/loss={p:g}pct", {
        "scenario.duration": "30s", "topology.bottleneckLoss": f"{p / 100.0}",
        "host.2.rcvBufferSize": "262144byte", "app.1.0.flowPacketSize": "140byte",
        "app.1.0.flowNumPackets": "10000"})
        for p in LOSS_RATES_PCT],
}
PRESET_NAMES = tuple(PRESETS)


def _render(overrides: dict[str, str]) -> str:
    """_BASE with `section.key` overrides applied, as config text."""
    sections = {name: {key: (value, "base") for key, value in body.items()}
                for name, body in _BASE.items()}
    apply_overrides(sections, overrides)
    return "".join(f"\n[{name}]\n" + "".join(f"{key} = {value}\n"
                                             for key, (value, _) in body.items())
                   for name, body in sections.items())


def preset_points(name: str, seed: int = 1) -> list[tuple[str, str]]:
    """-> [(scenario id, config text)], one entry per sweep point."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return [(scenario_id, _render({"scenario.seed": str(seed), **overrides}))
            for scenario_id, overrides in PRESETS[name]]


def run_preset(name: str, seed: int = 1,
               overrides: Optional[dict[str, str]] = None,
               trace: Optional[Callable[[str], None]] = None) -> list[RunResult]:
    return [run_config(text, overrides, scenario_id, trace=trace)
            for scenario_id, text in preset_points(name, seed)]


# -------------------------------------------------------------------- output


def results_csv(results: list[RunResult]) -> str:
    lines = [RESULTS_HEADER]
    for res in results:
        for st in res.flow_stats:
            # Receive rows carry no retransmissions: only send flows count them.
            counts = (f"{st.msgs},0,{st.bytes},0" if st.direction == "send"
                      else f"0,{st.msgs},0,{st.bytes}")
            lines.append(f"{res.scenario},{res.cfg.seed},{st.host},{st.app_epd},{st.flow_id},"
                         f"{st.direction},{counts},{st.retransmissions},{st.first_us or 0},"
                         f"{st.last_us or 0},{st.goodput_bps:.3f}")
    return "\n".join(lines) + "\n"


def cwnd_csv(result: RunResult) -> str:
    return result.cwnd_text


def summary_json(result: RunResult) -> str:
    return json.dumps(result.summary, indent=2, sort_keys=True) + "\n"


def _safe_name(scenario_id: str) -> str:
    return scenario_id.replace("/", "__").replace("=", "-")


def write_outputs(results: list[RunResult], out_dir: str) -> list[str]:
    """Write a run's files; cwnd and summary files of other runs in `out_dir` go."""
    os.makedirs(out_dir, exist_ok=True)
    files = [("results.csv", results_csv(results))]
    files += [(f"cwnd__{_safe_name(res.scenario)}.csv", cwnd_csv(res)) for res in results]
    files += [(f"summary__{_safe_name(res.scenario)}.json", summary_json(res))
              for res in results]
    for name in set(os.listdir(out_dir)) - dict(files).keys():
        if (name.startswith("cwnd__") and name.endswith(".csv")
                or name.startswith("summary__") and name.endswith(".json")):
            os.remove(os.path.join(out_dir, name))
    written = []
    for name, text in files:
        path = os.path.join(out_dir, name)
        with open(path, "w") as f:
            f.write(text)
        written.append(path)
    return written

