"""One measured unit of the benchmark, run in its own process.

    python3 bench/worker.py setup --workload NAME --seed N
    python3 bench/worker.py run   --workload NAME --seed N [--traced]
    python3 bench/worker.py micro

`setup` imports rtmfpsim, parses the workload's config and builds its
topology, then exits. `run` does the same and then executes the scenario and
renders its results and cwnd CSV text. `micro` runs the per-layer
microbenchmarks. Each prints one JSON object on stdout; bench/run.py starts
one worker at a time and aggregates them. A fresh process per unit means the
import is really measured and `ru_maxrss` belongs to one run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> (preset, sweep point, config overrides). The seed is handed to
# harness.preset_points(preset, seed); the simulator sees only the config text
# that call generates. Durations are shortened from the presets' own so that a
# run takes a few seconds; background=1 adds the harness's seeded cross traffic
# (5% of capacity) so that the seed changes what bulk and small-msg do.
WORKLOADS = {
    "bulk": ("bdp-sweep", "bdp-sweep/delay=0ms",
             {"scenario.duration": "2s", "topology.background": "1"}),
    "small-msg": ("bundling-sweep", "bundling-sweep/size=50B",
                  {"scenario.duration": "3s", "topology.background": "1"}),
    "contended": ("fairness-simultaneous", "fairness-simultaneous",
                  {"scenario.duration": "20s"}),
}


def workload_text(harness, name: str, seed: int) -> tuple[str, str, dict]:
    preset, point, overrides = WORKLOADS[name]
    texts = dict(harness.preset_points(preset, seed))
    return point, texts[point], dict(overrides)


def _import_rtmfpsim():
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import rtmfpsim  # noqa: F401
    return time.perf_counter() - t0


def sent_prefix_digest(fs, n: int):
    """sha256 of the first n payloads a flow with a constant message size
    sends (app.make_payload is deterministic), else None."""
    if fs.size_dist.kind != "constant":
        return None
    from rtmfpsim.app import make_payload
    size = int(round(fs.size_dist.a))
    h = hashlib.sha256()
    for index in range(n):
        h.update(make_payload(fs.flow_id, index, size))
    return h.hexdigest()


def check_flows(result) -> list[str]:
    """Per-run correctness: ordered, no invention, intact payload, progress."""
    problems = []
    sent = {}
    for host, app in result.cfg.apps:
        if app.remote_address is None:
            continue
        for fs in app.flows:
            sent[(app.remote_address, app.remote_epd, fs.flow_id)] = (
                fs, result.stats(host, app.local_epd, fs.flow_id, "send"))
    delivered = set()
    for st in result.flow_stats:
        if st.direction != "recv":
            continue
        key = (st.host, st.app_epd, st.flow_id)
        if st.order_violations:
            problems.append(f"{key}: {st.order_violations} order violations")
        if key not in sent:
            problems.append(f"{key}: received on a flow nobody sent")
            continue
        fs, tx = sent[key]
        delivered.add(key)
        if st.msgs > tx.msgs:
            problems.append(f"{key}: delivered {st.msgs} > sent {tx.msgs}")
        elif st.msgs == tx.msgs and st.digest != tx.digest:
            problems.append(f"{key}: payload sha256 differs at equal counts")
        else:
            # The senders still hold a backlog at the end of every workload,
            # so the counts differ; compare against the sent prefix instead.
            want = sent_prefix_digest(fs, st.msgs)
            if want is not None and st.digest != want:
                problems.append(f"{key}: payload sha256 differs from the first "
                                f"{st.msgs} messages sent")
    for key in sent.keys() - delivered:
        problems.append(f"{key}: nothing delivered")
    return problems


def read_counters(bundle, result) -> dict[str, float]:
    """Exact counts the program keeps anyway, read after the run."""
    c: dict[str, float] = {}

    def add(name, value):
        c[name] = c.get(name, 0) + value

    for name, link in bundle.links.items():
        group = ("bottleneck_lr" if name == "bottleneck:lr" else
                 "bottleneck_rl" if name == "bottleneck:rl" else "access")
        for field in ("sent", "dropped_loss", "dropped_queue", "dropped_forced"):
            add(f"link.{group}.{field}", getattr(link, field))
    sessions = [s for e in bundle.engines.values() for s in e.sessions.values()]
    send_flows = [f for s in sessions for f in s.send_flows.values()]
    recv_flows = [f for s in sessions for f in s.recv_flows.values()]
    for field in ("data_packets_out", "full_packets_out", "full_packet_chunks",
                  "rto_fires"):
        c[f"session.{field}"] = sum(getattr(s, field) for s in sessions)
    for field in ("retransmissions", "loss_reports_received"):
        c[f"sendflow.{field}"] = sum(getattr(f, field) for f in send_flows)
    for field in ("acks_sent", "duplicates", "discarded_full"):
        c[f"recvflow.{field}"] = sum(getattr(f, field) for f in recv_flows)
    for field in ("decode_errors", "unknown_session"):
        c[f"engine.{field}"] = sum(getattr(e, field) for e in bundle.engines.values())

    bn = bundle.bottleneck
    c["netsim.events"] = bundle.sim.processed_events
    c["netsim.bottleneck.drop_ratio"] = bn.dropped / bn.sent if bn.sent else 0.0
    retx = c["sendflow.retransmissions"]
    first_sends = sum(f.highest_sent_seq for f in send_flows)
    c["flows.retx_ratio"] = retx / (first_sends + retx) if first_sends else 0.0
    enqueued = sum(st.bytes for st in result.flow_stats if st.direction == "send")
    delivered = sum(st.bytes for st in result.flow_stats if st.direction == "recv")
    c["app.backlog_bytes_end"] = enqueued - delivered
    c["harness.cwnd_rows"] = len(result.cwnd_series)
    return c


def set_up(workload: str, seed: int, traced: bool = False):
    """Import, parse and build, timed; -> (harness, scenario id, bundle,
    tracer or None, timings)."""
    import_s = _import_rtmfpsim()
    from rtmfpsim import config, harness, topology
    scenario_id, text, overrides = workload_text(harness, workload, seed)
    tracer = None
    if traced:
        # Wrappers go in before the build: Host.bind keeps the engine's
        # handle_datagram as a bound method taken at construction.
        import tracing
        tracer = tracing.install()
    t0 = time.perf_counter()
    cfg = config.parse_config(text, overrides)
    t1 = time.perf_counter()
    bundle = topology.build_bottleneck(cfg)
    t2 = time.perf_counter()
    timings = {"import_s": import_s, "parse_s": t1 - t0, "build_s": t2 - t1,
               "setup_s": import_s + (t2 - t0)}
    return harness, scenario_id, bundle, tracer, timings


def do_run(workload: str, seed: int, traced: bool) -> dict:
    harness, scenario_id, bundle, tracer, timings = set_up(workload, seed, traced)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    result = harness.execute(bundle, scenario_id)
    rendered = harness.results_csv([result]) + harness.cwnd_csv(result)
    run_s = time.perf_counter() - wall0
    run_cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        **timings,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "sim_s": bundle.cfg.duration_us / 1e6,
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(rendered.encode()).hexdigest(),
        "problems": check_flows(result),
        "counters": read_counters(bundle, result),
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["extra"] = tracer.extra
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "micro"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    if args.mode == "setup":
        out = set_up(args.workload, args.seed)[-1]
    elif args.mode == "run":
        out = do_run(args.workload, args.seed, args.traced)
    else:
        _import_rtmfpsim()
        import micro
        out = micro.run_all()
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
