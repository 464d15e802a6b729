"""rtmfpsim benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads are defined in bench/worker.py and
described in bench/README.md. The loop is closed: one worker process at a
time, each running one unit of work to completion, so peak RSS belongs to one
run and at most one core is busy with the simulator.

--trace 0 reports the end-to-end metrics, from untraced runs only.
--trace 1 reports the per-layer metrics: counters read from untraced runs,
self times from traced runs, and the microbenchmarks.

Every run is checked (see worker.check_flows) and all runs of one invocation
must render byte-identical results and cwnd CSV text; a run that fails any
check counts in `failed`. Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
Metric names and units are read from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
MIN_RUNS = 3
EXIT_BY_S = 170  # the whole invocation must end well within 180 s

class Worker:
    """Starts worker processes one at a time and keeps the tally."""

    def __init__(self, t_start: float):
        self.t_start = t_start
        self.attempted = 0
        self.failed = 0

    def call(self, *args: str, count: bool = True) -> dict | None:
        timeout = max(5.0, EXIT_BY_S - (time.monotonic() - self.t_start))
        self.attempted += count
        try:
            proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            # subprocess.run has already killed and reaped the worker.
            print(f"worker {' '.join(args)}: timed out after {timeout:.0f} s",
                  file=sys.stderr)
            self.failed += count
            return None
        if proc.returncode != 0:
            print(f"worker {' '.join(args)}: exit {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            self.failed += count
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(runs: list[dict], workers: Worker) -> str:
    """Mark each run ok or failed; a run fails on a flow problem or on a
    results+cwnd digest other than the one most runs of this set share."""
    common, _ = collections.Counter(r["digest"] for r in runs).most_common(1)[0]
    for r in runs:
        problems = list(r["problems"])
        if r["digest"] != common:
            problems.append(f"results+cwnd sha256 {r['digest']} != {common}")
        r["ok"] = not problems
        if problems:
            workers.failed += 1
            print("run failed: " + "; ".join(problems), file=sys.stderr)
    return common


def span_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    spans = [r["spans"] for r in traced]
    extra = traced[0]["extra"]
    m: dict[str, float] = {}
    for name, (calls, _, _) in spans[0].items():
        self_ns = median(s[name][2] for s in spans)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_ns / 1e9
        m[f"{name}.ns_per_op"] = self_ns / calls if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m["wire.chunks_per_packet"] = ratio(extra.get("wire.chunks", 0), m["wire.encode.calls"])
    m["engine.packets_per_tx_opportunity"] = ratio(
        extra.get("engine.tx_packets", 0), m["engine.transmit_opportunity.calls"])
    m["flows.fill_packet.hit_ratio"] = ratio(extra.get("flows.fill_hits", 0),
                                             m["flows.fill_packet.calls"])
    m["flows.on_ack.gaps_per_ack"] = ratio(extra.get("flows.ack_gaps", 0),
                                           m["flows.on_ack.calls"])
    m["cc.loss_event_applied_ratio"] = ratio(extra.get("cc.loss_applied", 0),
                                             m["cc.on_loss_event.calls"])
    traced_s = median(r["run_s"] for r in traced)
    untraced_s = median(r["run_s"] for r in untraced)
    m["trace.overhead_ratio"] = traced_s / untraced_s
    m["netsim.events_per_s"] = untraced[0]["counters"]["netsim.events"] / untraced_s
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rtmfpsim" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from a checkout holding src/rtmfpsim and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    workers = Worker(t_start)
    wl = ["--workload", args.workload, "--seed", str(args.seed)]
    # Warm-up, not measured: fills the file cache (and the bytecode cache,
    # where Python writes one) as a user's second run would find them.
    if workers.call("setup", *wl, count=False) is None:
        print("cannot set up the workload; no result", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds

    setups = [s for s in (workers.call("setup", *wl) for _ in range(SETUP_SAMPLES)) if s]
    micro = workers.call("micro") if args.trace else {}

    untraced: list[dict] = []
    traced: list[dict] = []
    unit_s: list[float] = []  # wall time of one loop iteration
    min_units = 1 if args.trace else MIN_RUNS

    def another_unit() -> bool:
        if not unit_s:
            return True
        ends_at = time.monotonic() + median(unit_s)
        if ends_at - t_start > EXIT_BY_S:
            return False
        return len(unit_s) < min_units or ends_at <= deadline

    while another_unit():
        t0 = time.monotonic()
        r = workers.call("run", *wl)
        if r:
            untraced.append(r)
        if args.trace:
            r = workers.call("run", *wl, "--traced")
            if r:
                traced.append(r)
        unit_s.append(time.monotonic() - t0)
    if not untraced or (args.trace and (not traced or not micro)):
        print("every worker of a needed kind crashed; no result", file=sys.stderr)
        return 1
    digest = check_runs(untraced + traced, workers)
    # Timings come from the runs that passed the checks; if none did, the
    # result is still printed, with correct false.
    untraced = [r for r in untraced if r["ok"]] or untraced
    traced = [r for r in traced if r["ok"]] or traced
    # Untraced runs set up exactly as a set-up sample does: pool them.
    setups += untraced

    m: dict[str, float] = {
        "setup_s": median(s["setup_s"] for s in setups),
        "setup.import_s": median(s["import_s"] for s in setups),
        "config.parse_s": median(s["parse_s"] for s in setups),
        "topology.build_s": median(s["build_s"] for s in setups),
        "run_s": median(r["run_s"] for r in untraced),
        "run_cpu_s": median(r["run_cpu_s"] for r in untraced),
        "sim_s_per_host_s": median(r["sim_s"] / r["run_s"] for r in untraced),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
    }
    m.update(untraced[0]["counters"])
    if args.trace:
        m.update(span_metrics(traced, untraced))
        m.update(micro)

    failed_ratio = workers.failed / workers.attempted
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced runs, {len(setups)} set-ups")
    print(f"digest {args.workload} seed={args.seed} results+cwnd sha256={digest}")
    print(f"failed_ratio {failed_ratio:.4f} ({workers.failed}/{workers.attempted})")
    if len(untraced) > 1:
        q1, _, q3 = statistics.quantiles([r["run_s"] for r in untraced], n=4)
        print(f"run_s quartiles {q1:.4f} .. {q3:.4f} s")
    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": m[name], "unit": unit}
        print(f"  {name:40s} {m[name]:>16.6g} {unit}")
    print(json.dumps({"correct": workers.failed == 0, "attempted": workers.attempted,
                      "failed": workers.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
