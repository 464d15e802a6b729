"""The names bench/ calls in the simulator still exist and still work.

bench/ drives the simulator from outside src/: it wraps methods by name,
reads counters by name and runs the per-layer microbenchmarks through
public calls. A rename in src/ breaks those only when the benchmark runs;
these checks import the bench modules unchanged and exercise each contract
on small inputs.
"""

import inspect
import pathlib
import sys

import pytest

from rtmfpsim import config, harness, topology

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import micro  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("owner,attr", [(owner, attr) for owner, attr, *_ in tracing.TARGETS],
                         ids=[name for *_, name, _ in tracing.TARGETS])
def test_every_tracing_target_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_counters_and_flow_checks_run_on_a_short_bulk_run():
    scenario_id, text, overrides = worker.workload_text(harness, "bulk", 1)
    cfg = config.parse_config(text, {**overrides, "scenario.duration": "300ms"})
    bundle = topology.build_bottleneck(cfg)
    result = harness.execute(bundle, scenario_id)
    assert worker.check_flows(result) == []
    counters = worker.read_counters(bundle, result)
    assert counters["netsim.events"] > 0 and counters["session.data_packets_out"] > 0
    assert all(value >= 0 for value in counters.values())


@pytest.mark.parametrize("case", micro.CASES.values(),
                         ids=[name.removeprefix("micro.") for name in micro.CASES])
def test_microbenchmarks_run(case):
    small = {"n": 50} if "n" in inspect.signature(case).parameters else {}
    assert case(**small) > 0
