"""Byte-identical outputs: every preset point, seed 1, cut to one second.

`tests/vectors/preset_digests.txt` pins, per scenario id, the sha256 of
`results_csv([r]) + cwnd_csv(r)`. A change that alters any simulation output
fails here; if the change is intended, regenerate the file with

    PYTHONPATH=src python tests/test_preset_digests.py > tests/vectors/preset_digests.txt

and name the change in CHANGES.md.
"""

import hashlib
import os

import pytest

from rtmfpsim import harness

VECTORS = os.path.join(os.path.dirname(__file__), "vectors", "preset_digests.txt")
OVERRIDES = {"scenario.duration": "1s"}

# Cases no preset point covers, as (preset, name, overrides on top of
# OVERRIDES): a time-critical flow that drains so the modes revert, a port
# migration, a session with two outgoing flows, and 4,000-byte messages, each
# sent as a first, a middle and a last fragment. Only their results CSV is
# pinned (sha256 below); their cwnd rows are not.
EXTRA_POINTS = [
    ("fairness-simultaneous", "time-critical-drains", {
        "app.1.0.flowTimeCritical": "1", "app.1.0.flowNumPackets": "300"}),
    ("bottleneck-basic", "migration", {
        "host.1.migrateAt": "500ms", "host.1.migrateTo": "4721"}),
    ("bottleneck-basic", "two-flows", {
        "app.1.0.flowsOutgoing": "2", "app.1.0.flowPacketSize": "140byte 140byte",
        "app.1.0.flowSendInterval": "1000us 1000us",
        "app.1.0.flowNumPackets": "5000 5000", "app.1.0.flowId": "19 20"}),
    ("bottleneck-basic", "fragmenting", {"app.1.0.flowPacketSize": "4000byte"}),
]
EXTRA_RESULTS_SHA256 = {
    "time-critical-drains": "c2a6d22a4d31c3220ec1a15a0617bd0853fc55c712a2c88cc7fbe342fc30ce42",
    "migration": "b2848155bf07e815b8227cd6a854f43dbbbeab19795aa1be0a0ea0ddf7d62214",
    "two-flows": "73e5413d76b9ebbd8f67a4c9e398d90c8b8191e121575c2f5677122918fdab5c",
    "fragmenting": "e47d99f6d8934c98b062d30efd25a85512e55e256ee019bc5f559ae58f301cd0",
}

# sha256 of the `--trace` text (one line per event, each ending in a newline)
# for the plain bottleneck-basic point, the two-flows and fragmenting extra
# points, and a lossy point with one message per 70 ms, whose trace is the only
# one with retransmission-timeout and delayed-ack events.
TRACE_SHA256 = {
    "bottleneck-basic": "bb73b70fe50308a609e24ca748d2a8addceea02b1b88a4c2fdea577787aabb22",
    "two-flows": "389eddc1c5aa0f72e76feb3073088aaf889ae2e2ec76aaf95a6f9f658692caf7",
    "lossy-sparse": "cb74e79dea0f3c927b7e3930ef97b5930e3f8f35312561c44fea704f34e9f42a",
    "fragmenting": "a7bcacc09774cf25c87812999805ccc940254eeca70d5eb2c3c9ecdfd6f556d1",
}
TRACE_POINTS = [("bottleneck-basic", "bottleneck-basic", {}),
                next(p for p in EXTRA_POINTS if p[1] == "two-flows"),
                next(p for p in EXTRA_POINTS if p[1] == "fragmenting"),
                ("bottleneck-basic", "lossy-sparse", {
                    "topology.bottleneckLoss": "0.2", "app.1.0.flowSendInterval": "70ms"})]


def preset_digests():
    """-> [(scenario id, sha256 hex)] over every point of every preset."""
    out = []
    for name in harness.PRESET_NAMES:
        for scenario_id, text in harness.preset_points(name, seed=1):
            res = harness.run_config(text, OVERRIDES, scenario_id)
            rendered = harness.results_csv([res]) + harness.cwnd_csv(res)
            out.append((scenario_id, hashlib.sha256(rendered.encode()).hexdigest()))
    return out


def pinned():
    with open(VECTORS) as f:
        return [tuple(line.split()) for line in f if line.strip()]


def test_preset_digests_match_pinned_vectors():
    expected = pinned()
    assert len(expected) == 19
    assert preset_digests() == expected


@pytest.mark.parametrize("preset,name,overrides", EXTRA_POINTS,
                         ids=[name for _, name, _ in EXTRA_POINTS])
def test_extra_point_results_match_pinned_digest(preset, name, overrides):
    (scenario_id, text), = harness.preset_points(preset, seed=1)
    res = harness.run_config(text, {**OVERRIDES, **overrides}, scenario_id)
    rendered = harness.results_csv([res])
    assert hashlib.sha256(rendered.encode()).hexdigest() == EXTRA_RESULTS_SHA256[name]


@pytest.mark.parametrize("preset,name,overrides", TRACE_POINTS,
                         ids=[name for _, name, _ in TRACE_POINTS])
def test_trace_text_matches_pinned_digest(preset, name, overrides):
    (scenario_id, text), = harness.preset_points(preset, seed=1)
    h = hashlib.sha256()
    harness.run_config(text, {**OVERRIDES, **overrides}, scenario_id,
                       trace=lambda line: h.update((line + "\n").encode()))
    assert h.hexdigest() == TRACE_SHA256[name]


if __name__ == "__main__":
    for scenario_id, digest in preset_digests():
        print(scenario_id, digest)
