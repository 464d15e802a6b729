"""Byte-identical outputs: every preset point, seed 1, cut to one second and
at full duration; and the same outputs at two seeds for the points that draw
nothing at random.

The pins live in `tests/vectors/`:

- `preset_parts.txt`: per preset point and per extra point below, the sha256
  of the results CSV, of the cwnd CSV and of the summary JSON, apart, so a
  failure names the file. Each of these runs completes a handshake and
  delivers a message; the points in LONGER_POINTS run 3 s to do so;
- `trace_pins.txt`: per trace point, the line count and sha256 of the whole
  `--trace` text (kind `*`), of each event kind's lines, and of each kind's
  lines in each 100 ms slice of the run, so a failure names the kind and the
  first slice that changed;
- `preset_full.txt`: per preset point at its full duration, the sha256 of the
  results CSV, of the cwnd CSV and of the summary JSON. The runs are the ones
  the acceptance criteria use (`conftest.full_runs`), so only bottleneck-basic
  runs here;
- `preset_full_seed3.txt`: the same at seed 3. Tier-1 does not run it; check
  it (about 30 s, exit status 1 and the differing points on a mismatch) with

      PYTHONPATH=src python tests/test_preset_digests.py --check-seed 3

A change that alters any simulation output fails here; if the change is
intended, regenerate every pin with

    PYTHONPATH=src python tests/test_preset_digests.py

and name the changed pins in CHANGES.md.
"""

import argparse
import functools
import hashlib
import os
import sys

import pytest

from rtmfpsim import harness, netsim

VECTORS = os.path.join(os.path.dirname(__file__), "vectors")
PARTS = os.path.join(VECTORS, "preset_parts.txt")
TRACE_PINS = os.path.join(VECTORS, "trace_pins.txt")
FULL_SEEDS = (1, 3)
OVERRIDES = {"scenario.duration": "1s"}
SLICE_US = 100_000
KINDS = (netsim.KIND_APP_TICK, netsim.KIND_DELIVERY, netsim.KIND_TIMER)

# At seed 1 these points lose their first IHello to the bottleneck's first
# loss draw and open their session only at 2.04 s; cut to one second, their
# runs would hold one dropped packet and nothing else.
LONGER_POINTS = {f"loss-sweep/loss={pct}pct": {"scenario.duration": "3s"}
                 for pct in (1, 2, 5)}

# Cases no preset point covers, as (preset, name, overrides on top of
# OVERRIDES): a time-critical flow that drains so the modes revert, a port
# migration, a session with two outgoing flows, and 4,000-byte messages, each
# sent as a first, a middle and a last fragment.
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

# Traced: the plain bottleneck-basic point, the two-flows and fragmenting extra
# points, and a lossy point with one message per 70 ms, whose trace is the only
# one with retransmission-timeout and delayed-ack events.
TRACE_POINTS = [("bottleneck-basic", "bottleneck-basic", {}),
                next(p for p in EXTRA_POINTS if p[1] == "two-flows"),
                next(p for p in EXTRA_POINTS if p[1] == "fragmenting"),
                ("bottleneck-basic", "lossy-sparse", {
                    "topology.bottleneckLoss": "0.2", "app.1.0.flowSendInterval": "70ms"})]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _points():
    """-> {name: (scenario id, config text, overrides)}: every preset point
    under its scenario id, then every extra point under its name."""
    out = {}
    for name in harness.PRESET_NAMES:
        for scenario_id, text in harness.preset_points(name, seed=1):
            out[scenario_id] = (scenario_id, text,
                                {**OVERRIDES, **LONGER_POINTS.get(scenario_id, {})})
    for preset, name, overrides in EXTRA_POINTS:
        (scenario_id, text), = harness.preset_points(preset, seed=1)
        out[name] = (scenario_id, text, {**OVERRIDES, **overrides})
    return out


POINTS = _points()
# scenario id -> preset name, for every preset point.
PRESET_OF = {sid: name for name in harness.PRESET_NAMES
             for sid, _ in harness.preset_points(name, seed=1)}
PRESET_IDS = list(PRESET_OF)


def full_pins_path(seed: int) -> str:
    return os.path.join(VECTORS, "preset_full.txt" if seed == 1
                        else f"preset_full_seed{seed}.txt")


OUTPUTS = ("results CSV", "cwnd CSV", "summary JSON")


def output_digests(res) -> tuple[str, str, str]:
    """-> sha256 of the results CSV, the cwnd CSV and the summary JSON of one run."""
    return (sha256(harness.results_csv([res])), sha256(harness.cwnd_csv(res)),
            sha256(harness.summary_json(res)))


def changed_outputs(got, pinned) -> str:
    """-> which of the output digests differ from their pins, joined by "and"."""
    return " and ".join(f for f, g, p in zip(OUTPUTS, got, pinned) if g != p)


@functools.cache
def point_run(name: str) -> tuple[tuple[str, str, str], tuple[int, int]]:
    """-> (output_digests; the handshakes completed and the messages
    delivered) of one point."""
    scenario_id, text, overrides = POINTS[name]
    res = harness.run_config(text, overrides, scenario_id)
    delivered = sum(st.msgs for st in res.flow_stats if st.direction == "recv")
    return output_digests(res), (res.summary["handshakes_completed"], delivered)


@functools.cache
def trace_pins(name: str) -> dict[tuple[str, str], tuple[int, str]]:
    """-> {(kind, slice): (lines, sha256)} of one trace point's trace text,
    each line ending in a newline. Kind `*` is every kind; slice `*` is the
    whole run, else the index of a 100 ms slice."""
    preset, _, overrides = next(p for p in TRACE_POINTS if p[1] == name)
    (scenario_id, text), = harness.preset_points(preset, seed=1)
    groups: dict[tuple[str, str], list[str]] = {}

    def record(line: str) -> None:
        at, _, kind, _ = line.split("\t", 3)
        line += "\n"
        for key in (("*", "*"), (kind, "*"), (kind, str(int(at) // SLICE_US))):
            groups.setdefault(key, []).append(line)

    harness.run_config(text, {**OVERRIDES, **overrides}, scenario_id, trace=record)
    return {key: (len(lines), sha256("".join(lines))) for key, lines in groups.items()}


def read_pins(path):
    with open(path) as f:
        return [line.split() for line in f if line.strip()]


def full_pins(seed):
    return {sid: tuple(digests) for sid, *digests in read_pins(full_pins_path(seed))}


def pinned_parts():
    return {name: tuple(digests) for name, *digests in read_pins(PARTS)}


def pinned_trace(name):
    return {(kind, slc): (int(lines), digest)
            for point, kind, slc, lines, digest in read_pins(TRACE_PINS) if point == name}


def test_pin_files_name_every_point_in_order():
    """The pin tests run once per point, so a point dropped from a preset or
    from EXTRA_POINTS would take its pins' tests with it unnoticed."""
    assert list(pinned_parts()) == list(POINTS)
    assert list(full_pins(1)) == PRESET_IDS


@pytest.mark.parametrize("name", list(POINTS))
def test_results_and_cwnd_match_pinned_parts(name):
    changed = changed_outputs(point_run(name)[0], pinned_parts()[name])
    assert not changed, f"{name}: {changed} differs from its pin"


@pytest.mark.parametrize("name", list(POINTS))
def test_every_pinned_point_opens_a_session_and_delivers(name):
    handshakes, delivered = point_run(name)[1]
    assert handshakes > 0 and delivered > 0, (
        f"{name}: {handshakes} handshakes completed, {delivered} messages delivered")


@pytest.mark.parametrize("preset,name,overrides", TRACE_POINTS,
                         ids=[name for _, name, _ in TRACE_POINTS])
def test_trace_text_matches_pinned_digest(preset, name, overrides):
    assert trace_pins(name)[("*", "*")][1] == pinned_trace(name)[("*", "*")][1]


@pytest.mark.parametrize("name,kind", [(p[1], kind) for p in TRACE_POINTS for kind in KINDS],
                         ids=[f"{p[1]}-{kind}" for p in TRACE_POINTS for kind in KINDS])
def test_trace_kind_matches_pinned(name, kind):
    """One event kind's lines, as a whole and per 100 ms slice."""
    got = {key: v for key, v in trace_pins(name).items() if key[0] == kind}
    want = {key: v for key, v in pinned_trace(name).items() if key[0] == kind}
    if got == want:
        return
    n_got, n_want = (d.get((kind, "*"), (0, ""))[0] for d in (got, want))
    slices = sorted({int(s) for _, s in got.keys() | want.keys() if s != "*"})
    first = next(s for s in slices if got.get((kind, str(s))) != want.get((kind, str(s))))
    pytest.fail(f"{name}: {kind} lines differ ({n_got} lines, pinned {n_want}); first "
                f"differing slice {first} ({first * SLICE_US}-{(first + 1) * SLICE_US} us)")


@pytest.mark.parametrize("name", PRESET_IDS)
def test_full_duration_results_and_cwnd_match_pins(name, full_runs):
    res, = (r for r in full_runs(PRESET_OF[name]) if r.scenario == name)
    changed = changed_outputs(output_digests(res), full_pins(1)[name])
    assert not changed, (f"{name}: {changed} at full duration differs "
                         f"from its pin in {os.path.basename(full_pins_path(1))}")


# Presets whose points have no loss, no background traffic and constant sizes
# and intervals, so no model code should draw from a random stream.
SEED_FREE_PRESETS = ("bdp-sweep", "bundling-sweep")


def seedless_outputs(res) -> tuple[str, str, dict]:
    """-> the results CSV with its seed column blanked, the cwnd CSV and the
    summary without its `seed` key, of one run."""
    rows = [row.split(",") for row in harness.results_csv([res]).splitlines()]
    return ("\n".join(",".join([row[0], "", *row[2:]]) for row in rows),
            harness.cwnd_csv(res), {k: v for k, v in res.summary.items() if k != "seed"})


@pytest.mark.parametrize("preset", [*SEED_FREE_PRESETS, "bottleneck-basic"])
def test_points_without_random_input_render_the_same_at_two_seeds(preset):
    """bottleneck-basic, whose background traffic is random, is the control:
    it shows that the seed reaches the simulation."""
    one, two = ([seedless_outputs(res) for res in harness.run_preset(
        preset, seed=seed, overrides={"scenario.duration": "300ms"})] for seed in (1, 2))
    if preset in SEED_FREE_PRESETS:
        assert one == two
    else:
        assert one != two


def full_digests(seed: int):
    """-> [(scenario id, *output_digests)] of every preset point at its full
    duration; each preset's runs are dropped once hashed."""
    return [(res.scenario, *output_digests(res)) for name in harness.PRESET_NAMES
            for res in harness.run_preset(name, seed=seed)]


def check_seed(seed: int) -> int:
    """Compare every full-duration point at `seed` with its pin file; print one
    line per point, and return 1 if any differs."""
    pins = full_pins(seed)
    differing = 0
    for sid, *got in full_digests(seed):
        changed = changed_outputs(got, pins.get(sid, ("",) * len(OUTPUTS)))
        print(f"{sid}: {changed + ' differ' if changed else 'ok'}")
        differing += bool(changed)
    print(f"seed {seed}: {len(PRESET_IDS) - differing} of {len(PRESET_IDS)} points "
          f"match {os.path.basename(full_pins_path(seed))}")
    return 1 if differing else 0


def regenerate():
    with open(PARTS, "w") as f:
        f.writelines(f"{name} {' '.join(point_run(name)[0])}\n" for name in POINTS)
    with open(TRACE_PINS, "w") as f:
        for _, name, _ in TRACE_POINTS:
            pins = trace_pins(name)
            order = sorted(pins, key=lambda k: (k[0] != "*", k[0], k[1] != "*",
                                                int(k[1]) if k[1] != "*" else 0))
            f.writelines(f"{name} {kind} {slc} {pins[kind, slc][0]} {pins[kind, slc][1]}\n"
                         for kind, slc in order)
    for seed in FULL_SEEDS:
        with open(full_pins_path(seed), "w") as f:
            f.writelines(" ".join(row) + "\n" for row in full_digests(seed))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Rewrite every pin, or check one seed's "
                                             "full-duration pins.")
    ap.add_argument("--check-seed", type=int, metavar="N",
                    help="check the full-duration points at seed N against their pins")
    args = ap.parse_args()
    if args.check_seed is not None:
        sys.exit(check_seed(args.check_seed))
    regenerate()
