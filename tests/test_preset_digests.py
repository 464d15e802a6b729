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


if __name__ == "__main__":
    for scenario_id, digest in preset_digests():
        print(scenario_id, digest)
