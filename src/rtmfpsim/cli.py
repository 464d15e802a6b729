"""Command line front end.

  rtmfpsim run --config FILE [--seed N] [--trace FILE] [--out DIR]
  rtmfpsim preset NAME [--seed N] [--override key=value ...] [--out DIR] [--trace FILE]
  rtmfpsim report --out DIR

Exit codes: 0 success, 1 configuration error or an input that cannot be
read, 2 runtime assertion failure, 3 an output file or directory cannot be
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness
from .config import ConfigError
from .netsim import SimulationError


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"override {pair}: expected key=value")
        overrides[key.strip()] = value.strip()
    return overrides


class InputError(Exception):
    """A --config file or report input that cannot be read."""


class OutputError(Exception):
    """A trace file or output directory that cannot be written."""


def _open_trace(path: str | None):
    if path is None:
        return None, None
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        f = open(path, "w")
    except OSError as e:
        raise OutputError(f"trace {path}: {e}") from e
    return f, lambda line: f.write(line + "\n")


def _summary_line(s: dict) -> str:
    return (f"{s['scenario']}: seed={s['seed']} util={s['bottleneck_utilization']:.3f} "
            f"handshakes={s['handshakes_completed']} flows={s['flows_recv']} "
            f"goodput={s['total_recv_goodput_bps']:.0f}bps jain={s['jain_index']:.4f} "
            f"retx={s['total_retransmissions']}")


def _finish(results, out_dir: str | None) -> None:
    if out_dir:
        try:
            written = harness.write_outputs(results, out_dir)
        except OSError as e:
            raise OutputError(f"output directory {out_dir}: {e}") from e
        for path in written:
            print(f"wrote {path}")
    print("\n".join(_summary_line(res.summary) for res in results))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="rtmfpsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)

    p_preset = sub.add_parser("preset", help="run a named validation preset")
    p_preset.add_argument("name", choices=harness.PRESET_NAMES)
    p_preset.add_argument("--seed", type=int, default=1)
    p_preset.add_argument("--override", action="append", default=[],
                          metavar="SECTION.KEY=VALUE")
    for p in (p_run, p_preset):
        p.add_argument("--trace", default=None)
        p.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="print the run summaries in an output directory")
    p_report.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    trace_file = None
    try:
        if args.command == "run":
            try:
                with open(args.config) as f:
                    text = f.read()
            except (OSError, ValueError) as e:
                raise InputError(f"--config {args.config}: {e}") from e
            overrides = {}
            if args.seed is not None:
                overrides["scenario.seed"] = str(args.seed)
            trace_file, trace = _open_trace(args.trace)
            results = [harness.run_config(text, overrides, trace=trace)]
            _finish(results, args.out)
        elif args.command == "preset":
            overrides = _parse_overrides(args.override) or None
            trace_file, trace = _open_trace(args.trace)
            results = harness.run_preset(args.name, seed=args.seed,
                                         overrides=overrides, trace=trace)
            _finish(results, args.out)
        else:
            try:
                lines = []
                for name in sorted(os.listdir(args.out)):
                    if name.startswith("summary__") and name.endswith(".json"):
                        with open(os.path.join(args.out, name)) as f:
                            lines.append(_summary_line(json.load(f)))
            except OSError as e:
                raise InputError(f"--out {args.out}: {e}") from e
            except (KeyError, TypeError, ValueError) as e:
                raise InputError(f"--out {args.out}: {name}: not a run summary: {e!r}") from e
            if not lines:
                raise InputError(f"--out {args.out}: no summary__<scenario>.json file")
            print("\n".join(lines))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except (SimulationError, AssertionError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except OutputError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 3
    finally:
        if trace_file is not None:
            trace_file.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
