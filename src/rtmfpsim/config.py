"""Scenario configuration: a sectioned key-value text format.

Sections are `[scenario]`, `[topology]`, `[host.N]` and `[app.N.M]` (app M on
host N). The keys each section accepts are the rows of the key tables below
(SCENARIO_KEYS, TOPOLOGY_KEYS, HOST_KEYS, APP_KEYS, FLOW_KEYS): config key,
target field, parser, allowed range, other accepted spellings, default, and
`needs`, the keys the same section must also give. The spec classes take
their fields and defaults from these rows.
Dimensioned values require a unit suffix (byte, us, ms, s; bandwidths use
bit/kbit/Mbit/Gbit). FLOW_KEYS values are space-separated lists, one entry per
outgoing flow; `#` starts a comment anywhere on a line. Sizes and intervals
may be distributions: constant(v) | uniform(a,b) | exponential(mean); a bare
value means constant. No argument may be negative or empty.
configs/two-peer-bottleneck.conf is a complete example.

build_config also checks the rules that join keys beyond `needs`: localEpd
unique across apps; flowsOutgoing > 0 needs remoteAddress; flowId unique
within an app and among the flows into one receiving app; a remote host's
rcvBufferSize holds the largest chunk and the largest message its sender may
send.
Every rule about a valid scenario is checked here, once, at parse time, and
its error names the line or override at fault; the layers below trust the
config they are given.
"""

from __future__ import annotations

import copy
import re
from typing import Callable, NamedTuple, Optional

from . import flows, wire
from .netsim import MTU_DEFAULT, Dist


class ConfigError(Exception):
    """Malformed configuration; the message starts with where: `line N`, or
    `override section.key` for a value given as an override."""


_TIME_UNITS = {"us": 1, "ms": 1_000, "s": 1_000_000}
_BW_UNITS = {"bit": 1, "kbit": 1_000, "Mbit": 1_000_000, "Gbit": 1_000_000_000}
_NUM_RE = re.compile(r"^(-?\d+(?:\.\d+)?)([A-Za-z]*)$")
_DIST_ARGS = {"constant": 1, "uniform": 2, "exponential": 1}  # Dist constructors
_DIST_RE = re.compile(rf"^({'|'.join(_DIST_ARGS)})\((.*)\)$")

# The largest packet the engine builds without a size budget, which
# maxSegmentSize must hold: an ack of one flow with MAX_ACK_GAPS gap ranges.
MIN_SEGMENT_SIZE = (wire.PACKET_HEADER + wire.CHUNK_HEADER
                    + wire.ack_body_len(flows.MAX_ACK_GAPS))
# A loss never shrinks the window below two segments (cc floor = 2 * ccMss);
# that floor must still admit the largest chunk payload.
MIN_CC_MSS = -(-wire.MAX_CHUNK_PAYLOAD // 2)
# An app rounds each message size it draws and clamps it to this range.
SIZE_CLAMP_MIN = 1
SIZE_CLAMP_MAX = 65536


def parse_sections(text: str) -> tuple[dict[str, dict[str, tuple[str, str]]],
                                       dict[str, str]]:
    """Raw pass: (section -> {key: (value string, where)}, section -> where its
    first header is); where is `line N`."""
    sections: dict[str, dict[str, tuple[str, str]]] = {}
    headers: dict[str, str] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            headers.setdefault(current, f"line {lineno}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value': {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, f"line {lineno}")
    return sections, headers


def apply_overrides(sections: dict, overrides: dict[str, str]) -> None:
    """Apply `section.key=value` overrides onto the raw section map."""
    for dotted, value in overrides.items():
        section, _, key = dotted.rpartition(".")
        if not section or not key:
            raise ConfigError(f"override {dotted}: expected section.key=value")
        sections.setdefault(section, {})[key] = (value, f"override {dotted}")


def _scaled(value: str, units: dict[str, int], what: str, where: str) -> float:
    m = _NUM_RE.match(value)
    if not m:
        raise ConfigError(f"{where}: cannot parse {what} value {value!r}")
    num, unit = m.group(1), m.group(2)
    if unit not in units:
        expected = "/".join(units)
        raise ConfigError(
            f"{where}: {what} value {value!r} needs a unit ({expected})")
    return float(num) * units[unit]


def parse_time_us(value: str, where: str = "config") -> int:
    return int(round(_scaled(value, _TIME_UNITS, "time", where)))


def parse_bytes(value: str, where: str = "config") -> int:
    return int(round(_scaled(value, {"byte": 1}, "byte", where)))


def parse_bandwidth(value: str, where: str = "config") -> int:
    return int(round(_scaled(value, _BW_UNITS, "bandwidth", where)))


def parse_dist(token: str, unit_parser, where: str = "config") -> Dist:
    """`140byte` / `constant(140byte)` / `uniform(a,b)` / `exponential(mean)`."""
    m = _DIST_RE.match(token)
    kind, args = ("constant", [token]) if m is None else (m.group(1), m.group(2).split(","))
    args = [a.strip() for a in args]
    try:
        if "" in args and args != [""]:  # `constant()` has no argument, not an empty one
            raise ValueError("an argument is empty")
        args = [unit_parser(a, where) for a in args if a]
        if len(args) != _DIST_ARGS[kind]:
            raise ValueError(f"{kind} takes {_DIST_ARGS[kind]} argument(s)")
        if min(args) < 0:
            raise ValueError("every argument must be >= 0")
        return getattr(Dist, kind)(*args)
    except ValueError as e:
        raise ConfigError(f"{where}: bad distribution {token!r}: {e}")


def _int(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")


def _float(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {value!r}")


def _side(value: str, where: str) -> str:
    if value not in ("left", "right"):
        raise ConfigError(f"{where}: side must be left or right")
    return value


def _load(value: str, where: str) -> float:
    # Strictly inside (0, 1): at 0 the generator never sends, at 1 the link never drains.
    load = _float(value, where)
    if not 0.0 < load < 1.0:
        raise ConfigError(f"{where}: backgroundLoad = {load} is outside (0.0, 1.0)")
    return load


def _background_size(value: str, where: str) -> Dist:
    # The background send interval is derived from the mean size.
    dist = parse_dist(value, parse_bytes, where)
    if dist.mean() <= 0:
        raise ConfigError(f"{where}: backgroundPacketSize = {value} has a mean "
                          f"of {dist.mean()}, outside > 0")
    return dist


def _times(value: str, where: str) -> list[int]:
    times = [parse_time_us(tok, where) for tok in value.split()]
    for t in times:
        if t < 0:
            raise ConfigError(f"{where}: probeTimes = {t} is outside >= 0")
        if times.count(t) > 1:
            raise ConfigError(f"{where}: probeTimes = {value} repeats {t}us")
    return times


def _dist_of(unit_parser: Callable[[str, str], int]) -> Callable[[str, str], Dist]:
    return lambda value, where: parse_dist(value, unit_parser, where)


class Key(NamedTuple):
    """One row of a key table. A parsed value must lie in [lo, hi]; None
    leaves that side unbounded. `aliases` are other accepted spellings, of
    which a section may use only one. `default` is the field's value when the
    key is absent; `needs` are the keys the same section must give with it."""
    key: str
    field: str
    parse: Callable[[str, str], object]
    lo: Optional[float] = None
    hi: Optional[float] = None
    aliases: tuple[str, ...] = ()
    required: bool = False
    default: object = None
    needs: tuple[str, ...] = ()


SCENARIO_KEYS = (
    Key("seed", "seed", _int, default=1),
    Key("duration", "duration_us", parse_time_us, 1, default=10_000_000),
    Key("probeTimes", "probe_times_us", _times, default=[]),
)
TOPOLOGY_KEYS = (
    Key("bottleneckBandwidth", "bottleneck_bandwidth_bps", parse_bandwidth, 1,
        default=10_000_000),
    Key("bottleneckDelay", "bottleneck_delay_us", parse_time_us, 0, default=20_000),
    # A queue smaller than one MTU would drop everything.
    Key("bottleneckQueue", "bottleneck_queue_bytes", parse_bytes, MTU_DEFAULT, default=65536),
    Key("bottleneckLoss", "bottleneck_loss", _float, 0.0, 1.0, default=0.0),
    Key("accessBandwidth", "access_bandwidth_bps", parse_bandwidth, 1, default=1_000_000_000),
    Key("accessDelay", "access_delay_us", parse_time_us, 0, default=0),
    Key("accessQueue", "access_queue_bytes", parse_bytes, MTU_DEFAULT, default=2 * 1024 * 1024),
    Key("background", "background", _int, 0, 1, default=0),
    Key("backgroundLoad", "background_load", _load, default=0.05),
    Key("backgroundPacketSize", "background_size", _background_size,
        default=Dist.constant(1000)),
)
HOST_KEYS = (
    Key("localPort", "local_port", _int, 1, 65535, default=4711),
    Key("maxSegmentSize", "max_segment_size", parse_bytes, MIN_SEGMENT_SIZE, MTU_DEFAULT,
        default=1472),
    Key("rcvBufferSize", "rcv_buffer_size", parse_bytes, 1, 0xFFFFFFFF,  # ack's u32 field
        default=65536),
    # A smaller initial window never admits the largest chunk a flow may send.
    Key("ccCwndInit", "cc_cwnd_init", parse_bytes, wire.MAX_CHUNK_PAYLOAD, aliases=("ccWndInit",),
        default=4380),
    Key("ccMss", "cc_mss", parse_bytes, MIN_CC_MSS, default=1460),
    Key("side", "side", _side),  # derived from the apps when absent
    Key("migrateAt", "migrate_at_us", parse_time_us, 0, needs=("migrateTo",)),
    Key("migrateTo", "migrate_to_port", _int, 1, 65535, needs=("migrateAt",)),
)
# Sizes the flow lists below; it is not a field of AppConfig.
FLOWS_OUTGOING = Key("flowsOutgoing", "flows_outgoing", _int, 0, default=0)
APP_KEYS = (
    Key("localEpd", "local_epd", _int, 0, 0xFFFFFFFF, required=True),
    Key("remoteAddress", "remote_address", lambda value, where: value,
        needs=("remotePort", "remoteEpd")),
    Key("remotePort", "remote_port", _int, 1, 65535, needs=("remoteAddress",)),
    Key("remoteEpd", "remote_epd", _int, 0, 0xFFFFFFFF, needs=("remoteAddress",)),
    Key("maxRuntime", "max_runtime_us", parse_time_us, 0, default=1_800_000_000),
    Key("readDelay", "read_delay_us", parse_time_us, 0, default=0),
    Key("startTime", "start_time_us", parse_time_us, 0, default=0),
    FLOWS_OUTGOING,
)
# Fields of FlowSpec. In an app section each value is a space-separated list
# with one entry per outgoing flow; flow i is read from entry i.
FLOW_KEYS = (
    Key("flowPacketSize", "size_dist", _dist_of(parse_bytes), required=True),
    Key("flowSendInterval", "interval_dist", _dist_of(parse_time_us), required=True),
    Key("flowNumPackets", "num_packets", _int, 0, required=True),
    Key("flowTimeCritical", "time_critical", _int, 0, 1, default=0),
    Key("flowId", "flow_id", _int, 0, 0xFFFF),  # build_config numbers flows from 1
)


class Spec:
    """The values of one section: an attribute per row of the class's KEYS,
    holding the given value or a copy of the row's default."""
    KEYS: tuple[Key, ...] = ()

    def __init__(self, **given):
        for row in self.KEYS:
            setattr(self, row.field,
                    given.pop(row.field) if row.field in given else copy.copy(row.default))
        for name in given:
            raise TypeError(f"{type(self).__name__} has no field {name!r}")


class HostSpec(Spec):
    KEYS = HOST_KEYS

    def __init__(self, name: str, **given):
        self.name = name
        super().__init__(**given)


class FlowSpec(Spec):
    KEYS = FLOW_KEYS

    def largest_message(self) -> int:
        """The largest message size the app can draw for this flow."""
        dist = self.size_dist
        top = {"constant": dist.a, "uniform": dist.b}.get(dist.kind, SIZE_CLAMP_MAX)
        return min(max(round(top), SIZE_CLAMP_MIN), SIZE_CLAMP_MAX)


class AppConfig(Spec):
    KEYS = tuple(row for row in APP_KEYS if row is not FLOWS_OUTGOING)

    def __init__(self, flows: Optional[list[FlowSpec]] = None, **given):
        self.flows = [] if flows is None else flows
        super().__init__(**given)


class TopologySpec(Spec):
    KEYS = TOPOLOGY_KEYS


class ScenarioConfig(Spec):
    KEYS = SCENARIO_KEYS

    def __init__(self, topology: Optional[TopologySpec] = None, **given):
        self.topology = TopologySpec() if topology is None else topology
        self.hosts: dict[str, HostSpec] = {}
        self.apps: list[tuple[str, AppConfig]] = []  # (host, app)
        super().__init__(**given)


def _read(sec: dict, section: str, rows: tuple[Key, ...], missing_at: str) -> dict:
    """Parse and range-check each row's key of a raw section, reject any
    other key, then check each given key's `needs`; -> {field: value} of the
    given keys. A missing required key is reported at `missing_at`."""
    out, wheres = {}, {}
    for row in rows:
        spellings = [k for k in (row.key, *row.aliases) if k in sec]
        if len(spellings) > 1:
            raise ConfigError(f"{sec[spellings[1]][1]}: duplicate key {spellings[1]!r} "
                              f"(also given as {spellings[0]!r}) in [{section}]")
        if not spellings:
            if row.required:
                raise ConfigError(f"{missing_at}: [{section}] needs {row.key}")
            continue
        value, where = sec.pop(spellings[0])
        out[row.field] = value = row.parse(value, where)
        wheres[row.key] = where
        # Written so that NaN, which fails every comparison, is out of range.
        if (row.lo is not None and not row.lo <= value) or (
                row.hi is not None and not value <= row.hi):
            span = f">= {row.lo}" if row.hi is None else f"[{row.lo}, {row.hi}]"
            raise ConfigError(f"{where}: {row.key} = {value} is outside {span}")
    for key, (_, where) in sec.items():
        raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
    for row in rows:
        if row.key in wheres and not all(key in wheres for key in row.needs):
            raise ConfigError(f"{wheres[row.key]}: {row.key} needs {' and '.join(row.needs)}")
    return out


def build_config(sections: dict[str, dict[str, tuple[str, str]]],
                 headers: dict[str, str]) -> ScenarioConfig:
    sections = {name: dict(body) for name, body in sections.items()}
    given = {(name, key): where for name, body in sections.items()
             for key, (_, where) in body.items()}
    # Where each section is: its header line, or the first override naming it.
    placed = {name: headers.get(name) or next(iter(body.values()))[1]
              for name, body in sections.items()}

    def read(name: str, rows: tuple[Key, ...]) -> dict:
        return _read(sections.pop(name, {}), name, rows, placed.get(name, ""))

    scenario = read("scenario", SCENARIO_KEYS)
    cfg = ScenarioConfig(**scenario, topology=TopologySpec(**read("topology", TOPOLOGY_KEYS)))

    def _sort_key(name: str):
        return tuple((0, int(p)) if p.isdigit() else (1, p)
                     for p in name.split(".")[1:])

    host_names = sorted((n for n in sections if n.startswith("host.")), key=_sort_key)
    for name in host_names:
        host = HostSpec(name="host" + name.split(".", 1)[1], **read(name, HOST_KEYS))
        cfg.hosts[host.name] = host

    app_names = sorted((n for n in sections if n.startswith("app.")), key=_sort_key)
    for name in app_names:
        parts = name.split(".")
        if len(parts) != 3:
            raise ConfigError(f"{placed[name]}: app sections are [app.<host>.<index>]")
        host_name = "host" + parts[1]
        if host_name not in cfg.hosts:
            raise ConfigError(
                f"{placed[name]}: [{name}] references missing [host.{parts[1]}]")
        sec = sections[name]
        columns = {row.key: sec.pop(row.key) for row in FLOW_KEYS if row.key in sec}
        values = read(name, APP_KEYS)
        n_flows = values.pop(FLOWS_OUTGOING.field, FLOWS_OUTGOING.default)
        app = AppConfig(**values)
        if any(a.local_epd == app.local_epd for _, a in cfg.apps):
            raise ConfigError(f"{given[name, 'localEpd']}: localEpd = {app.local_epd} "
                              f"is already used by another app")
        if n_flows and app.remote_address is None:
            raise ConfigError(f"{given[name, 'flowsOutgoing']}: flowsOutgoing = "
                              f"{n_flows} needs a remoteAddress")
        for key, (value, where) in columns.items():
            if len(value.split()) != n_flows:
                raise ConfigError(f"{where}: {key} has {len(value.split())} entries, "
                                  f"flowsOutgoing = {n_flows}")
        for i in range(n_flows):
            entries = {key: (value.split()[i], where) for key, (value, where) in columns.items()}
            spec = _read(entries, name, FLOW_KEYS, given[name, "flowsOutgoing"])
            spec.setdefault("flow_id", i + 1)
            if any(f.flow_id == spec["flow_id"] for f in app.flows):
                raise ConfigError(f"{given[name, 'flowId']}: flowId {spec['flow_id']} "
                                  f"is given twice")
            app.flows.append(FlowSpec(**spec))
        cfg.apps.append((host_name, app))

    for name in sections:
        raise ConfigError(f"{placed[name]}: unknown section [{name}]")

    # Checks across sections.
    flows_into: dict[tuple[str, int, int], str] = {}  # (host, epd, flow id) -> sender
    for name, (host_name, app) in zip(app_names, cfg.apps):
        if app.remote_address is None:
            continue
        remote = cfg.hosts.get(app.remote_address)
        if remote is None or remote.name == host_name:
            raise ConfigError(
                f"{given[name, 'remoteAddress']}: remoteAddress {app.remote_address!r} "
                f"is not a configured host other than {host_name}")
        if app.remote_port != remote.local_port:
            raise ConfigError(
                f"{given[name, 'remotePort']}: remotePort {app.remote_port} does not "
                f"match {remote.name} localPort {remote.local_port}")
        if app.remote_epd not in (a.local_epd for h, a in cfg.apps if h == remote.name):
            raise ConfigError(
                f"{given[name, 'remoteEpd']}: remoteEpd {app.remote_epd} is not the "
                f"localEpd of an app on {remote.name}")
        if not app.flows:
            continue
        # A chunk larger than the receiver's whole buffer never fits in it, nor does
        # a message, whose fragments wait there for the last. The default buffer
        # holds any chunk and any message, so these fire only on a given one.
        largest = {"chunks": wire.chunk_capacity(cfg.hosts[host_name].max_segment_size),
                   "messages": max(f.largest_message() for f in app.flows)}
        for what, size in largest.items():
            if remote.rcv_buffer_size < size:
                host_section = "host." + remote.name[len("host"):]
                raise ConfigError(
                    f"{given[host_section, 'rcvBufferSize']}: rcvBufferSize = "
                    f"{remote.rcv_buffer_size} is below the {size}-byte {what} "
                    f"that {host_name} sends to it")
        # The receiving app keys its flows by flow id alone.
        for flow in app.flows:
            into = (remote.name, app.remote_epd, flow.flow_id)
            if into in flows_into:
                key = "flowId" if (name, "flowId") in given else "flowsOutgoing"
                raise ConfigError(
                    f"{given[name, key]}: flowId {flow.flow_id} into localEpd "
                    f"{app.remote_epd} on {remote.name} is already sent by "
                    f"[{flows_into[into]}]")
            flows_into[into] = name
    return cfg


def parse_config(text: str, overrides: Optional[dict[str, str]] = None) -> ScenarioConfig:
    sections, headers = parse_sections(text)
    if overrides:
        apply_overrides(sections, overrides)
    return build_config(sections, headers)
