"""Scenario configuration: a sectioned key-value text format.

Sections are `[scenario]`, `[topology]`, `[host.N]` and `[app.N.M]` (app M on
host N). The keys each section accepts are the rows of the key tables below
(SCENARIO_KEYS, TOPOLOGY_KEYS, HOST_KEYS, APP_KEYS, FLOW_KEYS): config key,
target field, parser, allowed range and other accepted spellings.
Dimensioned values require a unit suffix (byte, us, ms, s; bandwidths use
bit/kbit/Mbit/Gbit). FLOW_KEYS values are space-separated lists, one entry per
outgoing flow; `#` starts a comment anywhere on a line. Sizes and intervals
may be distributions: constant(v) | uniform(a,b) | exponential(mean); a bare
value means constant. No argument may be negative.
configs/two-peer-bottleneck.conf is a complete example.

build_config also checks the rules that join keys: localEpd unique across
apps; remoteAddress needs remotePort and remoteEpd, and each of those needs
remoteAddress; flowsOutgoing > 0 needs remoteAddress; flowId unique within an
app and among the flows into one receiving app; migrateAt and migrateTo
together; a remote host's rcvBufferSize holds the largest chunk and the
largest message its sender may send.
Every rule about a valid scenario is checked here, once, at parse time, and
its error names the line or override at fault; the layers below trust the
config they are given.
"""

from __future__ import annotations

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
# The window never shrinks below two segments (cc floor = 2 * ccMss); that
# floor must still admit the largest chunk payload.
MIN_CC_MSS = -(-wire.MAX_CHUNK_PAYLOAD // 2)
# An app rounds each message size it draws and clamps it to this range.
SIZE_CLAMP_MIN = 1
SIZE_CLAMP_MAX = 65536


def _assign(spec: object, given: dict[str, object]) -> None:
    """Set each given field of a spec, which its class or __init__ defines."""
    for name, value in given.items():
        if not hasattr(spec, name):
            raise TypeError(f"{type(spec).__name__} has no field {name!r}")
        setattr(spec, name, value)


# The spec classes hold their defaults as class attributes.
class HostSpec:
    local_port: int = 4711
    max_segment_size: int = 1472
    rcv_buffer_size: int = 65536
    cc_cwnd_init: int = 4380
    cc_mss: int = 1460
    side: Optional[str] = None  # "left" | "right"; derived when absent
    migrate_at_us: Optional[int] = None
    migrate_to_port: Optional[int] = None

    def __init__(self, name: str, **given):
        self.name = name
        _assign(self, given)


class FlowSpec:
    def __init__(self, flow_id: int, size_dist: Dist, interval_dist: Dist,
                 num_packets: int, time_critical: bool = False):
        self.flow_id = flow_id
        self.size_dist = size_dist
        self.interval_dist = interval_dist
        self.num_packets = num_packets
        self.time_critical = time_critical

    def largest_message(self) -> int:
        """The largest message size the app can draw for this flow."""
        dist = self.size_dist
        top = {"constant": dist.a, "uniform": dist.b}.get(dist.kind, SIZE_CLAMP_MAX)
        return min(max(round(top), SIZE_CLAMP_MIN), SIZE_CLAMP_MAX)


class AppConfig:
    remote_address: Optional[str] = None
    remote_port: Optional[int] = None
    remote_epd: Optional[int] = None
    max_runtime_us: int = 1_800_000_000
    read_delay_us: int = 0
    start_time_us: int = 0

    def __init__(self, local_epd: int, flows: Optional[list[FlowSpec]] = None, **given):
        self.local_epd = local_epd
        self.flows = [] if flows is None else flows
        _assign(self, given)


class TopologySpec:
    bottleneck_bandwidth_bps: int = 10_000_000
    bottleneck_delay_us: int = 20_000
    bottleneck_queue_bytes: int = 65536
    bottleneck_loss: float = 0.0
    access_bandwidth_bps: int = 1_000_000_000
    access_delay_us: int = 0
    access_queue_bytes: int = 2 * 1024 * 1024
    background: bool = False
    background_load: float = 0.05
    background_size: Dist = Dist.constant(1000)

    def __init__(self, **given):
        _assign(self, given)


class ScenarioConfig:
    seed: int = 1
    duration_us: int = 10_000_000

    def __init__(self, topology: Optional[TopologySpec] = None, **given):
        self.probe_times_us: list[int] = []
        self.topology = TopologySpec() if topology is None else topology
        self.hosts: dict[str, HostSpec] = {}
        self.apps: list[tuple[str, AppConfig]] = []  # (host, app)
        _assign(self, given)


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
    args = [unit_parser(a.strip(), where) for a in args if a.strip()]
    try:
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


def _flag(value: str, where: str) -> bool:
    return bool(_int(value, where))


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
    which a section may use only one."""
    key: str
    field: str
    parse: Callable[[str, str], object]
    lo: Optional[float] = None
    hi: Optional[float] = None
    aliases: tuple[str, ...] = ()
    required: bool = False


SCENARIO_KEYS = (
    Key("seed", "seed", _int),
    Key("duration", "duration_us", parse_time_us, 1),
    Key("probeTimes", "probe_times_us", _times),
)
TOPOLOGY_KEYS = (
    Key("bottleneckBandwidth", "bottleneck_bandwidth_bps", parse_bandwidth, 1),
    Key("bottleneckDelay", "bottleneck_delay_us", parse_time_us, 0),
    # A queue smaller than one MTU would drop everything.
    Key("bottleneckQueue", "bottleneck_queue_bytes", parse_bytes, MTU_DEFAULT),
    Key("bottleneckLoss", "bottleneck_loss", _float, 0.0, 1.0),
    Key("accessBandwidth", "access_bandwidth_bps", parse_bandwidth, 1),
    Key("accessDelay", "access_delay_us", parse_time_us, 0),
    Key("accessQueue", "access_queue_bytes", parse_bytes, MTU_DEFAULT),
    Key("background", "background", _flag),
    Key("backgroundLoad", "background_load", _load),
    Key("backgroundPacketSize", "background_size", _background_size),
)
HOST_KEYS = (
    Key("localPort", "local_port", _int, 1, 65535),
    Key("maxSegmentSize", "max_segment_size", parse_bytes, MIN_SEGMENT_SIZE, MTU_DEFAULT),
    Key("rcvBufferSize", "rcv_buffer_size", parse_bytes, 1, 0xFFFFFFFF),  # ack's u32 field
    # A smaller initial window never admits the largest chunk a flow may send.
    Key("ccCwndInit", "cc_cwnd_init", parse_bytes, wire.MAX_CHUNK_PAYLOAD, aliases=("ccWndInit",)),
    Key("ccMss", "cc_mss", parse_bytes, MIN_CC_MSS),
    Key("side", "side", _side),
    Key("migrateAt", "migrate_at_us", parse_time_us, 0),
    Key("migrateTo", "migrate_to_port", _int, 1, 65535),
)
APP_KEYS = (
    Key("localEpd", "local_epd", _int, 0, 0xFFFFFFFF, required=True),
    Key("remoteAddress", "remote_address", lambda value, where: value),
    Key("remotePort", "remote_port", _int, 1, 65535),
    Key("remoteEpd", "remote_epd", _int, 0, 0xFFFFFFFF),
    Key("maxRuntime", "max_runtime_us", parse_time_us, 0),
    Key("readDelay", "read_delay_us", parse_time_us, 0),
    Key("startTime", "start_time_us", parse_time_us, 0),
    Key("flowsOutgoing", "flows_outgoing", _int, 0),
)
# Fields of FlowSpec. In an app section each value is a space-separated list
# with one entry per outgoing flow; flow i is read from entry i.
FLOW_KEYS = (
    Key("flowPacketSize", "size_dist", _dist_of(parse_bytes), required=True),
    Key("flowSendInterval", "interval_dist", _dist_of(parse_time_us), required=True),
    Key("flowNumPackets", "num_packets", _int, 0, required=True),
    Key("flowTimeCritical", "time_critical", _flag),
    Key("flowId", "flow_id", _int, 0, 0xFFFF),
)


def _read(sec: dict, section: str, rows: tuple[Key, ...], missing_at: str) -> dict:
    """Parse and range-check each row's key of a raw section and reject any
    other key; -> {field: value}. A missing required key is reported at
    `missing_at`."""
    out = {}
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
        if (row.lo is not None and value < row.lo) or (row.hi is not None and value > row.hi):
            span = f">= {row.lo}" if row.hi is None else f"[{row.lo}, {row.hi}]"
            raise ConfigError(f"{where}: {row.key} = {value} is outside {span}")
    for key, (_, where) in sec.items():
        raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
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
        if (host.migrate_at_us is None) != (host.migrate_to_port is None):
            key, other = (("migrateAt", "migrateTo") if host.migrate_to_port is None
                          else ("migrateTo", "migrateAt"))
            raise ConfigError(f"{given[name, key]}: {key} needs {other}")
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
        n_flows = values.pop("flows_outgoing", 0)
        app = AppConfig(**values)
        if any(a.local_epd == app.local_epd for _, a in cfg.apps):
            raise ConfigError(f"{given[name, 'localEpd']}: localEpd = {app.local_epd} "
                              f"is already used by another app")
        if n_flows and app.remote_address is None:
            raise ConfigError(f"{given[name, 'flowsOutgoing']}: flowsOutgoing = "
                              f"{n_flows} needs a remoteAddress")
        if app.remote_address is not None and None in (app.remote_port, app.remote_epd):
            raise ConfigError(f"{given[name, 'remoteAddress']}: remoteAddress needs "
                              f"remotePort and remoteEpd")
        for key in ("remotePort", "remoteEpd"):
            if app.remote_address is None and (name, key) in given:
                raise ConfigError(f"{given[name, key]}: {key} needs remoteAddress")
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
