import ast
import pathlib
import random
import re

import pytest

from rtmfpsim import config
from rtmfpsim.config import (ConfigError, parse_bandwidth, parse_bytes,
                             parse_config, parse_dist, parse_time_us)

FIG_STYLE = """
# HOST 1
[scenario]
seed = 7
duration = 60s

[host.1]
localPort = 4711
maxSegmentSize = 1472byte
rcvBufferSize = 65536byte
ccWndInit = 4380byte

[host.2]
localPort = 2013

# APP 0
[app.1.0]
localEpd = 4712
remoteAddress = "host2"
remotePort = 2013
remoteEpd = 2014
flowsOutgoing = 2
flowPacketSize = "140byte 140byte"
flowSendInterval = "1000us 1000us"
flowNumPackets = "500000 500000"
flowTimeCritical = "1 1"
flowId = "19 88"
maxRuntime = 1800s
readDelay = 0ms

[app.2.0]
localEpd = 2014
"""


def test_full_sample_block_parses():
    cfg = parse_config(FIG_STYLE)
    assert cfg.seed == 7
    assert cfg.duration_us == 60_000_000
    host1 = cfg.hosts["host1"]
    assert host1.local_port == 4711
    assert host1.max_segment_size == 1472
    assert host1.rcv_buffer_size == 65536
    assert host1.cc_cwnd_init == 4380
    host_name, app = cfg.apps[0]
    assert host_name == "host1"
    assert app.local_epd == 4712
    assert (app.remote_address, app.remote_port, app.remote_epd) == ("host2", 2013, 2014)
    assert len(app.flows) == 2
    assert [f.flow_id for f in app.flows] == [19, 88]
    assert all(f.time_critical for f in app.flows)
    assert all(f.num_packets == 500_000 for f in app.flows)
    assert app.flows[0].size_dist.sample(random.Random(1)) == 140
    assert app.max_runtime_us == 1_800_000_000
    assert app.read_delay_us == 0


@pytest.mark.parametrize("cls,args", [
    (config.HostSpec, {"name": "host1"}), (config.AppConfig, {"local_epd": 1}),
    (config.TopologySpec, {}), (config.ScenarioConfig, {})])
def test_spec_fields_default_per_instance_and_unknown_ones_are_rejected(cls, args):
    one, two = cls(**args), cls(**args)
    for name, value in vars(one).items():
        if isinstance(value, (list, dict, config.TopologySpec)):
            assert getattr(two, name) is not value, name  # never shared
    with pytest.raises(TypeError, match="'bogus'"):
        cls(**args, bogus=1)


def test_both_cwnd_init_spellings_accepted():
    cfg = parse_config(FIG_STYLE.replace("ccWndInit", "ccCwndInit"))
    assert cfg.hosts["host1"].cc_cwnd_init == 4380


def test_list_length_mismatch_reports_line():
    text = FIG_STYLE.replace('flowPacketSize = "140byte 140byte"',
                             'flowPacketSize = "140byte"')
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "flowPacketSize" in str(err.value)
    assert "line" in str(err.value)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config(FIG_STYLE + "\nbogusKey = 3\n")
    assert "bogusKey" in str(err.value)


def test_missing_unit_is_rejected():
    text = FIG_STYLE.replace("maxRuntime = 1800s", "maxRuntime = 1800")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "unit" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config(FIG_STYLE + "\n[frobnicator]\nx = 1\n")


def test_app_for_missing_host_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(FIG_STYLE + "\n[app.9.0]\nlocalEpd = 77\n")
    assert "host.9" in str(err.value)


def test_remote_port_must_match_remote_host():
    text = FIG_STYLE.replace("remotePort = 2013", "remotePort = 9000")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "remotePort" in str(err.value)


def test_duplicate_epd_rejected():
    text = FIG_STYLE.replace("localEpd = 2014", "localEpd = 4712", 1)
    with pytest.raises(ConfigError):
        parse_config(text)


def test_overrides_apply_before_typing():
    cfg = parse_config(FIG_STYLE, overrides={"scenario.seed": "99",
                                             "host.1.rcvBufferSize": "1024byte"})
    assert cfg.seed == 99
    assert cfg.hosts["host1"].rcv_buffer_size == 1024


# --------------------------------------------------------------- primitives


def test_time_units():
    assert parse_time_us("1000us") == 1000
    assert parse_time_us("20ms") == 20_000
    assert parse_time_us("1800s") == 1_800_000_000
    with pytest.raises(ConfigError):
        parse_time_us("5byte")


def test_byte_and_bandwidth_units():
    assert parse_bytes("65536byte") == 65536
    assert parse_bandwidth("10Mbit") == 10_000_000
    assert parse_bandwidth("1Gbit") == 1_000_000_000
    assert parse_bandwidth("500kbit") == 500_000
    with pytest.raises(ConfigError):
        parse_bandwidth("10")


def test_distribution_syntax():
    rng = random.Random(4)
    d = parse_dist("exponential(1ms)", parse_time_us)
    assert d.kind == "exponential" and d.a == 1000
    d = parse_dist("uniform(100us,2ms)", parse_time_us)
    assert d.kind == "uniform" and (d.a, d.b) == (100, 2000)
    d = parse_dist("constant(140byte)", parse_bytes)
    assert d.sample(rng) == 140
    d = parse_dist("140byte", parse_bytes)  # bare value is a constant
    assert d.sample(rng) == 140
    with pytest.raises(ConfigError):
        parse_dist("uniform(2ms,1ms)", parse_time_us)
    with pytest.raises(ConfigError):
        parse_dist("exponential(0ms)", parse_time_us)
    with pytest.raises(ConfigError):
        parse_dist("normal(1ms)", parse_time_us)


def test_flow_interval_distribution_is_sampled_per_call():
    text = FIG_STYLE.replace('flowSendInterval = "1000us 1000us"',
                             'flowSendInterval = "exponential(1ms) 1000us"')
    cfg = parse_config(text)
    assert cfg.apps[0][1].flows[0].interval_dist.kind == "exponential"
    assert cfg.apps[0][1].flows[1].interval_dist.kind == "constant"


# ------------------------------------------------------------ key table ranges

MINIMAL = {
    "scenario": {"duration": "1s"},
    "topology": {},
    "host.1": {"localPort": "4711"},
    "host.2": {"localPort": "2013"},
    "app.1.0": {"localEpd": "4712", "remoteAddress": "host2", "remotePort": "2013",
                "remoteEpd": "2014", "flowsOutgoing": "1", "flowPacketSize": "140byte",
                "flowSendInterval": "1000us", "flowNumPackets": "10", "flowId": "19"},
    "app.2.0": {"localEpd": "2014"},
}
TABLES = [("scenario", config.SCENARIO_KEYS), ("topology", config.TOPOLOGY_KEYS),
          ("host.1", config.HOST_KEYS), ("app.1.0", config.APP_KEYS),
          ("app.1.0", config.FLOW_KEYS)]
UNITS = {config.parse_bytes: "byte", config.parse_time_us: "us",
         config.parse_bandwidth: "bit"}


def text_with(section, key, value):
    """MINIMAL with `key = value` as the last line of the text; -> (text, line)."""
    body = {name: dict(keys) for name, keys in MINIMAL.items()}
    body[section].pop(key, None)
    order = [name for name in body if name != section] + [section]
    lines = []
    for name in order:
        lines += [f"[{name}]"] + [f"{k} = {v}" for k, v in body[name].items()]
    lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n", len(lines)


def out_of_range_cases():
    for section, rows in TABLES:
        for row in rows:
            if row.lo is None:
                continue
            step = 1 if isinstance(row.lo, int) else 0.5
            bad = [row.lo - step] + ([] if row.hi is None else [row.hi + step])
            for value in bad:
                yield pytest.param(section, row.key, f"{value}{UNITS.get(row.parse, '')}",
                                   id=f"{row.key}={value}")
    # The one open range, (0, 1), is checked by its parser, not by lo/hi.
    for value in ("0", "1", "-0.5", "1.5"):
        yield pytest.param("topology", "backgroundLoad", value, id=f"backgroundLoad={value}")
    # NaN fails every comparison, so it must not pass as inside [lo, hi].
    yield pytest.param("topology", "bottleneckLoss", "nan", id="bottleneckLoss=nan")
    # A list value: each entry is checked by the parser.
    yield pytest.param("scenario", "probeTimes", "1s -1us", id="probeTimes=1s -1us")
    # A distribution: its mean is checked by the parser.
    yield pytest.param("topology", "backgroundPacketSize", "0byte",
                       id="backgroundPacketSize=0byte")
    yield pytest.param("topology", "backgroundPacketSize", "uniform(0byte,0byte)",
                       id="backgroundPacketSize=uniform(0byte,0byte)")


@pytest.mark.parametrize("section,key,value", list(out_of_range_cases()))
def test_out_of_range_value_names_its_line(section, key, value):
    text, line = text_with(section, key, value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value).startswith(f"line {line}: {key} = ")
    assert "outside" in str(err.value)


@pytest.mark.parametrize("value", ["1s 200ms 200ms", "0us 0us", "1s 1000ms"])
def test_a_repeated_probe_time_names_its_line(value):
    # A repeated probe would snapshot twice; a probe past the end stays
    # accepted, since a shortened duration keeps a preset's probes.
    text, line = text_with("scenario", "probeTimes", value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value).startswith(f"line {line}: probeTimes = {value} repeats ")
    parse_config(text, {"scenario.probeTimes": "1s 200ms", "scenario.duration": "300ms"})


def test_minimal_config_parses():
    text, _ = text_with("scenario", "seed", "1")
    assert parse_config(text).apps[0][1].flows[0].flow_id == 19


@pytest.mark.parametrize("section,key,value", [
    ("app.1.0", "flowId", "65535"), ("app.1.0", "flowId", "0"),
    ("app.1.0", "flowNumPackets", "0"), ("app.1.0", "localEpd", "4294967295"),
    ("host.1", "maxSegmentSize", "1052byte"), ("host.1", "maxSegmentSize", "1500byte"),
    ("host.1", "rcvBufferSize", "1byte"), ("host.1", "rcvBufferSize", "4294967295byte"),
    ("host.1", "localPort", "65535"),
    ("topology", "bottleneckQueue", "1500byte"), ("topology", "bottleneckLoss", "1"),
    ("topology", "backgroundLoad", "0.999"), ("host.1", "ccCwndInit", "1478byte"),
    ("topology", "bottleneckBandwidth", "1bit"), ("scenario", "duration", "1us"),
    ("scenario", "probeTimes", "0us 1s"), ("app.1.0", "startTime", "0us"),
    ("host.1", "ccMss", "739byte"), ("topology", "accessQueue", "1500byte"),
    # host1 sends host2 chunks of 1472 - 12 - 10 bytes.
    ("host.2", "rcvBufferSize", "1450byte"),
])
def test_range_boundaries_are_accepted(section, key, value):
    text, _ = text_with(section, key, value)
    parse_config(text)


@pytest.mark.parametrize("section,key,value", [
    ("host.2", "rcvBufferSize", "1449byte"), ("app.1.0", "remoteEpd", "4712"),
    ("app.2.0", "localEpd", "4712"), ("host.1", "migrateAt", "1s"),
    ("app.2.0", "remoteAddress", "host1"), ("app.2.0", "flowsOutgoing", "1"),
    ("app.2.0", "remotePort", "4711"), ("app.2.0", "remoteEpd", "4712"),
])
def test_value_at_odds_with_another_section_names_its_line(section, key, value):
    text, line = text_with(section, key, value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value).startswith(f"line {line}: {key} ")


@pytest.mark.parametrize("size,largest", [
    ("4000byte", 4000), ("uniform(100byte,3000byte)", 3000),
    ("exponential(500byte)", config.SIZE_CLAMP_MAX), ("constant(70000byte)", config.SIZE_CLAMP_MAX)])
def test_a_message_larger_than_the_receivers_buffer_names_rcvbuffersize(size, largest):
    # A message's fragments wait in the receive buffer until its last one
    # arrives, so a message larger than the whole buffer is never delivered.
    text, _ = text_with("app.1.0", "flowPacketSize", size)
    parse_config(text, {"host.2.rcvBufferSize": f"{largest}byte"})
    with pytest.raises(ConfigError) as err:
        parse_config(text, {"host.2.rcvBufferSize": f"{largest - 1}byte"})
    assert str(err.value) == (
        f"override host.2.rcvBufferSize: rcvBufferSize = {largest - 1} is below "
        f"the {largest}-byte messages that host1 sends to it")


# host1 and host3 each send one flow, with the default flowId 1, into app 2
# on host2; app 4 on host2 receives nothing.
TWO_SENDERS = """[host.1]
[host.2]
[host.3]
[app.1.0]
localEpd = 1
remoteAddress = host2
remotePort = 4711
remoteEpd = 2
flowsOutgoing = 1
flowPacketSize = 140byte
flowSendInterval = 1ms
flowNumPackets = 1
[app.2.0]
localEpd = 2
[app.3.0]
localEpd = 3
remoteAddress = host2
remotePort = 4711
remoteEpd = 2
flowsOutgoing = 1
flowPacketSize = 140byte
flowSendInterval = 1ms
flowNumPackets = 1
[app.2.1]
localEpd = 4
"""


@pytest.mark.parametrize("overrides,where", [
    ({}, "line 20"),
    ({"app.3.0.flowId": "1"}, "override app.3.0.flowId"),
])
def test_two_senders_of_one_flow_id_into_one_app_name_the_later(overrides, where):
    # The receiving app keys its flows by flow id alone.
    with pytest.raises(ConfigError) as err:
        parse_config(TWO_SENDERS, overrides)
    assert str(err.value) == (f"{where}: flowId 1 into localEpd 2 on host2 is "
                              f"already sent by [app.1.0]")


@pytest.mark.parametrize("overrides", [{"app.3.0.flowId": "2"}, {"app.3.0.remoteEpd": "4"}])
def test_one_flow_id_from_two_senders_into_two_apps_or_two_ids_is_accepted(overrides):
    cfg = parse_config(TWO_SENDERS, overrides)
    assert [len(app.flows) for _, app in cfg.apps] == [1, 0, 0, 1]


def test_a_comment_may_end_any_line():
    cfg = parse_config("[scenario]  # the run\nseed = 3  # of the streams\n"
                       "duration = 2s#no space\n")
    assert (cfg.seed, cfg.duration_us) == (3, 2_000_000)


def test_both_cwnd_init_spellings_in_one_section_is_a_duplicate():
    text, line = text_with("host.1", "ccWndInit", "4380byte")
    text = text.replace("[host.1]\n", "[host.1]\nccCwndInit = 8760byte\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value).startswith(f"line {line + 1}: duplicate key 'ccWndInit'")


@pytest.mark.parametrize("key,value,message", [
    ("app.1.0.bogus", "1", "override app.1.0.bogus: unknown key 'bogus'"),
    ("app.1.0.flowId", "19 70000", "override app.1.0.flowId: flowId = 70000 is outside"),
    ("host.1.maxSegmentSize", "30byte", "override host.1.maxSegmentSize: maxSegmentSize"),
    ("scenario.duration", "5", "override scenario.duration: time value '5' needs a unit"),
    # Past the ack's u32 buffer field, which would wrap to 1,000 bytes.
    ("host.2.rcvBufferSize", "4294968296byte",
     "override host.2.rcvBufferSize: rcvBufferSize = 4294968296 is outside"),
    ("app.1.0.flowPacketSize", "uniform(1byte) 140byte",
     "override app.1.0.flowPacketSize: bad distribution 'uniform(1byte)': "
     "uniform takes 2 argument(s)"),
    ("app.1.0.flowSendInterval", "1ms uniform(-10ms,1ms)",
     "override app.1.0.flowSendInterval: bad distribution 'uniform(-10ms,1ms)': "
     "every argument must be >= 0"),
    ("app.1.0.flowPacketSize", "uniform(1byte,,2byte) 140byte",
     "override app.1.0.flowPacketSize: bad distribution 'uniform(1byte,,2byte)': "
     "an argument is empty"),
    ("topology.backgroundPacketSize", "constant(5byte,)",
     "override topology.backgroundPacketSize: bad distribution 'constant(5byte,)': "
     "an argument is empty"),
    ("topology.backgroundPacketSize", "constant()",
     "override topology.backgroundPacketSize: bad distribution 'constant()': "
     "constant takes 1 argument(s)"),
    ("topology.bottleneckLoss", "lots",
     "override topology.bottleneckLoss: expected a number, got 'lots'"),
    ("host.1.side", "up", "override host.1.side: side must be left or right"),
])
def test_override_errors_name_the_override(key, value, message):
    with pytest.raises(ConfigError) as err:
        parse_config(FIG_STYLE, overrides={key: value})
    assert str(err.value).startswith(message)


NO_FLOW_PACKET_SIZE = """[host.1]
[host.2]
[app.1.0]
localEpd = 1
remoteAddress = host2
remotePort = 4711
remoteEpd = 2
flowsOutgoing = 1
flowSendInterval = 1ms
flowNumPackets = 1
[app.2.0]
localEpd = 2
"""


@pytest.mark.parametrize("text,overrides,message", [
    pytest.param("[scenario]\nduration = 1s\n[app.1.0]\n", {},
                 "line 3: [app.1.0] references missing [host.1]", id="missing-host"),
    pytest.param("[host.1]\n[app.1.0]\nreadDelay = 0ms\n", {},
                 "line 2: [app.1.0] needs localEpd", id="missing-localEpd"),
    pytest.param("[scenario]\n[bogus]\n", {}, "line 2: unknown section [bogus]",
                 id="empty-unknown-section"),
    pytest.param("[host.1]\n[app.1]\n", {}, "line 2: app sections are", id="app-name"),
    pytest.param(NO_FLOW_PACKET_SIZE, {}, "line 8: [app.1.0] needs flowPacketSize",
                 id="missing-flow-key"),
    pytest.param(FIG_STYLE, {"app.3.0.readDelay": "1ms"},
                 "override app.3.0.readDelay: [app.3.0] references missing [host.3]",
                 id="override-missing-host"),
    pytest.param(FIG_STYLE, {"host.3.localPort": "5", "app.3.0.readDelay": "1ms"},
                 "override app.3.0.readDelay: [app.3.0] needs localEpd",
                 id="override-missing-localEpd"),
    pytest.param(FIG_STYLE, {"nodot": "1"}, "override nodot: expected section.key=value",
                 id="override-without-section"),
    pytest.param(FIG_STYLE, {"app.2.0.remoteEpd": "4712"},
                 "override app.2.0.remoteEpd: remoteEpd needs remoteAddress",
                 id="override-remote-without-address"),
    pytest.param("[scenario]\nseed 3\n", {}, "line 2: expected 'key = value': 'seed 3'",
                 id="line-without-equals"),
    pytest.param("seed = 3\n[scenario]\n", {}, "line 1: key outside any [section]",
                 id="key-before-section"),
    pytest.param("[scenario]\nseed = 1\nseed = 2\n", {},
                 "line 3: duplicate key 'seed' in [scenario]", id="duplicate-key"),
])
def test_section_errors_name_a_line_or_override(text, overrides, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text, overrides)
    assert str(err.value).startswith(message)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_SECTIONS = {"`[scenario]`": config.SCENARIO_KEYS, "`[topology]`": config.TOPOLOGY_KEYS,
                   "`[host.N]`": config.HOST_KEYS, "`[app.N.M]`": config.APP_KEYS,
                   "`[app.N.M]`, per flow": config.FLOW_KEYS}
README_KEY = re.compile(r"`(\w+)`(?: \(alias `(\w+)`\))?( \(required\))?")


def test_readme_key_table_states_every_row_and_its_default():
    lines = README.read_text().splitlines()
    start = lines.index("| section | key | value | default | range |") + 2
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        section, key, _, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        documented.setdefault(section, []).append((key, default.strip("`")))
    assert list(documented) == list(README_SECTIONS)
    for section, rows in README_SECTIONS.items():
        assert len(documented[section]) == len(rows), section
        for (key, default), row in zip(documented[section], rows):
            m = README_KEY.fullmatch(key)
            assert m, key
            assert (m[1], tuple(filter(None, [m[2]])), bool(m[3])) == (
                row.key, row.aliases, row.required)
            # An empty cell is no default, or the empty value (no probe times).
            value = row.parse(default, "README") if default or row.default is not None else None
            assert value == row.default, row.key


def _raised_name(exc):
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


def test_config_error_is_raised_only_where_outside_input_arrives():
    """Every rule about a valid scenario is checked once, in config.py; the
    other modules raise ConfigError only on input that is not config text
    (a preset name, a malformed --override) and define no error class of
    their own for it."""
    allowed = {"harness.py": {"preset_points"}, "cli.py": {"_parse_overrides"}}
    raisers = set()
    for path in sorted(pathlib.Path(config.__file__).parent.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text())
        # ast.walk goes outer before inner, so each node ends up owned by the
        # innermost function around it.
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((child, node.name) for child in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and _raised_name(node.exc) == "ConfigError":
                raisers.add((path.name, owner.get(node, "<module>")))
            if isinstance(node, ast.ClassDef):
                bases = {_raised_name(b) for b in node.bases}
                assert "ConfigError" not in bases, (path.name, node.name)
                assert not ("Config" in node.name and node.name.endswith("Error")), (
                    path.name, node.name)
    assert raisers == {(name, func) for name, funcs in allowed.items() for func in funcs}
