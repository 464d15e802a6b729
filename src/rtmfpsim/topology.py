"""Dumbbell topology construction: hosts and routers joined by point-to-point
links, with an optional random UDP background sender crossing the bottleneck.

Hosts attach to their side's router over fast access links; the two routers
are joined by the configured bottleneck. Forwarding is static: routers map a
destination node id to the outgoing link.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import netsim
from .app import RtmfpApp
from .config import ScenarioConfig
from .engine import CwndLog, RtmfpEngine

BG_PORT = 9


class Host:
    """End system: a set of bound ports plus one uplink toward its router."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.uplink: Optional[netsim.Link] = None
        self._ports: dict[int, Callable[[netsim.Datagram, int], None]] = {}

    def bind(self, port: int, handler) -> None:
        self._ports[port] = handler

    def rebind(self, old_port: int, new_port: int) -> None:
        self._ports[new_port] = self._ports.pop(old_port)

    def send(self, dgram: netsim.Datagram, now: int) -> None:
        self.uplink.send(dgram, now)

    def handle_datagram(self, dgram: netsim.Datagram, now: int) -> None:
        handler = self._ports.get(dgram.dst[1])
        if handler is not None:
            handler(dgram, now)


class Router:
    """Static forwarder: destination node id -> outgoing link."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.routes: dict[str, netsim.Link] = {}

    def handle_datagram(self, dgram: netsim.Datagram, now: int) -> None:
        link = self.routes.get(dgram.dst[0])
        if link is not None:
            link.send(dgram, now)


class BackgroundSender:
    """Random UDP source: exponential inter-send times, configurable sizes."""

    def __init__(self, sim: netsim.Simulator, host: Host, dst: tuple[str, int],
                 size_dist: netsim.Dist, mean_interval_us: float):
        self.sim = sim
        self.host = host
        self.dst = dst
        self.size_dist = size_dist
        self.interval_dist = netsim.Dist.exponential(mean_interval_us)
        self._size_rng = sim.stream(f"bg:{host.node_id}:size")
        self._ival_rng = sim.stream(f"bg:{host.node_id}:interval")
        sim.schedule(0, host.node_id, netsim.KIND_APP_TICK,
                     self._tick, "background start")

    def _tick(self, now: int) -> None:
        size = int(round(self.size_dist.sample(self._size_rng)))
        size = min(max(size, 28), 1472)
        payload = b"\x00" * size
        self.host.send(netsim.Datagram((self.host.node_id, BG_PORT),
                                       self.dst, payload), now)
        delay = max(1, int(round(self.interval_dist.sample(self._ival_rng))))
        self.sim.schedule(now + delay, self.host.node_id, netsim.KIND_APP_TICK,
                          self._tick, "background send")


class SimBundle:
    """Everything a built scenario consists of, pre-run."""

    def __init__(self, sim: netsim.Simulator, cfg: ScenarioConfig):
        self.sim = sim
        self.cfg = cfg
        self.hosts: dict[str, Host] = {}
        self.routers: dict[str, Router] = {}
        self.links: dict[str, netsim.Link] = {}
        self.engines: dict[str, RtmfpEngine] = {}
        self.cwnd_log = CwndLog()  # the run's cwnd CSV, written by every engine
        self.apps: list[RtmfpApp] = []
        self.background: Optional[BackgroundSender] = None

    @property
    def bottleneck(self) -> netsim.Link:
        return self.links["bottleneck:lr"]


def build_bottleneck(cfg: ScenarioConfig,
                     trace: Optional[Callable[[str], None]] = None) -> SimBundle:
    """Construct the dumbbell: hosts - router - router - hosts. Initiating
    hosts go left, pure receivers right, unless `side` says so."""
    sim = netsim.Simulator(seed=cfg.seed, trace=trace)
    bundle = SimBundle(sim=sim, cfg=cfg)
    topo = cfg.topology

    routers = {"left": Router("router.l"), "right": Router("router.r")}
    bundle.routers = {router.node_id: router for router in routers.values()}
    # The bottleneck link toward each side ends at that side's router.
    across = {}
    for side, name in (("right", "bottleneck:lr"), ("left", "bottleneck:rl")):
        across[side] = bundle.links[name] = netsim.Link(
            sim, name, routers[side], topo.bottleneck_bandwidth_bps,
            topo.bottleneck_delay_us, topo.bottleneck_queue_bytes, topo.bottleneck_loss)

    senders = {host for host, app in cfg.apps if app.remote_address is not None}
    hosts = [(name, spec, spec.side or ("left" if name in senders else "right"))
             for name, spec in cfg.hosts.items()]
    if topo.background:
        # Nothing binds the sink's port: its datagrams end at the host.
        hosts += [("bg.send", None, "left"), ("bg.sink", None, "right")]

    for name, spec, side in hosts:
        host = bundle.hosts[name] = Host(name)
        for way, node in (("up", routers[side]), ("down", host)):
            bundle.links[f"access:{name}:{way}"] = netsim.Link(
                sim, f"access:{name}:{way}", node, topo.access_bandwidth_bps,
                topo.access_delay_us, topo.access_queue_bytes)
        host.uplink = bundle.links[f"access:{name}:up"]
        for router_side, router in routers.items():
            router.routes[name] = (bundle.links[f"access:{name}:down"]
                                   if router_side == side else across[side])
        if spec is None:
            continue
        engine = bundle.engines[name] = RtmfpEngine(
            sim, host, spec, bundle.cwnd_log, len(bundle.engines))
        if spec.migrate_at_us is not None:
            sim.schedule(spec.migrate_at_us, name, netsim.KIND_APP_TICK,
                         lambda t, e=engine, p=spec.migrate_to_port: e.migrate(p),
                         f"migrate {name} -> port {spec.migrate_to_port}")

    for host_name, app_cfg in cfg.apps:
        app = RtmfpApp(sim, bundle.engines[host_name], app_cfg)
        bundle.apps.append(app)
        sim.schedule(app_cfg.start_time_us, host_name, netsim.KIND_APP_TICK,
                     lambda t, a=app: a.start(t), f"app start epd={app_cfg.local_epd}")

    if topo.background:
        mean_rate_bps = topo.background_load * topo.bottleneck_bandwidth_bps
        mean_size = topo.background_size.mean()
        mean_interval_us = mean_size * 8 * 1_000_000 / mean_rate_bps
        bundle.background = BackgroundSender(
            sim, bundle.hosts["bg.send"], ("bg.sink", BG_PORT), topo.background_size,
            mean_interval_us)

    return bundle
