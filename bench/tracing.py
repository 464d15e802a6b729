"""Per-layer spans recorded from outside the simulator.

install() replaces chosen functions and methods of rtmfpsim's modules with
wrappers that time each call. A span stack gives every span its parent, and
spans are aggregated per name as they close (calls, total and self time), so
memory stays bounded however long the run is. Self time is a span's duration
minus the time its child spans cover. Nothing inside src/ is edited; the
wrappers must be installed before build_bottleneck, because Host.bind keeps
RtmfpEngine.handle_datagram as a bound method taken at construction.
"""

from __future__ import annotations

import functools
import time

from rtmfpsim import app, cc, config, engine, flows, harness, netsim, topology, wire


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.extra: dict[str, float] = {}
        self._stack: list[list[int]] = []  # open spans: [child_ns]

    def wrap(self, name, fn, observe=None):
        agg = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        extra = self.extra
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
            if observe is not None:
                observe(extra, args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, observe=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe))


def _count(key, value):
    def observe(extra, args, result):
        extra[key] = extra.get(key, 0) + value(args, result)
    return observe


# (owner, attribute, span name, observer). Functions called through a module
# attribute (wire.encode, flows.fill_packet, ...) are patched on the module;
# methods are patched on their class. Event callbacks that would otherwise
# land in the event loop's self time (reads, timers, background sends) get
# spans of their own so that netsim.loop is heap pop plus dispatch.
TARGETS = [
    (netsim.Simulator, "run_until", "netsim.loop", None),
    (netsim.Simulator, "schedule", "netsim.schedule", None),
    (netsim.Link, "send", "netsim.link_send", None),
    (topology.Router, "handle_datagram", "topology.forward", None),
    (topology.Host, "handle_datagram", "topology.forward", None),
    (topology.BackgroundSender, "_tick", "topology.background_tick", None),
    (topology, "build_bottleneck", "topology.build", None),
    (wire, "encode", "wire.encode",
     _count("wire.chunks", lambda a, r: len(a[0].chunks))),
    (wire, "decode", "wire.decode", None),
    (engine.RtmfpEngine, "handle_datagram", "engine.handle_datagram", None),
    (engine.RtmfpEngine, "transmit_opportunity", "engine.transmit_opportunity",
     _count("engine.tx_packets", lambda a, r: r)),
    (engine.RtmfpEngine, "send_message", "engine.send_message", None),
    (engine.RtmfpEngine, "read_flow", "engine.read_flow", None),
    (engine.RtmfpEngine, "_on_delack", "engine.timer", None),
    (engine.RtmfpEngine, "_on_rto", "engine.timer", None),
    (engine.RtmfpEngine, "_on_handshake_timer", "engine.timer", None),
    (flows, "fill_packet", "flows.fill_packet",
     _count("flows.fill_hits", lambda a, r: r is not None)),
    (flows.SendFlow, "enqueue_message", "flows.enqueue_message", None),
    (flows.SendFlow, "on_ack", "flows.on_ack",
     _count("flows.ack_gaps", lambda a, r: len(a[1].gaps))),
    (flows.RecvFlow, "on_data_chunk", "flows.on_data_chunk", None),
    (flows.RecvFlow, "make_ack", "flows.make_ack", None),
    (cc.CongestionController, "on_ack_progress", "cc.on_ack_progress", None),
    (cc.CongestionController, "on_loss_event", "cc.on_loss_event",
     _count("cc.loss_applied", lambda a, r: bool(r))),
    (cc.CcRegistry, "update", "cc.registry_update", None),
    (app.RtmfpApp, "send_tick", "app.send_tick", None),
    (app.RtmfpApp, "data_notification", "app.data_notification", None),
    (app.RtmfpApp, "_do_read", "app.read", None),
    (harness, "execute", "harness.execute", None),
    (harness, "results_csv", "harness.render", None),
    (harness, "cwnd_csv", "harness.render", None),
    (config, "parse_config", "config.parse", None),
]


def install() -> Tracer:
    tracer = Tracer()
    for owner, attr, name, observe in TARGETS:
        tracer.patch(owner, attr, name, observe)
    return tracer
