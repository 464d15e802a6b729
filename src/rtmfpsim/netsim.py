"""Deterministic discrete-event simulation core.

Provides the simulated clock (integer microseconds), the event queue,
lossy/delaying/bandwidth-limited links and seeded random number streams.
Everything above this layer (protocol, apps, topology) is driven purely by
callbacks scheduled here, so a fixed (config, seed) pair always replays the
exact same event sequence.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from collections import deque
from functools import partial
from typing import Callable, Optional, Sized

MTU_DEFAULT = 1500
DEFAULT_QUEUE_CAPACITY = 65536

# Event kinds used in traces.
KIND_TIMER = "timer"
KIND_DELIVERY = "datagram-delivery"
KIND_APP_TICK = "app-tick"


class SimulationError(Exception):
    """A programming error inside a run, e.g. scheduling an event in the past."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Record:
    """Equality and a repr over the slots of a class and its bases, for the
    slotted value classes: packets, chunks, distributions, flow statistics.
    Instances of different classes are never equal; records are unhashable."""

    __slots__ = ()

    def _fields(self) -> list[tuple[str, object]]:
        return [(name, getattr(self, name)) for cls in reversed(type(self).__mro__)
                for name in cls.__dict__.get("__slots__", ())]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields())
        return f"{type(self).__name__}({fields})"


class Datagram:
    """A datagram between (node id, port) pairs carrying a wire.Packet or bytes."""

    __slots__ = ("src", "dst", "payload", "size")

    def __init__(self, src: tuple[str, int], dst: tuple[str, int], payload: Sized):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = len(payload)


class Simulator:
    """Single-threaded event loop with a microsecond clock.

    Random draws go through named streams derived from the root seed by
    hashing the consumer label, so one consumer's draw count never perturbs
    another's sequence.
    """

    def __init__(self, seed: int = 1, trace: Optional[Callable[[str], None]] = None):
        self.seed = seed
        self.now = 0
        self.processed_events = 0
        # Each entry is the event: [fire_at, seq, action, node, kind, detail].
        # (fire_at, seq) totally orders the queue; a None action is cancelled.
        self._heap: list[list] = []
        self._dead = 0  # cancelled entries; a cancel after firing counts too
        self._seq = 0
        self._streams: dict[str, random.Random] = {}
        self._trace = trace
        # Event sites build their trace `detail` text only when this is set.
        self.tracing = trace is not None

    def stream(self, label: str) -> random.Random:
        """Named PRNG stream (Mersenne Twister seeded from sha256(seed/label))."""
        rng = self._streams.get(label)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}/{label}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[label] = rng
        return rng

    def schedule(self, fire_at: int, node: str, kind: str,
                 action: Callable[[int], None], detail: str = "") -> list:
        """Queue `action(fire_at)`; the returned entry is the handle cancel() takes."""
        if fire_at < self.now:
            raise SimulationError(
                f"event scheduled in the past: fire_at={fire_at} < now={self.now}")
        ev = [int(fire_at), self._seq, action, node, kind, detail]
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def cancel(self, ev: list) -> None:
        """The event will not fire; a no-op once it has fired. Once cancelled
        entries outnumber live ones, the heap drops them, in place."""
        if ev[2] is not None:
            ev[2] = None
            self._dead += 1
            if 2 * self._dead > len(self._heap):
                self._heap[:] = [e for e in self._heap if e[2] is not None]
                heapq.heapify(self._heap)
                self._dead = 0

    def run_until(self, t: int) -> int:
        """Process all events with fire_at <= t in (fire_at, seq) order.

        The clock ends at t (it never runs backwards and never overshoots t).
        Returns the number of events processed.
        """
        if t < self.now:
            raise SimulationError(f"run_until({t}) but clock already at {self.now}")
        count = 0
        heap = self._heap
        heappop = heapq.heappop
        trace = self._trace
        while heap and heap[0][0] <= t:
            fire_at, _, action, node, kind, detail = heappop(heap)
            if action is None:
                self._dead -= 1
                continue
            self.now = fire_at
            if trace is not None:
                trace(f"{fire_at}\t{node}\t{kind}\t{detail}")
            action(fire_at)
            count += 1
        self.now = t
        self.processed_events += count
        return count


class Link:
    """Unidirectional point-to-point link with serialization, delay, loss and
    a byte-capacity tail-drop queue.

    The link transmits one datagram at a time; serialization times accumulate
    FIFO. Fractional serialization times round up so a datagram never arrives
    early. A duplex connection is modeled as two Link instances.
    """

    def __init__(self, sim: Simulator, name: str, dst_node, bandwidth_bps: int,
                 delay_us: int = 0, queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 loss_rate: float = 0.0):
        self.sim = sim
        self.name = name
        self.dst_node = dst_node
        self.bandwidth_bps = bandwidth_bps
        self.delay_us = delay_us
        self.queue_capacity = queue_capacity
        self.loss_rate = loss_rate
        self._rng = sim.stream(f"link:{name}")
        self._busy_until = 0
        self._queue: deque[tuple[int, int]] = deque()  # (serialization finish, size)
        self._queued_bytes = 0
        # Indices (0-based send ordinals) force-dropped for scripted scenarios.
        self.forced_drops: set[int] = set()
        self.observer: Optional[Callable[[int, Datagram, str, Optional[int]], None]] = None
        self.sent = 0
        # Admitted to the queue: counted at send time, so a datagram still
        # queued or on the wire when the run ends counts too.
        self.admitted = 0
        self.dropped_loss = 0
        self.dropped_queue = 0
        self.dropped_forced = 0
        self.bytes_admitted = 0

    def send(self, dgram: Datagram, now: int) -> Optional[int]:
        """Enqueue a datagram; returns delivery time, or None when dropped."""
        size = dgram.size
        if size > MTU_DEFAULT:
            raise SimulationError(f"link {self.name}: datagram {size}B exceeds MTU {MTU_DEFAULT}")
        idx = self.sent
        self.sent += 1
        q = self._queue
        # Datagrams whose serialization has finished leave the queue.
        while q and q[0][0] <= now:
            self._queued_bytes -= q.popleft()[1]
        outcome = None
        if idx in self.forced_drops:
            self.dropped_forced += 1
            outcome = "drop-forced"
        elif self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.dropped_loss += 1
            outcome = "drop-loss"
        elif self._queued_bytes + size > self.queue_capacity:
            self.dropped_queue += 1
            outcome = "drop-queue"
        if outcome is not None:
            if self.observer:
                self.observer(now, dgram, outcome, None)
            return None
        start = max(now, self._busy_until)
        finish = start - (-size * 8_000_000 // self.bandwidth_bps)  # ceil_div
        self._busy_until = finish
        q.append((finish, size))
        self._queued_bytes += size
        arrival = finish + self.delay_us
        node = self.dst_node
        sim = self.sim
        sim.schedule(
            arrival, node.node_id, KIND_DELIVERY, partial(node.handle_datagram, dgram),
            f"{dgram.src[0]}:{dgram.src[1]}->{dgram.dst[0]}:{dgram.dst[1]} {size}B"
            if sim.tracing else "")
        self.admitted += 1
        self.bytes_admitted += size
        if self.observer:
            self.observer(now, dgram, "sent", arrival)
        return arrival

    def bytes_serialized_by(self, t: int) -> int:
        """Bytes admitted whose serialization finished by time t."""
        return self.bytes_admitted - sum(size for finish, size in self._queue if finish > t)

    @property
    def dropped(self) -> int:
        return self.dropped_loss + self.dropped_queue + self.dropped_forced


class Dist(Record):
    """A one-dimensional sampling distribution: constant, uniform or exponential.

    sample() consumes exactly one draw from the underlying stream per call
    (inverse-CDF mapping), keeping draw counts independent of the shape.
    """

    __slots__ = ("kind", "a", "b")

    def __init__(self, kind: str, a: float, b: float = 0.0):
        self.kind = kind
        self.a = a
        self.b = b

    @classmethod
    def constant(cls, v: float) -> "Dist":
        return cls("constant", float(v))

    @classmethod
    def uniform(cls, a: float, b: float) -> "Dist":
        if a > b:
            raise ValueError(f"uniform({a},{b}): a must be <= b")
        return cls("uniform", float(a), float(b))

    @classmethod
    def exponential(cls, mean: float) -> "Dist":
        if mean <= 0:
            raise ValueError(f"exponential({mean}): mean must be > 0")
        return cls("exponential", float(mean))

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        if self.kind == "constant":
            return self.a
        if self.kind == "uniform":
            return self.a + u * (self.b - self.a)
        return -self.a * math.log1p(-u)

    def mean(self) -> float:
        if self.kind == "uniform":
            return (self.a + self.b) / 2.0
        return self.a
