import pytest

from rtmfpsim.netsim import (Datagram, Dist, Link, SimulationError, Simulator,
                             ceil_div)


class Recorder:
    """Minimal node: remembers (datagram, time) arrivals."""

    def __init__(self, node_id="sink"):
        self.node_id = node_id
        self.received = []

    def handle_datagram(self, dgram, now):
        self.received.append((dgram, now))


def dgram(size=100, src=("a", 1), dst=("sink", 1)):
    return Datagram(src, dst, b"x" * size)


# ---------------------------------------------------------------- scheduler


def test_schedule_at_current_clock_fires_first():
    sim = Simulator()
    order = []
    sim.schedule(0, "n", "timer", lambda t: order.append("now"))
    sim.schedule(5, "n", "timer", lambda t: order.append("later"))
    sim.run_until(10)
    assert order == ["now", "later"]


def test_same_fire_time_processes_in_insertion_order():
    sim = Simulator()
    order = []
    for name in ("first", "second", "third"):
        sim.schedule(7, "n", "timer", lambda t, n=name: order.append(n))
    sim.run_until(7)
    assert order == ["first", "second", "third"]


def test_scheduling_in_the_past_is_an_error():
    sim = Simulator()
    sim.schedule(5, "n", "timer", lambda t: None)
    sim.run_until(5)
    with pytest.raises(SimulationError):
        sim.schedule(4, "n", "timer", lambda t: None)
    with pytest.raises(SimulationError, match=r"run_until\(4\) but clock already at 5"):
        sim.run_until(4)


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run_until(10_000_000) == 0
    assert sim.now == 10_000_000


def test_run_until_processes_only_due_events():
    sim = Simulator()
    fired = []
    sim.schedule(1_000_000, "n", "timer", lambda t: fired.append(t))
    sim.schedule(2_000_000, "n", "timer", lambda t: fired.append(t))
    assert sim.run_until(1_500_000) == 1
    assert fired == [1_000_000]
    assert sim.now == 1_500_000


def test_cancelled_events_do_not_fire_or_count():
    sim = Simulator()
    fired = []
    ev = sim.schedule(3, "n", "timer", lambda t: fired.append(t))
    sim.cancel(ev)
    assert sim.run_until(10) == 0
    assert fired == []


def test_clock_monotonic_across_processed_events():
    sim = Simulator()
    seen = []
    for at in (5, 1, 9, 1, 7):
        sim.schedule(at, "n", "timer", lambda t: seen.append(t))
    sim.run_until(100)
    assert seen == sorted(seen)


def _trace_of_small_run(seed):
    lines = []
    sim = Simulator(seed=seed, trace=lines.append)
    sink = Recorder()
    link = Link(sim, "l", sink, bandwidth_bps=1_000_000, delay_us=100, loss_rate=0.3)
    rng = sim.stream("testload")
    t = 0
    for i in range(200):
        t += rng.randrange(0, 500)
        sim.schedule(t, "a", "app-tick",
                     lambda now, n=i: link.send(dgram(50 + n % 100), now),
                     f"send {i}")
    sim.run_until(t + 10_000)
    return lines


def test_same_seed_same_config_identical_event_traces():
    a = _trace_of_small_run(seed=42)
    b = _trace_of_small_run(seed=42)
    assert a == b
    c = _trace_of_small_run(seed=43)
    assert a != c


def test_rng_streams_isolated_by_label():
    sim = Simulator(seed=1)
    a = [sim.stream("a").random() for _ in range(3)]
    sim2 = Simulator(seed=1)
    sim2.stream("b").random()  # draws on another stream must not shift "a"
    a2 = [sim2.stream("a").random() for _ in range(3)]
    assert a == a2


# --------------------------------------------------------------------- links


def test_serialization_time_1500_bytes_at_10mbit():
    sim = Simulator()
    sink = Recorder()
    link = Link(sim, "l", sink, bandwidth_bps=10_000_000, delay_us=0)
    at = link.send(dgram(1500), 0)
    assert at == 1200  # 1500 * 8 / 10^7 s


def test_propagation_plus_ceil_serialization():
    sim = Simulator()
    sink = Recorder()
    link = Link(sim, "l", sink, bandwidth_bps=1_000_000_000, delay_us=50_000)
    # 100 B at 1 Gbit/s serializes in 0.8 us; integer clock rounds up to 1 us.
    assert link.send(dgram(100), 0) == 50_001


def test_loss_rate_one_always_drops():
    sim = Simulator()
    sink = Recorder()
    link = Link(sim, "l", sink, bandwidth_bps=10_000_000, loss_rate=1.0)
    for _ in range(50):
        assert link.send(dgram(), sim.now) is None
    assert link.dropped_loss == 50 and link.admitted == 0


def test_fifo_serialization_accumulates():
    sim = Simulator()
    sink = Recorder()
    link = Link(sim, "l", sink, bandwidth_bps=10_000_000, delay_us=0,
                queue_capacity=10_000)
    t1 = link.send(dgram(1500), 0)
    t2 = link.send(dgram(1500), 0)
    assert (t1, t2) == (1200, 2400)
    sim.run_until(3000)
    assert [t for _, t in sink.received] == [1200, 2400]


def test_queue_capacity_tail_drop_and_conservation():
    sim = Simulator()
    sink = Recorder()
    link = Link(sim, "l", sink, bandwidth_bps=1_000_000, delay_us=0,
                queue_capacity=4500)
    outcomes = [link.send(dgram(1500), 0) for _ in range(5)]
    assert outcomes[:3] == [12_000, 24_000, 36_000]
    assert outcomes[3:] == [None, None]
    assert link.dropped_queue == 2
    assert link.admitted + link.dropped == link.sent == 5
    assert link.bytes_admitted == 3 * 1500


def test_bytes_awaiting_serialization_never_exceed_capacity():
    sim = Simulator(seed=9)
    sink = Recorder()
    cap = 8000
    link = Link(sim, "l", sink, bandwidth_bps=2_000_000, delay_us=10,
                queue_capacity=cap)
    rng = sim.stream("drive")
    admitted = []  # (serialization finish, size)
    t = 0
    for _ in range(500):
        size = rng.randrange(100, 1500)
        backlog = sum(n for finish, n in admitted if finish > t)
        arrival = link.send(dgram(size), t)
        if arrival is None:
            assert backlog + size > cap  # dropped only when it does not fit
        else:
            admitted.append((arrival - link.delay_us, size))
            assert backlog + size <= cap
        t += rng.randrange(0, 3000)
    assert link.dropped_queue > 0
    sim.run_until(t + 100_000)
    assert link.admitted + link.dropped == link.sent


def test_forced_drop_by_send_ordinal():
    sim = Simulator()
    sink = Recorder()
    link = Link(sim, "l", sink, bandwidth_bps=10_000_000)
    link.forced_drops = {1}
    assert link.send(dgram(), 0) is not None
    assert link.send(dgram(), 0) is None
    assert link.send(dgram(), 0) is not None
    assert link.dropped_forced == 1


def test_oversize_datagram_rejected():
    sim = Simulator()
    link = Link(sim, "l", Recorder(), bandwidth_bps=10_000_000)
    with pytest.raises(SimulationError):
        link.send(dgram(1501), 0)


# ------------------------------------------------------------ distributions


def test_constant_dist_always_returns_value():
    sim = Simulator()
    d = Dist.constant(1000)
    rng = sim.stream("d")
    assert all(d.sample(rng) == 1000 for _ in range(10))


def test_uniform_degenerate_and_bounds():
    sim = Simulator()
    rng = sim.stream("d")
    assert Dist.uniform(5, 5).sample(rng) == 5
    d = Dist.uniform(10, 20)
    for _ in range(1000):
        assert 10 <= d.sample(rng) < 20
    assert d.mean() == 15.0


def test_exponential_sample_mean_within_two_percent():
    sim = Simulator(seed=123)
    rng = sim.stream("exp")
    d = Dist.exponential(2000.0)  # 2 ms in microseconds
    n = 100_000
    total = sum(d.sample(rng) for _ in range(n))
    assert abs(total / n - 2000.0) / 2000.0 < 0.02


def test_sample_advances_rng_exactly_once_per_call():
    class CountingRng:
        def __init__(self):
            self.calls = 0

        def random(self):
            self.calls += 1
            return 0.5

    for d in (Dist.constant(3), Dist.uniform(0, 1), Dist.exponential(1.0)):
        rng = CountingRng()
        d.sample(rng)
        assert rng.calls == 1


def test_malformed_dist_specs_rejected_at_construction():
    with pytest.raises(ValueError):
        Dist.uniform(5, 4)
    with pytest.raises(ValueError):
        Dist.exponential(0)


def test_ceil_div():
    assert ceil_div(12_000_000_000, 10_000_000) == 1200
    assert ceil_div(800_000_000, 1_000_000_000) == 1
    assert ceil_div(10, 5) == 2
