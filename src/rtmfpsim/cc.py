"""Loss-based, TCP-friendly congestion control with two operating modes.

Each session owns one controller. Window arithmetic is byte-counted over the
chunk payload bytes in flight. A session carrying time-critical traffic grows
its window faster and shrinks it less on loss; other sessions on the same
host switch to a deferring mode (slower growth) while any local session is
time-critical.
"""

from __future__ import annotations

from dataclasses import dataclass

MODE_NORMAL = "normal"
MODE_TIME_CRITICAL = "time_critical"
MODE_DEFERRING = "deferring"


@dataclass
class CcParams:
    cwnd_init: int = 4380
    mss: int = 1460
    gain_normal: float = 1.0
    gain_time_critical: float = 2.0
    gain_deferring: float = 0.5
    decrease_normal: float = 0.5
    decrease_time_critical: float = 0.875

    @property
    def floor(self) -> int:
        # Two full segments, so the window never deadlocks.
        return 2 * self.mss


class CongestionController:
    """Per-session window state: cwnd, ssthresh, flight size and mode."""

    def __init__(self, params: CcParams | None = None):
        self.params = params or CcParams()
        self.cwnd: float = float(self.params.cwnd_init)
        self.ssthresh: float = float(1 << 30)
        self.flight_size: int = 0
        self.mode: str = MODE_NORMAL
        # Loss events within one SRTT of the last collapse are coalesced.
        self.loss_coalesce_us: int = 0
        self._last_collapse_us: int | None = None

    @property
    def phase(self) -> str:
        return "slow_start" if self.cwnd < self.ssthresh else "avoidance"

    def _gain(self) -> float:
        if self.mode == MODE_TIME_CRITICAL:
            return self.params.gain_time_critical
        if self.mode == MODE_DEFERRING:
            return self.params.gain_deferring
        return self.params.gain_normal

    def _decrease(self) -> float:
        if self.mode == MODE_TIME_CRITICAL:
            return self.params.decrease_time_critical
        return self.params.decrease_normal

    def has_room(self) -> bool:
        return self.flight_size < self.cwnd

    def add_to_flight(self, n: int) -> None:
        self.flight_size += n

    def remove_from_flight(self, n: int) -> None:
        self.flight_size = max(0, self.flight_size - n)

    def on_ack_progress(self, bytes_acked: int, now: int) -> None:
        if bytes_acked <= 0:
            return
        g = self._gain()
        mss = self.params.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += min(bytes_acked, mss) * g
        else:
            self.cwnd += g * mss * bytes_acked / self.cwnd
        self.remove_from_flight(bytes_acked)

    def on_loss_event(self, now: int) -> bool:
        """Multiplicative decrease; returns False when coalesced away."""
        if (self._last_collapse_us is not None
                and now - self._last_collapse_us < self.loss_coalesce_us):
            return False
        self._last_collapse_us = now
        self.cwnd = max(float(self.params.floor), self.cwnd * self._decrease())
        self.ssthresh = self.cwnd
        return True

    def on_timeout(self) -> None:
        self.ssthresh = max(float(self.params.floor), self.cwnd / 2.0)
        self.cwnd = float(self.params.cwnd_init)

    def reset_flight(self) -> None:
        self.flight_size = 0


class CcRegistry:
    """All sessions of one host; propagates time-critical mode switches.

    A session is time-critical while one of its flows marked time-critical
    has queued data. Every *other* local session defers while at least one
    local session is time-critical; a session also defers when its peer
    signaled a time-critical transfer.
    """

    def __init__(self):
        self.sessions: list = []

    def add(self, session) -> None:
        if session not in self.sessions:
            self.sessions.append(session)
        self.update()

    def remove(self, session) -> None:
        if session in self.sessions:
            self.sessions.remove(session)
        self.update()

    def set_time_critical(self, session, active: bool) -> None:
        session.tc_active = active
        self.update()

    def update(self) -> list:
        """Recompute every session's mode; returns sessions whose mode changed."""
        changed = []
        for s in self.sessions:
            others = any(o.tc_active for o in self.sessions if o is not s)
            if s.tc_active:
                mode = MODE_TIME_CRITICAL
            elif others or s.peer_signaled_tc:
                mode = MODE_DEFERRING
            else:
                mode = MODE_NORMAL
            if mode != s.cc.mode:
                s.cc.mode = mode
                changed.append(s)
        return changed
