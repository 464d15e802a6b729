"""Loss-based, TCP-friendly congestion control with two operating modes.

Each session owns one controller, which holds the window and nothing else.
Window arithmetic is byte-counted over chunk payload bytes; the bytes in
flight are the session's to sum from its send flows, which hold them. A
session carrying time-critical traffic grows its window faster and shrinks it
less on loss; other sessions on the same host switch to a deferring mode
(slower growth) while any local session is time-critical.
"""

from __future__ import annotations

MODE_NORMAL = "normal"
MODE_TIME_CRITICAL = "time_critical"
MODE_DEFERRING = "deferring"


# Window growth per acked segment and multiplicative decrease on loss, by
# mode. Deferring sessions back off like normal ones; only their growth slows.
GAIN = {MODE_NORMAL: 1.0, MODE_TIME_CRITICAL: 2.0, MODE_DEFERRING: 0.5}
DECREASE = {MODE_NORMAL: 0.5, MODE_TIME_CRITICAL: 0.875, MODE_DEFERRING: 0.5}


class CongestionController:
    """Per-session window state: cwnd, ssthresh and mode."""

    def __init__(self, cwnd_init: int, mss: int):
        self.cwnd_init = cwnd_init
        self.mss = mss
        # Two full segments, so the window never deadlocks.
        self.floor = 2 * mss
        self.cwnd: float = float(cwnd_init)
        self.ssthresh: float = float(1 << 30)
        self.mode: str = MODE_NORMAL
        self._last_collapse_us: int | None = None

    def on_ack_progress(self, bytes_acked: int) -> None:
        g = GAIN[self.mode]
        mss = self.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += min(bytes_acked, mss) * g
        else:
            self.cwnd += g * mss * bytes_acked / self.cwnd

    def on_loss_event(self, now: int, srtt_us: int) -> bool:
        """Multiplicative decrease; returns False when coalesced away, that
        is within one SRTT of the last collapse."""
        if (self._last_collapse_us is not None
                and now - self._last_collapse_us < srtt_us):
            return False
        self._last_collapse_us = now
        self.cwnd = max(float(self.floor), self.cwnd * DECREASE[self.mode])
        self.ssthresh = self.cwnd
        return True

    def on_timeout(self) -> None:
        self.ssthresh = max(float(self.floor), self.cwnd / 2.0)
        self.cwnd = float(self.cwnd_init)


class CcRegistry:
    """All sessions of one host; propagates time-critical mode switches.

    A session is time-critical while one of its flows marked time-critical
    has queued data. Every *other* local session defers while at least one
    local session is time-critical; a session also defers when its peer
    signaled a time-critical transfer. A new session and `tc_active` flips
    take effect at the next update().
    """

    def __init__(self):
        self.sessions: list = []

    def add(self, session) -> None:
        self.sessions.append(session)

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
