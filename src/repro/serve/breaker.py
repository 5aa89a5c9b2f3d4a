"""Per-shard circuit breaker: fail fast while a shard is wedged.

Classic three-state breaker on the virtual step clock.  ``threshold``
consecutive flush failures open it; while open, both new submissions
targeting the shard and queued flushes fail fast with a typed
:class:`~repro.serve.errors.CircuitOpen` (no device work, no queue
growth behind the wedge).  After ``reset_steps`` the next flush runs as
a half-open probe: success closes the breaker, failure re-opens it for
another full window.

The probe is *exclusive*.  Once ``reset_steps`` elapse, the submit path
admits exactly one request — the probe carrier — and keeps failing the
rest fast until :meth:`CircuitBreaker.record_success` closes the
breaker (or the probe fails and re-arms the window).  Without that
gate, every submission arriving after ``retry_at`` would be admitted
while the shard is still OPEN/HALF_OPEN: a thundering herd queues
behind the single probe flush and re-wedges the shard the moment the
probe resolves.
"""

from __future__ import annotations

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    def __init__(self, threshold: int, reset_steps: int):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = int(threshold)
        self.reset_steps = int(reset_steps)
        self.state = CLOSED
        self.failures = 0
        self.opened_at = -1
        self.opens = 0
        self.probe_inflight = False

    @property
    def retry_at(self) -> int:
        """Step at which an open breaker admits its probe."""
        return self.opened_at + self.reset_steps

    def allow_flush(self, now: int) -> bool:
        """May a flush attempt run now?  Transitions open → half-open
        when the reset window has elapsed (the caller's attempt *is*
        the probe)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now >= self.retry_at:
                self.state = HALF_OPEN
                self.probe_inflight = True
                return True
            return False
        return True                      # half-open: the probe runs

    def admits(self, now: int) -> bool:
        """Submit-path gate: reject new work for a shard that is not
        CLOSED — except for exactly one post-window submission, which
        is admitted as the probe carrier (claiming the probe slot, so
        this is a gate, not a pure read).  Everything else fails fast
        until :meth:`record_success` resolves the probe."""
        if self.state == CLOSED:
            return True
        if now < self.retry_at or self.probe_inflight:
            return False
        self.probe_inflight = True
        return True

    def record_success(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.probe_inflight = False

    def record_failure(self, now: int) -> None:
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.threshold:
            if self.state != OPEN:
                self.opens += 1
            self.state = OPEN
            self.opened_at = int(now)
            self.failures = 0
            self.probe_inflight = False
