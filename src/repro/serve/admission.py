"""Admission control: token bucket + the degradation ladder.

The bucket refills continuously on the virtual step clock, so admission
is a pure function of (rate, burst, request arrival steps) — fully
deterministic.  The ladder orders what gives way first as load rises:

1. **Shed ranges** — range queries are the most expensive requests
   (snapshot pin + full window walk) and the least latency-critical, so
   they are rejected (`Overloaded("shed-range")`) while point ops still
   flow, as soon as any point queue crosses ``shed_occupancy`` or the
   bucket drains below a quarter of its burst
   (``frontend.RANGE_RESERVE``).
2. **Reject at admission** — the bucket empties: point ops get a typed
   `Overloaded("admission")` instead of unbounded queueing.
3. **Backpressure** — admitted requests briefly wait for queue room
   (bounded by ``backpressure_steps`` and the request deadline), then
   `Overloaded("queue-full")`.

Clock discipline: timer-heap wakeups can deliver *equal* steps
back-to-back, and independent callers (the shed path, the controller,
the submit path) may consult the bucket at the same virtual instant in
any order — so every method tolerates a non-monotonic ``now``.  Refill
only ever moves forward (``now <= _last`` adds nothing and never
rewinds ``_last``), and :meth:`level` is a pure read: consulting the
fill fraction on the shed path can never change a later
:meth:`take`'s outcome.
"""

from __future__ import annotations


class TokenBucket:
    """Deterministic token bucket on the virtual step clock.

    ``rate`` is tokens per 1000 steps (= per millisecond of virtual
    time); ``burst`` is the bucket capacity.  ``rate=None`` disables
    admission control (always admits)."""

    def __init__(self, rate: float | None, burst: float, now: int = 0):
        self.rate = None if rate is None else float(rate) / 1000.0
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = int(now)

    def _refill(self, now: int) -> None:
        # ``now <= _last`` (equal-step wakeups, or callers racing at one
        # virtual instant) must be a no-op: no credit, no rewind.
        if self.rate is not None and now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
        self._last = max(self._last, int(now))

    def set_rate(self, rate: float | None, now: int) -> None:
        """Retarget the refill rate (tokens per 1000 steps) — the
        elasticity controller's knob.  Accrued credit is settled at the
        *old* rate first, so a rate change is forward-looking and the
        outcome stays a pure function of the (rate, step) history."""
        self._refill(int(now))
        self.rate = None if rate is None else float(rate) / 1000.0

    def take(self, now: int, n: float = 1.0) -> bool:
        if self.rate is None:
            return True
        self._refill(int(now))
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def level(self, now: int) -> float:
        """Current fill fraction in [0, 1] (1.0 when disabled).

        Pure read: the shed path consults this between takes, possibly
        at a step already settled (or not yet settled) by a take — it
        projects the refill without committing it, so observing the
        level never perturbs later admissions."""
        if self.rate is None:
            return 1.0
        if self.burst <= 0:
            return 0.0
        tokens = self.tokens
        if now > self._last:
            tokens = min(self.burst, tokens + (now - self._last) * self.rate)
        return tokens / self.burst
