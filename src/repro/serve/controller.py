"""Serve-layer elasticity: deterministic per-shard rate/window control.

PR 8's robustness ladder is entirely static — one global admission
bucket, fixed coalesce windows, a fixed shed threshold — so one hot or
wedged shard starves the rest under a global budget, and the ladder
either over-admits (queue growth) or under-admits (wasted capacity)
whenever the offered mix drifts from the knobs it was tuned for.  This
module closes the loop with three cooperating mechanisms, all computed
on the virtual step clock so campaigns stay seed-reproducible
(DESIGN.md §15):

1. **Target-latency admission (AIMD).**  Each shard owns a
   :class:`~repro.serve.admission.TokenBucket` whose rate is adjusted
   once per ``interval`` steps against a ``target_p99`` setpoint over
   the flush latencies observed since the last tick: a busted setpoint
   multiplies the rate by ``decrease`` (< 1), a met setpoint with
   demand adds ``increase`` tokens/kstep — classic AIMD, so the rate
   climbs to the *sustainable* throughput for the latency budget
   instead of a hand-tuned constant, and backs off geometrically the
   moment latency escapes.
2. **Load-adaptive coalesce windows.**  Each shard's coalesce window
   tracks its queue backlog: ``min_window`` when idle (lowest possible
   latency) widening linearly to ``max_window`` as the high-water
   occupancy since the last tick approaches 1 — batch commits make
   large flushes nearly free (§13), so backlog is drained in big
   epochs instead of many small ones.  The frontend scales its batch
   size cap with the window so wide windows really do mean bigger
   flushes.
3. **Per-shard rebalancing.**  Shards that cannot use their share of
   the configured budget — breaker open, or no observed traffic —
   donate the slice of the even split ``total_rate / n_shards`` above
   the ``min_rate`` reserve floor to the shards with demand, as a
   per-tick grant on top of their AIMD rate.  A frozen shard's tokens
   flow to its neighbours within one control period instead of
   evaporating while their traffic is rejected, and under a hotspot
   key skew the hot shard absorbs the cold shards' idle budget.

Determinism: the controller has no clock of its own.  The frontend
calls :meth:`ElasticityController.tick` from its submit/flush paths
whenever ``loop.now`` has passed the next control boundary, with
occupancy and breaker state read at that same virtual instant — every
input is a pure function of the seeded campaign, so the rate/window
trajectory (exported as a time series for the CI artifact) is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .request import percentile


@dataclass(frozen=True)
class ControllerConfig:
    """AIMD constants and window bounds (per shard unless noted).

    The frontend derives them from its static knobs via
    :func:`derive_controller`, so ``--adaptive`` needs no extra tuning
    to be useful; every constant remains overridable."""

    target_p99: float              # flush-latency setpoint, steps (µs)
    interval: int                  # control period, steps
    increase: float = 1.0          # additive step, tokens/kstep/tick
    decrease: float = 0.7          # multiplicative back-off factor
    min_rate: float = 1.0          # per-shard rate floor, tokens/kstep
    max_rate: float = 1000.0       # per-shard rate ceiling
    min_window: int = 25           # idle coalesce window, steps
    max_window: int = 600          # saturated coalesce window, steps

    def __post_init__(self):
        if self.target_p99 <= 0:
            raise ValueError("target_p99 must be positive")
        if not 0.0 < self.decrease < 1.0:
            raise ValueError("decrease must be in (0, 1)")
        if self.min_rate <= 0 or self.max_rate < self.min_rate:
            raise ValueError("need 0 < min_rate <= max_rate")
        if self.min_window < 1 or self.max_window < self.min_window:
            raise ValueError("need 1 <= min_window <= max_window")


def derive_controller(cfg, n_shards: int) -> ControllerConfig:
    """Controller constants scaled from a
    :class:`~repro.serve.config.ServeCampaignConfig`'s static knobs:
    additive step = 1/8 of the even per-shard split of ``admit_rate``
    per tick, floor = 1/16 of it, ceiling = the whole configured budget
    (one shard may absorb everything the others leave), windows
    bracketing the static coalesce window (``cfg.window_bounds()``)."""
    share = cfg.admit_rate / max(1, n_shards)
    min_window, max_window = cfg.window_bounds()
    return ControllerConfig(
        target_p99=float(cfg.target_p99),
        interval=int(cfg.control_interval),
        increase=max(0.5, share / 8.0),
        min_rate=max(1.0, share / 16.0),
        max_rate=float(cfg.admit_rate),
        min_window=min_window,
        max_window=max_window,
    )


class ElasticityController:
    """Per-shard AIMD rates + adaptive windows + rebalancing grants.

    The owner calls :meth:`observe` with each completed request's
    latency, asks :meth:`due` / :meth:`tick` at virtual-clock
    boundaries, and applies :attr:`effective_rates` /
    :attr:`windows` to its buckets and dispatchers after each tick."""

    def __init__(self, n_shards: int, total_rate: float,
                 cfg: ControllerConfig, now: int = 0):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if total_rate <= 0:
            raise ValueError("total_rate must be positive")
        self.n_shards = int(n_shards)
        self.total_rate = float(total_rate)
        self.cfg = cfg
        share = self.total_rate / self.n_shards
        #: AIMD-owned per-shard rates (tokens/kstep), before grants.
        self.rates = [min(cfg.max_rate, max(cfg.min_rate, share))
                      for _ in range(self.n_shards)]
        #: Per-tick rebalancing grants on top of the AIMD rates.
        self.grants = [0.0] * self.n_shards
        #: Per-shard coalesce windows (steps); start at the idle floor.
        self.windows = [cfg.min_window] * self.n_shards
        self._samples: list[list[int]] = [[] for _ in range(self.n_shards)]
        self._next_tick = int(now) + cfg.interval
        self.ticks = 0
        #: Rate/window/occupancy trajectory, one entry per shard per
        #: tick — ``controller.timeline`` of a ``--run-out`` summary.
        self.timeline: list[dict] = []

    # -- inputs ------------------------------------------------------------
    def observe(self, sid: int, latency: int) -> None:
        """Record one completed request's end-to-end latency."""
        self._samples[sid].append(int(latency))

    def due(self, now: int) -> bool:
        return int(now) >= self._next_tick

    @property
    def effective_rates(self) -> list[float]:
        """Per-shard bucket rates: AIMD rate + rebalancing grant."""
        return [r + g for r, g in zip(self.rates, self.grants)]

    # -- the control law ---------------------------------------------------
    def tick(self, now: int, occupancies: list[float],
             breaker_open: list[bool]) -> dict:
        """Run one control period ending at ``now``.

        ``occupancies`` is each shard's high-water queue occupancy (in
        [0, 1]) since the last tick; ``breaker_open`` its breaker
        state.  Returns ``{"ups", "downs", "rebalanced"}`` counter
        deltas for the owner's stats."""
        cfg = self.cfg
        ups = downs = 0
        demand = [False] * self.n_shards
        p99s: list[float | None] = []
        for sid in range(self.n_shards):
            p99 = percentile(self._samples[sid], 0.99)
            p99s.append(p99)
            occ = min(1.0, max(0.0, float(occupancies[sid])))
            if breaker_open[sid]:
                # A wedged shard cannot use tokens: cut to the floor at
                # once so the gap is re-grantable this very tick.
                if self.rates[sid] > cfg.min_rate:
                    downs += 1
                self.rates[sid] = cfg.min_rate
            elif p99 is not None and p99 > cfg.target_p99:
                self.rates[sid] = max(cfg.min_rate,
                                      self.rates[sid] * cfg.decrease)
                downs += 1
                demand[sid] = True
            elif p99 is not None or occ > 0.0:
                self.rates[sid] = min(cfg.max_rate,
                                      self.rates[sid] + cfg.increase)
                ups += 1
                demand[sid] = True
            # else: idle and healthy — hold the rate, donate nothing
            # beyond the even-split gap below.
            self.windows[sid] = cfg.min_window + int(
                round(occ * (cfg.max_window - cfg.min_window)))
            self._samples[sid] = []

        # Rebalance: shards that cannot use their claim this period —
        # breaker open, or no observed traffic — lend the slice of the
        # even split above the reserve floor to the demanding shards.
        # Grants are optimistic (a silent donor's own bucket keeps its
        # AIMD rate) but recomputed from scratch every tick, so a donor
        # that wakes up reclaims its slice one control period later.
        share = self.total_rate / self.n_shards
        surplus = sum(max(0.0, share - cfg.min_rate)
                      for sid in range(self.n_shards)
                      if not demand[sid])
        takers = [sid for sid in range(self.n_shards) if demand[sid]]
        self.grants = [0.0] * self.n_shards
        rebalanced = 0
        if surplus > 0.0 and takers:
            per = surplus / len(takers)
            for sid in takers:
                self.grants[sid] = per
            rebalanced = 1

        self.ticks += 1
        self._next_tick = int(now) + cfg.interval
        for sid in range(self.n_shards):
            self.timeline.append({
                "step": int(now), "shard": sid,
                "rate": round(self.rates[sid], 3),
                "grant": round(self.grants[sid], 3),
                "window": self.windows[sid],
                "occupancy": round(min(1.0, max(0.0,
                                                float(occupancies[sid]))), 3),
                "p99": p99s[sid],
                "breaker_open": bool(breaker_open[sid]),
            })
        return {"ups": ups, "downs": downs, "rebalanced": rebalanced}

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Final controller state for the run report."""
        return {
            "rates": [round(r, 3) for r in self.effective_rates],
            "windows": list(self.windows),
            "ticks": self.ticks,
        }
