"""Telemetry-driven resharding policy (DESIGN.md §16).

The :class:`ReshardPolicy` closes the elasticity loop the ROADMAP
names: the :class:`~repro.serve.controller.ElasticityController`
already produces per-shard rate / occupancy / p99 telemetry every
control tick; this policy reads those rows, decides when one shard is
*sustainably* hot (p99 excursions over the setpoint for
``reshard_hot_ticks`` consecutive ticks, corroborated by occupancy), and picks
a concrete key-range move for the
:class:`~repro.shard.migrate.MigrationExecutor`: split the hot shard's
busiest owned segment at the median of recently observed keys and hand
the upper half to the coldest shard.

The split point comes from a bounded per-shard sample of recently
routed keys (fed by the frontend's submit path), not from the whole
key space — under a front-loaded workload the hot shard's *traffic*
median sits far below its range midpoint, and splitting at the traffic
median is what actually halves the load.

Everything runs on the virtual step clock and consumes only data that
is itself a pure function of the campaign seed, so a resharding run is
replayable like every other campaign.
"""

from __future__ import annotations

from dataclasses import dataclass


#: A shard is hot on a p99 over the setpoint, or when it bounced at
#: least ``REJECT_FLOOR`` admission rejects in a tick, holding at least
#: ``REJECT_SHARE`` of that tick's rejects.
REJECT_FLOOR = 8
REJECT_SHARE = 0.5


@dataclass(frozen=True)
class ReshardPlan:
    """One concrete move: ``[lo, hi]`` from ``src`` to ``dst``."""

    src: int
    dst: int
    lo: int
    hi: int


class ReshardPolicy:
    """Consumes controller telemetry, emits migration plans."""

    def __init__(self, n_shards: int, cfg):
        """``cfg`` is the run's
        :class:`~repro.serve.config.ServeCampaignConfig`: its
        ``target_p99`` and ``reshard_*`` fields set the policy."""
        self.n_shards = int(n_shards)
        self.cfg = cfg
        self._hot_streak = [0] * self.n_shards
        self._last: list[dict] = []
        self._cooldown = 0
        self.migrations_planned = 0

    # -- telemetry intake ------------------------------------------------
    def note_tick(self, entries: list[dict],
                  rejects: list[int] | None = None) -> None:
        """Feed one control tick's per-shard timeline rows (the last
        ``n_shards`` entries of ``controller.timeline``) plus, when
        available, per-shard admission rejections since the previous
        tick.

        A shard is *hot* this tick on either signal: a p99 excursion
        over the setpoint, or a sustained rate-cap — it bounced at
        least ``REJECT_FLOOR`` arrivals **and** holds at least
        ``REJECT_SHARE`` of the whole tick's rejections.  (Under AIMD
        the second signal is the common one: an overloaded shard's
        bucket rejects arrivals long before the latency of the admitted
        few moves.)"""
        self._last = list(entries)
        if self._cooldown > 0:
            self._cooldown -= 1
        total_rejects = sum(rejects) if rejects else 0
        for e in entries:
            sid = int(e["shard"])
            if sid >= self.n_shards:
                continue
            p99 = e.get("p99")
            hot = (p99 is not None and p99 > self.cfg.target_p99)
            if rejects is not None and sid < len(rejects):
                capped = (rejects[sid] >= REJECT_FLOOR
                          and rejects[sid] >= REJECT_SHARE * total_rejects)
                hot = hot or capped
            if e.get("breaker_open", False):
                hot = False
            self._hot_streak[sid] = self._hot_streak[sid] + 1 if hot else 0

    # -- planning --------------------------------------------------------
    def _hot_shard(self) -> int | None:
        best, best_p99 = None, -1.0
        for e in self._last:
            sid = int(e["shard"])
            if sid >= self.n_shards:
                continue
            if self._hot_streak[sid] < self.cfg.reshard_hot_ticks:
                continue
            p99 = e.get("p99")
            if p99 is not None and p99 > best_p99:
                best, best_p99 = sid, float(p99)
        return best

    def _cold_shard(self, exclude: int) -> int | None:
        def sort_key(e):
            p99 = e.get("p99")
            return (float(e.get("occupancy", 0.0)),
                    0.0 if p99 is None else float(p99))
        ranked = sorted((e for e in self._last
                         if int(e["shard"]) != exclude
                         and int(e["shard"]) < self.n_shards
                         and not e.get("breaker_open", False)),
                        key=sort_key)
        return int(ranked[0]["shard"]) if ranked else None

    def plan(self, routing, key_samples: list) -> ReshardPlan | None:
        """Pick a move, or None.

        ``routing`` is the map's :class:`~repro.shard.RoutingTable`;
        ``key_samples[sid]`` is an iterable of recently observed keys
        routed to shard ``sid`` (the frontend keeps a bounded deque).
        The move splits the hot shard's most-traveled owned segment at
        the sample median and donates the **lower** half — under a
        front-loaded distribution the heat is at the bottom of the
        segment, and donating the cold upper half would move almost no
        traffic."""
        cfg = self.cfg
        if self._cooldown > 0 or self.migrations_planned >= \
                cfg.reshard_max_migrations or not self._last:
            return None
        src = self._hot_shard()
        if src is None:
            return None
        dst = self._cold_shard(src)
        if dst is None or dst == src:
            return None

        samples = sorted(int(k) for k in key_samples[src])
        best_seg, best_n = None, 0
        for lo, hi, _owner in routing.segments(src):
            n = sum(1 for k in samples if lo <= k <= hi)
            if n > best_n:
                best_seg, best_n = (lo, hi), n
        if best_seg is None or best_n < cfg.reshard_min_keys:
            return None
        seg_lo, seg_hi = best_seg
        in_seg = [k for k in samples if seg_lo <= k <= seg_hi]
        median = in_seg[len(in_seg) // 2]
        lo, hi = seg_lo, min(median, seg_hi)
        if hi >= seg_hi or lo > hi:
            # A degenerate split (the whole segment) would just swap
            # the hot shard for another; skip this tick.
            return None

        self.migrations_planned += 1
        self._cooldown = cfg.reshard_cooldown
        self._hot_streak[src] = 0
        return ReshardPlan(src=src, dst=dst, lo=int(lo), hi=int(hi))
