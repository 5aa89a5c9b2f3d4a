"""Reference oracle: the checker that re-searches every snapshot.

``repro.chaos.linearize.check_history`` replays most keys in one array
pass, searches the rest once, and judges every snapshot by arrays and
lookups in per-key tables.  This module keeps the straightforward
version it replaced, so the differential tests can assert the two
produce the same report, violation strings included:

* the overlap-group search with no shortcut for one-event groups;
* ``_check_snapshot``, which rebuilds the key universe, rescans every
  event of every key and re-runs the whole per-key search (history plus
  one pinned read) for every candidate instant of every snapshot.

``MAX_VISITS`` is read from :mod:`repro.chaos.linearize` at call time,
so a test that monkeypatches it there lowers both budgets.  Only tests
import this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.chaos import linearize
from repro.chaos.linearize import (HistoryEvent, HistoryRecorder,
                                   LinearizabilityReport,
                                   SnapshotObservation, SnapshotViolation,
                                   Violation, _net_effect_ok,
                                   _overlap_groups, _replay,
                                   _SearchOverflow)


def _group_outcomes(group: list[HistoryEvent], initial: bool,
                    budget: list[int]) -> set[bool]:
    """Exact memoized search over one overlap group: the set of register
    states a legal linearization can end in, starting from ``initial``."""
    n = len(group)
    hb = [[group[i].end < group[j].start for j in range(n)]
          for i in range(n)]
    full = (1 << n) - 1
    outcomes: set[bool] = set()
    seen: set[tuple[int, bool]] = set()

    def extend(mask: int, present: bool) -> None:
        if mask == full:
            outcomes.add(present)
            return
        state = (mask, present)
        if state in seen:
            return
        seen.add(state)
        budget[0] -= 1
        if budget[0] <= 0:
            raise _SearchOverflow
        for i in range(n):
            if mask >> i & 1:
                continue
            if any(hb[j][i] and not (mask >> j & 1) for j in range(n)):
                continue
            ok, nxt = _replay(group[i].op, group[i].result, present)
            if ok:
                extend(mask | (1 << i), nxt)

    extend(0, initial)
    return outcomes


def check_key(events: list[HistoryEvent], initial: bool,
              final: bool) -> tuple[bool, bool]:
    """Returns ``(linearizable, used_fallback)``."""
    if not events:
        return initial == final, False
    budget = [linearize.MAX_VISITS]
    states = {initial}
    try:
        for group in _overlap_groups(events):
            nxt: set[bool] = set()
            for s in states:
                nxt |= _group_outcomes(group, s, budget)
            if not nxt:
                return False, False
            states = nxt
        return final in states, False
    except _SearchOverflow:
        return _net_effect_ok(events, initial, final), True


def check_snapshot(obs: SnapshotObservation,
                   per_key: dict[int, list[HistoryEvent]],
                   initial: set, final: set) -> str | None:
    """Judge one snapshot against the recorded history: ``None`` if some
    instant of the pin window fits every relevant key, else the reason.
    Works in doubled step coordinates; candidate instants are the
    doubled event boundaries inside the window ±1 plus the window ends.
    """
    relevant = {k for k in set(initial) | set(obs.keys) | set(per_key)
                if obs.lo <= k <= obs.hi}
    dynamic: list[tuple[int, list[HistoryEvent], bool]] = []
    for k in sorted(relevant):
        want = k in obs.keys
        evs = per_key.get(k, [])
        if not evs:
            if want != (k in initial):
                return (f"key {k}: snapshot says {want}, but the key was "
                        f"never operated on and prefill says "
                        f"{k in initial}")
            continue
        dynamic.append((k, evs, want))

    w0, w1 = 2 * obs.start, 2 * obs.end
    instants = {w0, w1}
    for _, evs, _ in dynamic:
        for e in evs:
            for b in (2 * e.start, 2 * e.end):
                for t in (b - 1, b, b + 1):
                    if w0 <= t <= w1:
                        instants.add(t)
    feasible = set(instants)

    for k, evs, want in dynamic:
        doubled = [HistoryEvent(e.op, e.key, e.result,
                                2 * e.start, 2 * e.end) for e in evs]
        ends = sorted(e.end for e in doubled)
        starts = sorted(e.start for e in doubled)
        memo: dict[tuple[int, int], bool] = {}

        def feasible_at(t: int) -> bool:
            sig = (bisect_left(ends, t),
                   len(starts) - bisect_right(starts, t))
            got = memo.get(sig)
            if got is None:
                pinned = HistoryEvent("contains", k, want, t, t)
                got, _ = check_key(doubled + [pinned], k in initial,
                                   k in final)
                memo[sig] = got
            return got

        if all(2 * e.end < w0 or 2 * e.start > w1 for e in evs):
            if not feasible_at(w0):
                return (f"key {k}: snapshot says {want}, infeasible at "
                        f"every instant of a quiescent window")
            continue
        feasible = {t for t in feasible if feasible_at(t)}
        if not feasible:
            return (f"no single instant satisfies all keys "
                    f"(first emptied at key {k}, snapshot says {want})")
    return None


def check_history(recorder: HistoryRecorder | list[HistoryEvent],
                  initial_keys, final_keys,
                  snapshots: list[SnapshotObservation] | None = None,
                  ) -> LinearizabilityReport:
    """The whole-history check with every snapshot searched afresh."""
    events = (recorder.events if isinstance(recorder, HistoryRecorder)
              else list(recorder))
    initial = set(int(k) for k in initial_keys)
    final = set(int(k) for k in final_keys)
    per_key: dict[int, list[HistoryEvent]] = {}
    for e in events:
        per_key.setdefault(e.key, []).append(e)
    for k in (initial ^ final) - set(per_key):
        per_key[k] = []

    report = LinearizabilityReport(ok=True, checked_keys=len(per_key),
                                   events=len(events))
    for k, evs in per_key.items():
        ok, fellback = check_key(evs, k in initial, k in final)
        if fellback:
            report.fallback_keys += 1
        if not ok:
            report.ok = False
            report.violations.append(
                Violation(k, evs, k in initial, k in final))

    for obs in snapshots or ():
        report.snapshots_checked += 1
        detail = check_snapshot(obs, per_key, initial, final)
        if detail is not None:
            report.ok = False
            report.snapshot_violations.append(SnapshotViolation(obs, detail))
    return report
