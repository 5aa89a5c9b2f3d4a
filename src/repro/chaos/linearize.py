"""History recording and linearizability checking for set histories.

The interleaving scheduler stamps each operation's invocation and
response with global step numbers, yielding a concurrent *history*.
The checker is Wing–Gong style — search for a legal linearization by
repeatedly picking a minimal (by real-time order) unlinearized
operation and replaying it against a sequential oracle — with two
prunings and an array pass that keep it exact yet fast:

* **Per-key decomposition.**  Set operations on distinct keys commute,
  so a history is linearizable iff each per-key sub-history is
  linearizable against a single-key register oracle (insert succeeds
  iff absent, delete iff present, contains reports presence) that
  starts at the key's prefill state and ends at its observed final
  state.
* **Interval pruning.**  Within a key, sort events by invocation and
  cut the history at *quiescent points* — instants where every earlier
  operation has responded before every later one is invoked.  Each
  overlap group is searched independently (memoized over
  ``(linearized-mask, present)`` states), threading the set of feasible
  register states from group to group.  Group sizes are bounded by how
  many operations on one key genuinely overlap, so the exact search
  stays tiny even for 10k-op campaigns.
* **Array pass.**  Most keys have only one-event groups.  After a
  consistent event the register state is that event's own (present
  after an insert, absent after a delete, the result after a
  contains), so such a key's check is a replay of each event against
  the state its predecessor left.  One ``lexsort`` by
  ``(key, start, end)`` lines every key's events up, and numpy replays
  all those keys at once (:class:`_History`).  Only keys with a larger
  group, an unknown op, or a history long enough to near
  ``MAX_VISITS`` are searched.

A search that still explodes (``MAX_VISITS`` states) falls back to a
*net-effect* check for that key — prefill + successful inserts −
successful deletes must equal the final state — and the report counts
the key under ``fallback_keys`` so a campaign never silently weakens
its verdict.

**Snapshot observations** (DESIGN.md §13) are judged against the same
history: a :class:`SnapshotObservation` records the key set a frozen
snapshot read returned plus the step interval over which the pin was
held, and is consistent iff there exists a single instant ``t`` inside
that interval at which *every* key's presence matches the observation
under some legal linearization.  Per key that is a pinned pseudo-event
``contains(k, k ∈ S)`` at ``[t, t]`` (in doubled step coordinates, so
midpoints between real stamps are representable).  The feasible
instants are intersected across keys in key order, and an empty
intersection is a :class:`SnapshotViolation` — the snapshot was not a
consistent cut.

:class:`_SnapshotJudge` pairs every observation with the keys of its
window in one array pass.  A key no event overlaps over the pin
window (quiet) adds no candidate instant, and for a key with one-event
groups its verdict is a lookup: the key's main check holds and the
observed state is the one between the events around the window.  The
keys never operated on are compared with prefill the same way.  Python
then walks only the rest — keys some event overlaps, keys searched by
the main check, the first quiet key that cannot match, and every key
of an inverted window.

The walk uses one table per key (:class:`_KeyTable`): its overlap
groups, the feasible states ``fwd[g]`` before each group, and the live
states — those of ``fwd[g]`` from which the groups from ``g`` on can
still end in the final state.  A pinned read either lies strictly
between two groups or joins exactly one group: every point of a group's
span ``[first start, largest end]`` is covered by one of its events, so
the read overlaps that group and no other, and it never reaches past
the span.  Between groups the read is feasible iff the observed state
is live there; inside group ``g`` only ``g`` plus the read is searched,
from ``fwd[g]``, and an outcome must be live after ``g`` (memoized per
key, real-time signature and observed state across snapshots).  The
quiescent-window test and the candidate instants are bisects on the
key's sorted group spans and stamps.  The lookups are exact as long as
the search of the history plus the read would stay under
``MAX_VISITS``; a query whose visit upper bound (the main check's
visits, with the pinned group's search in place of its group's)
reaches it runs that whole search instead, net-effect fallback
included, so overflow verdicts are unchanged.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np

#: Per-key state-visit budget before falling back to the net-effect check.
MAX_VISITS = 500_000

#: Op codes of the array pass; any other op is code 3, and its key is
#: searched, which raises on it.
_OP_CODES = {"insert": 0, "delete": 1, "contains": 2}


@dataclass(frozen=True)
class HistoryEvent:
    """One completed operation: name, key, result, and the scheduler
    step stamps of its invocation and response."""

    op: str              # "insert" / "delete" / "contains"
    key: int
    result: bool
    start: int
    end: int


class HistoryRecorder:
    """Accumulates :class:`HistoryEvent` entries across waves."""

    def __init__(self):
        self.events: list[HistoryEvent] = []

    def record(self, op: str, key: int, result, start: int,
               end: int) -> None:
        self.events.append(HistoryEvent(op, int(key), bool(result),
                                        int(start), int(end)))

    def __len__(self) -> int:
        return len(self.events)


def _replay(op: str, result: bool, present: bool) -> tuple[bool, bool]:
    """Sequential register oracle: ``(is_consistent, new_present)``."""
    if op == "insert":
        return (result == (not present)), (present or result)
    if op == "delete":
        return (result == present), (present and not result)
    if op == "contains":
        return (result == present), present
    raise ValueError(f"unknown operation {op!r}")


def _overlap_groups(events: list[HistoryEvent]) -> list[list[HistoryEvent]]:
    """Cut a per-key history at quiescent points.  Events are sorted by
    invocation; a new group starts when an event is invoked strictly
    after every earlier event responded."""
    ordered = sorted(events, key=lambda e: (e.start, e.end))
    groups: list[list[HistoryEvent]] = []
    group_max_end = None
    for e in ordered:
        if group_max_end is None or e.start > group_max_end:
            groups.append([])
            group_max_end = e.end
        else:
            group_max_end = max(group_max_end, e.end)
        groups[-1].append(e)
    return groups


class _SearchOverflow(Exception):
    pass


def _group_outcomes(group: list[HistoryEvent], initial: bool,
                    budget: list[int]) -> set[bool]:
    """Exact memoized search over one overlap group: the set of register
    states a legal linearization can end in, starting from ``initial``.
    Empty set ⇒ no legal linearization exists."""
    n = len(group)
    if n == 1:
        # The search would visit ``(0, initial)`` once and replay.
        budget[0] -= 1
        if budget[0] <= 0:
            raise _SearchOverflow
        ok, nxt = _replay(group[0].op, group[0].result, initial)
        return {nxt} if ok else set()
    # ``before[i]``: the events that responded before ``i`` was invoked.
    before = [sum(1 << j for j in range(n) if group[j].end < e.start)
              for e in group]
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
            # Every real-time predecessor must already be linearized.
            if mask >> i & 1 or before[i] & ~mask:
                continue
            ok, nxt = _replay(group[i].op, group[i].result, present)
            if ok:
                extend(mask | (1 << i), nxt)

    extend(0, initial)
    return outcomes


def _net_effect_ok(events: list[HistoryEvent], initial: bool,
                   final: bool) -> bool:
    """Fallback necessary condition.  Successful inserts and deletes on
    one key must alternate (I,D,I,… from absent; D,I,D,… from present),
    so their counts differ by at most one and the final state follows
    from the difference."""
    ins = sum(1 for e in events if e.op == "insert" and e.result)
    dels = sum(1 for e in events if e.op == "delete" and e.result)
    if initial:
        return 0 <= dels - ins <= 1 and final == (dels == ins)
    return 0 <= ins - dels <= 1 and final == (ins - dels == 1)


def check_key_history(events: list[HistoryEvent], initial: bool,
                      final: bool) -> bool:
    """Exact per-key linearizability check with real-time constraints.

    A search that overflows ``MAX_VISITS`` falls back to the net-effect
    condition (see module docstring); callers that need to know use
    :func:`check_history`, which counts fallback keys.
    """
    ok, _ = _key_verdict(events, initial, final)
    return ok


def _key_verdict(events: list[HistoryEvent], initial: bool,
                 final: bool) -> tuple[bool, bool]:
    """Returns ``(linearizable, used_fallback)``."""
    if not events:
        return initial == final, False
    return _KeyTable(events, initial, final).verdict()


def _doubled(e: HistoryEvent) -> HistoryEvent:
    return HistoryEvent(e.op, e.key, e.result, 2 * e.start, 2 * e.end)


class _KeyTable:
    """One key's search: the main check of a key the array pass cannot
    replay, and the snapshot walk's lookups for any key it meets.

    ``fwd[g]`` is the set of feasible states before group ``g``
    (``fwd[-1]`` after the last), ``outs[g]`` maps each of them to its
    outcomes in group ``g`` and ``spent[g]`` is the budget the group
    took; once a set is empty the later groups search nothing.  ``fwd``
    is ``None`` if the search overflowed ``MAX_VISITS``.  :meth:`index`
    adds what the snapshot lookups need; only keys the walk meets pay
    for it.
    """

    def __init__(self, events: list[HistoryEvent], initial: bool,
                 final: bool):
        self.key = events[0].key
        self.events, self.initial, self.final = events, initial, final
        self.groups = _overlap_groups(events)
        self.outs: list[dict[bool, set[bool]]] = []
        self.spent: list[int] = []
        self.live: list[set[bool]] | None = None
        self.bounds: list[int] | None = None
        budget = [MAX_VISITS]
        fwd = [{initial}]
        try:
            for group in self.groups:
                before = budget[0]
                outs: dict[bool, set[bool]] = {}
                nxt: set[bool] = set()
                for s in fwd[-1]:
                    outs[s] = out = _group_outcomes(group, s, budget)
                    nxt |= out
                self.outs.append(outs)
                self.spent.append(before - budget[0])
                fwd.append(nxt)
        except _SearchOverflow:
            fwd = None
        self.fwd = fwd

    def verdict(self) -> tuple[bool, bool]:
        """``(linearizable, used_fallback)`` of the main check."""
        if self.fwd is None:
            return _net_effect_ok(self.events, self.initial,
                                  self.final), True
        return self.final in self.fwd[-1], False

    def index(self) -> None:
        """Build the doubled group spans and ``live[g]``: the states of
        ``fwd[g]`` from which the groups from ``g`` on can still end in
        the final state."""
        if self.live is not None:
            return
        self.group_starts = [2 * g[0].start for g in self.groups]
        self.group_ends = [2 * max(e.end for e in g) for g in self.groups]
        self.live = []
        if self.fwd is not None:
            live = self.fwd[-1] & {self.final}
            self.live.append(live)
            for outs in reversed(self.outs):
                live = {s for s, out in outs.items() if out & live}
                self.live.append(live)
            self.live.reverse()
            self.visits = sum(self.spent)

    def _stamps(self) -> None:
        """The sorted doubled stamps, for the candidate instants and the
        real-time signature of a pinned read."""
        self.starts = sorted(2 * e.start for e in self.events)
        self.ends = sorted(2 * e.end for e in self.events)
        self.bounds = sorted(set(self.starts) | set(self.ends))
        self.memo: dict[tuple[int, int, bool], bool] = {}

    def at_quiet_window(self, w0: int, w1: int, want: bool) -> bool | None:
        """If no event overlaps the doubled window ``[w0, w1]``, the
        pinned read sits at the same real-time position for every
        instant of it: return its verdict.  Otherwise ``None``."""
        if w0 > w1:
            quiet = all(2 * e.end < w0 or 2 * e.start > w1
                        for e in self.events)
        else:
            # A group's events cover its whole span, so an event
            # overlaps the window iff a group span does.
            g = bisect_left(self.group_ends, w0)
            quiet = g == len(self.groups) or self.group_starts[g] > w1
        return self.feasible(w0, want) if quiet else None

    def add_instants(self, w0: int, w1: int, into: set[int]) -> None:
        """Add each doubled event boundary ± 1 that lies in
        ``[w0, w1]``: a pinned read's feasibility changes only there.
        Boundaries and window ends are even, so only boundaries inside
        the window contribute."""
        if self.bounds is None:
            self._stamps()
        i = bisect_left(self.bounds, w0)
        j = bisect_right(self.bounds, w1)
        for b in self.bounds[i:j]:
            for t in (b - 1, b, b + 1):
                if w0 <= t <= w1:
                    into.add(t)

    def feasible(self, t: int, want: bool) -> bool:
        """Can a read pinned at doubled instant ``t`` see ``want``?"""
        g = bisect_right(self.group_starts, t) - 1
        inside = g >= 0 and t <= self.group_ends[g]
        if (not inside and self.fwd is not None
                and self.visits + len(self.fwd[g + 1]) < MAX_VISITS):
            return want in self.live[g + 1]
        if self.bounds is None:
            self._stamps()
        # The verdict depends only on the read's real-time position
        # among this key's events.
        sig = (bisect_left(self.ends, t),
               len(self.starts) - bisect_right(self.starts, t), want)
        got = self.memo.get(sig)
        if got is None:
            if inside and self.fwd is not None:
                got = self._search_group(g, t, want)
            if got is None:
                got = self._search_whole(t, want)
            self.memo[sig] = got
        return got

    def _search_group(self, g: int, t: int, want: bool) -> bool | None:
        """Search group ``g`` plus the pinned read from ``fwd[g]``;
        ``None`` if the search of the whole history plus the read could
        reach ``MAX_VISITS``."""
        group = [_doubled(e) for e in self.groups[g]]
        group.append(HistoryEvent("contains", self.key, want, t, t))
        # The other groups visit at most what the main check spent on
        # them: the read can only shrink the state sets after ``g``.
        budget = [MAX_VISITS - (self.visits - self.spent[g])]
        out: set[bool] = set()
        try:
            for s in self.fwd[g]:
                out |= _group_outcomes(group, s, budget)
        except _SearchOverflow:
            return None
        return bool(out & self.live[g + 1])

    def _search_whole(self, t: int, want: bool) -> bool:
        """The whole doubled history plus the pinned read, searched as
        one key (net-effect fallback included)."""
        doubled = [_doubled(e) for e in self.events]
        doubled.append(HistoryEvent("contains", self.key, want, t, t))
        ok, _ = _key_verdict(doubled, self.initial, self.final)
        return ok


@dataclass(frozen=True)
class SnapshotObservation:
    """One frozen snapshot read: the key set it returned and the step
    interval over which its epoch pin was held.  ``lo``/``hi`` bound the
    queried window — keys outside it are not judged against this
    observation (a range read says nothing about them)."""

    keys: frozenset
    start: int
    end: int
    lo: int = 0
    hi: int = 1 << 32


@dataclass
class Violation:
    """One non-linearizable per-key sub-history."""

    key: int
    events: list[HistoryEvent]
    initial: bool
    final: bool

    def __str__(self) -> str:
        lines = [f"key {self.key}: initial={self.initial} "
                 f"final={self.final} — no legal linearization of:"]
        for e in sorted(self.events, key=lambda e: e.start):
            lines.append(f"  [{e.start:>8}, {e.end:>8}] "
                         f"{e.op}({self.key}) -> {e.result}")
        return "\n".join(lines)


@dataclass
class SnapshotViolation:
    """A snapshot read with no single consistent instant."""

    snapshot: SnapshotObservation
    detail: str

    def __str__(self) -> str:
        return (f"snapshot [{self.snapshot.start}, {self.snapshot.end}] "
                f"({len(self.snapshot.keys)} keys): {self.detail}")


@dataclass
class LinearizabilityReport:
    """Verdict of one history check."""

    ok: bool
    checked_keys: int = 0
    events: int = 0
    violations: list[Violation] = field(default_factory=list)
    fallback_keys: int = 0
    snapshots_checked: int = 0
    snapshot_violations: list[SnapshotViolation] = field(
        default_factory=list)

    def summary(self) -> str:
        verdict = "linearizable" if self.ok else (
            f"NOT linearizable ({len(self.violations)} key(s), "
            f"{len(self.snapshot_violations)} snapshot(s))")
        note = (f", {self.fallback_keys} key(s) via net-effect fallback"
                if self.fallback_keys else "")
        snaps = (f", {self.snapshots_checked} snapshot(s) judged"
                 if self.snapshots_checked else "")
        return (f"{self.events} events over {self.checked_keys} keys: "
                f"{verdict}{note}{snaps}")


class _History:
    """The events as arrays sorted by ``(key, start, end)``, with every
    key's register replay done at once.

    ``keys[j]`` is the ``j``-th distinct key and its sorted events are
    ``off[j]:off[j + 1]``; ``by_first`` lists the keys in order of first
    appearance.  A key is ``simple`` if each of its overlap groups is
    one event, every op is known, every event starts no later than it
    ends and it has at most ``MAX_VISITS - 2`` events.  Then a
    consistent event leaves the register in its own state ``post``
    (present after an insert, absent after a delete, the result after a
    contains), so each event is checked against the one before it (the
    prefill state for the first) and ``ok[j]`` is the key's main check;
    neither the main check nor a snapshot query of such a key can reach
    ``MAX_VISITS``.  Every other key is searched by its
    :class:`_KeyTable`.
    """

    def __init__(self, events: list[HistoryEvent], initial: set,
                 final: set):
        self.events = events
        n = len(events)
        key, start, end = (np.fromiter(map(attrgetter(name), events),
                                       np.int64, n)
                           for name in ("key", "start", "end"))
        result = np.fromiter(map(attrgetter("result"), events), bool, n)
        op = np.fromiter((_OP_CODES.get(e.op, 3) for e in events),
                         np.int8, n)
        self.order = order = np.lexsort((end, start, key))
        key, start, end, result, op = (a[order] for a in
                                       (key, start, end, result, op))
        head = np.ones(n, bool)
        head[1:] = key[1:] != key[:-1]
        self.off = off = np.append(np.flatnonzero(head), n)
        self.keys = keys = key[off[:-1]].tolist()
        self.size = np.diff(off)
        self.init = np.fromiter((k in initial for k in keys), bool,
                                len(keys))
        self.final = np.fromiter((k in final for k in keys), bool,
                                 len(keys))
        firsts = off[:-1]
        # An event that starts no later than an earlier one of its key
        # ends joins that event's overlap group.
        odd = (op == 3) | (end < start)
        odd[1:] |= ~head[1:] & (start[1:] <= end[:-1])
        self.simple = (~np.logical_or.reduceat(odd, firsts)
                       & (self.size < MAX_VISITS - 1))
        self.post = post = np.where(op == 2, result, op == 0)
        prev = np.empty(n, bool)
        prev[1:] = post[:-1]
        prev[firsts] = self.init
        consistent = np.where(op == 0, result != prev, result == prev)
        self.ok = (np.logical_and.reduceat(consistent, firsts)
                   & (post[off[1:] - 1] == self.final))
        self.by_first = np.argsort(np.minimum.reduceat(order, firsts))
        # End stamps as ranks, so ``key index * span + rank`` orders the
        # simple keys' events by (key, end) without overflow.
        stamps, rank = np.unique(end, return_inverse=True)
        self.end_stamps, self.span = stamps, len(stamps) + 1
        self.start = start
        kid = np.cumsum(head) - 1
        self.end_order = kid * self.span + np.where(self.simple[kid],
                                                    rank + 1, 0)

    def events_of(self, j: int) -> list[HistoryEvent]:
        """Key ``j``'s events in recorded order."""
        return [self.events[i] for i in
                sorted(self.order[self.off[j]:self.off[j + 1]].tolist())]


class _SnapshotJudge:
    """Judges every snapshot of one history in one array pass.

    The sorted key universe (prefill keys plus every key the history
    touched or leaked) is built once.  Each observation is paired with
    the universe keys of its ``[lo, hi]`` window, and for all pairs at
    once the arrays find the observed membership ``want``, the keys
    never operated on whose prefill state the observation contradicts,
    and the observed keys outside the universe (stray).  For a simple
    key of :class:`_History` under a window that is not inverted they
    also find whether the key is quiet over the pin window and, if so,
    its verdict: the key's main check holds and ``want`` is the register
    state between the events around the window.

    A snapshot is consistent (``None``) iff some instant
    ``t ∈ [obs.start, obs.end]`` fits every key of its window; else the
    reason, which names the smallest contradicted never-operated or
    stray key if there is one.  Otherwise :meth:`_walk` decides from the
    keys the arrays did not settle.
    """

    def __init__(self, hist: _History, tables: dict[int, _KeyTable],
                 initial: set, leaked: set):
        self.hist, self.tables = hist, tables
        known = sorted(initial | set(hist.keys) | leaked)
        self.universe = np.array(known, np.int64)
        self.prefill = np.fromiter((k in initial for k in known), bool,
                                   len(known))
        keys = np.array(hist.keys, np.int64)
        self.operated = np.isin(self.universe, keys)
        self.index = np.searchsorted(keys, self.universe)

    def __call__(self, snapshots: list[SnapshotObservation]
                 ) -> list[str | None]:
        universe = self.universe
        n = len(snapshots)
        lo, hi, start, end = (
            np.fromiter(map(attrgetter(name), snapshots), np.int64, n)
            for name in ("lo", "hi", "start", "end"))
        # Pairs, observation-major and in key order within each one.
        first = np.searchsorted(universe, lo, "left")
        width = np.maximum(np.searchsorted(universe, hi, "right") - first,
                           0)
        pobs = np.repeat(np.arange(n), width)
        pkey = np.arange(len(pobs)) + np.repeat(
            first - np.cumsum(width) + width, width)
        sizes = [len(obs.keys) for obs in snapshots]
        seen = np.fromiter(chain.from_iterable(obs.keys
                                               for obs in snapshots),
                           np.int64, sum(sizes))
        sobs = np.repeat(np.arange(n), sizes)
        known = np.isin(seen, universe)
        stride = len(universe) + 1
        want = np.isin(pobs * stride + pkey,
                       sobs[known] * stride
                       + np.searchsorted(universe, seen[known]))

        # A window's smallest key whose presence never changed and that
        # the observation contradicts: prefill's (never operated on) or
        # absent (stray).
        details: list[str | None] = [None] * n
        smallest: dict[int, int] = {}
        never = np.flatnonzero(~self.operated[pkey]
                               & (want != self.prefill[pkey]))
        obs_ids, at = np.unique(pobs[never], return_index=True)
        for i, p in zip(obs_ids.tolist(), never[at].tolist()):
            smallest[i] = k = int(universe[pkey[p]])
            details[i] = _never_operated(k, bool(want[p]),
                                         bool(self.prefill[pkey[p]]))
        stray = np.flatnonzero(~known & (lo[sobs] <= seen)
                               & (seen <= hi[sobs]))
        for i, k in zip(sobs[stray].tolist(), seen[stray].tolist()):
            if k < smallest.get(i, k + 1):
                smallest[i] = k
                details[i] = _never_operated(k, True, False)

        walk = self._unsettled(pobs, pkey, want, start, end)
        p = np.flatnonzero(walk)
        obs_ids, at = np.unique(pobs[p], return_index=True)
        for i, part in zip(obs_ids.tolist(), np.split(p, at[1:])):
            if details[i] is None:
                details[i] = self._walk(snapshots[i], zip(
                    self.index[pkey[part]].tolist(), want[part].tolist()))
        return details

    def _unsettled(self, pobs, pkey, want, start, end) -> np.ndarray:
        """The pairs the walk must visit: every operated key but the
        simple ones quiet over a window that is not inverted, plus the
        first of those per snapshot whose verdict is infeasible (a quiet
        key adds no candidate instant, so only that one can decide)."""
        hist = self.hist
        walk = self.operated[pkey]
        p = np.flatnonzero(walk)
        j = self.index[pkey[p]]
        settled = hist.simple[j] & (start <= end)[pobs[p]]
        p, j = p[settled], j[settled]
        # ``before``: how many of the key's events end before the window.
        head, size = hist.off[j], hist.size[j]
        before = np.searchsorted(
            hist.end_order,
            j * hist.span + np.searchsorted(hist.end_stamps,
                                            start[pobs[p]]) + 1) - head
        quiet = (before == size) | (
            hist.start[head + np.minimum(before, size - 1)] > end[pobs[p]])
        state = np.where(before == 0, hist.init[j],
                         hist.post[head + np.maximum(before, 1) - 1])
        fits = hist.ok[j] & (want[p] == state)
        walk[p[quiet]] = False
        infeasible = p[quiet & ~fits]
        walk[infeasible[np.unique(pobs[infeasible],
                                  return_index=True)[1]]] = True
        return walk

    def _walk(self, obs: SnapshotObservation, pairs) -> str | None:
        """Intersect the feasible instants of the unsettled keys of one
        snapshot, ``(key index, want)`` in key order.  The candidate
        instants are the window ends plus the doubled event boundaries
        inside the window ±1 — feasibility of a pinned read only changes
        at event boundaries, so the finite set is exact."""
        w0, w1 = 2 * obs.start, 2 * obs.end
        feasible = {w0, w1}
        verdicts = []
        for j, want in pairs:
            table = self._table(j)
            ok = table.at_quiet_window(w0, w1, want)
            if ok is None:
                # A key quiet over the window adds no instant but w0/w1.
                table.add_instants(w0, w1, feasible)
            verdicts.append((table, want, ok))
        for table, want, ok in verdicts:
            if ok is None:
                feasible = {t for t in feasible if table.feasible(t, want)}
                if not feasible:
                    return (f"no single instant satisfies all keys (first "
                            f"emptied at key {table.key}, snapshot says "
                            f"{want})")
            elif not ok:
                return (f"key {table.key}: snapshot says {want}, "
                        f"infeasible at every instant of a quiescent "
                        f"window")
        return None

    def _table(self, j: int) -> _KeyTable:
        """Key ``j``'s table: the main check's, or built on first use
        for a simple key."""
        hist = self.hist
        key = hist.keys[j]
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = _KeyTable(
                hist.events_of(j), bool(hist.init[j]), bool(hist.final[j]))
        table.index()
        return table


def _never_operated(key: int, want: bool, prefill: bool) -> str:
    return (f"key {key}: snapshot says {want}, but the key was never "
            f"operated on and prefill says {prefill}")


def check_history(recorder: HistoryRecorder | list[HistoryEvent],
                  initial_keys, final_keys,
                  snapshots: list[SnapshotObservation] | None = None,
                  ) -> LinearizabilityReport:
    """Check a whole recorded history against prefill/final key sets,
    plus any frozen snapshot observations taken during it."""
    events = (recorder.events if isinstance(recorder, HistoryRecorder)
              else list(recorder))
    initial = set(int(k) for k in initial_keys)
    final = set(int(k) for k in final_keys)
    hist = _History(events, initial, final)
    # Keys whose presence changed without any recorded op are violations
    # too (a mutation leaked onto an untouched key).
    leaked = (initial ^ final) - set(hist.keys)

    report = LinearizabilityReport(
        ok=True, checked_keys=len(hist.keys) + len(leaked),
        events=len(events))
    tables: dict[int, _KeyTable] = {}
    # Only keys the arrays did not pass need Python, in the order of
    # their first event (an unknown op raises at the first such key).
    for j in hist.by_first[~(hist.simple & hist.ok)[hist.by_first]].tolist():
        k, evs = hist.keys[j], hist.events_of(j)
        init, fin = bool(hist.init[j]), bool(hist.final[j])
        if hist.simple[j]:
            ok, fellback = False, False
        else:
            table = tables[k] = _KeyTable(evs, init, fin)
            ok, fellback = table.verdict()
        if fellback:
            report.fallback_keys += 1
        if not ok:
            report.ok = False
            report.violations.append(Violation(k, evs, init, fin))
    for k in leaked:
        report.ok = False
        report.violations.append(Violation(k, [], k in initial, k in final))

    if snapshots:
        snapshots = list(snapshots)
        judge = _SnapshotJudge(hist, tables, initial, leaked)
        report.snapshots_checked = len(snapshots)
        for obs, detail in zip(snapshots, judge(snapshots)):
            if detail is not None:
                report.ok = False
                report.snapshot_violations.append(
                    SnapshotViolation(obs, detail))
    return report
