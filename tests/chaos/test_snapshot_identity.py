"""The array pass and the per-key snapshot tables against the
re-searching oracle in ``scalar_snapshot``: identical
:class:`LinearizabilityReport` s — verdict, counts, ``fallback_keys`` and
every violation string — on hand-built histories, recorded chaos
campaigns (a planted bug included), a migrating serve campaign (also
with hypothesis-mutated observations and results), hypothesis-generated
observations, with ``MAX_VISITS`` lowered until main checks and
snapshot queries overflow, and on the edges of the array pass.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, ServeChaosConfig, campaign, linearize
from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.chaos.linearize import (HistoryEvent, SnapshotObservation,
                                   check_history)
from repro.serve import LoadConfig, ServeCampaignConfig, run_serve_campaign
from repro.serve import bench as serve_bench
from tests.chaos import scalar_snapshot as oracle


def fingerprint(report) -> tuple:
    return (report.ok, report.checked_keys, report.events,
            report.fallback_keys, report.snapshots_checked,
            [str(v) for v in report.violations],
            [str(v) for v in report.snapshot_violations])


def assert_same(events, initial, final, snapshots):
    got = check_history(events, initial, final, snapshots=snapshots)
    want = oracle.check_history(events, initial, final, snapshots=snapshots)
    assert fingerprint(got) == fingerprint(want)
    return want


def flipped(snapshots, step=0):
    """Each observation with one key of its window toggled: a planted
    violation for most of them."""
    out = []
    for i, obs in enumerate(snapshots):
        keys = sorted(obs.keys) or [obs.lo]
        k = keys[(i + step) % len(keys)] + (i + step) % 2
        out.append(replace(obs, keys=obs.keys ^ {k}))
    return out


# ---------------------------------------------------------------------------
# Hand-built histories (the cases of test_snapshots.py, and their edges)
# ---------------------------------------------------------------------------

def E(op, key, result, start, end):
    return HistoryEvent(op, key, result, start, end)


def S(keys, start, end, **kw):
    return SnapshotObservation(frozenset(keys), start, end, **kw)


INSERT_5 = [E("insert", 5, True, 10, 20)]
SEQUENCED = [E("insert", 1, True, 0, 4), E("insert", 2, True, 10, 14)]
INS_DEL_7 = [E("insert", 7, True, 0, 10), E("delete", 7, True, 5, 15)]

HAND_BUILT = [
    (INSERT_5, [], [5], [S((), 12, 18), S({5}, 12, 18)]),
    (INSERT_5, [], [5], [S((), 0, 4), S({5}, 0, 4)]),
    (INSERT_5, [], [5], [S({5}, 30, 40), S((), 30, 40)]),
    (INSERT_5, [], [5], [S((), 0, 10), S({5}, 20, 25), S({5}, 0, 9)]),
    (SEQUENCED, [], [1, 2], [S(ks, 0, 20) for ks in
                             ((), {1}, {2}, {1, 2})]),
    (SEQUENCED, [], [1, 2], [S({2}, 4, 10), S({1}, 4, 10), S({1}, 5, 9)]),
    ([E("insert", 9, True, 0, 4)], [3], [3, 9],
     [S({9}, 10, 12), S({3, 9}, 10, 12), S({3, 9, 11}, 10, 12),
      S({9}, 10, 12, lo=4, hi=50), S({3, 11}, 0, 2, lo=3, hi=11)]),
    ([E("insert", 100, True, 0, 4)], [3], [3, 100],
     [S({3}, 10, 12, lo=1, hi=50), S({3}, 10, 12)]),
    (INS_DEL_7, [], [], [S(ks, a, b) for ks in ((), {7})
                         for a, b in ((6, 9), (0, 15), (15, 20), (20, 30))]),
    # A leaked key (no events, prefill and final differ) and a key whose
    # own history is not linearizable.
    ([E("contains", 4, True, 0, 2), E("insert", 6, True, 1, 3)], [8], [6],
     [S({8}, 5, 6), S({6}, 5, 6), S({4, 6}, 0, 3), S({4, 6, 8}, 0, 3)]),
    # Inverted windows (start after end).  In the second, no event
    # overlaps the window by the old per-event test, though the group
    # span [0, 10] does; the read is judged at the start alone.
    (INS_DEL_7, [], [], [S({7}, 9, 6), S((), 30, 2)]),
    ([E("insert", 7, True, 0, 1), E("contains", 7, True, 1, 10)], [], [7],
     [S((), 3, 0)]),
]


@pytest.mark.parametrize("case", range(len(HAND_BUILT)))
def test_hand_built_histories(case):
    events, initial, final, snapshots = HAND_BUILT[case]
    assert_same(events, initial, final, snapshots)


# ---------------------------------------------------------------------------
# Recorded histories
# ---------------------------------------------------------------------------

def _recorded(module, run) -> list[tuple]:
    """Every ``check_history`` input ``run`` hands to ``module``."""
    calls = []
    real = module.check_history

    def capture(recorder, initial_keys, final_keys, snapshots=None):
        initial, final = list(initial_keys), list(final_keys)
        calls.append((list(recorder.events), initial, final,
                      list(snapshots or ())))
        return real(recorder, initial, final, snapshots=snapshots)

    with mock.patch.object(module, "check_history", capture):
        run()
    return calls


CAMPAIGNS = {
    "gfsl": CampaignConfig(n_ops=600, key_range=60, seed=11, snapshots=2),
    "gfsl@4": CampaignConfig(n_ops=600, key_range=60, seed=12, snapshots=2,
                             structure="gfsl@4"),
    "skip-zombie-recheck": CampaignConfig(
        n_ops=1_000, key_range=60, seed=0, snapshots=2,
        faults=ChaosConfig.adversarial(bug="skip-zombie-recheck")),
    "skip-zombie-recheck@4": CampaignConfig(
        n_ops=1_000, key_range=60, seed=1, snapshots=2, structure="gfsl@4",
        faults=ChaosConfig.adversarial(bug="skip-zombie-recheck")),
}


def _serve_config() -> ServeCampaignConfig:
    return ServeCampaignConfig(
        structure="pq@4",
        load=LoadConfig(n_requests=1_000, n_clients=16, key_range=1_024,
                        mix=(30, 15, 50, 5), rate=1200.0,
                        deadline_steps=6000, distribution="front",
                        zipf_s=1.0, seed=20260809),
        chaos=ServeChaosConfig(abort_migrations=1, seed=7),
        admit_rate=900.0, adaptive=True, target_p99=150.0,
        control_interval=100, elastic=True, partitioner="range",
        headroom=2.0, snapshot_audit=True)


@lru_cache(maxsize=None)
def recorded(name: str) -> tuple:
    if name == "serve-pq@4":
        reports = []
        [call] = _recorded(serve_bench, lambda: reports.append(
            run_serve_campaign(_serve_config())))
        assert reports[0].stats.migration_aborts >= 1
        return call
    [call] = _recorded(campaign, lambda: run_campaign(CAMPAIGNS[name]))
    return call


HISTORIES = [*CAMPAIGNS, "serve-pq@4"]


@pytest.mark.parametrize("name", HISTORIES)
def test_recorded_histories(name):
    events, initial, final, snapshots = recorded(name)
    assert snapshots
    ref = assert_same(events, initial, final, snapshots)
    if name.startswith("skip-zombie-recheck"):
        assert not ref.ok                     # the planted bug shows
    planted = assert_same(events, initial, final, flipped(snapshots))
    assert planted.snapshot_violations


@pytest.mark.parametrize("name", HISTORIES)
def test_recorded_histories_shifted_windows(name):
    """Windows widened and slid across neighbouring overlap groups."""
    events, initial, final, snapshots = recorded(name)
    moved = [replace(obs, start=max(0, obs.start - 3 * (i % 7)),
                     end=obs.end + 5 * (i % 5))
             for i, obs in enumerate(snapshots)]
    assert_same(events, initial, final, moved)
    assert_same(events, initial, final, flipped(moved, step=1))


# ---------------------------------------------------------------------------
# Generated histories and observations
# ---------------------------------------------------------------------------

OPS = ("insert", "delete", "contains")
N_KEYS = 4


@st.composite
def histories(draw):
    """A per-key register history linearized at distinct points, each
    op's interval drawn around its point (so groups overlap and touch),
    with some results flipped; observations are true cuts at some point,
    then perturbed, with window ends often on event stamps."""
    n = draw(st.integers(1, 14))
    initial = draw(st.sets(st.integers(0, N_KEYS - 1)))
    present = set(initial)
    points = sorted(draw(st.lists(st.integers(0, 120), min_size=n,
                                  max_size=n, unique=True)))
    events, cuts = [], [(-1, frozenset(present))]
    for p in points:
        key = draw(st.integers(0, N_KEYS - 1))
        op = draw(st.sampled_from(OPS))
        if op == "insert":
            result = key not in present
            present.add(key)
        elif op == "delete":
            result = key in present
            present.discard(key)
        else:
            result = key in present
        if draw(st.integers(0, 9)) == 0:
            result = not result
        before = draw(st.integers(0, 12))
        after = draw(st.integers(0, 12))
        events.append(E(op, key, result, max(0, p - before), p + after))
        cuts.append((p, frozenset(present)))
    final = set(present)
    if draw(st.integers(0, 9)) == 0:
        final ^= {draw(st.integers(0, N_KEYS))}
    stamps = sorted({s for e in events for s in (e.start, e.end)})
    snapshots = []
    for _ in range(draw(st.integers(1, 5))):
        at, keys = cuts[draw(st.integers(0, len(cuts) - 1))]
        if draw(st.booleans()):
            start = draw(st.sampled_from(stamps))
            end = draw(st.sampled_from(stamps))
            start, end = min(start, end), max(start, end)
        else:
            start = max(0, at - draw(st.integers(0, 10)))
            end = max(at, start) + draw(st.integers(0, 10))
        if draw(st.integers(0, 14)) == 0:
            start, end = end + 1, start           # inverted window
        keys = set(keys)
        for _ in range(draw(st.integers(0, 2))):
            keys ^= {draw(st.integers(0, N_KEYS))}  # flip, add or drop
        lo = draw(st.sampled_from((0, 0, 1, 2)))
        hi = draw(st.sampled_from((1 << 32, 1 << 32, 1, 2, N_KEYS)))
        snapshots.append(SnapshotObservation(frozenset(keys), start, end,
                                             lo=lo, hi=hi))
    return events, initial, final, snapshots


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(histories())
@example(([E("insert", 1, True, 0, 4), E("contains", 1, True, 4, 9),
           E("delete", 1, True, 12, 14)], set(), set(),
          [S((), 4, 12), S({1}, 9, 12), S((), 9, 12), S({1}, 14, 14)]))
def test_generated_histories(history):
    assert_same(*history)


# ---------------------------------------------------------------------------
# Search budgets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("max_visits", [3, 8, 12, 20])
@pytest.mark.parametrize("name", ["gfsl", "skip-zombie-recheck@4"])
def test_overflow_verdicts_match(monkeypatch, name, max_visits):
    """Lowered budgets overflow main checks (net-effect fallback) and
    snapshot queries (the whole-history search); every verdict and
    ``fallback_keys`` still match the oracle."""
    events, initial, final, snapshots = recorded(name)
    monkeypatch.setattr(linearize, "MAX_VISITS", max_visits)
    whole = []
    real = linearize._KeyTable._search_whole

    def spy(self, t, want):
        whole.append(self.fwd is not None)
        return real(self, t, want)

    monkeypatch.setattr(linearize._KeyTable, "_search_whole", spy)
    for obs in (snapshots, flipped(snapshots)):
        ref = assert_same(events, initial, final, obs)
    assert ref.fallback_keys > 0
    if max_visits >= 8:
        # Some keys keep their tables, and some of their snapshot
        # queries overflow anyway.
        assert ref.fallback_keys < ref.checked_keys
        assert any(whole)


def _alternation(n):
    """``n`` sequential one-event groups on key 1 (insert, delete, …)
    with a contains that the exact search rejects but the net-effect
    fallback cannot see."""
    events = [E("insert" if i % 2 == 0 else "delete", 1, True,
                10 * i, 10 * i + 2) for i in range(n)]
    events.append(E("contains", 1, True, 10 * n, 10 * n + 2))
    return events


@pytest.mark.parametrize("slack, overflows", [(0, True), (1, False)])
def test_singleton_groups_spend_one_visit_each(monkeypatch, slack,
                                               overflows):
    """All groups are singletons: the main check spends exactly one
    visit per group, so it overflows at ``MAX_VISITS`` = group count
    and not at one more — as the search did."""
    events = _alternation(6)
    groups = len(linearize._overlap_groups(events))
    assert groups == len(events) == 7
    monkeypatch.setattr(linearize, "MAX_VISITS", groups + slack)
    snapshots = [S({1}, 3, 7), S((), 21, 29), S({1}, 0, 100), S({1}, 65, 66)]
    ref = assert_same(events, [], [], snapshots)
    assert ref.fallback_keys == (1 if overflows else 0)
    assert bool(ref.violations) is not overflows


# ---------------------------------------------------------------------------
# Edges of the array pass
# ---------------------------------------------------------------------------

def _singles(n):
    """``n`` one-event groups on key 1 (insert, delete, …) ending absent
    or present, plus key 9 in prefill, never operated on."""
    events = [E("insert" if i % 2 == 0 else "delete", 1, True,
                10 * i, 10 * i + 2) for i in range(n)]
    return events, [9], [1, 9] if n % 2 else [9]


@pytest.mark.parametrize("below", [2, 1, 0])
def test_one_event_groups_at_the_visit_budget(monkeypatch, below):
    """Array-replayed up to ``MAX_VISITS - 2`` events; from one more, a
    snapshot query between groups can reach the budget, so the key is
    searched and its quiet reads take the whole-history search."""
    monkeypatch.setattr(linearize, "MAX_VISITS", 10)
    events, initial, final = _singles(10 - below)
    hist = linearize._History(events, set(initial), set(final))
    assert hist.simple.tolist() == [below == 2]
    quiet = [S(ks, 10 * i + 4, 10 * i + 7) for i in range(len(events))
             for ks in ({9}, {1, 9})]
    noisy = [S({1, 9}, 10 * i + 1, 10 * i + 11) for i in range(3)]
    for snaps in (quiet + noisy, flipped(quiet)):
        ref = assert_same(events, initial, final, snaps)
        assert ref.snapshot_violations
    last = events[-1]
    assert_same(events[:-1] + [replace(last, result=False)], initial, final,
                quiet)


def test_inverted_windows_on_one_event_groups():
    """A window whose start is after its end is judged at its start
    alone, by the tables: here inside the second insert's span."""
    events = [E("insert", 3, True, 0, 2), E("delete", 3, True, 4, 6),
              E("insert", 3, True, 8, 12)]
    snaps = [S(ks, a, b) for ks in ((), {3})
             for a, b in ((9, 7), (5, 1), (13, 12), (3, 0), (30, 20))]
    ref = assert_same(events, [], [3], snaps)
    assert ref.snapshot_violations and len(ref.snapshot_violations) < 10


@pytest.mark.parametrize("seen, window", [
    ((), (5, 1)), ((), (20, 25)), ((), (2, 2)), ({3}, (7, 10))])
def test_quiet_violation_behind_a_rescued_key(seen, window):
    """Key 3's read is feasible only on the far side of an event the
    window starts inside, or whose end or start it touches; key 4 is
    plainly infeasible.  The quiescent-window violation must still name
    key 4."""
    events = [E("insert", 3, True, 0, 2), E("delete", 3, True, 4, 6),
              E("insert", 3, True, 10, 20), E("insert", 4, True, 0, 1)]
    ref = assert_same(events, [], [3, 4], [S(seen, *window)])
    assert ref.snapshot_violations[0].detail.startswith("key 4:")


def test_response_before_invocation_keeps_the_search(monkeypatch):
    """An event stamped as responding before its invocation sends its
    key to the tables, which give what they gave before the array pass:
    the report equals one with every key searched."""
    events = [E("delete", 1, False, 1, -2), E("contains", 1, False, 4, 2),
              E("insert", 1, True, 8, 2)]
    snaps = [S((), 4, 3), S((), 10, 10), S({1}, 1, -1), S({1}, 4, 4),
             S({1}, 8, 6), S({1}, 1, 2)]
    got = fingerprint(check_history(events, [], [1], snapshots=snaps))
    monkeypatch.setattr(linearize, "_OP_CODES", {})
    assert got == fingerprint(check_history(events, [], [1],
                                            snapshots=snaps))


@pytest.mark.parametrize("stray", [2, 7, 40])
def test_stray_key_against_other_mismatches(stray):
    """The smallest key of the window that no op touched and prefill
    contradicts wins, whether it is stray or never operated on; a
    dynamic key's violation comes only after both."""
    events = [E("insert", 5, True, 0, 2), E("contains", 30, True, 0, 2)]
    snaps = [S({stray, 5}, 10, 12, lo=1, hi=50),          # 10 missing
             S({stray, 10}, 10, 12, lo=1, hi=50),         # 5 infeasible
             S({stray, 5, 10, 30}, 10, 12, lo=1, hi=50),
             S({stray}, 10, 12, lo=stray, hi=stray)]
    ref = assert_same(events, [10, 30], [5, 10, 30], snaps)
    assert len(ref.snapshot_violations) == 4
    assert f"key {min(stray, 10)}:" in str(ref.snapshot_violations[0])


def test_leaked_key_inside_windows():
    """A key whose presence changed with no op is a main-check violation
    and, in a window, judged by its prefill state."""
    events = [E("insert", 5, True, 0, 2)]
    snaps = [S({5, 8}, 4, 6), S({5}, 4, 6), S({5}, 4, 6, lo=6, hi=9),
             S({5, 8}, 4, 6, lo=8, hi=8), S((), 4, 6, lo=7, hi=9)]
    ref = assert_same(events, [8], [5], snaps)
    assert [v.key for v in ref.violations] == [8]
    ref = assert_same(events, [], [5, 8], snaps)
    assert [v.key for v in ref.violations] == [8]


def test_windows_without_universe_keys():
    events = [E("insert", 5, True, 0, 2)]
    snaps = [S((), 4, 6, lo=100, hi=200), S({150}, 4, 6, lo=100, hi=200),
             S({5}, 4, 6, lo=6, hi=4), S((), 4, 6, lo=6, hi=4),
             S({5}, 4, 6, lo=5, hi=5)]
    ref = assert_same(events, [], [5], snaps)
    assert [str(v) for v in ref.snapshot_violations] == [
        "snapshot [4, 6] (1 keys): key 150: snapshot says True, but the "
        "key was never operated on and prefill says False"]
    assert_same([], [], [], snaps)
    assert_same([], [5], [5], snaps)


@pytest.mark.parametrize("snapshots", [[], None])
def test_no_snapshots(snapshots):
    events, initial, final = _singles(5)
    ref = assert_same(events, initial, final, snapshots)
    assert ref.snapshots_checked == 0 and ref.ok


def _same_error(events, initial, final, snapshots=None):
    with pytest.raises(ValueError) as got:
        check_history(events, initial, final, snapshots=snapshots)
    with pytest.raises(ValueError) as want:
        oracle.check_history(events, initial, final, snapshots=snapshots)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_unknown_op_raises_the_same_error():
    upsert = [E("insert", 2, True, 0, 1), E("upsert", 2, True, 5, 6)]
    assert _same_error(upsert, [], [2]) == "unknown operation 'upsert'"
    # The first key (by first event) that replays one raises.
    both = [E("merge", 7, True, 0, 1)] + upsert
    assert _same_error(both, [], [2], [S({2}, 2, 3)]) == (
        "unknown operation 'merge'")
    # One an inconsistent event cuts off is never replayed.
    cut = [E("contains", 2, True, 0, 1), E("upsert", 2, True, 5, 6),
           E("insert", 3, True, 0, 9)]
    ref = assert_same(cut, [], [2, 3], [S({2, 3}, 2, 3), S((), 7, 8)])
    assert [v.key for v in ref.violations] == [2]


@st.composite
def serve_mutations(draw):
    """The recorded elastic ``pq@4`` campaign with some observations
    mutated (a window key flipped, or a stray key added) and some
    event results flipped."""
    events, initial, final, snapshots = recorded("serve-pq@4")
    snaps = list(snapshots)
    universe = sorted(set(initial) | set(final) | {e.key for e in events})
    for i in draw(st.lists(st.integers(0, len(snaps) - 1), max_size=4)):
        obs = snaps[i]
        if draw(st.booleans()):
            window = [k for k in universe if obs.lo <= k <= obs.hi]
            key = draw(st.sampled_from(window or [obs.lo]))
        else:
            key = draw(st.integers(obs.lo, obs.hi))
            key = key if key not in universe else obs.hi + 1
        snaps[i] = replace(obs, keys=obs.keys ^ {key})
    events = list(events)
    for i in draw(st.lists(st.integers(0, len(events) - 1), max_size=3)):
        events[i] = replace(events[i], result=not events[i].result)
    return events, initial, final, snaps


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(serve_mutations())
def test_mutated_serve_campaign(history):
    assert_same(*history)
