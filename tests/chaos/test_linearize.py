"""Unit tests for the linearizability checker (repro.chaos.linearize).

The checker is exercised three ways: hand-built histories with known
verdicts (including ones only the real-time order or the final state
can reject), histories past the size where a naive exact search would
explode (overlap-group pruning keeps them exact), and forced-overflow
histories that must fall back to the net-effect condition *visibly*
(``fallback_keys``).
"""

from __future__ import annotations

import pytest

from repro.chaos import linearize
from repro.chaos.linearize import (HistoryEvent, HistoryRecorder,
                                   _net_effect_ok, _overlap_groups,
                                   check_history, check_key_history)


def E(op: str, result: bool, start: int, end: int,
      key: int = 1) -> HistoryEvent:
    return HistoryEvent(op, key, result, start, end)


class TestCheckerVerdicts:
    def test_accepts_sequential_history(self):
        evs = [E("insert", True, 0, 1), E("delete", True, 2, 3)]
        assert check_key_history(evs, initial=False, final=False)

    def test_rejects_impossible_result(self):
        # Two successful inserts with no delete between them.
        evs = [E("insert", True, 0, 1), E("insert", True, 2, 3)]
        assert not check_key_history(evs, initial=False, final=True)

    def test_overlapping_ops_allow_reorder(self):
        # A contains overlapping an insert may see either state.
        evs = [E("insert", True, 0, 10), E("contains", False, 1, 2)]
        assert check_key_history(evs, False, True)
        evs2 = [E("insert", True, 0, 10), E("contains", True, 5, 9)]
        assert check_key_history(evs2, False, True)

    def test_real_time_order_enforced(self):
        # A contains strictly after a successful insert must see it.
        evs = [E("insert", True, 0, 1), E("contains", False, 5, 6)]
        assert not check_key_history(evs, False, True)

    def test_final_state_enforced(self):
        evs = [E("insert", True, 0, 1)]
        assert not check_key_history(evs, False, False)

    def test_empty_history_checks_state_only(self):
        assert check_key_history([], True, True)
        assert not check_key_history([], True, False)

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            check_key_history([E("upsert", True, 0, 1)], False, True)


class TestOverlapGroups:
    def test_quiescent_point_cuts(self):
        evs = [E("insert", True, 0, 5), E("delete", True, 10, 15),
               E("contains", False, 12, 14)]
        assert [len(g) for g in _overlap_groups(evs)] == [1, 2]

    def test_chained_overlap_stays_one_group(self):
        # b overlaps a, c overlaps b but not a: still one group (no
        # quiescent instant separates them).
        evs = [E("insert", True, 0, 10), E("contains", True, 5, 20),
               E("delete", True, 15, 30)]
        assert [len(g) for g in _overlap_groups(evs)] == [3]

    def test_touching_intervals_share_a_group(self):
        # end == next start is not quiescent (the cut needs strict >).
        evs = [E("insert", True, 0, 5), E("contains", True, 5, 8)]
        assert [len(g) for g in _overlap_groups(evs)] == [2]

    def test_real_time_enforced_across_groups(self):
        # Group 1 ends with the key present; group 2's contains cannot
        # report absent.
        evs = [E("insert", True, 0, 1), E("contains", False, 5, 6)]
        assert not check_key_history(evs, False, True)


class TestLargeHistories:
    """Histories past any small exact-search cap: per-group pruning
    keeps the check exact for campaign-sized per-key histories."""

    def test_long_sequential_alternation(self):
        evs, t = [], 0
        for i in range(60):
            evs.append(E("insert" if i % 2 == 0 else "delete", True,
                         t, t + 1))
            t += 2
        assert check_key_history(evs, False, False)
        assert not check_key_history(evs, False, True)

    def test_wide_overlap_group_exact(self):
        # 13 fully-overlapping ops: the memoized search stays in budget.
        evs = ([E("contains", False, 0, 100) for _ in range(6)]
               + [E("contains", True, 0, 100) for _ in range(6)]
               + [E("insert", True, 0, 100)])
        assert check_key_history(evs, False, True)


class TestNetEffectFallback:
    def test_net_effect_condition(self):
        one = lambda op, res: E(op, res, 0, 1)  # noqa: E731
        assert _net_effect_ok([one("insert", True)], False, True)
        assert not _net_effect_ok([one("insert", True)], False, False)
        assert _net_effect_ok([one("insert", True), one("delete", True)],
                              False, False)
        assert not _net_effect_ok([one("insert", True), one("insert", True)],
                                  False, True)
        assert _net_effect_ok([one("delete", True)], True, False)
        assert not _net_effect_ok([one("delete", True), one("delete", True)],
                                  True, False)
        # Failed ops do not move the register.
        assert _net_effect_ok([one("insert", False)] * 5, True, True)

    def test_overflow_falls_back_and_is_reported(self, monkeypatch):
        monkeypatch.setattr(linearize, "MAX_VISITS", 50)
        evs = [E("contains", False, 0, 100, key=3) for _ in range(12)]
        report = check_history(evs, initial_keys=[], final_keys=[])
        assert report.ok
        assert report.fallback_keys == 1

    def test_overflow_fallback_still_rejects(self, monkeypatch):
        monkeypatch.setattr(linearize, "MAX_VISITS", 50)
        evs = ([E("contains", False, 0, 100, key=3) for _ in range(12)]
               + [E("insert", True, 0, 100, key=3),
                  E("insert", True, 0, 100, key=3)])
        report = check_history(evs, initial_keys=[], final_keys=[3])
        assert not report.ok
        assert report.fallback_keys == 1
        assert len(report.violations) == 1


class TestCheckHistory:
    def test_recorder_round_trip(self):
        r = HistoryRecorder()
        r.record("insert", 5, 1, 0, 2)       # result coerced to bool
        r.record("contains", 5, True, 3, 4)
        r.record("delete", 9, False, 0, 1)   # fails: 9 never present
        assert len(r) == 3
        assert [e.key for e in r.events] == [5, 5, 9]
        assert r.events[0].result is True

        report = check_history(r, initial_keys=[], final_keys=[5])
        assert report.ok, report.summary()
        assert report.checked_keys == 2 and report.events == 3
        assert "linearizable" in report.summary()

    def test_leaked_key_without_events_is_a_violation(self):
        # Key 5 vanished although nothing ever operated on it.
        report = check_history([], initial_keys=[5], final_keys=[])
        assert not report.ok
        assert [v.key for v in report.violations] == [5]

    def test_violations_are_per_key(self):
        evs = [E("contains", True, 0, 1, key=7),    # impossible: absent
               E("insert", True, 0, 1, key=8)]
        report = check_history(evs, initial_keys=[], final_keys=[8])
        assert not report.ok
        assert [v.key for v in report.violations] == [7]
        text = str(report.violations[0])
        assert "key 7" in text and "contains(7) -> True" in text
        assert "NOT linearizable" in report.summary()
