"""Judging snapshot observations in chaos campaigns (DESIGN.md §13).

A :class:`SnapshotObservation` is consistent iff some single instant
inside its pin window admits a legal linearization in which every
relevant key's presence matches the observed frozen cut.  The unit
cases pin the checker's semantics on hand-built histories (including a
torn cut it *must* reject); the campaign tests then run the full
fault-injected torture workloads with frozen readers racing writers.
"""

import pytest

from repro.chaos import SnapshotObservation, check_history
from repro.chaos import ChaosHooks
from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.chaos.linearize import HistoryEvent
import repro.engine.backends
from repro.engine import (InterleavedBackend, OpBatch, make_backend,
                          make_structure)
from repro.workloads import MIX_10_10_80, generate


def judge(events, initial, final, obs):
    return check_history(events, initial, final, snapshots=list(obs))


class TestSnapshotChecker:
    def test_insert_overlap_admits_both_states(self):
        ev = [HistoryEvent("insert", 5, True, 10, 20)]
        for keys in (frozenset(), frozenset({5})):
            rep = judge(ev, [], [5], [SnapshotObservation(keys, 12, 18)])
            assert rep.ok and rep.snapshots_checked == 1, keys

    def test_window_before_insert_must_not_see(self):
        ev = [HistoryEvent("insert", 5, True, 10, 20)]
        ok = judge(ev, [], [5], [SnapshotObservation(frozenset(), 0, 4)])
        assert ok.ok
        bad = judge(ev, [], [5], [SnapshotObservation(frozenset({5}), 0, 4)])
        assert not bad.ok and len(bad.snapshot_violations) == 1
        assert bad.snapshot_violations[0].snapshot.keys == frozenset({5})

    def test_window_after_insert_must_see(self):
        ev = [HistoryEvent("insert", 5, True, 10, 20)]
        assert judge(ev, [], [5],
                     [SnapshotObservation(frozenset({5}), 30, 40)]).ok
        assert not judge(ev, [], [5],
                         [SnapshotObservation(frozenset(), 30, 40)]).ok

    def test_torn_cut_across_sequenced_keys_rejected(self):
        """Key 1 inserted strictly before key 2: a cut containing 2 but
        not 1 corresponds to no instant."""
        ev = [HistoryEvent("insert", 1, True, 0, 4),
              HistoryEvent("insert", 2, True, 10, 14)]
        rep = judge(ev, [], [1, 2],
                    [SnapshotObservation(frozenset({2}), 0, 20)])
        assert not rep.ok
        assert "instant" in rep.snapshot_violations[0].detail

    def test_all_prefixes_of_sequenced_inserts_accepted(self):
        ev = [HistoryEvent("insert", 1, True, 0, 4),
              HistoryEvent("insert", 2, True, 10, 14)]
        for keys in (frozenset(), frozenset({1}), frozenset({1, 2})):
            rep = judge(ev, [], [1, 2],
                        [SnapshotObservation(keys, 0, 20)])
            assert rep.ok, keys

    def test_untouched_key_checked_statically(self):
        ev = [HistoryEvent("insert", 9, True, 0, 4)]
        rep = judge(ev, [3], [3, 9],
                    [SnapshotObservation(frozenset({9}), 10, 12)])
        assert not rep.ok                      # 3 was live the whole time
        assert "never operated on" in rep.snapshot_violations[0].detail
        assert judge(ev, [3], [3, 9],
                     [SnapshotObservation(frozenset({3, 9}), 10, 12)]).ok

    def test_lo_hi_scopes_the_judgement(self):
        """Keys outside [lo, hi] are not part of the observation."""
        ev = [HistoryEvent("insert", 100, True, 0, 4)]
        rep = judge(ev, [3], [3, 100],
                    [SnapshotObservation(frozenset({3}), 10, 12,
                                         lo=1, hi=50)])
        assert rep.ok

    def test_overlapping_insert_and_delete_admit_either(self):
        ev = [HistoryEvent("insert", 7, True, 0, 10),
              HistoryEvent("delete", 7, True, 5, 15)]
        for keys in (frozenset(), frozenset({7})):
            assert judge(ev, [], [], [SnapshotObservation(keys, 6, 9)]).ok


class TestChaosBackendReaders:
    def test_snapshot_readers_require_per_op_commit(self, monkeypatch):
        """Readers under ``execute_batch(commit="batch")`` would read the
        pre-batch cut by design, which the per-op checker flags: the
        run is refused before any op runs."""
        wl = generate(MIX_10_10_80, key_range=60, n_ops=40, seed=1)
        sl = make_structure("gfsl", wl)

        def no_op_may_run(*args, **kwargs):
            raise AssertionError("an op ran under a refused commit")

        monkeypatch.setattr(repro.engine.backends, "op_generator",
                            no_op_may_run)
        for be in (InterleavedBackend(seed=1,
                                      chaos=ChaosHooks(snapshot_readers=2)),
                   make_backend("interleaved-chaos", seed=1,
                                snapshot_readers=2)):
            with pytest.raises(ValueError, match="per-op"):
                sl.execute_batch(OpBatch.from_workload(wl), backend=be,
                                 commit="batch")
        assert not sl.ctx.epochs.committing
        assert sl.ctx.epochs.active_pins == 0

    def test_commit_guard_creates_no_epoch_manager(self):
        wl = generate(MIX_10_10_80, key_range=60, n_ops=40, seed=1)
        sl = make_structure("gfsl", wl)
        make_backend("interleaved-chaos", seed=1).execute(
            sl, OpBatch.from_workload(wl))
        assert sl.ctx._epochs is None

    def test_small_campaign_records_observations(self):
        rep = run_campaign(CampaignConfig(n_ops=400, key_range=60,
                                          seed=11, snapshots=2))
        assert rep.ok, rep.summary()
        assert rep.lin.snapshots_checked > 0
        assert not rep.lin.snapshot_violations


class TestTortureCampaigns:
    """The acceptance gate: ≥10k-op fault-injected campaigns whose
    every frozen observation the checker proves is a consistent cut —
    on a single instance and across a 4-shard partitioned map."""

    def test_10k_ops_gfsl_snapshots_consistent(self):
        rep = run_campaign(CampaignConfig(n_ops=10_000, key_range=120,
                                          seed=5, snapshots=2))
        assert rep.ok, rep.summary()
        assert rep.lin.snapshots_checked >= 100
        assert not rep.lin.snapshot_violations

    def test_10k_ops_sharded_cut_consistent(self):
        rep = run_campaign(CampaignConfig(n_ops=10_000, key_range=120,
                                          seed=6, snapshots=1,
                                          structure="gfsl@4"))
        assert rep.ok, rep.summary()
        assert rep.lin.snapshots_checked >= 100
        assert not rep.lin.snapshot_violations
