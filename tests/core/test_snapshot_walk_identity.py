"""The two-phase frozen walk of ``GFSLSnapshot`` against the
chunk-at-a-time oracle in ``chunk_walk``.

Twin structures run the same plan: inserts and deletes driven one
device step at a time, snapshots pinned before the plan (old pins, read
through retained versions) and mid-operation (fresh pins, whose frozen
chains hold zombies, merge targets and split duplicates).  One twin
reads through the walk, the other through the oracle.  The twins must
agree on every snapshot ``range_query``, ``items`` and ``keys`` result
and every instance's ``range_query`` (the migration executor's source
read), every ``TraceStats`` field, each L2 set's lines and LRU order,
the TLB order and device memory.  Team sizes 8, 16 and 32 run on one
``GFSL``; ``ShardedSnapshot`` runs on ``gfsl@4`` and ``pq@4`` under
range and hash routing.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GFSL, EpochManager, EpochNotRetained, GFSLSnapshot
from repro.core import constants as C
from repro.engine import make_structure
from repro.workloads import MIX_10_10_80, generate
from tests.core import chunk_walk as oracle
from tests.core.test_snapshot import Stepper

KEY_RANGE = 400
#: Fresh pins kept live at once (older ones are released, so versions
#: are reclaimed while the plan runs).
MAX_FRESH = 3


@contextmanager
def oracle_walk():
    """Route every frozen read through the oracle."""
    with mock.patch.object(GFSLSnapshot, "range_query", oracle.range_query), \
            mock.patch.object(GFSLSnapshot, "items", oracle.items), \
            mock.patch.object(GFSLSnapshot, "keys", oracle.keys):
        yield


@dataclass(frozen=True)
class Plan:
    prefill: tuple[int, ...]
    ops: tuple[tuple[bool, int, int], ...]    # (insert?, key, pin step)
    windows: tuple[tuple[int, int], ...]


def build_gfsl(team: int):
    return lambda: GFSL(capacity_chunks=512, team_size=team, seed=1)


def build_sharded(kind: str, routing: str, team: int):
    wl = generate(MIX_10_10_80, key_range=KEY_RANGE, n_ops=16, seed=3)
    return lambda: make_structure(kind, wl, seed=3, team_size=team,
                                  partitioner=routing)


def _instances(sm):
    return getattr(sm, "shards", [sm])


def drive(sm, plan: Plan) -> list:
    """Run ``plan`` on ``sm``; every op result and frozen read, in
    order."""
    out: list = []
    tracer = sm.ctx.tracer
    for k in plan.prefill:
        sm.insert(k, value=k + 1)
    old = sm.begin_snapshot()
    fresh: list = []

    def read():
        for snap in (old, *fresh):
            frozen = snap.items(tracer=tracer)
            out.append(frozen)
            out.append(snap.keys(tracer=tracer))
            # Windows ending on frozen keys end on chunk maxes too.
            ends = [k for k, _ in frozen[1::max(1, len(frozen) // 4)]]
            for lo, hi in (*plan.windows, *((C.MIN_USER_KEY, k)
                                            for k in ends)):
                out.append(snap.range_query(lo, hi, tracer=tracer))
        for inst in _instances(sm):
            for lo, hi in plan.windows:
                if lo <= hi:
                    out.append(inst.range_query(lo, hi))

    for insert, key, pin_at in plan.ops:
        gen = (sm.insert_gen(key, value=key * 7 + 2) if insert
               else sm.delete_gen(key))
        stepper = Stepper(sm, gen)
        steps = 0
        while not stepper.done:
            stepper.step()
            steps += 1
            if steps == pin_at:
                fresh.append(sm.begin_snapshot())
                if len(fresh) > MAX_FRESH:
                    fresh.pop(0).release()
                read()
        out.append(stepper.value)
    read()
    for snap in (old, *fresh):
        snap.release()
    return out


def fingerprint(sm, out) -> dict:
    t = sm.ctx.tracer
    mgr = sm.ctx.epochs
    return {
        "out": out,
        "stats": {f.name: getattr(t.stats, f.name)
                  for f in fields(t.stats)},
        "l2_stats": (t.l2.stats.hits, t.l2.stats.misses),
        "l2": [list(s) for s in t.l2._sets],
        "tlb": list(t._tlb),
        "mem": sm.ctx.mem.raw().tobytes(),
        "epochs": (mgr.epoch, mgr.retained, mgr.reclaimed),
        "splits_merges": (sm.metrics.splits, sm.metrics.merges),
    }


def assert_twins_agree(build, plan: Plan) -> dict:
    a = build()
    got = fingerprint(a, drive(a, plan))
    b = build()
    with oracle_walk():
        want = fingerprint(b, drive(b, plan))
    assert got.keys() == want.keys()
    for part in want:
        assert got[part] == want[part], part
    assert want["stats"]["coalesced_accesses"] > 0
    return want


# ---------------------------------------------------------------------------
# Hypothesis plans
# ---------------------------------------------------------------------------

keys = st.integers(C.MIN_USER_KEY, KEY_RANGE)


@st.composite
def plans(draw, max_ops=10):
    prefill = draw(st.lists(keys, max_size=90, unique=True))
    ops = draw(st.lists(st.tuples(st.booleans(), keys,
                                  st.integers(0, 30)),
                        min_size=1, max_size=max_ops))
    windows = draw(st.lists(st.tuples(keys, keys), min_size=1,
                            max_size=4))
    return Plan(tuple(prefill), tuple(ops), tuple(windows))


@settings(max_examples=80, deadline=None)
@given(team=st.sampled_from([8, 16, 32]), plan=plans())
def test_gfsl_walk_matches_oracle(team, plan):
    assert_twins_agree(build_gfsl(team), plan)


@pytest.mark.parametrize("routing", ["range", "hash"])
@pytest.mark.parametrize("kind", ["gfsl@4", "pq@4"])
@settings(max_examples=5, deadline=None)
@given(plan=plans(max_ops=6))
def test_sharded_walk_matches_oracle(kind, routing, plan):
    assert_twins_agree(build_sharded(kind, routing, 8), plan)


# ---------------------------------------------------------------------------
# Fixed plans that surely reach every transient
# ---------------------------------------------------------------------------

def churn_plan(team: int) -> Plan:
    """Fill a few chunks, split them with interleaved inserts, then drain
    most keys so chunks merge into zombies; pin inside every other op."""
    dsize = team - 2
    n = 4 * dsize
    evens = tuple(range(2, 2 * n + 1, 2))
    ops = [(True, k, 4 + i % 9 if i % 3 == 0 else 0)
           for i, k in enumerate(range(1, 2 * n, 2))]
    ops += [(False, k, 3 + i % 11 if i % 2 else 0)
            for i, k in enumerate(range(1, 2 * n - dsize))]
    return Plan(evens, tuple(ops), ((1, n // 2), (n // 3, n), (5, 4)))


@pytest.mark.parametrize("build, team", [
    (build_gfsl(8), 8), (build_gfsl(16), 16), (build_gfsl(32), 32),
    (build_sharded("gfsl@4", "hash", 8), 8),
    (build_sharded("pq@4", "range", 8), 8)],
    ids=["gfsl-8", "gfsl-16", "gfsl-32", "gfsl@4-hash", "pq@4-range"])
def test_churn_matches_oracle_through_every_transient(build, team):
    zombies = []
    retained = []
    is_zombie = oracle.is_zombie
    retained_image = EpochManager.retained_image

    def spy_zombie(kvs, geo):
        zombies.append(is_zombie(kvs, geo))
        return zombies[-1]

    def spy_image(self, domain, block, epoch):
        image = retained_image(self, domain, block, epoch)
        retained.append(image is not None)
        return image

    with mock.patch.object(oracle, "is_zombie", spy_zombie), \
            mock.patch.object(EpochManager, "retained_image", spy_image):
        want = assert_twins_agree(build, churn_plan(team))
    splits, merges = want["splits_merges"]
    assert splits > 0
    assert merges > 0
    assert any(zombies), "no frozen chain held a zombie"
    assert any(retained), "no read went through a retained version"


def test_window_ending_on_every_prefilled_key():
    """``hi`` on every prefilled key, so on every chunk max the splits
    leave: where the chase stops is visible in the tracer."""
    churn = churn_plan(8)
    plan = Plan(churn.prefill, churn.ops[:12],
                tuple((C.MIN_USER_KEY, k) for k in churn.prefill))
    assert_twins_agree(build_gfsl(8), plan)


# ---------------------------------------------------------------------------
# An epoch no pin held
# ---------------------------------------------------------------------------

def test_unpinned_epoch_view_after_write_raises():
    sl = GFSL(capacity_chunks=64, team_size=8, seed=1)
    for k in range(10, 60, 10):
        sl.insert(k)
    mgr = sl.ctx.epochs
    held = sl.begin_snapshot()          # keeps the write barrier on
    sl.insert(15)                       # first write after the pin
    unpinned = mgr.epoch
    with sl.begin_snapshot():
        pass                            # advance past `unpinned`
    sl.insert(16)                       # rewrite, never retained
    view = sl.snapshot_view(unpinned)
    with pytest.raises(EpochNotRetained,
                       match="no retained version covers epoch"):
        view.items()
    assert held.items() == [(k, 0) for k in range(10, 60, 10)]
    held.release()
