"""``InterleavingScheduler.run`` against the pre-dispatch loop in
``isinstance_scheduler``: identical ``TaskResult``s (values, step
counts, start/end stamps), ``TraceStats``, L2 per-set LRU order, TLB
order and ``mem.raw()`` -- round-robin and seeded-shuffle, on programs
drawing every event kind (out-of-bounds accesses included) and on
GFSL and M&C operation waves with contended keys.  The warp executor's
scattered loads, which share ``access_gather`` with ``GatherRead``,
are checked against their old accounting too.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import make_structure
from repro.engine.interface import op_generator
from repro.gpu import events as ev
from repro.gpu.device import DeviceConfig
from repro.gpu.memory import GlobalMemory
from repro.gpu.scheduler import InterleavingScheduler
from repro.gpu.tracer import TransactionTracer
from repro.gpu.warp import WarpExecutor
from repro.workloads import MIX_10_10_80
from repro.workloads.generator import Workload
from tests.gpu import isinstance_scheduler as oracle

# 4 sets x 2 ways of 16-word lines, and a 4-entry TLB over 64-word
# pages: the programs below evict from both constantly.
TINY = replace(DeviceConfig.gtx970(), l2_bytes=8 * 128, l2_assoc=2,
               tlb_page_bytes=512, tlb_entries=4)
MEM_WORDS = 300


def _state(mem, t):
    return (mem.raw().tolist(), t.stats,
            (t.l2.stats.hits, t.l2.stats.misses),
            [list(s) for s in t.l2._sets], list(t._tlb))


def _plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


addr = st.integers(-2, MEM_WORDS + 1)
word = st.integers(0, 7)
events = st.one_of(
    st.builds(ev.ChunkRead, addr, st.integers(1, 34)),
    st.builds(ev.ChunkWrite, addr,
              st.lists(word, min_size=1, max_size=20).map(tuple)),
    st.builds(ev.WordRead, addr),
    st.builds(ev.WordWrite, addr, word),
    st.builds(ev.WordCAS, addr, word, word),
    st.builds(ev.AtomicAdd, addr, word),
    st.builds(ev.AtomicExch, addr, word),
    st.builds(ev.Compute, st.integers(1, 3), st.booleans()),
    st.builds(ev.SpillAccess, st.integers(1, 3)),
    st.builds(ev.GatherRead,
              st.lists(st.integers(0, MEM_WORDS - 1), max_size=12)
              .map(tuple)),
)


def program(evs):
    """Yield ``evs``; return every value sent back."""
    got = []
    for e in evs:
        got.append(_plain((yield e)))
    return got


def _outcome(run):
    try:
        return [(r.task_id, r.value, r.steps, r.start_step, r.end_step)
                for r in run()]
    except (IndexError, ValueError) as exc:
        return (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(tasks=st.lists(st.lists(events, max_size=12), max_size=6),
       seed=st.one_of(st.none(), st.integers(0, 2**16)),
       traced=st.booleans())
def test_event_programs_match_oracle(tasks, seed, traced):
    mems = [GlobalMemory(MEM_WORDS) for _ in range(2)]
    tracers = [TransactionTracer(TINY) if traced else None
               for _ in range(2)]

    def new():
        sched = InterleavingScheduler(mems[0], tracers[0], seed=seed)
        for evs in tasks:
            sched.spawn(program(evs))
        return sched.run()

    def ref():
        return oracle.run([program(evs) for evs in tasks], mems[1],
                          tracers[1], seed=seed)

    assert _outcome(new) == _outcome(ref)
    if traced:
        assert _state(mems[0], tracers[0]) == _state(mems[1], tracers[1])
    else:
        assert mems[0].raw().tolist() == mems[1].raw().tolist()


@st.composite
def waves(draw):
    key_range = 120
    prefill = draw(st.lists(st.integers(1, key_range), max_size=60,
                            unique=True))
    n = draw(st.integers(1, 40))
    ops = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    keys = draw(st.lists(st.integers(1, key_range), min_size=n, max_size=n))
    return Workload(key_range=key_range, mixture=MIX_10_10_80,
                    prefill=np.asarray(prefill, dtype=np.int64),
                    ops=np.asarray(ops, dtype=np.int64),
                    keys=np.asarray(keys, dtype=np.int64),
                    values=np.arange(1, n + 1, dtype=np.int64))


@pytest.mark.parametrize("kind,team_size", [("gfsl", 8), ("gfsl", 32),
                                            ("mc", 32)])
@settings(max_examples=25, deadline=None)
@given(wl=waves(), seed=st.one_of(st.none(), st.integers(0, 2**16)))
def test_structure_waves_match_oracle(kind, team_size, wl, seed):
    sts = [make_structure(kind, wl, seed=0, team_size=team_size)
           for _ in range(2)]

    def gens(st_):
        return [op_generator(st_, int(o), int(k), int(v))
                for o, k, v in zip(wl.ops, wl.keys, wl.values)]

    sched = InterleavingScheduler(sts[0].ctx.mem, sts[0].ctx.tracer,
                                  seed=seed)
    for g in gens(sts[0]):
        sched.spawn(g)
    got = sched.run()
    want = oracle.run(gens(sts[1]), sts[1].ctx.mem, sts[1].ctx.tracer,
                      seed=seed)
    assert got == want
    assert _state(sts[0].ctx.mem, sts[0].ctx.tracer) \
        == _state(sts[1].ctx.mem, sts[1].ctx.tracer)


@settings(max_examples=200, deadline=None)
@given(groups=st.lists(st.lists(st.integers(0, MEM_WORDS - 1), min_size=1,
                                max_size=32), min_size=1, max_size=8))
def test_warp_scattered_loads_match_oracle(groups):
    """Each group is one lockstep step of ``WordRead`` lanes."""
    mems = [GlobalMemory(MEM_WORDS) for _ in range(2)]
    tracers = [TransactionTracer(TINY) for _ in range(2)]
    wx = WarpExecutor(mems[0], tracers[0])
    want_tx = 0
    for addrs in groups:
        wx.run_warp([program([ev.WordRead(a)]) for a in addrs])
        want_tx += oracle.warp_loads(tracers[1], addrs)
    assert wx.stats.warp_transactions == want_tx
    assert _state(mems[0], tracers[0]) == _state(mems[1], tracers[1])
