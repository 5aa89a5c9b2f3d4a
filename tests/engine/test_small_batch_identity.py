"""The two lock-step traversal paths of ``repro.core.vector`` against
each other: every kernel call is run once with ``_SMALL_BATCH`` = 0
(every call on numpy rows) and once with it above any call size (every
call on Python ints), on twin structures.  The runs must agree on
results, ``paths``, ``upper``, fallback order, ``last_call_diag``, the
tracer's call sequence and ``TraceStats``, L2 and TLB contents, the
``MetricsCollector`` counters (the traversal steps each path counts for
the rows it reads included) and ``mem.raw()``.

The inputs are the kernel corpus of ``test_vector.py`` and
``test_vector_update.py``, sharded owners with unequal head heights
(``gfsl@4``, ``pq@4``), crafted zombie structures that take the
descent zombie skip, the bottom-level zombie step and the backtrack
through ``prev``, and a corrupted structure whose walks fall back by
both backtrack and restart.
"""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core import vector
from repro.core.validate import level_chain, structure_height
from repro.engine import OpBatch, make_backend, make_structure
from repro.engine.batch import OP_DELETE, OP_INSERT
from repro.metrics.counters import MetricsCollector
from repro.workloads import MIX_10_10_80, generate
from repro.workloads.generator import Mixture, Workload
from tests.core.test_traversal_zombies import built, zombify_chunk

ALL_ARRAYS, ALL_INTS = 0, 10**9


def _plain(x):
    """A comparable rendering of kernel outputs (arrays keep dtype)."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tolist())
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def _record(tracer) -> list:
    """Log every tracer call, in order, with its arguments (an address
    list and an address array with the same values log alike)."""
    log: list = []
    for name in ("access_words", "access_words_batch", "record_compute"):
        orig = getattr(tracer, name)

        def wrapped(*args, _orig=orig, _name=name, **kw):
            log.append((_name, [np.asarray(a).tolist() for a in args],
                        sorted(kw.items())))
            return _orig(*args, **kw)
        setattr(tracer, name, wrapped)
    return log


def _instances(st):
    return getattr(st, "shards", [st])


def _run(monkeypatch, threshold, build, drive):
    monkeypatch.setattr(vector, "_SMALL_BATCH", threshold)
    st = build()
    st.metrics = MetricsCollector()
    insts = _instances(st)
    tracer = insts[0].ctx.tracer
    log = _record(tracer)
    out = _plain(drive(st))
    return {
        "out": out,
        "tracer_calls": log,
        "trace_stats": tracer.stats,
        "l2": [list(s) for s in tracer.l2._sets],
        "tlb": list(tracer._tlb),
        "metrics": st.metrics.as_dict(),
        "mem": insts[0].ctx.mem.raw().tolist(),
    }


def assert_paths_agree(monkeypatch, build, drive):
    """Both paths' runs, compared part by part; returns the counters
    and what ``drive`` returned."""
    arrays = _run(monkeypatch, ALL_ARRAYS, build, drive)
    ints = _run(monkeypatch, ALL_INTS, build, drive)
    assert arrays.keys() == ints.keys()
    for part in arrays:
        assert arrays[part] == ints[part], part
    # Every ``drive`` walks chunks, so equal counters are not vacuous.
    counted = arrays["metrics"]
    assert counted["chunk_reads"] > 0 and counted["down_steps"] > 0
    return counted, arrays["out"]


# ---------------------------------------------------------------------------
# Call sequences
# ---------------------------------------------------------------------------

def _owner(st, keys):
    if not hasattr(st, "shards"):
        return np.zeros(keys.size, dtype=np.int64)
    return st.routing.shard_of_array(keys, st._route_gen)


def _kernel_calls(st, keys: np.ndarray, ops: np.ndarray) -> list:
    """Each read kernel and the raw traversal on ``keys``, then one
    update wave; every result with its ``last_call_diag``."""
    tracer = _instances(st)[0].ctx.tracer
    out = [vector._traverse(_instances(st), _owner(st, keys), keys,
                            tracer, record_path=True, track_upper=True)]
    out += [st.vector_contains(keys, tracer=tracer), vector.last_call_diag]
    out += [st.vector_search(keys, tracer=tracer), vector.last_call_diag]
    out += [st.vector_update_wave(ops, keys, keys * 7 + 2**31,
                                  tracer=tracer), vector.last_call_diag]
    return out


def _sized_calls(st, key_range: int, seed: int) -> list:
    """Kernel calls on both sides of any threshold: 1 to 300 keys."""
    rng = np.random.default_rng(seed)
    out = []
    for size in (1, 2, 5, 16, 17, 40, 300):
        keys = rng.choice(np.arange(1, key_range + 1), size, replace=False)
        ops = rng.choice([OP_INSERT, OP_DELETE], size)
        out += _kernel_calls(st, keys.astype(np.int64), ops)
    return out


def _replay(st, workload) -> list:
    res = make_backend("vectorized").execute(
        st, OpBatch.from_workload(workload))
    return [res.results, res.waves, res.gen_ops, vector.last_call_diag]


# ---------------------------------------------------------------------------
# The corpus of test_vector.py / test_vector_update.py
# ---------------------------------------------------------------------------

def test_vector_corpus(monkeypatch):
    w = generate(MIX_10_10_80, key_range=5_000, n_ops=400, seed=4)
    assert_paths_agree(
        monkeypatch, lambda: make_structure("gfsl", w, seed=0),
        lambda st: _sized_calls(st, 5_000, seed=0) + _replay(st, w))


def test_split_and_merge_corpus(monkeypatch):
    """Split-triggering inserts and merge-bound deletes (team 8)."""
    keys = np.arange(100, 112, dtype=np.int64)
    w = Workload(key_range=4_096, mixture=MIX_10_10_80,
                 prefill=np.arange(1, 4_096, 3, dtype=np.int64),
                 ops=np.full(keys.size, OP_INSERT, dtype=np.int64),
                 keys=keys, values=np.arange(1, keys.size + 1))

    def drive(st):
        out = _replay(st, w)
        doomed = np.arange(1, 40, 3, dtype=np.int64)
        out += _kernel_calls(st, doomed,
                             np.full(doomed.size, OP_DELETE, dtype=np.int64))
        return out

    assert_paths_agree(
        monkeypatch, lambda: make_structure("gfsl", w, seed=0, team_size=8),
        drive)


@pytest.mark.parametrize("kind", ["gfsl@4", "pq@4"])
def test_sharded_unequal_heights(monkeypatch, kind):
    prefill = np.concatenate([np.arange(1, 1_000),           # shard 0: tall
                              np.arange(1_000, 2_000, 6),    # shard 1
                              np.arange(2_000, 4_000, 97)])  # 2, 3: flat
    ops_w = generate(Mixture(40, 40, 20), 4_000, 300, seed=11)
    w = Workload(key_range=4_000, mixture=ops_w.mixture,
                 prefill=prefill.astype(np.int64), ops=ops_w.ops,
                 keys=ops_w.keys, values=ops_w.values)

    def build():
        return make_structure(kind, w, seed=0, team_size=8,
                              partitioner="range")

    heights = [structure_height(s) for s in build().shards]
    assert len(set(heights)) > 2, heights
    assert_paths_agree(
        monkeypatch, build,
        lambda st: _sized_calls(st, 4_000, seed=1) + _replay(st, w))


# ---------------------------------------------------------------------------
# Crafted structures
# ---------------------------------------------------------------------------

class _AddrLog:
    """A stand-in tracer that keeps the addresses of each batch."""

    def __init__(self):
        self.batches: list[list[int]] = []

    def access_words_batch(self, addrs, n_words, **kw):
        self.batches.append(np.asarray(addrs).tolist())

    def record_compute(self, amount):
        pass


def _branches_taken(sl, keys) -> set:
    """Which traversal branches single-key walks of ``keys`` take,
    read off the chunks each walk reads and the path it records."""
    geo, words = sl.geo, sl.ctx.mem.raw()
    base, n = sl.layout.chunks_base, geo.n
    level_of = {p: lv for lv in range(structure_height(sl) + 1)
                for p, _kv in level_chain(sl, lv)}
    taken = set()
    for k in keys:
        log = _AddrLog()
        _f, paths, *_rest = vector._traverse(
            [sl], np.zeros(1, dtype=np.int64), np.array([k]), log,
            record_path=True)
        reads = [(a - base) // n for (a,) in log.batches[1:]]
        last_at = {}
        for p in reads:
            lv = level_of[p]
            last_at[lv] = p
            if int(words[base + p * n + geo.lock_idx]) == C.ZOMBIE:
                taken.add("descent zombie skip" if lv
                          else "bottom zombie step")
        if any(paths[0, lv] != p for lv, p in last_at.items() if lv):
            taken.add("backtrack through prev")
    return taken


def _zombie_structure():
    """Four levels; one level-1 and one level-0 chunk are zombies."""
    sl = built(range(10, 2_000, 10), team_size=16, fill=0.3)
    zombify_chunk(sl, [p for p, _kv in level_chain(sl, 1)][5])
    zombify_chunk(sl, [p for p, _kv in level_chain(sl, 0)][15])
    return sl


def test_zombie_and_backtrack_branches(monkeypatch):
    keys = np.arange(1, 2_011, dtype=np.int64)
    assert _branches_taken(_zombie_structure(), keys.tolist()) == {
        "descent zombie skip", "bottom zombie step",
        "backtrack through prev"}

    def drive(st):
        out = []
        for lo, size in ((1, 1), (300, 7), (590, 16), (1, 2_010)):
            sel = keys[lo - 1: lo - 1 + size]
            ops = np.where(sel % 3 == 0, OP_DELETE, OP_INSERT)
            out += _kernel_calls(st, sel, ops)
        return out

    counted, _out = assert_paths_agree(monkeypatch, _zombie_structure,
                                       drive)
    assert counted["zombie_encounters"] > 0
    assert counted["backtrack_steps"] > 0


def _corrupted_structure():
    """Two level-1 chunks with every data entry emptied: walks that
    descend into one restart, walks that backtrack into one find no
    key there — both fall back to their generators."""
    sl = built(range(10, 2_000, 10), team_size=8)
    chain = [p for p, _kv in level_chain(sl, 1)]
    for victim in (chain[3], chain[8]):
        for i in range(sl.geo.dsize):
            sl.ctx.mem.write_word(sl.layout.entry_addr(victim, i),
                                  C.EMPTY_KV)
    return sl


def test_fallback_order(monkeypatch):
    keys = np.arange(1, 2_001, dtype=np.int64)

    def drive(sl):
        return [vector._traverse([sl], np.zeros(size, dtype=np.int64),
                                 keys[:size], sl.ctx.tracer,
                                 record_path=True, track_upper=True)
                for size in (16, 2_000)]

    _counted, out = assert_paths_agree(monkeypatch, _corrupted_structure,
                                       drive)
    fallback, diag = out[-1][3], out[-1][4]
    assert diag["fallback_backtrack"] > 0 and diag["fallback_restart"] > 0
    assert fallback != sorted(fallback)
