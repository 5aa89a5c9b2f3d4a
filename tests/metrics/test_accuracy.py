"""Counter accuracy on hand-built tiny workloads.

All scenarios use ``team_size=8`` (dsize=6, so chunks overflow fast)
and ``p_chunk=0.0`` (no probabilistic key raising — every count below
is exact, not distributional).  Golden values are derived from the
structure's algorithms:

* A fresh GFSL has height 0 and one chunk, so ``contains`` is exactly
  one coalesced chunk read and nothing else.
* A non-splitting insert reads the chunk three times: once in the
  traversal (``search_slow``), once in ``find_and_lock_enclosing``
  before its CAS, once re-reading under the lock.
* A split releases one more lock than it CAS-acquires: the new right
  chunk is *born* locked (plain initialization, no CAS) and unlocked
  when published.
"""

import numpy as np
import pytest

from repro.core import GFSL
from repro.engine import OpBatch, make_backend
from repro.engine.batch import OP_CONTAINS, OP_DELETE, OP_INSERT
from repro.metrics import MetricsCollector


def _batch(ops):
    o = np.array([op for op, _ in ops], dtype=np.int64)
    k = np.array([key for _, key in ops], dtype=np.int64)
    return OpBatch(ops=o, keys=k, values=k * 10)


def run_counted(ops, backend="sequential", prefill=(), **backend_kwargs):
    """Build a tiny deterministic GFSL, prefill it *outside* the
    observation window, then execute ``ops`` with a fresh collector
    assigned.  Returns ``(collector, structure)``."""
    sl = GFSL(capacity_chunks=64, team_size=8, seed=1, p_chunk=0.0)
    for k in prefill:
        sl.insert(k, k * 10)
    m = MetricsCollector()
    sl.metrics = m
    make_backend(backend, **backend_kwargs).execute(sl, _batch(ops))
    return m, sl


def nonzero(m):
    return {k: v for k, v in m.as_dict().items() if v}


class TestSequentialExact:
    def test_contains_on_empty_is_one_chunk_read(self):
        m, _ = run_counted([(OP_CONTAINS, 5)])
        assert nonzero(m) == {"contains_calls": 1, "chunk_reads": 1,
                              "waves": 1, "wave_ops": 1}

    def test_contains_hit_and_miss_cost_the_same(self):
        m, _ = run_counted([(OP_CONTAINS, 10), (OP_CONTAINS, 99)],
                           prefill=(10,))
        assert nonzero(m) == {"contains_calls": 2, "chunk_reads": 2,
                              "waves": 2, "wave_ops": 2}

    def test_single_insert(self):
        m, _ = run_counted([(OP_INSERT, 5)])
        assert nonzero(m) == {"inserts": 1, "chunk_reads": 3,
                              "lock_acquired": 1, "lock_released": 1,
                              "waves": 1, "wave_ops": 1}

    def test_insert_that_splits(self):
        # dsize=6: five prefilled keys + the NEG_INF sentinel fill the
        # chunk, so the sixth user key forces the split.
        m, sl = run_counted([(OP_INSERT, 5)],
                            prefill=(10, 20, 30, 40, 50))
        assert m.splits == 1
        assert sl.metrics is m                # one block, no second count
        assert m.lock_acquired == 1
        assert m.lock_released == 2           # split chunk born locked
        assert m.chunk_reads == 7
        assert m.merges == 0

    def test_delete_run_that_merges(self):
        # Two chunks after prefill; deleting five keys drains the left
        # chunk to the merge threshold (dsize//3 = 2) exactly once.
        m, sl = run_counted([(OP_DELETE, k) for k in (10, 20, 30, 40, 50)],
                            prefill=(10, 20, 30, 40, 50, 60, 70))
        assert m.merges == 1
        assert m.zombie_encounters == 1       # the merged-away chunk
        assert m.lock_acquired == m.lock_released == 7
        assert m.splits == 0

    def test_sequential_never_spins(self):
        ops = ([(OP_INSERT, k) for k in (3, 11, 19, 27)]
               + [(OP_CONTAINS, 3), (OP_DELETE, 19)])
        m, _ = run_counted(ops)
        assert m.lock_spins == 0
        assert m.lock_cas_failed == 0
        assert m.restarts == 0
        assert m.wave_occupancy == 1.0


class TestInterleavedGolden:
    OPS = ([(OP_INSERT, k) for k in (3, 11, 19, 27)]
           + [(OP_CONTAINS, 3), (OP_CONTAINS, 11), (OP_DELETE, 19)])

    def test_deterministic_round_robin_counters_pinned(self):
        """seed=None round-robin is deterministic, so the full counter
        block is pinned — any scheduling or instrumentation change
        shows up here as an exact diff."""
        m, _ = run_counted(self.OPS, backend="interleaved")
        assert m.as_dict() == {
            "inserts": 4, "deletes": 0, "contains_calls": 2,
            "chunk_reads": 36, "lateral_steps": 0, "down_steps": 0,
            "backtrack_steps": 0, "contains_restarts": 0,
            "update_restarts": 0, "zombie_encounters": 0,
            "max_zombie_chain": 0, "lock_acquired": 4, "lock_released": 4,
            "lock_cas_failed": 6, "lock_spins": 21, "splits": 0,
            "merges": 0, "zombies_unlinked": 0, "downptr_updates": 0,
            "waves": 1, "wave_ops": 7, "restarts": 0,
        }

    def test_interleaving_costs_more_than_sequential(self):
        seq, _ = run_counted(self.OPS, backend="sequential")
        inter, _ = run_counted(self.OPS, backend="interleaved")
        assert seq.lock_spins == 0
        assert inter.lock_spins > 0
        assert inter.chunk_reads >= seq.chunk_reads
        assert inter.wave_occupancy == 7.0

    def test_lock_balance_holds_at_quiescence(self):
        """Every acquisition is eventually released (or consumed by a
        terminal zombie mark) under both schedulers; splits add
        born-locked chunks, hence released >= acquired."""
        ops = [(OP_INSERT, k) for k in range(2, 40, 2)]
        for backend in ("sequential", "interleaved"):
            m, _ = run_counted(ops, backend=backend)
            assert m.lock_released >= m.lock_acquired
            assert m.lock_released - m.lock_acquired == m.splits


@pytest.mark.parametrize("backend", ["sequential", "interleaved"])
def test_assignment_splits_the_lifetime_counts(backend):
    """Assigning a collector opens a window without losing or doubling
    a count: the prefill's counts (on the structure's own collector)
    plus the window's equal one unbroken run's, event by event."""
    rng = np.random.default_rng(3)
    keys = rng.permutation(np.arange(1, 121, dtype=np.int64))[:80]
    ops = [(int(rng.integers(0, 3)), int(k)) for k in keys]
    prefill = tuple(range(200, 260, 3))
    lifetime = GFSL(capacity_chunks=64, team_size=8, seed=1, p_chunk=0.0)
    for k in prefill:
        lifetime.insert(k, k * 10)
    make_backend(backend).execute(lifetime, _batch(ops))

    window, _ = run_counted(ops, backend=backend, prefill=prefill)
    before = GFSL(capacity_chunks=64, team_size=8, seed=1, p_chunk=0.0)
    for k in prefill:
        before.insert(k, k * 10)
    before.metrics.merge(window)
    assert before.metrics.as_dict() == lifetime.metrics.as_dict()
    assert window.lock_spins > 0 or backend == "sequential"
    assert window.splits + window.merges > 0


def test_every_zombie_unlink_is_counted_once():
    """The merge/split helper's chain unlink (``lock_next_chunk``) and
    the traversal's lazy redirect both count into the one block: 86
    unlinks on this seeded interleaved run, and one lock spin per
    failed acquisition."""
    from repro.engine import InterleavedBackend, make_structure
    from repro.workloads import Mixture, generate
    w = generate(Mixture(30, 50, 20), key_range=300, n_ops=4000, seed=0)
    st = make_structure("gfsl", w, team_size=8, seed=0)
    m = MetricsCollector()
    st.metrics = m
    InterleavedBackend(concurrency=32, seed=0).execute(
        st, OpBatch.from_workload(w))
    assert m.zombies_unlinked == 86
    assert (m.splits, m.merges, m.lock_spins) == (70, 87, 3565)


@pytest.mark.parametrize("kind", ["gfsl", "gfsl@4"])
@pytest.mark.parametrize("n_ops", [16, 3000])
def test_vectorized_traversal_counts_match_sequential(kind, n_ops):
    """A contains-only batch on a quiescent structure reads the same
    chunks through the lock-step kernel (the Python-int path at <= 16
    keys, the numpy path above) as through one generator per op, so
    every traversal counter must agree."""
    from repro.engine import make_structure
    from repro.workloads import Mixture, generate
    w = generate(Mixture(0, 0, 100), key_range=20_000, n_ops=n_ops, seed=5)
    counted = {}
    for backend in ("sequential", "vectorized"):
        st = make_structure(kind, w, seed=5)
        st.metrics = MetricsCollector()
        make_backend(backend).execute(st, OpBatch.from_workload(w))
        counted[backend] = {name: getattr(st.metrics, name) for name in (
            "contains_calls", "chunk_reads", "lateral_steps", "down_steps",
            "backtrack_steps", "zombie_encounters")}
    assert counted["vectorized"] == counted["sequential"]
    assert counted["sequential"]["down_steps"] > 0
