"""Micro-benchmarks of individual simulated operations.

These time the *simulator itself* (wall-clock per simulated op) with
pytest-benchmark's statistics — useful for tracking the reproduction's
own performance — and report the simulated device-side cost per
operation type alongside.
"""

import numpy as np
import pytest

from conftest import save_result
from repro.analysis import render_table
from repro.core import GFSL, bulk_build_into, suggest_capacity
from repro.baseline import MCSkiplist
from repro.baseline import bulk_build_into as mc_bulk

N_KEYS = 20_000


@pytest.fixture(scope="module")
def gfsl():
    sl = GFSL(capacity_chunks=suggest_capacity(N_KEYS * 2), team_size=32,
              seed=1)
    bulk_build_into(sl, np.arange(2, 2 * N_KEYS, 2))
    return sl


@pytest.fixture(scope="module")
def mc():
    m = MCSkiplist(capacity_words=N_KEYS * 24, seed=1)
    mc_bulk(m, np.arange(2, 2 * N_KEYS, 2))
    return m


def test_gfsl_contains(benchmark, gfsl):
    rng = np.random.default_rng(0)
    keys = iter(rng.integers(1, 2 * N_KEYS, size=200_000).tolist())
    benchmark(lambda: gfsl.contains(next(keys)))


def test_gfsl_insert_delete_pair(benchmark, gfsl):
    rng = np.random.default_rng(1)
    keys = iter(rng.integers(1, 2 * N_KEYS, size=200_000).tolist())

    def op():
        k = next(keys)
        if not gfsl.insert(k):
            gfsl.delete(k)
    benchmark(op)


def test_gfsl_range_query(benchmark, gfsl):
    rng = np.random.default_rng(2)
    los = iter(rng.integers(1, 2 * N_KEYS - 200, size=100_000).tolist())

    def op():
        lo = next(los)
        gfsl.range_query(lo, lo + 100)
    benchmark(op)


def test_mc_contains(benchmark, mc):
    rng = np.random.default_rng(3)
    keys = iter(rng.integers(1, 2 * N_KEYS, size=200_000).tolist())
    benchmark(lambda: mc.contains(next(keys)))


def test_device_cost_report(benchmark, gfsl, mc):
    """Simulated per-op device cost (transactions) for the record."""
    benchmark.pedantic(lambda: gfsl.contains(1), rounds=1, iterations=1)
    rows = []
    for name, st, op in (
        ("GFSL contains", gfsl, lambda: gfsl.contains(12_345)),
        ("GFSL insert+delete", gfsl,
         lambda: (gfsl.insert(999_999), gfsl.delete(999_999))),
        ("M&C contains", mc, lambda: mc.contains(12_345)),
    ):
        st.ctx.tracer.reset_stats()
        op()
        t = st.ctx.tracer.stats
        rows.append([name, t.transactions, t.coalesced_accesses,
                     t.scalar_accesses])
    text = render_table("Per-op simulated device cost",
                        ["op", "transactions", "coalesced", "scalar"], rows)
    save_result("micro_device_cost", text)
    # GFSL's coalesced design: far fewer transactions than M&C.
    assert rows[0][1] * 3 < rows[2][1]
