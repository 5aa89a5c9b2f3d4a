"""Replay wall-clock of the batch-engine backends.

Times the *simulator itself*: how long each backend takes to replay the
same mixed workload against GFSL, with tracing on (the configuration
every experiment uses).  The acceptance bar for the vectorized backend
is >= 3x over sequential replay at 40k ops; the committed
``results/engine_backends.txt`` records the measured run.  Its figures
are host wall-clock time, so unlike the other result files it is not
byte-reproducible and sits outside the CI ``git diff`` gate: the test
takes no ``benchmark`` fixture, so ``--benchmark-only`` skips it.

All backends produce identical per-op results and final contents (see
``tests/engine/test_differential.py``); this bench only measures the
replay-speed dimension in which they differ.
"""

from __future__ import annotations

import time

from conftest import save_result
from repro.engine import (BACKEND_NAMES, OpBatch, make_backend,
                          make_structure)
from repro.workloads import MIX_10_10_80, generate

KEY_RANGE_PER_OP = 5          # 4k ops -> 20k keys, 40k ops -> 200k keys
SIZES = (4_000, 40_000)


def _run_one(n_ops: int, backend_name: str):
    w = generate(MIX_10_10_80, key_range=KEY_RANGE_PER_OP * n_ops,
                 n_ops=n_ops, seed=42)
    st = make_structure("gfsl", w, seed=0)
    batch = OpBatch.from_workload(w)
    t0 = time.perf_counter()
    res = make_backend(backend_name).execute(st, batch)
    dt = time.perf_counter() - t0
    return dt, res, len(st.keys())


def test_engine_backend_replay_speed():
    rows = [f"{'ops':>7} {'backend':>17} {'seconds':>9} {'ops/s':>9} "
            f"{'speedup':>8} {'final keys':>10}"]
    rows.append("-" * len(rows[0]))
    bar_met = None
    for n_ops in SIZES:
        base_dt = None
        ref_keys = None
        for name in BACKEND_NAMES:
            dt, _res, n_keys = _run_one(n_ops, name)
            if base_dt is None:
                base_dt = dt
                ref_keys = n_keys
            assert n_keys == ref_keys, "backends diverged on contents"
            speedup = base_dt / dt
            rows.append(f"{n_ops:>7} {name:>17} {dt:9.3f} "
                        f"{n_ops / dt:9.0f} {speedup:7.2f}x {n_keys:>10}")
            if n_ops == max(SIZES) and name == "vectorized":
                bar_met = speedup
        rows.append("")
    rows.append("acceptance: vectorized >= 3x sequential at "
                f"{max(SIZES)} ops -> measured {bar_met:.2f}x")
    save_result("engine_backends", "\n".join(rows))
    assert bar_met is not None and bar_met >= 3.0
