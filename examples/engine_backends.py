#!/usr/bin/env python3
"""The batch engine in one screen: every structure × every backend.

``repro.engine`` is the layer the runner, harness, and CLI all sit on:
a workload becomes an :class:`~repro.engine.OpBatch` (SoA numpy arrays),
a structure is built by name from the registry, and a backend replays
the batch — sequentially, interleaved at event granularity, or in
vectorized lock-step waves.  All backends agree on per-op outcomes and
final contents; they differ in replay wall-clock and in which hardware
effects show up organically in the trace.

Run:  python examples/engine_backends.py
"""

import time

from repro.engine import (OpBatch, available_backends,
                          available_structures, make_backend,
                          make_structure)
from repro.workloads import MIX_10_10_80, generate

KEY_RANGE = 20_000
N_OPS = 2_000


def main() -> None:
    w = generate(MIX_10_10_80, key_range=KEY_RANGE, n_ops=N_OPS, seed=7)
    batch = OpBatch.from_workload(w)
    print(f"batch: {len(batch)} ops {batch.counts()} over "
          f"{KEY_RANGE:,} keys\n")
    header = (f"{'structure':>9} {'backend':>11} | {'ok ops':>6} "
              f"{'waves':>6} {'final keys':>10} {'replay s':>8}")
    print(header)
    print("-" * len(header))
    for kind in available_structures():
        reference = None
        for name in available_backends():
            st = make_structure(kind, w, seed=0)
            t0 = time.perf_counter()
            res = make_backend(name).execute(st, batch)
            dt = time.perf_counter() - t0
            n_keys = len(st.keys())
            print(f"{kind:>9} {name:>11} | "
                  f"{sum(bool(r) for r in res.results):6d} "
                  f"{res.waves:6d} {n_keys:10d} {dt:8.2f}")
            if reference is None:
                reference = n_keys
            assert n_keys == reference, "backends must agree on contents"
        print()
    print("same final key count on every backend — the engine's "
          "determinism contract.")


if __name__ == "__main__":
    main()
