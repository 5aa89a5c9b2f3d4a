"""Shared experiment machinery: scaling presets, repeated runs, series.

Every table/figure module builds on :func:`run_point` (repeat a
workload with different op-stream seeds, summarize) and
:func:`run_range_series` (one curve of a figure).  The scale preset
trades fidelity for wall-clock time:

* ``smoke``  — tiny ranges/op counts, used by the test suite,
* ``paper``  — the default, and the only scale ``pytest benchmarks/``
  runs: every key range of Chapter 5 up to 10M, 2,000 ops and 3
  repetitions per point (``pytest benchmarks/ --benchmark-only`` took
  4 min 8 s to 4 min 43 s over three runs on a 2-core x86 host).

Pass a preset as ``scale=`` (``--scale`` on the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.stats import Summary, summarize
from ..workloads import Mixture, generate, run_workload
from . import paper_data


@dataclass(frozen=True)
class Scale:
    name: str
    ranges: tuple[int, ...]
    n_ops: int
    repeats: int

    def ops_for(self, mixture: Mixture, key_range: int) -> int:
        # Single-op-type tests use one op per key in the paper ("the
        # number of operations ... is equal to the key range"); keep that
        # proportionality capped by the scale's budget.
        if mixture.kind != "mixed":
            return min(self.n_ops, key_range)
        return self.n_ops


SCALES = {
    "smoke": Scale("smoke", (10_000, 100_000), 300, 1),
    "paper": Scale("paper", paper_data.PAPER_RANGES, 2000, 3),
}
PAPER = SCALES["paper"]


@dataclass(frozen=True)
class Point:
    """One (structure, mixture, range) cell, summarized over repeats."""

    structure: str
    key_range: int
    mixture_name: str
    mops: Summary
    l2_hit_rate: float
    transactions_per_op: float
    bottleneck: str
    oom: bool = False

    @property
    def mean_mops(self) -> float:
        return self.mops.mean


def run_point(structure_kind: str, mixture: Mixture, key_range: int,
              scale: Scale = PAPER, team_size: int = 32,
              p_chunk: float = 1.0, p_key: float = 0.5,
              launch=None, n_ops: int | None = None,
              repeats: int | None = None,
              backend: str = "interleaved") -> Point:
    """Run ``repeats`` workloads (distinct op-stream seeds) and summarize.

    ``backend`` names the batch-engine execution path (see
    :func:`repro.engine.available_backends`); the default is the
    interleaved replay every published figure uses."""
    n = n_ops if n_ops is not None else scale.ops_for(mixture, key_range)
    reps = repeats if repeats is not None else scale.repeats
    mops_vals = []
    last = None
    for rep in range(reps):
        w = generate(mixture, key_range=key_range, n_ops=n, seed=1000 + rep)
        r = run_workload(structure_kind, w, team_size=team_size,
                         p_chunk=p_chunk, p_key=p_key, launch=launch,
                         seed=rep, backend=backend)
        if r.oom:
            return Point(structure=r.structure, key_range=key_range,
                         mixture_name=mixture.name,
                         mops=summarize([float("nan")]),
                         l2_hit_rate=float("nan"),
                         transactions_per_op=float("nan"),
                         bottleneck="oom", oom=True)
        mops_vals.append(r.mops)
        last = r
    return Point(structure=last.structure, key_range=key_range,
                 mixture_name=mixture.name, mops=summarize(mops_vals),
                 l2_hit_rate=last.l2_hit_rate,
                 transactions_per_op=last.transactions_per_op,
                 bottleneck=last.bottleneck)


def run_range_series(structure_kind: str, mixture: Mixture,
                     scale: Scale = PAPER, ranges=None,
                     **kw) -> list[Point]:
    """One figure line: a point per key range."""
    ranges = ranges if ranges is not None else scale.ranges
    return [run_point(structure_kind, mixture, r, scale=scale, **kw)
            for r in ranges]
