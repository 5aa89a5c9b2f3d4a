"""``repro.metrics`` — op-level observability (DESIGN.md §10).

Three pieces:

* :class:`MetricsCollector` (:mod:`~repro.metrics.counters`) — a
  structure's one counter block (operations, traversal steps,
  restarts, lock spins, splits/merges/zombies, wave occupancy) in its
  ``metrics`` attribute, always present, shared by a sharded map's
  shards; assign a fresh one to observe a window.
* :class:`SpanTracer` (:mod:`~repro.metrics.spans`) — span-style trace
  of scheduler ticks, exportable as chrome://tracing JSON.
* :mod:`~repro.metrics.bench` — the ``repro bench`` engine: pinned
  seeded grid → ``BENCH_<date>.json`` + markdown summary + regression
  comparison against the previous BENCH file.

This package imports nothing from the rest of :mod:`repro` at import
time (``bench`` pulls the workload runner lazily), so core and engine
modules may import it freely.
"""

from .counters import MetricsCollector
from .spans import Span, SpanTracer, merge_chrome

__all__ = ["MetricsCollector", "Span", "SpanTracer", "merge_chrome"]
