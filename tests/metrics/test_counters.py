"""MetricsCollector mechanics + the observation-free contract.

The crucial property is the last test: counting never changes a
schedule, so a run observed through a caller's collector produces
byte-identical per-op results *and* byte-identical tracer accounting to
one whose counts only go to the structure's own, unread collector.
"""

from dataclasses import fields

import pytest

from repro.engine import OpBatch, make_backend, make_structure
from repro.metrics import MetricsCollector, SpanTracer
from repro.workloads import MIX_10_10_80, generate


def counter_names():
    return MetricsCollector._counter_fields()


class TestCollector:
    def test_counter_fields_cover_every_int_field(self):
        ints = [f.name for f in fields(MetricsCollector) if f.type == "int"]
        assert counter_names() == ints
        assert "spans" not in counter_names()
        assert len(counter_names()) >= 15

    def test_merge_covers_every_field(self):
        # Distinct primes per field: a dropped field shows up as a
        # wrong sum, not an accidental match.
        a = MetricsCollector()
        b = MetricsCollector()
        for i, name in enumerate(counter_names()):
            setattr(a, name, 2 * i + 1)
            setattr(b, name, 100 + i)
        a.merge(b)
        for i, name in enumerate(counter_names()):
            if name == "max_zombie_chain":    # a high-water mark
                assert a.max_zombie_chain == 100 + i
                continue
            assert getattr(a, name) == (2 * i + 1) + (100 + i), name
        # The other side is untouched.
        assert all(getattr(b, n) == 100 + i
                   for i, n in enumerate(counter_names()))

    def test_as_dict_and_reset(self):
        m = MetricsCollector(chunk_reads=7, splits=2)
        d = m.as_dict()
        assert set(d) == set(counter_names()) | {"restarts"}
        assert d["chunk_reads"] == 7 and d["splits"] == 2
        assert all(isinstance(v, int) for v in d.values())
        m.reset()
        assert all(v == 0 for v in m.as_dict().values())

    def test_per_op(self):
        m = MetricsCollector(chunk_reads=10)
        assert m.per_op(4)["chunk_reads"] == 2.5
        assert m.per_op(0)["chunk_reads"] == 10.0  # clamped divisor

    def test_wave_occupancy(self):
        assert MetricsCollector().wave_occupancy == 0.0
        assert MetricsCollector(waves=4, wave_ops=10).wave_occupancy == 2.5

    def test_spans_excluded_from_merge(self):
        a = MetricsCollector(spans=SpanTracer())
        b = MetricsCollector(spans=SpanTracer())
        b.spans.add("x", 0, 5)
        a.merge(b)
        assert len(a.spans) == 0


@pytest.mark.parametrize("backend", ["sequential", "interleaved",
                                     "vectorized"])
def test_disabled_metrics_is_observationally_free(backend):
    """Results and tracer stats with a caller's collector assigned must
    be byte-identical to a run that leaves the structure's own
    collector unobserved."""
    w = generate(MIX_10_10_80, key_range=512, n_ops=200, seed=11)

    def run(metrics):
        st = make_structure("gfsl", w, team_size=8, seed=0)
        st.ctx.tracer.reset_stats()
        if metrics is not None:
            st.metrics = metrics
        res = make_backend(backend).execute(st, OpBatch.from_workload(w))
        stats = st.ctx.tracer.stats
        return res.results, sorted(st.keys()), stats

    ref_results, ref_keys, ref_stats = run(None)
    m = MetricsCollector()
    got_results, got_keys, got_stats = run(m)
    assert got_results == ref_results
    assert got_keys == ref_keys
    assert got_stats == ref_stats
    assert m.chunk_reads > 0 and m.waves > 0
