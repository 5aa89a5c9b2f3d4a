"""SpanTracer mechanics and engine span integration."""

import json

import numpy as np

from repro.engine import OpBatch, make_backend, make_structure
from repro.gpu.memory import GlobalMemory
from repro.gpu.scheduler import InterleavingScheduler
from repro.metrics import MetricsCollector, SpanTracer, merge_chrome
from repro.metrics.spans import WAVE_TRACK
from repro.workloads import MIX_10_10_80, generate


class TestSpanTracer:
    def test_add_clamps_zero_duration(self):
        t = SpanTracer()
        t.add("x", 3, 0)
        assert t.spans[0].duration == 1

    def test_advance_accumulates(self):
        t = SpanTracer()
        t.advance(10)
        t.advance(5)
        assert t.clock == 15
        t.advance(-3)          # never goes backwards
        assert t.clock == 15

    def test_chrome_export_shape(self):
        t = SpanTracer()
        t.add("op", 2, 7, track=4, steps=9)
        events = t.to_chrome(pid=3)
        assert events == [{"name": "op", "ph": "X", "ts": 2, "dur": 7,
                           "pid": 3, "tid": 4, "args": {"steps": 9}}]
        doc = json.loads(t.dumps())
        assert doc["traceEvents"][0]["ph"] == "X"
        assert "displayTimeUnit" in doc

    def test_merge_chrome_one_process_per_tracer(self):
        a, b = SpanTracer(), SpanTracer()
        a.add("x", 0, 1)
        b.add("y", 0, 1)
        doc = merge_chrome({"cell-a": a, "cell-b": b})
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["cell-a", "cell-b"]
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}


class TestSchedulerSpans:
    def _gen(self, mem, addr, n):
        from repro.gpu import events as ev
        for _ in range(n):
            yield ev.WordRead(addr)
        return n

    def test_one_span_per_task_on_shared_clock(self):
        mem = GlobalMemory(64)
        spans = SpanTracer()
        sched = InterleavingScheduler(mem, None, spans=spans,
                                      span_labels={0: "short", 1: "long"})
        sched.spawn(self._gen(mem, 0, 2))
        sched.spawn(self._gen(mem, 1, 5))
        sched.run()
        assert [s.name for s in spans.spans] == ["short", "long"]
        assert [s.track for s in spans.spans] == [0, 1]
        # 7 events total; the clock advanced past the whole run.
        assert spans.clock == 7
        # A second scheduler run lands after the first on the timeline.
        sched2 = InterleavingScheduler(mem, None, spans=spans)
        sched2.spawn(self._gen(mem, 0, 3))
        sched2.run()
        assert spans.spans[-1].name == "task 0"
        assert spans.spans[-1].start >= 7
        assert spans.clock == 10


def _run_with_spans(backend_name, n_ops=60, conc=None):
    w = generate(MIX_10_10_80, key_range=256, n_ops=n_ops, seed=4)
    st = make_structure("gfsl", w, team_size=8, seed=0)
    m = MetricsCollector(spans=SpanTracer())
    st.metrics = m
    kwargs = {"concurrency": conc} if conc is not None else {}
    if backend_name == "vectorized":
        kwargs = {"wave_size": conc} if conc is not None else {}
    res = make_backend(backend_name, **kwargs).execute(
        st, OpBatch.from_workload(w))
    return m, res


class TestEngineSpans:
    def test_interleaved_emits_op_and_wave_spans(self):
        m, res = _run_with_spans("interleaved", n_ops=60, conc=16)
        waves = [s for s in m.spans.spans if s.track == WAVE_TRACK]
        ops = [s for s in m.spans.spans if s.track != WAVE_TRACK]
        assert len(waves) == res.waves == 4
        assert len(ops) == 60
        # Wave spans tile the timeline in order.
        starts = [s.start for s in waves]
        assert starts == sorted(starts)
        assert m.spans.clock == waves[-1].start + waves[-1].duration
        # Labels carry the op kind.
        assert all(s.name.split("(")[0] in ("insert", "delete", "contains")
                   for s in ops)

    def test_vectorized_emits_tick_spans(self):
        m, res = _run_with_spans("vectorized", n_ops=40, conc=8)
        waves = [s for s in m.spans.spans if s.track == WAVE_TRACK]
        assert len(waves) == res.waves
        assert m.spans.clock > 0

    def test_chaos_backend_spans_match_interleaved_shape(self):
        w = generate(MIX_10_10_80, key_range=256, n_ops=30, seed=4)
        # Unique op keys so both backends agree (differential contract).
        rng = np.random.default_rng(0)
        w.keys[:] = rng.permutation(np.arange(1, 31, dtype=np.int64))
        results = {}
        for name in ("interleaved", "interleaved-chaos"):
            st = make_structure("gfsl", w, team_size=8, seed=0)
            m = MetricsCollector(spans=SpanTracer())
            st.metrics = m
            make_backend(name, concurrency=8).execute(
                st, OpBatch.from_workload(w))
            results[name] = m
        a = results["interleaved"].spans
        b = results["interleaved-chaos"].spans
        # Same schedule (zero faults) → identical span timelines.
        assert [(s.name, s.start, s.duration) for s in a.spans] == \
               [(s.name, s.start, s.duration) for s in b.spans]
