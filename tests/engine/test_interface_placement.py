"""Placement-explicit builders: instances no longer assume they own the
device.  The registry builders accept a shared context (reserving their
region) or an explicit base, and a prefill/expected override — the
contract the sharding layer builds on."""

import numpy as np
import pytest

from repro.engine import available_structures, region_words
from repro.engine.interface import _build_gfsl, _build_mc, parse_structure_kind
from repro.gpu.kernel import RESERVE_ALIGN, GPUContext
from repro.workloads import MIX_10_10_80, generate


def _workload(seed=31):
    return generate(MIX_10_10_80, key_range=1_500, n_ops=200, seed=seed)


@pytest.mark.parametrize("kind,build", [("gfsl", _build_gfsl),
                                        ("mc", _build_mc)])
def test_two_instances_coexist_on_one_context(kind, build):
    w = _workload()
    expected = len(w.prefill) + len(w.ops) + 8
    words = region_words(kind, expected)
    aligned = -(-words // RESERVE_ALIGN) * RESERVE_ALIGN
    ctx = GPUContext(aligned + words)
    a = build(w, ctx=ctx, expected=expected, seed=1)
    b = build(w, ctx=ctx, expected=expected, seed=2,
              prefill=np.asarray([], dtype=np.int64))
    assert a.ctx is ctx and b.ctx is ctx
    # Both prefilled states are intact: building b did not clobber a.
    assert a.keys() == sorted(int(k) for k in w.prefill)
    assert b.keys() == []
    # Mutations stay inside each instance's region.
    probe = int(w.key_range) + 5
    a.insert(probe)
    assert a.contains(probe) and not b.contains(probe)
    b.insert(probe)
    a.delete(probe)
    assert b.contains(probe) and not a.contains(probe)


def test_explicit_base_is_honoured():
    w = _workload()
    expected = len(w.prefill) + len(w.ops) + 8
    base = 4 * RESERVE_ALIGN
    ctx = GPUContext(base + region_words("gfsl", expected))
    sl = _build_gfsl(w, ctx=ctx, base=base, expected=expected)
    assert sl.layout.base == base
    assert sl.keys() == sorted(int(k) for k in w.prefill)


def test_default_build_unchanged():
    w = _workload()
    sl = _build_gfsl(w)
    assert sl.layout.base == 0
    assert sl.ctx.mem.num_words == sl.layout.total_words
    mc = _build_mc(w)
    assert mc.pool.base == 0


def test_reserve_alignment_and_exhaustion():
    ctx = GPUContext(100)
    assert ctx.reserve(10) == 0
    assert ctx.reserve(10) == RESERVE_ALIGN  # bumped to the next line
    assert ctx.reserved_words == RESERVE_ALIGN + 10
    with pytest.raises(MemoryError):
        ctx.reserve(1000)
    with pytest.raises(ValueError):
        ctx.reserve(0)


def test_parse_structure_kind():
    assert parse_structure_kind("gfsl") == ("gfsl", 1)
    assert parse_structure_kind("mc@4") == ("mc", 4)
    for bad in ("gfsl@", "gfsl@0", "gfsl@-2", "gfsl@x"):
        with pytest.raises(ValueError):
            parse_structure_kind(bad)


class TestChunkedCapability:
    """Which kinds are GFSL-family is one registry flag."""

    @pytest.mark.parametrize("kind,chunked", [
        ("gfsl", True), ("pq", True), ("mc", False),
        ("gfsl@4", True), ("pq@2", True), ("mc@2", False)])
    def test_flag_and_sharded_specs_inherit_it(self, kind, chunked):
        from repro.engine import structure_spec
        assert structure_spec(kind).chunked is chunked

    @pytest.mark.parametrize("kind", [*available_structures(), "gfsl@2",
                                      "pq@2", "mc@2"])
    def test_every_instance_carries_its_spec_flag(self, kind):
        """Callers read ``structure.chunked`` instead of probing for a
        method, so each built instance must carry the registry's flag."""
        from repro.engine import make_structure, structure_spec
        w = generate(MIX_10_10_80, key_range=64, n_ops=8, seed=0)
        assert make_structure(kind, w).chunked is structure_spec(kind).chunked

    @pytest.mark.parametrize("kind", ["mc", "mc@3"])
    def test_require_chunked_names_kind_caller_and_reason(self, kind):
        from repro.engine import require_chunked
        with pytest.raises(ValueError) as err:
            require_chunked(kind, "the widget", "it walks chunks")
        msg = str(err.value)
        assert "\n" not in msg and repr(kind) in msg
        assert msg.startswith("the widget needs a chunked")
        assert msg.endswith(": it walks chunks")
        assert require_chunked("pq@2", "x", "y").chunked


def test_run_workload_labels_and_team_size_from_the_registry():
    from repro.workloads import run_workload
    w = _workload()
    cases = {("gfsl", 32): ("GFSL-32", 32), ("gfsl", 16): ("GFSL-16", 16),
             ("pq", 16): ("PQ-16", 16), ("mc", 16): ("M&C", 32),
             ("gfsl@2", 32): ("GFSL-32x2", 32), ("mc@2", 32): ("M&Cx2", 32)}
    for (kind, team), (label, lanes) in cases.items():
        r = run_workload(kind, w, team_size=team, backend="sequential")
        assert (r.structure, r.team_size) == (label, lanes), kind
