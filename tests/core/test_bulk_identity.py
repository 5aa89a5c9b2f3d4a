"""The array bulk builders against the tuple-list oracle in
``tuple_bulk`` and the closed-form L2 warm against the per-line loop in
``tests/gpu/per_line_warm``.

Direct builds compare the memory image, pool counter, returned level
counts and the builder's random stream; registry builds (``gfsl``,
``gfsl@4``, ``mc``, ``pq@4``) additionally compare every L2 set's lines
and LRU order.  Errors (non-user key, duplicate keys, capacity) must
have the same type and message and leave the same memory behind.
"""

from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baseline import MCSkiplist
from repro.baseline import bulk_build_into as mc_bulk
from repro.core import GFSL, bulk_build_into, rebuild_into
from repro.core.bulk import DEFAULT_FILL
from repro.core.pool import OutOfChunks
from repro.engine import interface, make_structure
from repro.gpu.cache import L2Cache
from repro.gpu.device import DeviceConfig
from repro.workloads import MIX_10_10_80, generate
from tests.core import tuple_bulk as oracle
from tests.gpu import per_line_warm


def _tuples(keys, values=None):
    vals = [0] * len(keys) if values is None else values
    return [(int(k), int(v)) for k, v in zip(keys, vals)]


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except (ValueError, OutOfChunks, RuntimeError) as e:
        return ("raise", type(e), str(e), getattr(e, "__dict__", {}))


def _gfsl_image(sl):
    return (sl.ctx.mem.raw().tobytes(), sl.pool.allocated(sl.ctx.mem),
            sl.rng.bit_generator.state)


key_sets = st.lists(st.integers(1, 6000), max_size=700, unique=True)


@settings(max_examples=120, deadline=None)
@given(keys=key_sets, team_size=st.sampled_from([8, 16, 32]),
       p_chunk=st.sampled_from([1.0, 0.5, 0.0]),
       fill=st.sampled_from([DEFAULT_FILL, 0.3, 1.0]),
       valued=st.booleans(), prebuilt=st.booleans(), seed=st.integers(0, 9))
@example(keys=[], team_size=16, p_chunk=1.0, fill=DEFAULT_FILL,
         valued=False, prebuilt=True, seed=0)
@example(keys=[7], team_size=32, p_chunk=1.0, fill=DEFAULT_FILL,
         valued=True, prebuilt=False, seed=0)
def test_gfsl_build_matches_oracle(keys, team_size, p_chunk, fill, valued,
                                   prebuilt, seed):
    values = [(k * 2654435761) % 2**32 for k in keys] if valued else None
    twins = [GFSL(capacity_chunks=400, team_size=team_size, p_chunk=p_chunk,
                  seed=seed) for _ in range(2)]
    if prebuilt:  # building replaces existing contents
        for sl in twins:
            for k in range(5, 400, 9):
                sl.insert(k, k)
    new, ref = twins
    order = np.random.default_rng(seed).permutation(len(keys))
    got = _outcome(bulk_build_into, new,
                   np.asarray(keys, dtype=np.int64)[order],
                   None if values is None else np.asarray(values)[order],
                   rng=new.rng, fill=fill)
    want = _outcome(oracle.bulk_build_into, ref, _tuples(keys, values),
                    rng=ref.rng, fill=fill)
    assert got == want
    assert _gfsl_image(new) == _gfsl_image(ref)


@pytest.mark.parametrize("keys,values", [
    ([0], None),                       # the -inf sentinel
    ([5, -3, 9], None),                # negative
    ([0, 4, 4], None),                 # non-user key checked first
    ([5, 5], [0, 1]),                  # duplicate, different values
    ([9, 2, 9, 4], None),
    (list(range(1, 2000)), None),      # exceeds capacity at level 0
    (list(range(1, 31)), None),        # ... and at level 1
])
def test_gfsl_errors_match_oracle(keys, values):
    new = GFSL(capacity_chunks=20, team_size=16, seed=1)
    ref = GFSL(capacity_chunks=20, team_size=16, seed=1)
    got = _outcome(bulk_build_into, new, keys, values)
    want = _outcome(oracle.bulk_build_into, ref, _tuples(keys, values))
    assert got[0] == "raise"
    assert got == want
    assert _gfsl_image(new) == _gfsl_image(ref)


def test_values_must_match_keys():
    sl = GFSL(capacity_chunks=64, team_size=16, seed=1)
    with pytest.raises(ValueError, match="one entry per key"):
        bulk_build_into(sl, [1, 2, 3], [0, 0])


@settings(max_examples=60, deadline=None)
@given(old=key_sets, keys=key_sets, seed=st.integers(0, 9),
       capacity=st.sampled_from([60, 400]))
@example(old=[3, 4], keys=[], seed=0, capacity=60)
def test_rebuild_matches_oracle(old, keys, seed, capacity):
    """Capacity refusals leave the old contents on both sides."""
    twins = [GFSL(capacity_chunks=capacity, team_size=16, seed=seed)
             for _ in range(2)]
    for sl in twins:
        _outcome(bulk_build_into, sl, old[:300])
    new, ref = twins
    values = [k % 1000 for k in keys]
    got = _outcome(rebuild_into, new, keys, values, rng=new.rng)
    want = _outcome(oracle.rebuild_into, ref, _tuples(keys, values),
                    rng=ref.rng)
    assert got == want
    assert _gfsl_image(new) == _gfsl_image(ref)


def test_rebuild_refuses_live_pins_like_oracle():
    twins = [GFSL(capacity_chunks=200, team_size=16, seed=2)
             for _ in range(2)]
    views = []
    for sl in twins:
        bulk_build_into(sl, range(10, 500, 10))
        views.append(sl.begin_snapshot())
    new, ref = twins
    got = _outcome(rebuild_into, new, [1, 2, 3])
    want = _outcome(oracle.rebuild_into, ref, _tuples([1, 2, 3]))
    assert got[0] == "raise" and got == want
    assert _gfsl_image(new) == _gfsl_image(ref)
    for v in views:
        v.release()


@settings(max_examples=25, deadline=None)
@given(keys=key_sets, drop=st.integers(2, 5), seed=st.integers(0, 9))
def test_compact_matches_the_tuple_rebuild(keys, drop, seed):
    """``GFSL.compact`` rebuilds from the live bottom level exactly as
    the tuple-list builder did from ``items()``."""
    twins = [GFSL(capacity_chunks=400, team_size=8, seed=seed)
             for _ in range(2)]
    for sl in twins:
        bulk_build_into(sl, keys, [k % 1000 for k in keys], rng=sl.rng)
        for k in keys[::drop]:  # merges leave zombie chunks behind
            sl.delete(k)
    new, ref = twins
    new.compact()
    items = ref.items()
    ref._format()
    oracle.bulk_build_into(ref, items, rng=ref.rng)
    assert _gfsl_image(new) == _gfsl_image(ref)


def _mc_image(mc):
    return (mc.ctx.mem.raw().tobytes(), mc.pool.allocated_words(mc.ctx.mem),
            mc.rng.bit_generator.state)


@settings(max_examples=80, deadline=None)
@given(keys=key_sets, valued=st.booleans(), shuffle=st.booleans(),
       p_key=st.sampled_from([0.5, 0.25]), seed=st.integers(0, 9))
@example(keys=[], valued=False, shuffle=True, p_key=0.5, seed=0)
@example(keys=[1], valued=True, shuffle=False, p_key=0.5, seed=0)
def test_mc_build_matches_oracle(keys, valued, shuffle, p_key, seed):
    values = [k % 9 for k in keys] if valued else None
    new, ref = (MCSkiplist(capacity_words=60_000, p_key=p_key, seed=seed)
                for _ in range(2))
    got = _outcome(mc_bulk, new, keys[::-1], values[::-1] if valued
                   else None, rng=new.rng, shuffle_layout=shuffle)
    want = _outcome(oracle.mc_bulk_build_into, ref, _tuples(keys, values),
                    rng=ref.rng, shuffle_layout=shuffle)
    assert got == want
    assert _mc_image(new) == _mc_image(ref)


@pytest.mark.parametrize("keys,values", [
    ([0, 5], None),       # the -inf sentinel
    ([5, 5], [0, 1]),
    ([3, 9, 3], None),
])
def test_mc_sentinel_and_duplicates_match_oracle(keys, values):
    new, ref = (MCSkiplist(capacity_words=10_000, seed=1) for _ in range(2))
    got = _outcome(mc_bulk, new, keys, values)
    want = _outcome(oracle.mc_bulk_build_into, ref, _tuples(keys, values))
    assert got == want
    assert _mc_image(new) == _mc_image(ref)


# -- registry builds: bulk build + L2 warm, sharded and not -----------------

def _recorded(fn, log):
    def wrapped(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except (ValueError, OutOfChunks) as e:
            log.append((type(e), str(e)))
            raise
        log.append(out)
        return out
    return wrapped


def _tuple_gfsl(sl, keys, values=None, rng=None, fill=DEFAULT_FILL):
    return oracle.bulk_build_into(sl, _tuples(keys, values), rng=rng,
                                  fill=fill)


def _tuple_mc(mc, keys, values=None, rng=None, shuffle_layout=True):
    return oracle.mc_bulk_build_into(mc, _tuples(keys, values), rng=rng,
                                     shuffle_layout=shuffle_layout)


def _registry_build(kind, workload, use_oracle, device=None):
    """Build ``kind`` through the registry with the array builders and
    the closed-form warm, or with the oracles patched in; returns the
    builders' return values (or errors) and the resulting device state."""
    log = []
    gfsl_fn = _tuple_gfsl if use_oracle else interface.bulk_build_into
    mc_fn = _tuple_mc if use_oracle else interface.mc_bulk
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            interface, "bulk_build_into", _recorded(gfsl_fn, log)))
        stack.enter_context(mock.patch.object(
            interface, "mc_bulk", _recorded(mc_fn, log)))
        if use_oracle:
            stack.enter_context(mock.patch.object(
                L2Cache, "warm", per_line_warm.warm))
        try:
            s = make_structure(kind, workload, team_size=16, seed=3,
                               device=device)
        except (ValueError, OutOfChunks) as e:
            return log, (type(e), str(e))
    shards = getattr(s, "shards", [s])
    ctx, l2 = s.ctx, s.ctx.tracer.l2
    pools = [sh.pool.allocated(ctx.mem) if hasattr(sh, "layout")
             else sh.pool.allocated_words(ctx.mem) for sh in shards]
    return log, (ctx.mem.raw().tobytes(), pools,
                 [sh.rng.bit_generator.state for sh in shards],
                 [list(lines) for lines in l2._sets],
                 (l2.stats.hits, l2.stats.misses), ctx.tracer.stats)


KINDS = ["gfsl", "gfsl@4", "mc", "pq@4"]
# An 8 KB L2 (16 sets x 4 ways): a few hundred keys overflow its sets.
SMALL_L2 = replace(DeviceConfig.gtx970(), l2_bytes=8 * 1024, l2_assoc=4)


def _workload(prefill, key_range=4000):
    w = generate(MIX_10_10_80, key_range=key_range, n_ops=200, seed=5)
    return replace(w, prefill=np.asarray(prefill, dtype=np.int64))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None)
@given(prefill=st.lists(st.integers(1, 4000), max_size=1500, unique=True))
@example(prefill=[])
@example(prefill=[2500])
def test_registry_build_matches_oracle(kind, prefill):
    w = _workload(prefill)
    assert (_registry_build(kind, w, False, SMALL_L2)
            == _registry_build(kind, w, True, SMALL_L2))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("prefill", [[0, 10, 20], [30, 7, 30]])
def test_registry_errors_match_oracle(kind, prefill):
    """A sentinel key 0 and a duplicate: every kind raises."""
    w = _workload(prefill)
    assert _registry_build(kind, w, False) == _registry_build(kind, w, True)


@pytest.mark.parametrize("kind", KINDS)
def test_registry_build_of_a_generated_workload(kind):
    """A workload's own prefill on the default device."""
    w = generate(MIX_10_10_80, key_range=60_000, n_ops=100, seed=11)
    assert _registry_build(kind, w, False) == _registry_build(kind, w, True)
