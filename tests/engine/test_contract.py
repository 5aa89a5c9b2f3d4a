"""The key contract, once, for every structure kind.

Keys are user keys in ``[1, 2^32-2]`` (0 and 2^32-1 are the ±∞
sentinels), values fit the entry's upper 32 bits, and a window's two
bounds are user keys (``lo > hi`` is the empty window).  The rule lives
in :mod:`repro.core.constants`; this module checks that every entry
point applies it the same way on every registered kind — ``gfsl``,
``pq`` and ``mc``, bare and as ``@2``/``@4`` maps under both
partitioners — on every backend, in both bulk builders and at the
serving frontend's :class:`~repro.serve.Request`.

Results against a reference live in the differential suites, and the
``TypeError`` of an ``mc@S`` map's chunked API in ``TestCapabilityGate``.
"""

import re

import pytest

from repro.baseline import MCSkiplist
from repro.baseline import bulk_build_into as mc_bulk
from repro.core import GFSL, bulk_build_into
from repro.engine import OpBatch, execute_batch, make_structure
from repro.engine.batch import OP_CONTAINS, OP_DELETE, OP_INSERT
from repro.serve import DELETE, GET, PUT, RANGE, Request
from repro.workloads import MIX_10_10_80, generate

BAD_KEYS = (0, 2**32 - 1, 2**32, -1, 2**40)
BAD_VALUES = (-1, 2**32)
BOUNDARY_KEYS = (1, 2**32 - 2)
BOUNDARY_VALUES = (0, 2**32 - 1)
BACKENDS = ("sequential", "interleaved", "vectorized")

KINDS = [(base, None) for base in ("gfsl", "pq", "mc")] + [
    (f"{base}@{s}", part) for base in ("gfsl", "pq", "mc")
    for s in (2, 4) for part in ("range", "hash")]
CHUNKED = [k for k in KINDS if not k[0].startswith("mc")]
SHARDED = [k for k in KINDS if k[1] is not None]


def _id(kind):
    name, part = kind
    return name if part is None else f"{name}-{part}"


def build(kind):
    name, part = kind
    w = generate(MIX_10_10_80, key_range=512, n_ops=64, seed=1)
    kw = {} if part is None else {"partitioner": part}
    return make_structure(name, w, team_size=8, seed=0, **kw)


def bad_key(key):
    return pytest.raises(ValueError,
                         match=re.escape(f"key {key} outside user range"))


def bad_value(value):
    return pytest.raises(ValueError, match=re.escape(f"value {value} outside"))


@pytest.fixture(params=KINDS, ids=_id)
def sm(request):
    return build(request.param)


@pytest.fixture(params=CHUNKED, ids=_id)
def chunked(request):
    return build(request.param)


def _point_ops(s):
    ops = [s.contains, s.insert, s.delete]
    return ops + [s.get] if s.chunked else ops


# -- point operations ----------------------------------------------------------

def test_point_ops_refuse_bad_keys(sm):
    before = sm.items()
    for op in _point_ops(sm):
        for key in BAD_KEYS:
            with bad_key(key):
                op(key)
    assert sm.items() == before


def test_insert_refuses_bad_values(sm):
    before = sm.items()
    for value in BAD_VALUES:
        with bad_value(value):
            sm.insert(7, value)
    assert sm.items() == before


def test_boundary_keys_and_values_pass(sm):
    for key, value in zip(BOUNDARY_KEYS, BOUNDARY_VALUES):
        sm.delete(key)
        assert sm.insert(key, value)
        assert sm.contains(key)
        if sm.chunked:
            assert sm.get(key) == value
        assert (key, value) in sm.items()
        assert sm.delete(key)


@pytest.mark.parametrize("kind", [k for k in CHUNKED if k[1] is None],
                         ids=_id)
def test_gfsl_extension_ops_share_the_contract(kind):
    sl = build(kind)
    for op in (sl.successor, sl.predecessor, lambda k: sl.update(k, 1)):
        for key in BAD_KEYS:
            with bad_key(key):
                op(key)
    k = sl.keys()[0]
    for value in BAD_VALUES:
        with bad_value(value):
            sl.update(k, value)
    assert sl.update(k, BOUNDARY_VALUES[1]) and sl.get(k) == 2**32 - 1


# -- batches on every backend -------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_refuse_bad_keys(sm, backend):
    before = sm.items()
    for op in (OP_CONTAINS, OP_INSERT, OP_DELETE):
        for key in BAD_KEYS:
            batch = OpBatch.from_pairs([(OP_CONTAINS, 3), (op, key, 1)])
            with bad_key(key):
                execute_batch(sm, batch, backend)
    assert sm.items() == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_refuse_bad_insert_values(sm, backend):
    before = sm.items()
    for value in BAD_VALUES + (2**33 + 7,):
        batch = OpBatch.from_pairs([(OP_CONTAINS, 3), (OP_INSERT, 7, value)])
        with bad_value(value):
            execute_batch(sm, batch, backend)
    assert sm.items() == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_boundaries_pass_and_other_rows_ignore_values(sm, backend):
    """Boundary keys and values are legal; a contains or delete row's
    value is not a payload, so no backend checks it."""
    for key in BOUNDARY_KEYS:
        sm.delete(key)
    rows = [(OP_INSERT, k, v) for k, v in zip(BOUNDARY_KEYS, BOUNDARY_VALUES)]
    rows += [(OP_CONTAINS, sm.keys()[0], -1), (OP_DELETE, 9999, 2**40)]
    res = execute_batch(sm, OpBatch.from_pairs(rows), backend)
    assert res.results == [True, True, True, False]
    items = dict(sm.items())
    assert [items[k] for k in BOUNDARY_KEYS] == list(BOUNDARY_VALUES)


# -- windows ---------------------------------------------------------------------

def test_windows_refuse_bad_bounds(chunked):
    all_items = chunked.items()
    with chunked.begin_snapshot() as snap:
        for read in (chunked.range_query, snap.range_query):
            for bad in BAD_KEYS:
                with bad_key(bad):
                    read(bad, 5)
                with bad_key(bad):
                    read(1, bad)
            assert read(9, 8) == []
            assert read(*BOUNDARY_KEYS) == all_items


# -- bulk builders -------------------------------------------------------------

BUILDERS = [
    pytest.param(lambda: GFSL(capacity_chunks=64, team_size=16, seed=1),
                 bulk_build_into, id="gfsl"),
    pytest.param(lambda: MCSkiplist(capacity_words=10_000, seed=1),
                 mc_bulk, id="mc")]


def _built(fresh, builder):
    s = fresh()
    builder(s, [3, 4], [30, 40])
    return s


@pytest.mark.parametrize("fresh,builder", BUILDERS)
@pytest.mark.parametrize("key", BAD_KEYS)
def test_bulk_builders_refuse_bad_keys(fresh, builder, key):
    s = _built(fresh, builder)
    with bad_key(key):
        builder(s, [5, key])
    assert s.items() == [(3, 30), (4, 40)]


@pytest.mark.parametrize("fresh,builder", BUILDERS)
@pytest.mark.parametrize("value", BAD_VALUES + (2**33,))
def test_bulk_builders_refuse_bad_values(fresh, builder, value):
    s = _built(fresh, builder)
    with bad_value(value):
        builder(s, [5, 6], [0, value])
    assert s.items() == [(3, 30), (4, 40)]


@pytest.mark.parametrize("fresh,builder", BUILDERS)
def test_bulk_builders_take_the_boundaries(fresh, builder):
    s = fresh()
    builder(s, list(BOUNDARY_KEYS), list(BOUNDARY_VALUES))
    assert s.items() == list(zip(BOUNDARY_KEYS, BOUNDARY_VALUES))


# -- the serving frontend's requests --------------------------------------------

@pytest.mark.parametrize("key", BAD_KEYS)
def test_requests_refuse_bad_keys(key):
    for kind in (GET, PUT, DELETE):
        with bad_key(key):
            Request(kind=kind, key=key)
    with bad_key(key):
        Request(kind=RANGE, key=key, hi=5)
    with bad_key(key):
        Request(kind=RANGE, key=1, hi=key)


def test_requests_check_only_a_put_value():
    for value in BAD_VALUES:
        with bad_value(value):
            Request(kind=PUT, key=7, value=value)
        Request(kind=GET, key=7, value=value)
    for key, value in zip(BOUNDARY_KEYS, BOUNDARY_VALUES):
        Request(kind=PUT, key=key, value=value)
    Request(kind=RANGE, key=BOUNDARY_KEYS[1], hi=BOUNDARY_KEYS[0])


# -- migration delta capture -----------------------------------------------------

@pytest.mark.parametrize("kind", SHARDED, ids=_id)
def test_refused_mutations_are_never_captured(kind):
    """A migration replays the captured delta onto the destination, so
    an op the shard refuses must not enter it."""
    sm = build(kind)
    sm.begin_delta_capture(1, 100)
    for call in (lambda: sm.insert(5, 2**33), lambda: sm.insert(7, -1),
                 lambda: sm.delete(0)):
        with pytest.raises(ValueError):
            call()
    sm.insert(9, 90)
    assert sm.end_delta_capture() == [("insert", 9, 90)]
