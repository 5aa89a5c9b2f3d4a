"""Property-based tests: GFSL against a model set, plus structural
invariants after arbitrary operation sequences."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GFSL, bulk_build_into, validate_structure

KEYS = st.integers(min_value=1, max_value=300)

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "contains"]), KEYS),
    min_size=1, max_size=120)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy, team_size=st.sampled_from([8, 16, 32]))
def test_matches_model_set(ops, team_size):
    """Sequential GFSL behaves exactly like a Python set with values."""
    sl = GFSL(capacity_chunks=256, team_size=team_size, seed=7)
    model = set()
    for op, k in ops:
        if op == "insert":
            assert sl.insert(k) == (k not in model)
            model.add(k)
        elif op == "delete":
            assert sl.delete(k) == (k in model)
            model.discard(k)
        else:
            assert sl.contains(k) == (k in model)
    assert sl.keys() == sorted(model)
    validate_structure(sl)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(keys=st.lists(st.integers(1, 10**6), min_size=0, max_size=400,
                     unique=True))
def test_bulk_build_equals_set(keys):
    sl = GFSL(capacity_chunks=512, team_size=16, seed=3)
    bulk_build_into(sl, keys, [k % 13 for k in keys])
    assert sl.keys() == sorted(keys)
    validate_structure(sl)
    for k in keys[:20]:
        assert sl.get(k) == k % 13


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(prefill=st.lists(st.integers(1, 500), min_size=10, max_size=200,
                        unique=True),
       batch=st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                                st.integers(1, 500)),
                      min_size=1, max_size=60),
       seed=st.integers(0, 2**16))
def test_concurrent_batches_preserve_semantics(prefill, batch, seed):
    """Interleaved update batches on *distinct* keys behave like their
    sequential composition; racing same-key ops resolve consistently
    (one winner, final state matches the returned outcomes)."""
    sl = GFSL(capacity_chunks=512, team_size=16, seed=9)
    bulk_build_into(sl, prefill)
    gens = []
    meta = []
    for op, k in batch:
        if op == "insert":
            gens.append(sl.insert_gen(k))
        else:
            gens.append(sl.delete_gen(k))
        meta.append((op, k))
    results = sl.ctx.run_concurrent(gens, seed=seed)
    # Net effect per key: count of successful inserts minus successful
    # deletes determines membership transitions from the prefill state.
    final = set(sl.keys())
    for (op, k), r in zip(meta, results):
        assert isinstance(r.value, bool)
    for k in {k for _op, k in meta}:
        ins_ok = sum(1 for (op, kk), r in zip(meta, results)
                     if kk == k and op == "insert" and r.value)
        del_ok = sum(1 for (op, kk), r in zip(meta, results)
                     if kk == k and op == "delete" and r.value)
        was_in = k in prefill
        # Successful ops alternate membership; the final state must be
        # consistent with the success counts.
        expected_in = (int(was_in) + ins_ok - del_ok)
        assert expected_in in (0, 1), f"impossible op history for {k}"
        assert (k in final) == bool(expected_in)
    validate_structure(sl)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(keys=st.lists(st.integers(1, 10**5), min_size=5, max_size=150,
                     unique=True),
       lo=st.integers(1, 10**5), hi=st.integers(1, 10**5))
def test_range_query_matches_model(keys, lo, hi):
    sl = GFSL(capacity_chunks=512, team_size=16, seed=11)
    bulk_build_into(sl, keys, [k % 11 for k in keys])
    lo, hi = min(lo, hi), max(lo, hi)
    expected = sorted((k, k % 11) for k in keys if lo <= k <= hi)
    assert sl.range_query(lo, hi) == expected


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(keys=st.lists(st.integers(1, 10**4), min_size=1, max_size=100,
                     unique=True))
def test_pop_min_drains_in_order(keys):
    sl = GFSL(capacity_chunks=512, team_size=16, seed=13)
    bulk_build_into(sl, keys)
    popped = []
    while True:
        k = sl.pop_min()
        if k is None:
            break
        popped.append(k)
    assert popped == sorted(keys)
    assert len(sl) == 0
