"""Property-based tests for the M&C baseline."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baseline import MCSkiplist, bulk_build_into

KEYS = st.integers(min_value=1, max_value=200)

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "contains"]), KEYS),
    min_size=1, max_size=100)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy, p_key=st.sampled_from([0.25, 0.5, 0.75]))
def test_matches_model_set(ops, p_key):
    mc = MCSkiplist(capacity_words=200_000, p_key=p_key, seed=3)
    model = set()
    for op, k in ops:
        if op == "insert":
            assert mc.insert(k) == (k not in model)
            model.add(k)
        elif op == "delete":
            assert mc.delete(k) == (k in model)
            model.discard(k)
        else:
            assert mc.contains(k) == (k in model)
    assert mc.keys() == sorted(model)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(keys=st.lists(st.integers(1, 10**6), min_size=0, max_size=300,
                     unique=True))
def test_bulk_build_equals_set(keys):
    mc = MCSkiplist(capacity_words=400_000, seed=5)
    bulk_build_into(mc, keys, [k % 9 for k in keys])
    assert mc.keys() == sorted(keys)
    for k in keys[:15]:
        assert mc.contains(k)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(prefill=st.lists(st.integers(1, 400), min_size=5, max_size=120,
                        unique=True),
       batch=st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                                st.integers(1, 400)),
                      min_size=1, max_size=40),
       seed=st.integers(0, 2**16))
def test_concurrent_batches_consistent(prefill, batch, seed):
    mc = MCSkiplist(capacity_words=500_000, seed=7)
    bulk_build_into(mc, prefill)
    gens = [getattr(mc, f"{op}_gen")(k) for op, k in batch]
    results = mc.ctx.run_concurrent(gens, seed=seed)
    final = set(mc.keys())
    pre = set(prefill)
    for k in {k for _op, k in batch}:
        ins_ok = sum(1 for (op, kk), r in zip(batch, results)
                     if kk == k and op == "insert" and r.value)
        del_ok = sum(1 for (op, kk), r in zip(batch, results)
                     if kk == k and op == "delete" and r.value)
        assert int(k in pre) + ins_ok - del_ok == int(k in final)
