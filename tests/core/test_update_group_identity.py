"""The Python-int update-group checks of ``repro.core.vector`` against
the numpy oracle in ``numpy_update_group``: the same accept/reject
decision and, on accept, the same live entries and the same published
chunk image — including values >= 2**32 and negative values, which
``C.pack_kv`` and numpy's uint64 shift must truncate alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core import vector
from repro.core.chunk import ChunkGeometry, pack_next
from tests.core import numpy_update_group as oracle

INS, DEL = vector._OP_INSERT, vector._OP_DELETE
GEOS = [ChunkGeometry(8), ChunkGeometry(16)]


def chunk(geo, keys, maxf, *, nxt=7, lock=C.UNLOCKED, vals=None):
    """A chunk word image holding sorted ``keys`` (NEG_INF allowed)."""
    keys = sorted(keys)
    vals = vals or [k * 3 + 1 for k in keys]
    W = [C.pack_kv(k, v) for k, v in zip(keys, vals)]
    W += [C.EMPTY_KV] * (geo.n - len(W))
    W[geo.next_idx] = pack_next(maxf, nxt)
    W[geo.lock_idx] = lock
    return W


def check(geo, W, group):
    """Assert oracle and int versions agree; returns the decision."""
    ops = [o for o, _k, _v in group]
    keys = [k for _o, k, _v in group]
    vals = [v for _o, _k, v in group]
    Wn = np.asarray(W, dtype=np.uint64)
    opn = np.asarray(ops, dtype=np.int64)
    keyn = np.asarray(keys, dtype=np.int64)
    want = oracle.batchable(geo, Wn, opn, keyn)
    got = vector._batchable(geo, W, ops, keys)
    assert (got is None) == (want is None)
    if got is None:
        return False
    assert got == want.tolist()
    maxf, nxt = W[geo.next_idx] & C.MASK32, W[geo.next_idx] >> 32
    img_want = oracle.chunk_image(geo, want, opn, keyn,
                                  np.asarray(vals, dtype=np.int64),
                                  maxf, nxt)
    img_got = vector._chunk_image(geo, got, ops, keys, vals, maxf, nxt)
    assert img_got == img_want.tolist()
    return True


@st.composite
def groups(draw):
    geo = draw(st.sampled_from(GEOS))
    lock = draw(st.sampled_from([C.UNLOCKED] * 4 + [C.LOCKED, C.ZOMBIE]))
    keys = draw(st.lists(st.integers(1, 60), max_size=geo.dsize,
                         unique=True))
    if draw(st.booleans()) and len(keys) < geo.dsize:
        keys = [C.NEG_INF_KEY] + keys
    user = [k for k in keys if k != C.NEG_INF_KEY]
    top = max(user, default=0)
    maxf = draw(st.sampled_from([top, top + 5, C.EMPTY_KEY]))
    W = chunk(geo, keys, maxf, nxt=draw(st.integers(0, C.MASK32)),
              lock=lock)
    gkeys = draw(st.lists(st.one_of(st.sampled_from(user or [1]),
                                    st.integers(1, 70)),
                          min_size=1, max_size=geo.dsize, unique=True))
    ops = draw(st.lists(st.sampled_from([INS, DEL]),
                        min_size=len(gkeys), max_size=len(gkeys)))
    vals = draw(st.lists(st.integers(-2**40, 2**40),
                         min_size=len(gkeys), max_size=len(gkeys)))
    return geo, W, list(zip(ops, gkeys, vals))


@settings(max_examples=600, deadline=None)
@given(case=groups())
def test_fuzz_matches_oracle(case):
    check(*case)


G = GEOS[1]     # dsize 14, merge threshold 4
FULL = list(range(10, 150, 10))              # 14 keys: a full chunk


@pytest.mark.parametrize("name, W, group, accepted", [
    ("boundary-key delete lowers the max field",
     chunk(G, [10, 20, 30, 40, 50, 60], 60), [(DEL, 60, 0)], True),
    ("boundary delete mixed with insert",
     chunk(G, [10, 20, 30, 40, 50, 60], 60),
     [(DEL, 60, 0), (INS, 25, 1)], False),
    ("NEG_INF-only chunk", chunk(G, [C.NEG_INF_KEY], 50),
     [(INS, 25, 1)], False),
    ("full chunk refuses an insert", chunk(G, FULL, 140),
     [(INS, 15, 1)], False),
    ("full chunk takes a delete", chunk(G, FULL, 140),
     [(DEL, 70, 0)], True),
    ("merge edge: one live entry above the threshold",
     chunk(G, [10, 20, 30, 40, 50, 60], 60), [(DEL, 20, 0)], True),
    ("merge edge: at the threshold",
     chunk(G, [10, 20, 30, 40, 50, 60], 60),
     [(DEL, 20, 0), (DEL, 30, 0)], False),
    ("values >= 2**32 and negative values are truncated like pack_kv",
     chunk(G, [10, 20, 30, 40, 50, 60], 60),
     [(INS, 15, 2**32 + 5), (INS, 25, -3), (INS, 35, -2**40 - 1)], True),
])
def test_edge_cases(name, W, group, accepted):
    assert check(G, W, group) is accepted

