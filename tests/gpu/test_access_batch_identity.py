"""``TransactionTracer.access_words_batch`` against the ``np.unique``
oracle in ``numpy_access_batch``: identical ``TraceStats``, return
value, L2 per-set LRU order and TLB order after every batch — on a tiny
device whose L2 sets and TLB evict constantly — and, for batches with
no in-batch repeat, identical to looping ``access_words``.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.device import DeviceConfig
from repro.gpu.tracer import TransactionTracer
from tests.gpu import numpy_access_batch as oracle

# 4 sets x 2 ways of 16-word lines, and a 4-entry TLB over 64-word
# pages: a few dozen distinct addresses force evictions in both.
TINY = replace(DeviceConfig.gtx970(), l2_bytes=8 * 128, l2_assoc=2,
               tlb_page_bytes=512, tlb_entries=4)
PAGE_WORDS = TINY.tlb_page_bytes // 8


def _state(t: TransactionTracer):
    return (t.stats, (t.l2.stats.hits, t.l2.stats.misses),
            [list(s) for s in t.l2._sets], list(t._tlb))


@st.composite
def batches(draw):
    m = draw(st.integers(1, 40))
    pool = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=60))
    addrs = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    n_words = draw(st.one_of(
        st.sampled_from([1, 2, 15, 16, 17, 32]),
        st.lists(st.integers(1, 40), min_size=m, max_size=m)))
    return (addrs, n_words, draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(seq=st.lists(batches(), min_size=1, max_size=8))
@example(seq=[([0, 0, 16], 16, True, False)])
@example(seq=[([15, 15, 47], [2, 1, 40], False, True)])
def test_batches_match_oracle(seq):
    new = TransactionTracer(TINY)
    ref = TransactionTracer(TINY)
    for addrs, n_words, coalesced, atomic in seq:
        nw = np.asarray(n_words) if isinstance(n_words, list) else n_words
        got = new.access_words_batch(np.asarray(addrs), nw,
                                     coalesced=coalesced, atomic=atomic)
        want = oracle.access_words_batch(ref, np.asarray(addrs), nw,
                                         coalesced=coalesced, atomic=atomic)
        assert got == want
        assert _state(new) == _state(ref)


@st.composite
def repeat_free_batches(draw):
    """Accesses in distinct TLB pages, each inside its page: no page and
    no cache line repeats within the batch."""
    pages = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12,
                          unique=True))
    accesses = []
    for p in pages:
        nw = draw(st.integers(1, PAGE_WORDS))
        off = draw(st.integers(0, PAGE_WORDS - nw))
        accesses.append((p * PAGE_WORDS + off, nw))
    return accesses, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(seq=st.lists(repeat_free_batches(), min_size=1, max_size=8))
def test_repeat_free_batch_classifies_like_a_loop(seq):
    batched = TransactionTracer(TINY)
    looped = TransactionTracer(TINY)
    for accesses, coalesced, atomic in seq:
        addrs = [a for a, _ in accesses]
        widths = [w for _, w in accesses]
        got = batched.access_words_batch(addrs, np.asarray(widths),
                                         coalesced=coalesced, atomic=atomic)
        want = sum(looped.access_words(a, w, coalesced=coalesced,
                                       atomic=atomic)
                   for a, w in accesses)
        assert got == want
        assert _state(batched) == _state(looped)
