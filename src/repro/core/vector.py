"""Vectorized multi-key kernels for GFSL (engine support).

The batch engine's :class:`~repro.engine.vectorized.VectorizedBackend`
replays whole waves through these kernels instead of one generator per
op.  Three kernels are exposed, each in a single-instance flavour
(``vector_*``) and a fused multi-instance flavour (``*_multi`` /
:func:`update_wave`) that runs one lock-step dispatch across several
co-located structures (the :class:`~repro.shard.ShardedMap` shards —
per-op base offsets from ``GPUContext.reserve`` make the merged index
space trivial):

* :func:`vector_contains` / :func:`contains_multi` — answer all the
  wave's ``Contains`` operations,
* :func:`vector_search` / :func:`search_multi` — precompute the
  ``(found, path)`` result of :func:`~repro.core.traversal.search_slow`
  for the wave's updates (usable as generator hints),
* :func:`update_wave` — the **vectorized critical sections**: partition
  the wave's updates into conflict-free groups (distinct target chunks,
  no split/merge/boundary hazards) and execute each group's
  lock-acquire → modify → publish sequence as three batched accesses
  against :class:`~repro.gpu.memory.GlobalMemory`, falling back to the
  per-op generator for everything else.

All in-flight searches advance in lock-step: each iteration gathers
every search's current chunk with one numpy fancy-index and computes
every team's ballot decision with one vectorized comparison, exactly
the semantics of Algorithms 4.2–4.4/4.6 (``search_down`` +
``search_lateral``) but many ops wide.  Calls of at most
``_SMALL_BATCH`` keys run the same lock-step on Python ints instead,
where numpy's fixed cost per array op would dominate.

The kernels require quiescent memory (the wave's update ops have not
started), which is what makes the lock-free restart path unreachable;
if it is ever hit anyway — or a traversal exceeds the step bound — the
op falls back to its ordinary generator, so behaviour can never diverge
from the sequential path.  (Unlike ``search_slow``, the vector search
performs no lazy zombie unlinking — that cleanup is best-effort by
design, so skipping it affects only when zombies get unlinked, never
results.)

The same contract governs :func:`update_wave`: a batched group is
executed only when the quiescent snapshot *proves* no schedule of its
operations could lock-conflict, split, merge, or touch an upper level,
and the batched result (success flags, final bottom-level contents,
``inserts``/``deletes`` counters) is then identical to sequential
replay by construction.  Every hazard falls back to the hinted
generator.  Fallback hints stay valid across the batched phase because
batched groups never change chunk linkage and wave keys are distinct —
a hint chunk is re-walked laterally and re-validated under the lock.

Tracer accounting is preserved per wave step, and both traversal paths
issue the same per-step batches: each traversal iteration records one
coalesced chunk access *per in-flight op*, in op order, through
:meth:`~repro.gpu.tracer.TransactionTracer.access_words_batch`, and
each batched critical-section phase records one batch (lock CAS /
re-read under lock / publish store) for the whole group — so the cost
model sees batched updates as the three memory phases a real
warp-cooperative update kernel would issue.  Counters are kept the
same way: the kernels count the traversal steps of the rows they read
and the batched groups' lock/read/op events into the instances'
collector (a :class:`~repro.shard.ShardedMap`'s shards share one), so
a vectorized replay reports the counts a sequential one does.
"""

from __future__ import annotations

import numpy as np

from ..gpu.scheduler import run_to_completion
from . import constants as C
from .chunk import pack_next

_DOWN, _LATERAL = 0, 1

# Traversal calls of at most this many keys take the Python-int
# lock-step path: below it numpy's fixed cost per array op (about 25 per
# step) outweighs the per-op Python loop.  Set by measurement (DESIGN.md
# §12, "Small batches").
_SMALL_BATCH = 16

_MAX_STEPS = 100_000    # beyond this a structure is corrupted

# Op codes of repro.engine.batch / repro.workloads.generator, restated
# locally to keep core free of engine imports.
_OP_INSERT, _OP_DELETE = 1, 2

_DIAG_KEYS = ("ops", "fallback_backtrack", "fallback_restart",
              "fallback_stuck", "batched", "fallback_conflict")


def _fresh_diag(m: int) -> dict:
    d = dict.fromkeys(_DIAG_KEYS, 0)
    d["ops"] = m
    return d


# Diagnostics of the most recent kernel call (a snapshot alias — every
# call returns/binds a *fresh* dict, so concurrent or sharded kernel
# calls can never clobber a caller's diagnostics).  Tests use this to
# assert the fallback path stays cold on quiescent memory.
last_call_diag = _fresh_diag(0)


def _publish_diag(diag: dict) -> None:
    global last_call_diag
    last_call_diag = diag


def _highest_true_lane(flags: np.ndarray) -> np.ndarray:
    """Row-wise ``highest_set_lane(ballot(flags))``: index of the highest
    True column, or -1 for all-False rows (the NONE_TID case)."""
    ncols = flags.shape[1]
    tid = (ncols - 1) - np.argmax(flags[:, ::-1], axis=1)
    tid[~flags.any(axis=1)] = C.NONE_TID
    return tid


def _owner_array(owner, m: int) -> np.ndarray:
    if owner is None:
        return np.zeros(m, dtype=np.int64)
    return np.asarray(owner, dtype=np.int64)


def _traverse(sls, owner: np.ndarray, keys: np.ndarray, tracer,
              record_path: bool, track_upper: bool = False):
    """The shared lock-step descent + bottom-level lateral walk, fused
    across the instances in ``sls`` (``owner[i]`` names ``keys[i]``'s
    instance; all instances share one memory/geometry).

    Returns ``(found, paths, upper, fallback, diag)``: bool arrays
    aligned with ``keys`` (``paths`` is the per-op ``search_slow`` path
    matrix, or ``None`` when ``record_path`` is false; ``upper[i]`` is
    True iff ``keys[i]`` was seen in a level ≥ 1 chunk — exact for
    non-fallback ops, since the descent visits the enclosing chunk of
    every level), the list of op indices that must be replayed through
    their generator, and the per-call diagnostics dict.

    Calls of at most ``_SMALL_BATCH`` keys walk on Python ints
    (:func:`_lockstep_ints`), larger ones on numpy rows
    (:func:`_lockstep_arrays`); both issue the same tracer batches,
    return the same values and count the same traversal steps into the
    instances' shared collector.
    """
    m = int(keys.size)
    words = sls[0].ctx.mem.raw()
    max_levels = [s.layout.max_level for s in sls]
    head_bases = [s.layout.head_base for s in sls]
    chunk_bases = [s.layout.chunks_base for s in sls]
    width = max(max_levels)

    # Every search starts with the coalesced head-array read of
    # Algorithm 4.2; memory is quiescent so one snapshot per instance
    # serves all its ops, but the cost model still sees one access per
    # op (at that op's instance's head base).
    own = owner.tolist()
    if tracer is not None:
        tracer.access_words_batch([head_bases[o] for o in own],
                                  [max_levels[o] for o in own],
                                  coalesced=True)
        tracer.record_compute(m)
    head_ptrs = [[0] * width for _ in sls]
    height0 = [0] * len(sls)
    for si in set(own):
        hb, ml = head_bases[si], max_levels[si]
        head = words[hb: hb + ml].tolist()
        head_ptrs[si][:ml] = [w >> 32 for w in head]
        height0[si] = next((lv for lv in range(ml - 1, -1, -1)
                            if head[lv] & C.MASK32), 0)

    if m <= _SMALL_BATCH:
        return _lockstep_ints(sls[0].geo, words, own, keys.tolist(),
                              [chunk_bases[o] for o in own], head_ptrs,
                              height0, tracer, sls[0].metrics, record_path,
                              track_upper)
    return _lockstep_arrays(sls[0].geo, words, owner, keys,
                            np.asarray(chunk_bases, dtype=np.int64)[owner],
                            np.asarray(head_ptrs, dtype=np.int64),
                            np.asarray(height0, dtype=np.int64), tracer,
                            sls[0].metrics, record_path, track_upper)


def _highest_le(W: list, dsize: int, key: int) -> int:
    """Scalar ``highest_set_lane(ballot(entry key <= key))`` over the
    data lanes of one chunk, or NONE_TID."""
    for j in range(dsize - 1, -1, -1):
        if W[j] & C.MASK32 <= key:
            return j
    return C.NONE_TID


def _holds(W: list, dsize: int, key: int) -> bool:
    return any(w & C.MASK32 == key for w in W[:dsize])


def _count_steps(metrics, reads: int, lateral: int, down: int, back: int,
                 zombie: int) -> None:
    """Add one kernel call's traversal counts to ``metrics``: every row
    read is a chunk read, and each decision taken on it counts as the
    sequential traversal counts it (a fallback row's partial walk
    included — its generator replay then counts its own)."""
    metrics.chunk_reads += reads
    metrics.lateral_steps += lateral
    metrics.down_steps += down
    metrics.backtrack_steps += back
    metrics.zombie_encounters += zombie


def _lockstep_ints(geo, words, owner: list, keys: list, cbase: list,
                   head_ptrs, height0, tracer, metrics, record_path: bool,
                   track_upper: bool):
    """:func:`_traverse` for small calls: the same per-step state
    machine as :func:`_lockstep_arrays`, one op at a time on Python
    ints.  Each step still issues one tracer batch over the in-flight
    ops in index order, and appends the step's backtrack fallbacks,
    then its restart fallbacks, in index order."""
    m = len(keys)
    n, dsize = geo.n, geo.dsize
    lock_idx, next_idx = geo.lock_idx, geo.next_idx
    height = [height0[o] for o in owner]
    pcurr = [head_ptrs[o][h] for o, h in zip(owner, height)]
    descending = [h > 0 for h in height]
    prev: list = [None] * m             # last lateral chunk, if any
    prev_ptr = [0] * m
    found = [False] * m
    upper = [False] * m
    paths = [list(head_ptrs[o]) for o in owner] if record_path else None
    fallback: list[int] = []
    diag = _fresh_diag(m)
    act = list(range(m))
    steps = reads = n_lat = n_down = n_back = n_zomb = 0

    while act:
        steps += 1
        if steps > _MAX_STEPS:          # corrupted structure: let the
            fallback.extend(act)        # generators raise a precise fault
            diag["fallback_stuck"] += len(act)
            break
        reads += len(act)
        addrs = [cbase[i] + pcurr[i] * n for i in act]
        if tracer is not None:
            tracer.access_words_batch(addrs, n, coalesced=True)
            tracer.record_compute(len(act))
        still: list[int] = []
        backtracks: list[int] = []
        restarts: list[int] = []
        for i, a in zip(act, addrs):
            W = words[a: a + n].tolist()
            k = keys[i]
            nw = W[next_idx]
            zomb = W[lock_idx] == C.ZOMBIE
            beyond = nw & C.MASK32 < k
            if not descending[i]:       # bottom-level lateral row
                if zomb or beyond:
                    if zomb:
                        n_zomb += 1
                    else:
                        n_lat += 1
                    pcurr[i] = nw >> 32
                    still.append(i)
                else:
                    if record_path:
                        paths[i][0] = pcurr[i]
                    found[i] = _holds(W, dsize, k)
                continue
            if zomb:                    # skip frozen zombies
                n_zomb += 1
                pcurr[i] = nw >> 32
            elif beyond:                # lateral step
                n_lat += 1
                prev[i] = W
                prev_ptr[i] = pcurr[i]
                pcurr[i] = nw >> 32
            else:
                tid = _highest_le(W, dsize, k)
                src, src_ptr = W, pcurr[i]
                if tid == C.NONE_TID:   # backtrack into the previous chunk
                    src, src_ptr = prev[i], prev_ptr[i]
                    if src is None:     # the lock-free restart —
                        restarts.append(i)  # unreachable when quiescent
                        continue
                    n_back += 1
                    tid = _highest_le(src, dsize, k)
                else:
                    n_down += 1
                if track_upper and _holds(src, dsize, k):
                    upper[i] = True
                if tid == C.NONE_TID:
                    backtracks.append(i)
                    continue
                if record_path:
                    paths[i][height[i]] = src_ptr
                pcurr[i] = src[tid] >> 32
                height[i] -= 1
                prev[i] = None
                descending[i] = height[i] > 0
            still.append(i)
        fallback.extend(backtracks)
        fallback.extend(restarts)
        diag["fallback_backtrack"] += len(backtracks)
        diag["fallback_restart"] += len(restarts)
        act = still

    _count_steps(metrics, reads, n_lat, n_down, n_back, n_zomb)
    return (np.array(found, dtype=bool),
            np.array(paths, dtype=np.int64) if record_path else None,
            np.array(upper, dtype=bool), fallback, diag)


def _lockstep_arrays(geo, words, owner: np.ndarray, keys: np.ndarray,
                     cbase: np.ndarray, ptrs: np.ndarray,
                     height0: np.ndarray, tracer, metrics,
                     record_path: bool, track_upper: bool):
    """:func:`_traverse` for large calls: every in-flight op is one row
    of the step's numpy arrays."""
    m = int(keys.size)
    dsize, n = geo.dsize, geo.n
    mask32 = np.uint64(C.MASK32)
    height = height0[owner]
    pcurr = ptrs[owner, height]
    phase = np.where(height > 0, _DOWN, _LATERAL).astype(np.int8)
    prev = np.zeros((m, n), dtype=np.uint64)
    prev_ptr = np.zeros(m, dtype=np.int64)
    have_prev = np.zeros(m, dtype=bool)
    found = np.zeros(m, dtype=bool)
    upper = np.zeros(m, dtype=bool)
    active = np.ones(m, dtype=bool)
    # The "artificial array": every level defaults to its head chunk —
    # always a valid lateral starting point (search_slow does the same).
    paths = ptrs[owner] if record_path else None
    fallback: list[int] = []
    offs = np.arange(n, dtype=np.int64)
    steps = reads = n_lat = n_down = n_back = n_zomb = 0
    diag = _fresh_diag(m)

    while True:
        act = np.nonzero(active)[0]
        if act.size == 0:
            break
        steps += 1
        if steps > _MAX_STEPS:  # corrupted structure: let the generators
            fallback.extend(act.tolist())  # raise a precise fault
            active[act] = False
            diag["fallback_stuck"] += act.size
            break

        reads += act.size
        addrs = cbase[act] + pcurr[act] * n
        if tracer is not None:
            tracer.access_words_batch(addrs, n, coalesced=True)
            tracer.record_compute(act.size)
        W = words[addrs[:, None] + offs]
        keys_m = (W & mask32).astype(np.int64)
        vals_m = (W >> np.uint64(32)).astype(np.int64)
        zomb = W[:, geo.lock_idx] == np.uint64(C.ZOMBIE)
        maxf = keys_m[:, geo.next_idx]
        nxt = vals_m[:, geo.next_idx]
        kk = keys[act]
        ph = phase[act]

        # ---- descent rows (Algorithms 4.2 / 4.6) -------------------------
        downs = ph == _DOWN
        zd = downs & zomb                       # skip frozen zombies
        if zd.any():
            n_zomb += int(np.count_nonzero(zd))
            pcurr[act[zd]] = nxt[zd]
        live_d = downs & ~zomb
        if live_d.any():
            flags = np.concatenate(
                [keys_m[:, :dsize] <= kk[:, None], (maxf < kk)[:, None]],
                axis=1)
            tid = _highest_true_lane(flags)

            lat = live_d & (tid == dsize)       # lateral step
            if lat.any():
                g = act[lat]
                n_lat += g.size
                prev[g] = W[lat]
                prev_ptr[g] = pcurr[g]
                have_prev[g] = True
                pcurr[g] = nxt[lat]

            down = live_d & (tid >= 0) & (tid < dsize)   # down step
            if down.any():
                g = act[down]
                n_down += g.size
                rows = np.nonzero(down)[0]
                if track_upper:
                    # The down-step chunk *is* the key's enclosing chunk
                    # at this (≥ 1) level, so an equality hit here is an
                    # exact upper-level presence test.
                    hit = (keys_m[rows, :dsize] == kk[down][:, None]) \
                        .any(axis=1)
                    upper[g[hit]] = True
                if record_path:
                    paths[g, height[g]] = pcurr[g]
                pcurr[g] = vals_m[rows, tid[down]]
                height[g] -= 1
                have_prev[g] = False
                phase[g[height[g] == 0]] = _LATERAL

            none = live_d & (tid == C.NONE_TID)          # backtrack
            if none.any():
                hp = have_prev[act].copy()  # snapshot: the bt branch below
                bt = none & hp              # clears have_prev in place
                if bt.any():
                    g = act[bt]
                    n_back += g.size
                    pk = (prev[g] & mask32).astype(np.int64)[:, :dsize]
                    tidb = _highest_true_lane(pk <= kk[bt][:, None])
                    if track_upper:
                        hitb = (pk == kk[bt][:, None]).any(axis=1)
                        upper[g[hitb]] = True
                    ok = tidb >= 0
                    gg = g[ok]
                    rows = np.nonzero(ok)[0]
                    if record_path:
                        paths[gg, height[gg]] = prev_ptr[gg]
                    pv = (prev[g] >> np.uint64(32)).astype(np.int64)
                    pcurr[gg] = pv[rows, tidb[ok]]
                    height[gg] -= 1
                    have_prev[gg] = False
                    phase[gg[height[gg] == 0]] = _LATERAL
                    bad_g = g[~ok]
                    fallback.extend(bad_g.tolist())
                    active[bad_g] = False
                    diag["fallback_backtrack"] += bad_g.size
                rs = none & ~hp                 # the lock-free restart —
                if rs.any():                    # unreachable when quiescent
                    g = act[rs]
                    fallback.extend(g.tolist())
                    active[g] = False
                    diag["fallback_restart"] += g.size

        # ---- bottom-level lateral rows (Algorithm 4.4) -------------------
        lats = ph == _LATERAL
        if lats.any():
            flags2 = np.concatenate(
                [keys_m[:, :dsize] == kk[:, None], (maxf < kk)[:, None]],
                axis=1)
            tid2 = _highest_true_lane(flags2)
            step = lats & ((tid2 == dsize) | zomb)
            if step.any():
                zl = int(np.count_nonzero(step & zomb))
                n_zomb += zl
                n_lat += int(np.count_nonzero(step)) - zl
                pcurr[act[step]] = nxt[step]
            done = lats & ~step
            if done.any():
                g = act[done]
                if record_path:
                    paths[g, 0] = pcurr[g]      # the enclosing chunk
                found[g] = tid2[done] != C.NONE_TID
                active[g] = False

    _count_steps(metrics, reads, n_lat, n_down, n_back, n_zomb)
    return found, paths, upper, fallback, diag


def _check_keys(sl, keys: np.ndarray) -> None:
    bad = (keys < C.MIN_USER_KEY) | (keys > C.MAX_USER_KEY)
    if bad.any():
        sl._check_key(int(keys[np.nonzero(bad)[0][0]]))  # raises


# ---------------------------------------------------------------------------
# Read kernels
# ---------------------------------------------------------------------------

def contains_multi(sls, owner, keys: np.ndarray, tracer=None) -> np.ndarray:
    """Fused lock-step membership test across co-located instances.

    Returns a boolean array aligned with ``keys``.  Op accounting
    (``contains_calls``) matches running ``contains_gen`` once per key.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        _publish_diag(_fresh_diag(0))
        return np.zeros(0, dtype=bool)
    owner = _owner_array(owner, keys.size)
    _check_keys(sls[0], keys)
    found, _paths, _upper, fallback, diag = _traverse(
        sls, owner, keys, tracer, record_path=False)
    sls[0].metrics.contains_calls += int(keys.size) - len(fallback)
    for i in fallback:
        s = sls[int(owner[i])]
        found[i] = s.ctx.run(s.contains_gen(int(keys[i])))
    _publish_diag(diag)
    return found


def search_multi(sls, owner, keys: np.ndarray, tracer=None):
    """Fused lock-step ``search_slow`` across co-located instances;
    returns ``(found, paths)`` usable as update hints."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        _publish_diag(_fresh_diag(0))
        return (np.zeros(0, dtype=bool),
                np.zeros((0, sls[0].layout.max_level), dtype=np.int64))
    owner = _owner_array(owner, keys.size)
    _check_keys(sls[0], keys)
    found, paths, _upper, fallback, diag = _traverse(
        sls, owner, keys, tracer, record_path=True)
    from .traversal import search_slow
    for i in fallback:
        s = sls[int(owner[i])]
        f, p = run_to_completion(search_slow(s, int(keys[i])),
                                 s.ctx.mem, tracer)
        found[i] = f
        p = np.asarray(p, dtype=np.int64)
        paths[i, : p.size] = p
    _publish_diag(diag)
    return found, paths


def vector_contains(sl, keys: np.ndarray, tracer=None) -> np.ndarray:
    """Lock-step membership test for many keys on quiescent memory
    (single-instance wrapper over :func:`contains_multi`)."""
    return contains_multi([sl], None, keys, tracer=tracer)


def vector_search(sl, keys: np.ndarray, tracer=None):
    """Lock-step ``search_slow`` for many keys on quiescent memory
    (single-instance wrapper over :func:`search_multi`).

    Returns ``(found, paths)`` where row ``i`` of ``paths`` is the
    per-level chunk-pointer path for ``keys[i]`` — directly usable as
    the ``hint`` of :func:`repro.core.insert.insert` /
    :func:`repro.core.delete.delete`.
    """
    return search_multi([sl], None, keys, tracer=tracer)


# ---------------------------------------------------------------------------
# The vectorized update critical sections
# ---------------------------------------------------------------------------

def _batchable(geo, W: list, ops: list, keys: list):
    """Decide whether one target chunk's operation group can be executed
    batched under every sequential schedule.  ``W`` is the chunk's word
    image and ``ops``/``keys`` the group, all Python ints.  Returns the
    live entries on success, None on any hazard (the conflict-group
    contract of DESIGN.md §12)."""
    if W[geo.lock_idx] != C.UNLOCKED:           # locked or zombie
        return None
    live = [w for w in W[: geo.dsize] if w & C.MASK32 != C.EMPTY_KEY]
    live_keys = {w & C.MASK32 for w in live}
    if not live_keys - {C.NEG_INF_KEY}:
        return None                             # head-counter discipline
    ins_keys = [k for o, k in zip(ops, keys) if o == _OP_INSERT]
    del_keys = [k for o, k in zip(ops, keys) if o != _OP_INSERT]
    if len(live) + len(ins_keys) > geo.dsize:   # a schedule could split
        return None
    if len(live) - len(del_keys) <= geo.merge_threshold:
        return None                             # a schedule could merge
    maxf = W[geo.next_idx] & C.MASK32
    if max(keys) > maxf:                        # stale enclosure hint
        return None
    if (not live_keys.isdisjoint(ins_keys)
            or not live_keys.issuperset(del_keys)):
        return None                             # stale presence hint
    if ins_keys and maxf in del_keys:
        return None            # boundary-delete + insert: order-sensitive
    return live


def _chunk_image(geo, entries: list, ops: list, keys: list, vals: list,
                 maxf: int, nxt: int) -> list:
    """The chunk's published word image after applying the group: live
    entries minus deletes plus inserts, sorted, EMPTY-padded, boundary
    lowered to the highest remaining key iff the boundary key was
    deleted, lock released."""
    del_keys = {k for o, k in zip(ops, keys) if o != _OP_INSERT}
    kept = [w for w in entries if w & C.MASK32 not in del_keys]
    kept += [C.pack_kv(k, v) for o, k, v in zip(ops, keys, vals)
             if o == _OP_INSERT]
    kept.sort(key=lambda w: w & C.MASK32)
    img = kept + [C.EMPTY_KV] * (geo.n - len(kept))
    if maxf in del_keys:
        maxf = kept[-1] & C.MASK32
    img[geo.next_idx] = pack_next(maxf, nxt)
    img[geo.lock_idx] = C.UNLOCKED
    return img


def update_wave(sls, owner, ops: np.ndarray, keys: np.ndarray,
                values: np.ndarray, tracer=None):
    """Execute a wave's update critical sections batched where provably
    conflict-free; returns ``(results, handled, found, paths)``.

    ``handled[i]`` marks ops fully resolved here (batched groups plus
    trivially-false outcomes — insert of a present key / delete of an
    absent one, which the generator would answer before locking
    anything).  For ``~handled`` ops the caller replays the hinted
    generator with ``(found[i], paths[i])``, exactly the pre-existing
    fallback contract.

    A target chunk's group is batched only when the quiescent snapshot
    shows: unlocked non-zombie chunk with user keys, no schedule of the
    group can split (``nlive + inserts <= dsize``) or merge
    (``nlive - deletes > merge_threshold``), hints are fresh, deletes
    have no upper-level copies, and no boundary-key delete mixes with
    inserts.  Each batched group then costs one scalar atomic lock CAS,
    one coalesced chunk re-read under the lock, and one coalesced
    publish store (data + boundary + lock release in one chunk-wide
    image) — charged per group, not per word.
    """
    keys = np.asarray(keys, dtype=np.int64)
    ops = np.asarray(ops, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    m = int(keys.size)
    geo, lay0 = sls[0].geo, sls[0].layout
    if m == 0:
        _publish_diag(_fresh_diag(0))
        return (np.zeros(0, dtype=bool), np.zeros(0, dtype=bool),
                np.zeros(0, dtype=bool),
                np.zeros((0, lay0.max_level), dtype=np.int64))
    owner = _owner_array(owner, m)
    _check_keys(sls[0], keys)
    found, paths, upper, fallback, diag = _traverse(
        sls, owner, keys, tracer, record_path=True, track_upper=True)

    clean = np.ones(m, dtype=bool)
    from .traversal import search_slow
    for i in fallback:
        s = sls[int(owner[i])]
        f, p = run_to_completion(search_slow(s, int(keys[i])),
                                 s.ctx.mem, tracer)
        found[i] = f
        p = np.asarray(p, dtype=np.int64)
        paths[i, : p.size] = p
        clean[i] = False

    results = np.zeros(m, dtype=bool)
    handled = np.zeros(m, dtype=bool)
    # Trivially-false outcomes: the generator answers these from the
    # (hinted) search result before taking any lock, so resolving them
    # here is charge- and counter-identical.
    trivial = clean & (((ops == _OP_INSERT) & found)
                       | ((ops == _OP_DELETE) & ~found))
    handled |= trivial

    cand = clean & ~trivial
    cand &= ~((ops == _OP_DELETE) & upper)   # upper copies: level sweep
    idx = np.nonzero(cand)[0]

    words = sls[0].ctx.mem.raw()
    n = geo.n
    # One pass groups the candidates by target chunk; groups run in
    # sorted (instance, chunk) order, which fixes the order of
    # batched_addrs and so of the three phase batches and the scatter.
    groups: dict[tuple[int, int], list[int]] = {}
    for i, si, ptr in zip(idx.tolist(), owner[idx].tolist(),
                          paths[idx, 0].tolist()):
        groups.setdefault((si, ptr), []).append(i)
    ops_l, keys_l, vals_l = ops.tolist(), keys.tolist(), values.tolist()
    batched_addrs: list[int] = []
    images: list[list[int]] = []
    batched: list[int] = []
    n_ins = 0
    for si, ptr in sorted(groups):
        sel = groups[si, ptr]
        addr = sls[si].layout.chunks_base + ptr * n
        W = words[addr: addr + n].tolist()
        op_sel = [ops_l[i] for i in sel]
        key_sel = [keys_l[i] for i in sel]
        entries = _batchable(geo, W, op_sel, key_sel)
        if entries is None:
            continue
        nw = W[geo.next_idx]
        images.append(_chunk_image(geo, entries, op_sel, key_sel,
                                   [vals_l[i] for i in sel],
                                   nw & C.MASK32, nw >> 32))
        batched_addrs.append(addr)
        batched.extend(sel)
        n_ins += op_sel.count(_OP_INSERT)

    if batched_addrs:
        handled[batched] = True
        results[batched] = True
        addrs = np.asarray(batched_addrs, dtype=np.int64)
        g = len(batched_addrs)
        n_batched = len(batched)
        if tracer is not None:
            # Phase 1 — lock acquire: one scalar atomic CAS per group.
            tracer.access_words_batch(addrs + geo.lock_idx, 1,
                                      coalesced=False, atomic=True)
            tracer.record_compute(g)
            # Phase 2 — coalesced re-read under the lock (the
            # find_and_lock_enclosing line-16 re-validation).
            tracer.access_words_batch(addrs, n, coalesced=True)
            tracer.record_compute(g)
        # The scatter below bypasses the GlobalMemory mutators, so the
        # snapshot-epoch write barrier (pre-images for pinned readers)
        # must be notified explicitly before the wave publishes.
        mem = sls[0].ctx.mem
        if mem.write_barrier is not None:
            for a in batched_addrs:
                mem.write_barrier(a, n)
        words[addrs[:, None] + np.arange(n, dtype=np.int64)] = \
            np.array(images, dtype=np.uint64)
        if tracer is not None:
            # Phase 3 — publish: one coalesced chunk-wide store carrying
            # data, boundary, and lock release.
            tracer.access_words_batch(addrs, n, coalesced=True)
            tracer.record_compute(g)
            tracer.record_compute(n_batched)   # the modify work itself
        mc = sls[0].metrics
        mc.inserts += n_ins
        mc.deletes += n_batched - n_ins
        mc.lock_acquired += g
        mc.lock_released += g
        mc.chunk_reads += g
        diag["batched"] = n_batched
    diag["fallback_conflict"] = int(np.count_nonzero(~handled))
    _publish_diag(diag)
    return results, handled, found, paths
