"""Workload generation per Section 5.1.

"Mixtures are represented as tuples [i, d, c] signifying a set of random
operations with a probability of i% Inserts, d% Deletes, and c%
Contains" — keys drawn uniformly from the benchmark's key range.  The
initial structure for mixed tests holds a random half of the range; the
Contains-/Delete-only tests start with every key present, the
Insert-only test starts empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Op(IntEnum):
    """Operation codes of the benchmark op arrays (Section 5.1)."""
    CONTAINS = 0
    INSERT = 1
    DELETE = 2


@dataclass(frozen=True)
class Mixture:
    """An operation mixture [i, d, c] (percentages)."""

    inserts: int
    deletes: int
    contains: int

    def __post_init__(self):
        if self.inserts + self.deletes + self.contains != 100:
            raise ValueError("mixture percentages must total 100")
        if min(self.inserts, self.deletes, self.contains) < 0:
            raise ValueError("mixture percentages must be non-negative")

    @property
    def name(self) -> str:
        """The paper's [i,d,c] notation."""
        return f"[{self.inserts},{self.deletes},{self.contains}]"

    @property
    def update_fraction(self) -> float:
        """Share of operations that mutate the structure."""
        return (self.inserts + self.deletes) / 100.0

    @property
    def kind(self) -> str:
        """mixed / contains-only / insert-only / delete-only."""
        if self.contains == 100:
            return "contains-only"
        if self.inserts == 100:
            return "insert-only"
        if self.deletes == 100:
            return "delete-only"
        return "mixed"


# The four mixed workloads of Figure 5.3 and the three single-op
# workloads of Figure 5.4.
MIX_1_1_98 = Mixture(1, 1, 98)
MIX_5_5_90 = Mixture(5, 5, 90)
MIX_10_10_80 = Mixture(10, 10, 80)
MIX_20_20_60 = Mixture(20, 20, 60)
CONTAINS_ONLY = Mixture(0, 0, 100)
INSERT_ONLY = Mixture(100, 0, 0)
DELETE_ONLY = Mixture(0, 100, 0)

PAPER_MIXTURES = (MIX_1_1_98, MIX_5_5_90, MIX_10_10_80, MIX_20_20_60)
SINGLE_OP_MIXTURES = (CONTAINS_ONLY, INSERT_ONLY, DELETE_ONLY)


@dataclass
class Workload:
    """A generated benchmark input: prefill set + operation array."""

    key_range: int
    mixture: Mixture
    prefill: np.ndarray      # keys present before the measured kernel
    ops: np.ndarray          # op codes (Op values)
    keys: np.ndarray         # one key per op
    values: np.ndarray | None = None   # insert payload per op

    @property
    def n_ops(self) -> int:
        """Number of operations in the array."""
        return int(self.ops.size)


def prefill_for(mixture: Mixture, key_range: int,
                rng: np.random.Generator) -> np.ndarray:
    """Initial key set per Section 5.1: half the range for mixed tests,
    the full range for contains-/delete-only.

    The paper's insert-only test starts *empty* and inserts one op per
    key in the range; its reported throughput is therefore dominated by
    inserts into an already-sizeable structure.  A scaled op sample from
    an empty structure would instead measure only the first instants of
    growth (hundreds of concurrent inserts contending for the initial
    chunk), so the sample is taken at the growth midpoint: half the
    range pre-inserted, keys drawn over the whole range (≈50% duplicate
    probability, exactly the mid-run hit rate of the paper's test).
    DESIGN.md §2 records this scaling substitution.
    """
    if mixture.kind in ("mixed", "insert-only"):
        return rng.choice(np.arange(1, key_range + 1, dtype=np.int64),
                          size=key_range // 2, replace=False)
    return np.arange(1, key_range + 1, dtype=np.int64)


def zipf_keys(rng: np.random.Generator, key_range: int, n: int,
              s: float = 1.0) -> np.ndarray:
    """Zipf(s)-distributed keys over the range — an extension beyond the
    paper's uniform workloads (real KV traffic is skewed).

    Ranks get probability ∝ 1/rank^s, then ranks are mapped onto a
    seeded permutation of the key space so the hot set is scattered
    across the structure rather than clustered in the lowest chunks.
    """
    support = np.arange(1, key_range + 1, dtype=np.float64)
    probs = support ** -s
    probs /= probs.sum()
    ranks = rng.choice(key_range, size=n, p=probs)
    perm = rng.permutation(np.arange(1, key_range + 1, dtype=np.int64))
    return perm[ranks]


def front_keys(rng: np.random.Generator, key_range: int, n: int,
               s: float = 1.0) -> np.ndarray:
    """Front-loaded Zipf(s) keys: rank *r* **is** key *r* — the smallest
    keys are the hottest, with no scattering permutation.

    This is the priority-queue drain / delete-min adversary ("Practical
    Concurrent Priority Queues", PAPERS.md): all the heat piles onto the
    lowest chunks, and under range partitioning onto *shard 0*.  The
    permuted :func:`zipf_keys` deliberately destroys exactly this
    clustering, so elastic-resharding campaigns need this variant —
    a scattered hot set never produces a hot shard to migrate away.
    """
    support = np.arange(1, key_range + 1, dtype=np.float64)
    probs = support ** -s
    probs /= probs.sum()
    return rng.choice(key_range, size=n, p=probs).astype(np.int64) + 1


#: Key distributions :func:`generate` accepts (the paper uses uniform).
DISTRIBUTIONS = ("uniform", "zipf", "hotspot", "front")

#: Hotspot defaults: 90% of operations hit a seeded 10% of the range.
HOT_FRACTION = 0.1
HOT_WEIGHT = 0.9


def hotspot_keys(rng: np.random.Generator, key_range: int, n: int,
                 hot_fraction: float = HOT_FRACTION,
                 hot_weight: float = HOT_WEIGHT) -> np.ndarray:
    """Hotspot-distributed keys: ``hot_weight`` of the draws land on a
    seeded-random ``hot_fraction`` of the key space, the rest are
    uniform over the whole range.

    Like :func:`zipf_keys`, the hot set is a slice of a seeded
    permutation so it scatters across the structure's chunks instead of
    clustering in the lowest ones — the contention is on *keys*, not on
    one end of the list.
    """
    n_hot = max(1, int(round(key_range * hot_fraction)))
    perm = rng.permutation(np.arange(1, key_range + 1, dtype=np.int64))
    hot_draw = perm[:n_hot][rng.integers(0, n_hot, size=n)]
    cold_draw = rng.integers(1, key_range + 1, size=n, dtype=np.int64)
    return np.where(rng.random(n) < hot_weight, hot_draw, cold_draw)


def draw_keys(rng: np.random.Generator, distribution: str, key_range: int,
              n: int, zipf_s: float = 1.0) -> np.ndarray:
    """``n`` int64 keys over ``[1, key_range]`` from one of
    :data:`DISTRIBUTIONS` — the one key sampler behind :func:`generate`
    and the serve load plans."""
    if distribution == "uniform":
        return rng.integers(1, key_range + 1, size=n, dtype=np.int64)
    if distribution == "zipf":
        return zipf_keys(rng, key_range, n, s=zipf_s)
    if distribution == "hotspot":
        return hotspot_keys(rng, key_range, n)
    if distribution == "front":
        return front_keys(rng, key_range, n, s=zipf_s)
    raise ValueError(f"unknown distribution {distribution!r} "
                     f"(choose from {', '.join(DISTRIBUTIONS)})")


def generate(mixture: Mixture, key_range: int, n_ops: int,
             seed: int = 0, distribution: str = "uniform",
             zipf_s: float = 1.0) -> Workload:
    """Build a workload: random op types and keys.

    Delete-only workloads draw keys without replacement (the paper sizes
    these runs to the key range so each key is deleted about once).
    ``distribution`` selects uniform keys (the paper's setting),
    ``"zipf"`` skewed keys, ``"hotspot"`` keys, or ``"front"``
    front-loaded keys (extensions; see :func:`zipf_keys` /
    :func:`hotspot_keys` / :func:`front_keys`).

    Every draw — prefill, op codes, keys (all distribution paths), and
    insert payloads, in that order — comes from the single
    ``np.random.default_rng(seed)`` instance created here, so one seed
    fully determines the workload (and hence the ``OpBatch`` built from
    it).  New draws must be appended after the existing ones to keep
    historical seeds stable.
    """
    if key_range < 4:
        raise ValueError("key range too small")
    if n_ops < 1:
        raise ValueError(f"--ops must be at least 1 (got {n_ops})")
    rng = np.random.default_rng(seed)
    prefill = prefill_for(mixture, key_range, rng)

    p = np.array([mixture.contains, mixture.inserts, mixture.deletes],
                 dtype=np.float64) / 100.0
    ops = rng.choice(np.array([Op.CONTAINS, Op.INSERT, Op.DELETE],
                              dtype=np.int64), size=n_ops, p=p)
    if (distribution == "uniform" and mixture.kind == "delete-only"
            and n_ops <= key_range):
        keys = rng.permutation(np.arange(1, key_range + 1,
                                         dtype=np.int64))[:n_ops]
    else:
        keys = draw_keys(rng, distribution, key_range, n_ops, zipf_s)
    # Insert payloads (32-bit user values); drawn last so pre-existing
    # seeds keep producing the same prefill/ops/keys arrays.
    values = rng.integers(1, 2**31, size=n_ops, dtype=np.int64)
    return Workload(key_range=key_range, mixture=mixture,
                    prefill=prefill, ops=ops, keys=keys, values=values)
