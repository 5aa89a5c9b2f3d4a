"""Seeded open-loop load generator for the serving frontend.

Open-loop means arrivals do not wait for completions: inter-arrival
gaps are exponential (Poisson process) at ``rate`` requests per 1000
steps, with optional chaos burst waves stacked on top — so overload is
genuinely overload, not self-throttling.  Keys reuse the workload
layer's zipf/hotspot distributions; request kinds follow a 4-way
(put, delete, get, range) percentage mix.  Everything — arrivals, keys,
kinds, client assignment, stall points — is drawn from one seeded RNG,
so a campaign is replayable from ``(LoadConfig, ServeChaosConfig)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..chaos.serve_faults import ServeChaosConfig
from ..workloads.generator import Mixture, Workload, draw_keys
from .aio import Queue, QueueEmpty, VirtualLoop
from .request import DELETE, GET, PUT, RANGE, ClientState, Request


@dataclass(frozen=True)
class LoadConfig:
    """One serve campaign's request stream."""

    n_requests: int = 2000
    n_clients: int = 16
    key_range: int = 2048
    mix: tuple = (25, 10, 60, 5)        # put, delete, get, range (%)
    rate: float = 100.0                  # requests per 1000 steps
    deadline_steps: int = 4000           # per-request deadline horizon
    distribution: str = "zipf"           # uniform / zipf / hotspot / front
    zipf_s: float = 1.0
    range_span: int = 64                 # range window width
    max_inflight: int = 64               # per-client in-flight cap
    delivery_depth: int = 32             # per-client response queue
    seed: int = 0

    def __post_init__(self):
        if len(self.mix) != 4 or sum(self.mix) != 100:
            raise ValueError("--mix needs 4 percentages (put delete get "
                             "range) summing to 100")
        if self.rate <= 0:
            raise ValueError("--rate must be positive")
        for flag, value in (("--requests", self.n_requests),
                            ("--clients", self.n_clients),
                            ("--deadline-steps", self.deadline_steps)):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1")


@dataclass(frozen=True)
class PlannedRequest:
    arrival: int
    cid: int
    kind: str
    key: int
    value: int
    hi: int | None
    deadline: int


@dataclass
class LoadPlan:
    """The fully materialised request stream plus chaos annotations."""

    requests: list                                # sorted by arrival
    stall_at: dict = field(default_factory=dict)  # cid -> stall step
    burst_steps: list = field(default_factory=list)
    prefill: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return self.requests[-1].arrival if self.requests else 0

    def by_client(self) -> dict:
        out: dict[int, list] = {}
        for pr in self.requests:
            out.setdefault(pr.cid, []).append(pr)
        return out


def build_plan(cfg: LoadConfig,
               chaos: ServeChaosConfig | None = None) -> LoadPlan:
    """Materialise the request stream (base Poisson arrivals + chaos
    burst waves + stalled-client schedule) from the seeds."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_requests
    gaps = rng.exponential(scale=1000.0 / cfg.rate, size=n)
    arrivals = np.maximum(1, np.ceil(np.cumsum(gaps))).astype(np.int64)
    horizon = int(arrivals[-1]) if n else 1

    burst_steps: list[int] = []
    if chaos is not None and chaos.bursts > 0:
        burst_rng = np.random.default_rng(chaos.seed + 101)
        extra = []
        for _ in range(chaos.bursts):
            at = int(burst_rng.integers(1, max(2, horizon)))
            burst_steps.append(at)
            extra.extend([at] * chaos.burst_size)
        arrivals = np.concatenate(
            [arrivals, np.array(extra, dtype=np.int64)])

    total = len(arrivals)
    keys = draw_keys(rng, cfg.distribution, cfg.key_range, total,
                     cfg.zipf_s)
    p_put, p_del, p_get, p_rng = (m / 100.0 for m in cfg.mix)
    kinds = rng.choice(np.array([0, 1, 2, 3]), size=total,
                       p=[p_put, p_del, p_get, p_rng])
    values = rng.integers(1, 1 << 20, size=total, dtype=np.int64)
    cids = rng.integers(0, cfg.n_clients, size=total)
    kind_names = (PUT, DELETE, GET, RANGE)

    order = np.argsort(arrivals, kind="stable")
    requests = []
    for i in order:
        kind = kind_names[int(kinds[i])]
        key = int(keys[i])
        hi = None
        if kind == RANGE:
            hi = min(cfg.key_range, key + cfg.range_span)
        arrival = int(arrivals[i])
        requests.append(PlannedRequest(
            arrival=arrival, cid=int(cids[i]), kind=kind, key=key,
            value=int(values[i]), hi=hi,
            deadline=arrival + cfg.deadline_steps))

    stall_at: dict[int, int] = {}
    if chaos is not None and chaos.stalled_clients > 0:
        stall_rng = np.random.default_rng(chaos.seed + 202)
        chosen = stall_rng.choice(cfg.n_clients,
                                  size=min(chaos.stalled_clients,
                                           cfg.n_clients),
                                  replace=False)
        for cid in chosen:
            stall_at[int(cid)] = int(stall_rng.integers(
                1, max(2, int(horizon * 0.6))))

    prefill = rng.choice(np.arange(1, cfg.key_range + 1, dtype=np.int64),
                         size=cfg.key_range // 2, replace=False)
    return LoadPlan(requests=requests, stall_at=stall_at,
                    burst_steps=burst_steps, prefill=prefill)


def sizing_workload(cfg: LoadConfig, plan: LoadPlan) -> Workload:
    """A :class:`~repro.workloads.Workload` mirroring the plan's point
    ops, used to size and prefill the structure via
    :func:`~repro.engine.make_structure` (pools sized for the plan's
    inserts; ``plan.prefill`` becomes the initial key set)."""
    from ..engine.batch import OP_CONTAINS, OP_DELETE, OP_INSERT
    code = {PUT: OP_INSERT, DELETE: OP_DELETE, GET: OP_CONTAINS}
    points = [pr for pr in plan.requests if pr.kind != RANGE]
    ops = np.array([code[pr.kind] for pr in points], dtype=np.int64)
    keys = np.array([pr.key for pr in points], dtype=np.int64)
    values = np.array([pr.value for pr in points], dtype=np.int64)
    p_put, p_del, p_get, _ = cfg.mix
    point_total = max(1, p_put + p_del + p_get)
    inserts = round(100 * p_put / point_total)
    deletes = round(100 * p_del / point_total)
    mixture = Mixture(inserts, deletes, 100 - inserts - deletes)
    return Workload(key_range=cfg.key_range, mixture=mixture,
                    prefill=plan.prefill, ops=ops, keys=keys,
                    values=values)


def make_clients(loop: VirtualLoop, cfg: LoadConfig) -> list[ClientState]:
    return [ClientState(cid=cid,
                        delivery=Queue(loop, cfg.delivery_depth),
                        max_inflight=cfg.max_inflight)
            for cid in range(cfg.n_clients)]


async def run_client(loop: VirtualLoop, frontend, client: ClientState,
                     planned: list, stall_at: int | None,
                     sink: list) -> None:
    """One client coroutine: sleep to each arrival, drain its delivery
    queue (unless stalled — chaos ``stalled_client``), submit, and
    collect the returned futures into ``sink`` for the campaign's
    zero-hang audit.  Open loop: it never waits on a future."""
    for pr in planned:
        if pr.arrival > loop.now:
            await loop.sleep(pr.arrival - loop.now)
        if stall_at is not None and loop.now >= stall_at:
            client.stalled = True
        if not client.stalled and client.delivery is not None:
            while True:
                try:
                    client.delivery.get_nowait()
                except QueueEmpty:
                    break
        req = Request(kind=pr.kind, key=pr.key, value=pr.value, hi=pr.hi,
                      deadline=pr.deadline, client=client)
        fut = await frontend.submit(req)
        sink.append((req, fut))
