"""``repro.serve`` — the resilient async serving frontend.

Turns the repo's batch-replay engine into a *request path*: simulated
clients submit single get/put/delete/range operations with deadlines,
a per-shard coalescer folds them into ``OpBatch``es flushed through
``execute_batch(commit="batch")``, and a robustness kit — token-bucket
admission, bounded queues with backpressure, deadline propagation,
seeded bounded retries, per-shard circuit breakers, and a degradation
ladder that sheds range queries first — keeps every admitted request
terminating under overload and chaos (DESIGN.md §14).

Concurrency runs on :mod:`~repro.serve.aio`, a deterministic
virtual-time async kernel: same seeds, same campaign, bit for bit.
"""

from .admission import TokenBucket
from .aio import (TIMED_OUT, Future, HangError, Queue, QueueEmpty,
                  QueueFull, Task, VirtualLoop)
from .bench import (ServeReport, latency_histogram, run_serve_campaign,
                    run_summary)
from .breaker import CircuitBreaker
from .config import ServeCampaignConfig
from .controller import (ControllerConfig, ElasticityController,
                         derive_controller)
from .errors import CircuitOpen, DeadlineExceeded, Overloaded, ServeError
from .frontend import ServeFrontend
from .loadgen import (LoadConfig, LoadPlan, PlannedRequest, build_plan,
                      make_clients, run_client, sizing_workload)
from .request import (DELETE, GET, KINDS, PUT, RANGE, ClientState,
                      Request, ServeStats, percentile)
from .reshard import ReshardPlan, ReshardPolicy

__all__ = [
    "VirtualLoop", "Future", "Task", "Queue", "QueueEmpty", "QueueFull",
    "HangError", "TIMED_OUT",
    "ServeError", "Overloaded", "DeadlineExceeded", "CircuitOpen",
    "TokenBucket", "CircuitBreaker",
    "ControllerConfig", "ElasticityController", "derive_controller",
    "Request", "ClientState", "ServeStats", "percentile",
    "GET", "PUT", "DELETE", "RANGE", "KINDS",
    "ServeFrontend",
    "LoadConfig", "LoadPlan", "PlannedRequest", "build_plan",
    "sizing_workload", "make_clients", "run_client",
    "ServeCampaignConfig", "ServeReport", "run_serve_campaign",
    "latency_histogram", "run_summary",
    "ReshardPlan", "ReshardPolicy",
]
