"""The one description of a serve run: :class:`ServeCampaignConfig`.

The frontend, the campaign runner and the ``serve-bench`` CLI all read
their serving policy from this frozen dataclass, so its field defaults
are the only default table (they are what a bare ``serve-bench`` runs)
and :meth:`ServeCampaignConfig.__post_init__` is the only validator of
settings that depend on config fields alone.  A misconfiguration raises
``ValueError`` naming the ``serve-bench`` flag; it never downgrades
silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..chaos.serve_faults import ServeChaosConfig
from ..engine.interface import parse_structure_kind, require_chunked
from .loadgen import LoadConfig

#: Fields that only act under a condition: a non-default value while
#: the condition does not hold is refused rather than ignored.
NEEDS = {
    **dict.fromkeys(("target_p99", "control_interval", "min_window",
                     "max_window"), "--adaptive"),
    **dict.fromkeys(("reshard_hot_ticks", "reshard_cooldown",
                     "reshard_max_migrations", "reshard_min_keys"),
                    "--elastic"),
    **dict.fromkeys(("partitioner", "headroom"), "a sharded structure"),
}

#: ``serve-bench`` flags not spelled as their field with dashes.
_FLAGS = {"reshard_max_migrations": "--max-migrations",
          "retry_attempts": "--retries"}


def _flag(name: str) -> str:
    """The ``serve-bench`` spelling of a config field."""
    return _FLAGS.get(name, "--" + name.replace("_", "-"))


@dataclass(frozen=True)
class ServeCampaignConfig:
    """One serve run: the structure, its load and chaos, and the serving
    policy of the frontend that drives it."""

    structure: str = "gfsl@4"
    team_size: int = 32
    backend: str = "vectorized"
    load: LoadConfig = field(default_factory=LoadConfig)
    chaos: ServeChaosConfig | None = None
    coalesce_size: int = 32
    coalesce_steps: int = 150
    queue_depth: int = 128
    range_depth: int = 16
    admit_rate: float | None = 600.0     # tokens per 1000 steps
    admit_burst: float = 64.0
    shed_occupancy: float = 0.5
    backpressure_steps: int = 400
    breaker_threshold: int = 3
    breaker_reset_steps: int = 400
    adaptive: bool = False               # elasticity controller on/off
    target_p99: float = 150.0            # AIMD latency setpoint (µs)
    control_interval: int = 200          # controller period (steps)
    min_window: int | None = None        # idle coalesce window floor
    max_window: int | None = None        # saturated window ceiling
    elastic: bool = False                # telemetry-driven resharding
    partitioner: str = "auto"            # range / hash / sampled / auto
    headroom: float = 1.0                # per-shard pool over-provision
    reshard_hot_ticks: int = 2           # hot streak before migrating
    reshard_cooldown: int = 4            # ticks between migrations
    reshard_max_migrations: int = 4      # per campaign
    reshard_min_keys: int = 32           # sample floor for a split
    snapshot_audit: bool = False         # range reads feed the checker
    retry_attempts: int = 4
    retry_base_steps: int = 32
    check: bool = True
    max_steps: int = 20_000_000

    @property
    def n_shards(self) -> int:
        return parse_structure_kind(self.structure)[1]

    def window_bounds(self) -> tuple[int, int]:
        """The adaptive coalesce window's ``(floor, ceiling)``:
        ``min_window``/``max_window`` if set, else 1/6 (at least 10) and
        4x the static ``coalesce_steps``."""
        steps = self.coalesce_steps
        return (max(10, steps // 6) if self.min_window is None
                else int(self.min_window),
                steps * 4 if self.max_window is None
                else int(self.max_window))

    def __post_init__(self):
        require_chunked(self.structure, "--structure",
                        "range requests read a snapshot cut and the audit "
                        "validates chunk invariants")
        for name in ("coalesce_size", "coalesce_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{_flag(name)} must be at least 1")
        if self.admit_rate is not None and self.admit_rate <= 0:
            raise ValueError("--admit-rate must be positive, or 0 (None "
                             "in a config) for no admission control")
        if self.adaptive:
            self._check_controller()
        # Elastic resharding (DESIGN.md §16) consumes the controller's
        # telemetry, so it needs the controller, and it moves key ranges
        # between shards, so it needs several and a boundary table.
        if self.elastic and not self.adaptive:
            raise ValueError(
                "--elastic needs --adaptive (the reshard policy consumes "
                "the elasticity controller's telemetry)")
        n_shards = self.n_shards
        if self.elastic and (n_shards < 2 or self.partitioner == "hash"):
            raise ValueError(
                "--elastic needs at least 2 shards and a range-expressible "
                "routing table (range or sampled, not hash)")
        unmet = {"--adaptive": not self.adaptive,
                 "--elastic": not self.elastic,
                 "a sharded structure": n_shards < 2}
        for f in fields(self):
            need = NEEDS.get(f.name)
            if need and unmet[need] and getattr(self, f.name) != f.default:
                raise ValueError(f"{_flag(f.name)} needs {need}")
        chaos = self.chaos
        if chaos is None:
            return
        if chaos.abort_migrations and not self.elastic:
            raise ValueError("--abort-migrations needs --elastic")
        for sid in chaos.frozen_shard_ids():
            if not 0 <= sid < n_shards:
                raise ValueError(
                    f"--freeze-shard {sid} is not a shard of "
                    f"{self.structure} (shards 0-{n_shards - 1})")

    def _check_controller(self) -> None:
        """Refuse, by flag, the settings that ``derive_controller``
        would turn into an invalid ``ControllerConfig``."""
        if self.admit_rate is None:
            raise ValueError(
                "--adaptive needs a positive --admit-rate (the controller "
                "adjusts the admission budget)")
        if self.admit_rate < 1.0:
            raise ValueError(
                f"--adaptive needs --admit-rate of at least 1 (got "
                f"{self.admit_rate}): the controller's per-shard rate "
                "floor of 1 would exceed its ceiling, the whole budget")
        if self.target_p99 <= 0:
            raise ValueError("--target-p99 must be positive")
        floor, ceiling = self.window_bounds()
        if floor < 1:
            raise ValueError("--min-window must be at least 1")
        if ceiling < floor:
            raise ValueError(
                f"--min-window floor {floor} is above the --max-window "
                f"ceiling {ceiling} (unset, the floor is "
                "max(10, --coalesce-steps // 6) and the ceiling 4x "
                "--coalesce-steps)")
