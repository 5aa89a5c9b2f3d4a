"""Machine-readable benchmark trajectory: the ``repro bench`` engine.

Runs a pinned, seeded workload grid (structure × backend × mixture ×
key range), collecting for every cell the cost-model throughput, the
trace diagnostics, replay wall-clock, and the
:class:`~repro.metrics.counters.MetricsCollector` per-phase counters.
Results are emitted as ``BENCH_<date>.json`` (schema below) plus a
markdown summary, and compared against the previous BENCH file — the
machine-readable perf trajectory later optimisation PRs are judged by.

Everything in a cell is deterministic given the seed (the simulator is
pure), so every modeled field and counter is stable across machines,
and the gate requires each one to equal the baseline's: a difference is
always a code change, never noise.  Only ``wall_seconds`` (the host
clock) varies; it is recorded for information, never gated.

BENCH_*.json schema (``SCHEMA_ID``)::

    {
      "schema": "repro-bench/9",
      "created_utc": "2026-10-19T12:00:00+00:00",
      "seed": 1234, "n_ops": 400, "team_size": 32,
      "rows": [
        {"structure": "gfsl", "backend": "interleaved",
         "mixture": "[10,10,80]", "key_range": 2048, "n_ops": 400,
         "shards": 1, "distribution": "uniform",
         "gen_fraction": 1.0, "mops": 410.2, "model_seconds": 9.7e-07,
         "wall_seconds": 0.81, "transactions_per_op": 6.1,
         "l2_hit_rate": 0.93,
         "counters": {"chunk_reads": ..., "lock_spins": ..., ...},
         "bottleneck": "issue", "occupancy": 0.5, "oom": false,
         "issue_cycles": 6311.0, "bandwidth_cycles": 1200.4,
         "latency_cycles": 905.2, "serialization_cycles": 310.7},
        ...
      ]
    }

Every row is a grid cell; rows are matched across files on the
``ROW_IDENTITY`` fields, and every field of ``ROW_FIELDS`` is required.
A file written under any other schema id is refused, not read through a
compatibility path: regenerate it.  Serve campaigns write no BENCH rows;
``serve-bench --run-out`` writes their own run summary
(:func:`repro.serve.run_summary`).
"""

from __future__ import annotations

import json
import math
import re
from datetime import datetime, timezone
from pathlib import Path

from .counters import MetricsCollector
from .spans import SpanTracer, merge_chrome

SCHEMA_ID = "repro-bench/9"
BENCH_GLOB = "BENCH_*.json"
_BENCH_RE = re.compile(r"^BENCH_.*\.json$")

DEFAULT_SEED = 1234
DEFAULT_OPS = 400
DEFAULT_RANGES = (2048,)
DEFAULT_MIXES = ((10, 10, 80),)
DEFAULT_SHARDS = (1,)

#: The fields a row is matched on across BENCH files, in key order.
ROW_IDENTITY = ("structure", "backend", "mixture", "key_range", "n_ops",
                "shards", "distribution")


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


# Field kinds: (what the error says it must be, predicate).
_STR = ("a string", lambda v: isinstance(v, str))
_BOOL = ("a boolean", lambda v: isinstance(v, bool))
_NUM = ("a finite number", _number)
_COUNT = ("a non-negative integer", lambda v: _integer(v) and v >= 0)
_POSITIVE = ("a positive integer", lambda v: _integer(v) and v >= 1)

#: Required on every row: the identity, the measurement, then the cost
#: model's binding bound and its terms.
ROW_FIELDS = {
    "structure": _STR, "backend": _STR, "mixture": _STR,
    "key_range": _COUNT, "n_ops": _COUNT, "shards": _POSITIVE,
    "distribution": _STR,
    "gen_fraction": _NUM,
    "mops": ("a finite number or null", lambda v: v is None or _number(v)),
    "model_seconds": _NUM, "wall_seconds": _NUM,
    "transactions_per_op": _NUM, "l2_hit_rate": _NUM,
    "counters": ("an object of integers",
                 lambda v: isinstance(v, dict)
                 and all(map(_integer, v.values()))),
    "bottleneck": _STR, "occupancy": _NUM, "oom": _BOOL,
    "issue_cycles": _NUM, "bandwidth_cycles": _NUM,
    "latency_cycles": _NUM, "serialization_cycles": _NUM,
}


def row_key(row: dict) -> tuple:
    """The identity a row is matched on across BENCH files."""
    return tuple(row[field] for field in ROW_IDENTITY)


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------

def run_grid(backends, structures, key_ranges=DEFAULT_RANGES,
             mixes=DEFAULT_MIXES, n_ops: int = DEFAULT_OPS,
             seed: int = DEFAULT_SEED, team_size: int = 32,
             shard_counts=DEFAULT_SHARDS, collect_spans: bool = False,
             distribution: str = "uniform", zipf_s: float = 1.0):
    """Execute the grid; returns ``(doc, traces)`` where ``doc`` is the
    BENCH document and ``traces`` maps cell names to
    :class:`SpanTracer` instances (empty unless ``collect_spans``).

    ``shard_counts`` adds a shard dimension: each ``S > 1`` cell builds
    a :mod:`repro.shard` partitioned map of S co-located instances;
    ``S = 1`` is the classic single-instance build.  ``distribution``
    selects the key distribution for every cell's workload
    (``"uniform"``/``"zipf"``/``"hotspot"``; ``zipf_s`` is the Zipf
    exponent)."""
    from ..workloads.generator import Mixture, generate
    from ..workloads.runner import run_workload

    rows: list[dict] = []
    traces: dict[str, SpanTracer] = {}
    for structure in structures:
        for backend in backends:
            for mix in mixes:
                mixture = Mixture(*mix)
                for key_range in key_ranges:
                    for n_shards in shard_counts:
                        workload = generate(mixture, key_range=key_range,
                                            n_ops=n_ops, seed=seed,
                                            distribution=distribution,
                                            zipf_s=zipf_s)
                        metrics = MetricsCollector(
                            spans=SpanTracer() if collect_spans else None)
                        r = run_workload(
                            structure, workload, team_size=team_size,
                            backend=backend, seed=seed, metrics=metrics,
                            shards=None if n_shards == 1 else n_shards)
                        rows.append({
                            "structure": structure,
                            "backend": backend,
                            "mixture": mixture.name,
                            "key_range": key_range,
                            "n_ops": n_ops,
                            "shards": n_shards,
                            "distribution": distribution,
                            "gen_fraction": (0.0 if r.oom else
                                             r.gen_ops / max(1, r.n_ops)),
                            "mops": None if r.oom else r.mops,
                            "model_seconds": 0.0 if r.oom else r.seconds,
                            "wall_seconds": r.wall_seconds,
                            "transactions_per_op": r.transactions_per_op,
                            "l2_hit_rate": r.l2_hit_rate,
                            "bottleneck": r.bottleneck,
                            "occupancy": r.occupancy,
                            "oom": r.oom,
                            "issue_cycles": r.issue_cycles,
                            "bandwidth_cycles": r.bandwidth_cycles,
                            "latency_cycles": r.latency_cycles,
                            "serialization_cycles": r.serialization_cycles,
                            "counters": r.counters or {},
                        })
                        if collect_spans and metrics.spans is not None:
                            cell = (f"{structure}/{backend}/{mixture.name}"
                                    f"@{key_range}")
                            if n_shards != 1:
                                cell += f"/s{n_shards}"
                            traces[cell] = metrics.spans
    return {
        "schema": SCHEMA_ID,
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "seed": seed,
        "n_ops": n_ops,
        "team_size": team_size,
        "rows": rows,
    }, traces


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def require_schema(doc: dict, what: str) -> None:
    """Raise ``ValueError`` naming both schema ids unless ``doc`` was
    written under ``SCHEMA_ID``; ``what`` names the document."""
    schema = doc.get("schema")
    if schema != SCHEMA_ID:
        raise ValueError(f"{what} is {schema}; this build writes "
                         f"{SCHEMA_ID} — regenerate the baseline")


def validate_bench(doc) -> list[str]:
    """Validate a BENCH document; returns a list of problems (empty =
    schema-valid)."""
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    errors: list[str] = []
    if doc.get("schema") != SCHEMA_ID:
        errors.append(f"schema must be {SCHEMA_ID!r}, got "
                      f"{doc.get('schema')!r}")
    for key in ("created_utc", "seed", "n_ops", "rows"):
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append("rows must be a non-empty list")
        return errors
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"rows[{i}] is not an object")
            continue
        for name, (what, ok) in ROW_FIELDS.items():
            if name not in row or not ok(row[name]):
                errors.append(f"rows[{i}].{name} must be {what}")
    return errors


# ---------------------------------------------------------------------------
# Regression comparison
# ---------------------------------------------------------------------------

#: The row fields the gate compares as whole values: all but the
#: identity, the host clock (``wall_seconds``) and ``counters``, which
#: is compared key by key.
_GATED = tuple(f for f in ROW_FIELDS
               if f not in (*ROW_IDENTITY, "wall_seconds", "counters"))


def compare_bench(new: dict, old: dict) -> dict:
    """Diff two BENCH documents row by row.

    Rows pair on ``ROW_IDENTITY``; in each pair every ``_GATED`` field
    must be equal, floats exactly, and so must ``counters``, key by key
    over the union of both sides' keys (an absent key reads ``None``).
    Returns ``{"differences": [(row, field, old, new), ...],
    "unmatched": [row, ...]}``: ``row`` is a row identity, ``field`` a
    field name or ``counters.<name>``, and ``unmatched`` lists the new
    rows without a baseline row (reported, never gated).  Raises
    ``ValueError`` when ``old`` was written under another schema.
    """
    require_schema(old, "baseline")
    old_rows = {row_key(r): r for r in old["rows"]}
    differences, unmatched = [], []
    for row in new["rows"]:
        key = row_key(row)
        prev = old_rows.get(key)
        if prev is None:
            unmatched.append(key)
            continue
        for name in _GATED:
            if row[name] != prev[name]:
                differences.append((key, name, prev[name], row[name]))
        was, now = prev["counters"], row["counters"]
        for name in sorted(was.keys() | now.keys()):
            if was.get(name) != now.get(name):
                differences.append((key, f"counters.{name}",
                                    was.get(name), now.get(name)))
    return {"differences": differences, "unmatched": unmatched}


def shard_bound_warnings(doc: dict) -> list[str]:
    """One warning line per replay config whose binding bound differs
    between the S=1 cell and any S>1 cell of the same identity — shard-
    scaling anomalies (e.g. sharding cutting tx/op while MOPS stays flat
    because a different term binds) are then self-diagnosing in
    ``repro bench`` output."""
    cells = [r for r in doc["rows"] if not r["oom"]]

    def config(row):
        return tuple(row[f] for f in ROW_IDENTITY if f != "shards")

    base = {config(r): r["bottleneck"] for r in cells if r["shards"] == 1}
    warnings: list[str] = []
    for row in cells:
        b1, bS = base.get(config(row)), row["bottleneck"]
        if row["shards"] != 1 and b1 is not None and bS != b1:
            warnings.append(
                f"{row['structure']}/{row['backend']} {row['mixture']} "
                f"@{row['key_range']:,}: binding bound changes "
                f"{b1} (S=1) -> {bS} (S={row['shards']}) — shard scaling "
                f"is shifting the bottleneck, not just tx/op")
    return warnings


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

#: Counters surfaced in the markdown table (full set lives in the JSON).
_MD_COUNTERS = ("restarts", "lock_spins", "splits", "merges",
                "zombie_encounters")


def _cell_name(key: tuple) -> str:
    f = dict(zip(ROW_IDENTITY, key))
    return (f"{f['structure']}/{f['backend']}"
            + (f" x{f['shards']}" if f["shards"] != 1 else "")
            + (f" {f['distribution']}"
               if f["distribution"] != "uniform" else "")
            + f" {f['mixture']} @{f['key_range']:,}")


def render_markdown(doc: dict, comparison: dict | None = None,
                    baseline_name: str | None = None) -> str:
    """Human-readable summary of a BENCH document (plus the regression
    check when a comparison is supplied)."""
    lines = [f"# repro bench — {doc['created_utc']}", ""]
    lines.append(f"seed {doc['seed']} · {doc['n_ops']} ops/cell · "
                 f"team size {doc.get('team_size', 32)}")
    lines.append("")
    lines.append("| structure | backend | mixture | range | shards | dist | "
                 "MOPS | trans/op | L2 hit | bound | gen% | waves | wall s | "
                 + " | ".join(_MD_COUNTERS) + " |")
    lines.append("|" + "---|" * (13 + len(_MD_COUNTERS)))
    for row in doc["rows"]:
        c = row["counters"]
        mops = "OOM" if row["mops"] is None else f"{row['mops']:.1f}"
        lines.append(
            f"| {row['structure']} | {row['backend']} | {row['mixture']} "
            f"| {row['key_range']:,} | {row['shards']} "
            f"| {row['distribution']} | {mops} "
            f"| {row['transactions_per_op']:.1f} "
            f"| {row['l2_hit_rate']:.2f} "
            f"| {row['bottleneck']} "
            f"| {row['gen_fraction']:.0%} "
            f"| {c.get('waves', 0)} "
            f"| {row['wall_seconds']:.2f} | "
            + " | ".join(str(c.get(name, 0)) for name in _MD_COUNTERS)
            + " |")
    if comparison is not None:
        differences = comparison["differences"]
        paired = len(doc["rows"]) - len(comparison["unmatched"])
        lines += ["", "## Regression check vs "
                  f"{baseline_name or 'baseline'}", "",
                  f"{len(differences)} difference(s) on {paired} paired "
                  "row(s); every modeled field and counter must be equal "
                  "(wall_seconds is not gated)."]
        lines += [f"- {_cell_name(key)}: {field} "       # values as in JSON
                  f"{json.dumps(a)} -> {json.dumps(b)}"
                  for key, field, a, b in differences]
        lines += [f"- new row, no baseline (not gated): {_cell_name(key)}"
                  for key in comparison["unmatched"]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# File handling
# ---------------------------------------------------------------------------

def bench_filename(date: str | None = None) -> str:
    """``BENCH_<ISO date>.json``, today (UTC) by default."""
    day = date or datetime.now(timezone.utc).date().isoformat()
    return f"BENCH_{day}.json"


def latest_bench(directory, exclude=None) -> Path | None:
    """Newest (by name — dates sort lexicographically) BENCH_*.json in
    ``directory``, skipping ``exclude``; None when there is none."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    skip = Path(exclude).name if exclude is not None else None
    candidates = sorted(p for p in directory.glob(BENCH_GLOB)
                        if _BENCH_RE.match(p.name) and p.name != skip)
    return candidates[-1] if candidates else None


def load_bench(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_bench(doc: dict, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def write_trace(traces: dict[str, SpanTracer], path) -> None:
    """Dump the per-cell span traces as one chrome://tracing document."""
    with open(path, "w") as fh:
        json.dump(merge_chrome(traces), fh)
