"""End-to-end, layer-attributed benchmark of the GFSL reproduction.

Run one workload (or all of them) and print every metric by name with
its unit; each workload's output ends with one JSON line::

    python3 benchmarks/e2e/run.py --workload replay-mixed --seed 42 \\
        --seconds 20 --trace 0 [--out results.json]
    python3 benchmarks/e2e/run.py compare A.json B.json

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes one
traced repetition and reports the per-layer metrics instead (it
ignores ``--seconds``).  The program is imported from ``src/`` next to
this directory; without it the benchmark exits with status 2.  Output
checks that fail exit 1.  See README.md in this directory for the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One process, no extra threads: numpy's thread pools would add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SECONDS = 20


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # "higher" or "lower"
    clock: str                  # host / model / virtual / count
    what: str
    bound: float | None = None  # end-to-end: tolerated worsening (share)
    moves: str = ""             # per-layer: end-to-end metric (workload)


END_TO_END = (
    Metric("setup_s", "s", "lower", "host",
           "generate + build + L2 warm (serve: plan + build), median over "
           "set-ups", bound=0.25),
    Metric("goodput_mops", "Mops/s", "higher", "model",
           "replay: cost-model ops per modeled us; serve: requests answered "
           "within 1000 us of their due time per virtual us", bound=0.2),
    Metric("wall_ops_per_s", "1/s", "higher", "host",
           "replay: ops per host-s inside Backend.execute; serve: submitted "
           "requests per host-s of VirtualLoop.run_until_complete",
           bound=0.25),
    Metric("device_bytes_per_key", "B", "lower", "model",
           "modeled chunk-pool bytes handed out / live keys at the end",
           bound=0.04),
    Metric("audit_s", "s", "lower", "host",
           "host-s of validate_structure + check_history per input set",
           bound=0.25),
)


def _layer(name, unit, better, clock, moves):
    return Metric(name, unit, better, clock, "", moves=moves)


PER_LAYER = (
    _layer("workloads.generate_s", "s", "lower", "host",
           "setup_s (replay-mixed)"),
    _layer("core.build_s", "s", "lower", "host", "setup_s (replay-mixed)"),
    _layer("engine.execute_s", "s", "lower", "host",
           "wall_ops_per_s (replay-interleaved)"),
    _layer("engine.generator_s", "s", "lower", "host",
           "wall_ops_per_s (replay-interleaved)"),
    _layer("engine.plan_waves_s", "s", "lower", "host",
           "wall_ops_per_s (replay-update-skew)"),
    _layer("engine.waves", "count", "lower", "count",
           "wall_ops_per_s (replay-update-skew)"),
    _layer("engine.wave_occupancy", "ops/wave", "higher", "count",
           "wall_ops_per_s (replay-update-skew)"),
    _layer("engine.gen_fraction", "frac", "lower", "count",
           "wall_ops_per_s (replay-update-skew)"),
    _layer("core.vector_contains_s", "s", "lower", "host",
           "wall_ops_per_s (replay-mixed)"),
    _layer("core.vector_update_wave_s", "s", "lower", "host",
           "wall_ops_per_s (replay-update-skew)"),
    _layer("core.update_batched_frac", "frac", "higher", "count",
           "wall_ops_per_s (replay-update-skew)"),
    _layer("core.splits", "count", "lower", "count",
           "goodput_mops (replay-update-skew)"),
    _layer("core.merges", "count", "lower", "count",
           "goodput_mops (replay-update-skew)"),
    _layer("core.zombie_encounters", "count", "lower", "count",
           "goodput_mops (replay-update-skew)"),
    _layer("core.chunk_reads_per_op", "reads/op", "lower", "count",
           "goodput_mops (replay-interleaved)"),
    _layer("core.lateral_steps_per_op", "steps/op", "lower", "count",
           "goodput_mops (replay-interleaved)"),
    _layer("core.down_steps_per_op", "steps/op", "lower", "count",
           "goodput_mops (replay-interleaved)"),
    _layer("core.restarts_per_op", "restarts/op", "lower", "count",
           "goodput_mops (replay-interleaved)"),
    _layer("core.lock_cas_failed_per_op", "cas/op", "lower", "count",
           "goodput_mops (replay-interleaved)"),
    _layer("core.lock_spins_per_op", "spins/op", "lower", "count",
           "goodput_mops (replay-interleaved)"),
    _layer("core.range_query_s", "s", "lower", "host",
           "wall_ops_per_s and goodput_mops (serve-scan)"),
    _layer("core.range_tx_per_query", "tx/query", "lower", "count",
           "goodput_mops (serve-scan)"),
    _layer("core.validate_s", "s", "lower", "host", "audit_s (replay-mixed)"),
    _layer("gpu.transactions_per_op", "tx/op", "lower", "count",
           "goodput_mops (replay-mixed)"),
    _layer("gpu.l2_hit_rate", "frac", "higher", "count",
           "goodput_mops (replay-mixed)"),
    _layer("gpu.dram_transactions_per_op", "tx/op", "lower", "count",
           "goodput_mops (replay-mixed)"),
    _layer("gpu.instructions_per_op", "instr/op", "lower", "count",
           "goodput_mops (all replay)"),
    _layer("gpu.issue_cycles_per_op", "cycles/op", "lower", "count",
           "goodput_mops (all replay; the binding bound today)"),
    _layer("gpu.bandwidth_cycles_per_op", "cycles/op", "lower", "count",
           "goodput_mops (all replay)"),
    _layer("gpu.latency_cycles_per_op", "cycles/op", "lower", "count",
           "goodput_mops (all replay)"),
    _layer("gpu.serialization_cycles_per_op", "cycles/op", "lower", "count",
           "goodput_mops (all replay)"),
    _layer("gpu.atomic_conflicts_per_op", "conflicts/op", "lower", "count",
           "goodput_mops (replay-interleaved)"),
    _layer("gpu.access_s", "s", "lower", "host",
           "wall_ops_per_s (replay-mixed)"),
    _layer("shard.route_s", "s", "lower", "host",
           "wall_ops_per_s (replay-update-skew)"),
    _layer("shard.imbalance", "ratio", "lower", "count",
           "goodput_mops (serve-elastic)"),
    _layer("shard.migrations", "count", "lower", "count",
           "goodput_mops (serve-elastic)"),
    _layer("shard.migration_aborts", "count", "lower", "count",
           "goodput_mops (serve-elastic)"),
    _layer("shard.migrated_keys", "count", "lower", "count",
           "goodput_mops (serve-elastic)"),
    _layer("shard.migration_delta_ops", "count", "lower", "count",
           "goodput_mops (serve-elastic)"),
    _layer("shard.migration_steps", "steps", "lower", "virtual",
           "goodput_mops (serve-elastic)"),
    _layer("serve.loop_s", "s", "lower", "host",
           "wall_ops_per_s (serve-overload)"),
    _layer("serve.frontend_self_s", "s", "lower", "host",
           "wall_ops_per_s (serve-overload)"),
    _layer("serve.execute_batch_s", "s", "lower", "host",
           "wall_ops_per_s (serve-overload)"),
    _layer("serve.flushes", "count", "lower", "count",
           "goodput_mops (serve-scan)"),
    _layer("serve.ops_per_flush", "ops/flush", "higher", "count",
           "goodput_mops (serve-scan)"),
    _layer("serve.p50_us", "us", "lower", "virtual",
           "goodput_mops (serve-scan; the coalesce window at low rate)"),
    _layer("serve.p99_us", "us", "lower", "virtual",
           "goodput_mops (all serve)"),
    _layer("serve.submit_lag_p99_us", "us", "lower", "virtual",
           "goodput_mops (serve-scan)"),
    _layer("serve.point_p99_us", "us", "lower", "virtual",
           "goodput_mops (serve-scan)"),
    _layer("serve.range_p99_us", "us", "lower", "virtual",
           "goodput_mops (serve-scan)"),
    _layer("serve.healthy_p99_us", "us", "lower", "virtual",
           "goodput_mops (serve-overload, serve-elastic)"),
    _layer("serve.rejected", "count", "lower", "count",
           "goodput_mops (serve-overload)"),
    _layer("serve.shed", "count", "lower", "count",
           "goodput_mops (serve-overload)"),
    _layer("serve.expired", "count", "lower", "count",
           "failed (serve-overload)"),
    _layer("serve.failed", "count", "lower", "count",
           "failed (serve-overload)"),
    _layer("serve.breaker_fastfail", "count", "lower", "count",
           "failed (serve-overload)"),
    _layer("serve.retries", "count", "lower", "count",
           "goodput_mops (serve-overload)"),
    _layer("serve.ctrl_ticks", "count", "lower", "count",
           "goodput_mops (serve-elastic)"),
    _layer("serve.ctrl_rate_downs", "count", "lower", "count",
           "goodput_mops (serve-elastic)"),
    _layer("serve.ctrl_rebalances", "count", "lower", "count",
           "goodput_mops (serve-elastic)"),
    _layer("serve.latency_samples", "count", "higher", "count",
           "goodput_mops (all serve)"),
    _layer("chaos.check_s", "s", "lower", "host", "audit_s (serve-overload)"),
    _layer("chaos.history_events", "count", "lower", "count",
           "audit_s (serve-overload)"),
    _layer("chaos.check_us_per_event", "us/event", "lower", "host",
           "audit_s (serve-overload)"),
    _layer("chaos.snapshots_judged", "count", "higher", "count",
           "audit_s (serve-elastic)"),
    _layer("bench.trace_overhead_frac", "frac", "lower", "host",
           "none: traced wall / untraced wall - 1"),
    _layer("bench.other_s", "s", "lower", "host",
           "none: traced wall no probe covers"),
)

METRICS = {m.name: m for m in END_TO_END + PER_LAYER}


def _import_suite():
    """Import the workloads against ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no program at {src}/repro (run from a full "
              f"checkout)", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import suite
    return suite


# ---------------------------------------------------------------------------
# Measuring one workload
# ---------------------------------------------------------------------------

#: Seconds :func:`_calibration_loop` takes on an unloaded core of the
#: machine the committed baseline was recorded on.
CALIBRATION_REF_S = 0.019


def _calibration_loop() -> int:
    """Fixed interpreter and numpy work that shares no code with the
    program, so no change to the program can move its time."""
    import numpy as np
    table, acc = {}, 0
    for i in range(100_000):
        table[i & 4095] = i
        acc += table.get((i * 7) & 4095, 0) & 0xFF
    a = np.arange(4096)
    for _ in range(100):
        acc += int(a[(a * 31) % 4096].sum() & 1)
    return acc


def calibration_s() -> float:
    """Median of three timings of the calibration loop."""
    times = []
    for _ in range(3):
        began = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def _modeled(reps) -> dict:
    """Modeled metrics pooled over every input set of the run."""
    ops = sum(r.model["ops"] for r in reps)
    model_s = sum(r.model["model_s"] for r in reps)
    return {
        "goodput_mops": ops / model_s / 1e6 if model_s else 0.0,
        "device_bytes_per_key": (sum(r.model["bytes"] for r in reps)
                                 / max(1, sum(r.model["keys"] for r in reps))),
    }


def _host(passes) -> dict:
    """Host metrics: each input set's median over passes, then pooled
    over input sets (``setup_s``: median over every set-up)."""
    seeds = [row["seed"] for row in passes[0]]

    def per_seed(key):
        return {s: statistics.median(row[key] * row["scale"]
                                     for p in passes for row in p
                                     if row["seed"] == s) for s in seeds}
    exec_s, audit_s = per_seed("exec_s"), per_seed("audit_s")
    ops = {row["seed"]: row["ops"] for row in passes[0]}
    return {
        "setup_s": statistics.median(row["setup_s"] * row["scale"]
                                     for p in passes for row in p),
        "wall_ops_per_s": sum(ops.values()) / sum(exec_s.values()),
        "audit_s": sum(audit_s.values()) / len(seeds),
    }


def measure(spec, seed: int, seconds: float, trace: bool = False) -> dict:
    """Run one workload for about ``seconds`` and return its result.

    A warm-up repetition of the first input set comes first and its
    wall times are dropped.  Then passes over all input sets repeat
    while the next pass still fits in ``seconds``.  Every repetition is
    bracketed by timings of a calibration loop, and its host times are
    scaled to the loop's reference speed, which cancels the machine
    slowing down or speeding up around it.  The first repetition of
    each input set is checked against a reference; later ones must
    reproduce it exactly.  With ``trace`` a single traced repetition
    follows one untraced one.
    """
    suite = _import_suite()
    seeds = suite.sample_seeds(spec, seed)
    start = time.perf_counter()
    first = {}
    errors = []

    def rep_of(s, clock=None):
        gc.collect()
        rep = suite.run_rep(spec, s, check=s not in first, clock=clock)
        errors.extend(f"seed {s}: {e}" for e in rep.errors)
        if s not in first:
            first[s] = rep
        elif rep.digest != first[s].digest:
            errors.append(f"seed {s}: repetition is not reproducible")
        return rep

    rep_of(seeds[0])                       # warm-up
    if trace:
        return _trace(spec, seed, seeds, rep_of, errors)
    passes = []
    calib = calibration_s()
    while True:
        began = time.perf_counter()
        rows = []
        for s in seeds:
            rep = rep_of(s)
            after = calibration_s()
            rows.append({"seed": s, "ops": rep.ops, "exec_s": rep.exec_s,
                         "audit_s": rep.audit_s, "setup_s": rep.setup_s,
                         "scale": 2 * CALIBRATION_REF_S / (calib + after)})
            calib = after
        passes.append(rows)
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            break

    values = {**_modeled([first[s] for s in seeds]), **_host(passes)}
    values = {m.name: values[m.name] for m in END_TO_END}
    notes = {"input_sets": len(seeds), "passes": len(passes),
             "seconds": round(time.perf_counter() - start, 3)}
    for s in seeds:
        notes.update(first[s].notes)
    return _result(spec, seed, seconds, False, values, first, errors,
                   notes, samples={"passes": passes})


def _trace(spec, seed, seeds, rep_of, errors) -> dict:
    """One untraced and one traced repetition of the first input set."""
    suite = _import_suite()
    from probes import LayerClock, Probe
    base = rep_of(seeds[0])
    clock, counts = LayerClock(), suite.TraceCounts()
    with Probe() as probe:
        suite.install_trace(probe, clock, counts)
        traced = rep_of(seeds[0], clock=clock)
    values = {m.name: 0.0 for m in PER_LAYER}
    values.update(traced.layers)
    for layer, name in suite.SELF_TIME_METRICS.items():
        values[name] = clock.self_s.get(layer, 0.0)
    values.update(suite.trace_counts_layers(counts, clock))
    values["bench.trace_overhead_frac"] = traced.wall_s / base.wall_s - 1.0
    values["bench.other_s"] = traced.wall_s - clock.total_self_s()
    notes = {"traced_wall_s": traced.wall_s, "untraced_wall_s": base.wall_s}
    return _result(spec, seed, 0, True, values, {seeds[0]: traced}, errors,
                   notes, samples={})


def _result(spec, seed, seconds, trace, values, first, errors, notes,
            samples) -> dict:
    table = PER_LAYER if trace else END_TO_END
    unknown = set(values) - {m.name for m in table}
    if unknown:
        raise RuntimeError(f"unregistered metrics: {sorted(unknown)}")
    return {
        "workload": spec.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": not errors,
        "attempted": sum(r.attempted for r in first.values()),
        "failed": sum(r.failed for r in first.values()),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table},
        "errors": errors, "notes": notes, "samples": samples,
    }


def _print_result(res: dict) -> None:
    kind = "per-layer (traced)" if res["trace"] else "end-to-end"
    print(f"== {res['workload']} seed={res['seed']} {kind}: "
          f"{'correct' if res['correct'] else 'OUTPUT CHECK FAILED'}, "
          f"{res['attempted']} attempted, {res['failed']} failed")
    for name, m in res["metrics"].items():
        meta = METRICS[name]
        tail = meta.moves if res["trace"] else f"{meta.clock}; " + meta.what
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']:<12} {tail}")
    for key, value in res["notes"].items():
        print(f"  note {key} = {value}")
    for err in res["errors"]:
        print(f"  ERROR {err}")


def _append(path: Path, res: dict) -> None:
    doc = {"runs": []}
    if path.is_file():
        doc = json.loads(path.read_text())
    doc["runs"].append(res)
    path.write_text(json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Comparing two sets of runs
# ---------------------------------------------------------------------------

def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: Metric, a: list, b: list, pairs: list) -> str:
    """``identical``, ``within``, ``better``, ``worse`` or
    ``unresolved`` for the runs ``b`` against the baseline ``a``."""
    if metric.clock != "host" and pairs and all(x == y for x, y in pairs):
        return "identical"
    sign = 1.0 if metric.better == "lower" else -1.0

    def beats(x, y):                      # x strictly better than y
        return sign * (x - y) < 0

    q1, med_a, q3 = _quartiles(a)
    med_b = statistics.median(b)
    scale = abs(med_a) or 1.0
    worse = sign * (med_b - med_a) / scale
    spread = (q3 - q1) / scale
    gained = (-worse > spread and len(pairs) >= 10
              and sum(beats(y, x) for x, y in pairs) >= 0.9 * len(pairs))
    if spread > metric.bound:
        if not all(beats(y, x) for x in a for y in b):
            return "unresolved"
    elif worse > metric.bound:
        return "worse"
    return "better" if gained else "within"


def _untraced(path: Path) -> dict[str, list]:
    """Untraced runs of a results file, grouped by workload."""
    out: dict[str, list] = {}
    for run in json.loads(path.read_text())["runs"]:
        if not run["trace"]:
            out.setdefault(run["workload"], []).append(run)
    return out


def compare(path_a: Path, path_b: Path) -> int:
    """Print a verdict per (workload, end-to-end metric); 1 if any is
    ``worse``."""
    runs_a, runs_b = _untraced(path_a), _untraced(path_b)
    print(f"{'workload':<20} {'metric':<22} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8}  verdict")
    tally: dict[str, int] = {}
    for wl in sorted(runs_a.keys() & runs_b.keys()):
        side_a, side_b = runs_a[wl], runs_b[wl]
        by_seed = {r["seed"]: r for r in side_b}
        matched = [(r, by_seed[r["seed"]]) for r in side_a
                   if r["seed"] in by_seed]
        if len(matched) < min(len(side_a), len(side_b)):
            matched = list(zip(side_a, side_b))
        for metric in END_TO_END:
            def value(run):
                return run["metrics"][metric.name]["value"]
            a, b = [value(r) for r in side_a], [value(r) for r in side_b]
            word = verdict(metric, a, b,
                           [(value(x), value(y)) for x, y in matched])
            tally[word] = tally.get(word, 0) + 1
            qa, qb = _quartiles(a), _quartiles(b)
            change = (qb[1] - qa[1]) / (abs(qa[1]) or 1.0)
            cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (qa, qb)]
            print(f"{wl:<20} {metric.name:<22} {cells[0]:<34} {cells[1]:<34} "
                  f"{change:>+8.2%}  {word}")
    print("verdicts: " + ", ".join(f"{k}={v}"
                                   for k, v in sorted(tally.items())))
    return 1 if tally.get("worse") else 0


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        cp = argparse.ArgumentParser(prog="run.py compare")
        cp.add_argument("baseline", type=Path)
        cp.add_argument("candidate", type=Path)
        args = cp.parse_args(argv[1:])
        return compare(args.baseline, args.candidate)

    suite = _import_suite()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=sorted(suite.WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: each workload's own)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="how long each workload measures")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: one traced repetition, "
                    "per-layer metrics")
    ap.add_argument("--out", type=Path, default=None,
                    help="append each result to this JSON file")
    args = ap.parse_args(argv)

    status = 0
    for name in args.workload or list(suite.WORKLOADS):
        spec = suite.WORKLOADS[name]
        seed = spec.seed if args.seed is None else args.seed
        res = measure(spec, seed, args.seconds, trace=bool(args.trace))
        _print_result(res)
        if args.out is not None:
            _append(args.out, res)
        print(json.dumps({key: res[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        sys.stdout.flush()
        if not res["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
