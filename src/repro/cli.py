"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    One-minute tour: build, mutate, search, validate, show device costs.
``point``
    Run a single benchmark data point (structure × mixture × range) and
    print the throughput diagnostics.
``figure``
    Regenerate one of the paper's figures (5.1–5.4) at the chosen scale.
``table``
    Regenerate Table 5.1 or 5.2.
``stress``
    Interleaved concurrency stress with invariant auditing (exits
    non-zero on any violation) — a fuzzing entry point.
``chaos``
    Seeded adversarial campaigns: fault injection + linearizability
    checking + invariant auditing, with automatic seed shrinking on
    failure (the standing correctness gate; see DESIGN.md §9).
``bench``
    Pinned seeded workload grid across backends × structures, emitting
    ``BENCH_<date>.json`` + a markdown summary and comparing against the
    previous BENCH file with a regression threshold (the standing
    performance gate; see DESIGN.md §10).
``serve-bench``
    Seeded overload campaign through the async serving frontend
    (coalescing, admission control, deadlines, circuit breakers) with
    chaos faults, gating on zero hung requests + a linearizable
    history, and emitting p50/p99 request latency (DESIGN.md §14).

Typed errors (``Overloaded``, ``LockTimeout``, ``OutOfChunks``) are
reported as a one-line message on stderr with a distinct exit code —
4, 5, and 6 respectively — instead of a traceback; generic command
failures keep exit codes 1 (gate failure) and 2 (usage/schema).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_scale_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", choices=("smoke", "quick", "paper"),
                   default=None, help="experiment scale preset "
                   "(default: REPRO_SCALE or quick)")


def _resolve_scale(args):
    import os
    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale
    from .experiments.harness import current_scale
    return current_scale()


def cmd_demo(args) -> int:
    """One-minute GFSL tour on the simulated device."""
    from .core import GFSL, suggest_capacity, validate_structure
    sl = GFSL(capacity_chunks=suggest_capacity(1000), team_size=32, seed=1)
    print("GFSL demo on the simulated GTX 970")
    for k in (30, 10, 20):
        sl.insert(k, k * 11)
    print("  inserted 10/20/30 →", sl.items())
    sl.delete(20)
    print("  deleted 20 → contains(20):", sl.contains(20))
    sl.ctx.tracer.reset_stats()
    sl.contains(10)
    t = sl.ctx.tracer.stats
    print(f"  one contains: {t.transactions} transactions, "
          f"{t.coalesced_accesses} coalesced chunk reads")
    print("  invariants:", validate_structure(sl))
    return 0


def cmd_point(args) -> int:
    """Run a single benchmark data point and print diagnostics."""
    from .workloads import Mixture, generate, run_workload
    mix = Mixture(args.inserts, args.deletes,
                  100 - args.inserts - args.deletes)
    w = generate(mix, key_range=args.range, n_ops=args.ops, seed=args.seed,
                 distribution=args.distribution, zipf_s=args.zipf_s)
    r = run_workload(args.structure, w, team_size=args.team_size,
                     backend=args.backend, shards=args.shards,
                     partitioner=args.partitioner)
    if r.oom:
        print(f"{r.structure} @ {args.range:,}: OOM at paper scale "
              "(Section 5.3)")
        return 0
    print(f"{r.structure} {mix.name} @ {args.range:,} keys: "
          f"{r.mops:.1f} MOPS")
    print(f"  bottleneck={r.bottleneck} l2_hit={r.l2_hit_rate:.2f} "
          f"transactions/op={r.transactions_per_op:.1f} "
          f"occupancy={r.occupancy:.2f}")
    return 0


def cmd_figure(args) -> int:
    """Regenerate one of the paper's figures (5.1-5.4)."""
    from .experiments import figures
    scale = _resolve_scale(args)
    name = args.name
    if name == "5.1":
        print(figures.figure_5_1(scale).render())
    elif name == "5.2":
        fig = figures.figure_5_2(scale)
        print(figures.render_figure_5_2(fig))
    elif name == "5.3":
        for mix_name, fig in figures.figure_5_3(scale).items():
            print(fig.render())
            print()
    elif name == "5.4":
        for label, fig in figures.figure_5_4(scale).items():
            print(fig.render())
            print()
    else:
        print(f"unknown figure {name!r} (choose 5.1/5.2/5.3/5.4)",
              file=sys.stderr)
        return 2
    return 0


def cmd_table(args) -> int:
    """Regenerate Table 5.1 or 5.2."""
    from .experiments import paper_data, tables
    scale = _resolve_scale(args)
    if args.name == "5.1":
        rows = tables.table_5_1(scale)
        print(tables.render(rows, "Table 5.1 — GFSL warps/block",
                            paper_data.TABLE_5_1))
    elif args.name == "5.2":
        rows = tables.table_5_2(scale)
        print(tables.render(rows, "Table 5.2 — M&C warps/block",
                            paper_data.TABLE_5_2))
    else:
        print(f"unknown table {args.name!r} (choose 5.1/5.2)",
              file=sys.stderr)
        return 2
    return 0


def cmd_stress(args) -> int:
    """Interleaved concurrency fuzzing with a full history audit."""
    from .core import GFSL, bulk_build_into, suggest_capacity, validate_structure
    rng = np.random.default_rng(args.seed)
    sl = GFSL(capacity_chunks=suggest_capacity(args.range * 2),
              team_size=args.team_size, seed=args.seed)
    prefill = rng.choice(np.arange(1, args.range + 1),
                         size=args.range // 2, replace=False)
    bulk_build_into(sl, prefill, rng=sl.rng)
    ops, gens = [], []
    for _ in range(args.ops):
        k = int(rng.integers(1, args.range + 1))
        op = rng.choice(["insert", "delete", "contains"])
        ops.append((op, k))
        gens.append(getattr(sl, f"{op}_gen")(k))
    results = sl.ctx.run_concurrent(gens, seed=args.seed)
    final = set(sl.keys())
    pre = set(int(k) for k in prefill)
    per_key: dict[int, list] = {}
    for (op, k), r in zip(ops, results):
        per_key.setdefault(k, []).append((op, r.value))
    for k, events in per_key.items():
        ins = sum(1 for op, v in events if op == "insert" and v)
        dels = sum(1 for op, v in events if op == "delete" and v)
        if int(k in pre) + ins - dels != int(k in final):
            print(f"INCONSISTENT history for key {k}", file=sys.stderr)
            return 1
    stats = validate_structure(sl)
    s = sl.op_stats
    print(f"stress OK: {args.ops} interleaved ops over {args.range:,} keys "
          f"(seed {args.seed})")
    print(f"  splits={s.splits} merges={s.merges} "
          f"zombies_unlinked={s.zombies_unlinked} "
          f"restarts={s.contains_restarts} height={stats['height']}")
    return 0


def cmd_chaos(args) -> int:
    """Seeded adversarial campaigns with linearizability checking."""
    import time
    from dataclasses import replace

    from .chaos import (CampaignConfig, ChaosConfig, repro_command,
                        run_campaign, shrink_campaign)

    if args.no_faults:
        faults = ChaosConfig(bug=args.bug)
    else:
        faults = ChaosConfig.adversarial(args.intensity, bug=args.bug)
        for kind in args.disable:
            faults = faults.without(kind)
    base = CampaignConfig(n_ops=args.ops, key_range=args.range,
                          mix=tuple(args.mix), team_size=args.team_size,
                          p_chunk=args.p_chunk, seed=args.seed,
                          concurrency=args.concurrency, faults=faults,
                          structure=args.structure,
                          snapshots=args.snapshots)

    deadline = (time.monotonic() + args.seconds
                if args.seconds is not None else None)
    ran = 0
    seed = args.seed
    while True:
        cfg = replace(base, seed=seed)
        try:
            report = run_campaign(cfg)
        except ValueError as e:      # e.g. a structure the audit can't judge
            print(f"chaos: {e}", file=sys.stderr)
            return 2
        print(report.summary())
        if not report.ok:
            if args.shrink:
                print("shrinking failing campaign ...")
                small = shrink_campaign(cfg)
                print(f"shrunk repro (seed {small.seed}, {small.n_ops} ops, "
                      f"conc {small.concurrency}):")
                print("  " + repro_command(small))
            return 1
        ran += 1
        seed += 1
        done_count = deadline is None and ran >= args.campaigns
        done_time = deadline is not None and time.monotonic() >= deadline
        if done_count or done_time:
            break
    print(f"chaos OK: {ran} campaign(s), no violations")
    return 0


def cmd_bench(args) -> int:
    """Run the pinned benchmark grid; write BENCH_<date>.json + summary.

    Exit codes: 0 OK, 1 regression beyond the threshold (unless
    ``--warn-only``), 2 schema/usage error.
    """
    from pathlib import Path

    from .metrics import bench as B

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    structures = [s.strip() for s in args.structures.split(",") if s.strip()]
    ranges = [int(r) for r in args.ranges.split(",") if r.strip()]
    shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]
    mixes = ([tuple(m) for m in args.mix] if args.mix
             else list(B.DEFAULT_MIXES))
    if not backends or not structures or not ranges or not shard_counts:
        print("bench: need at least one backend, structure, range, and "
              "shard count", file=sys.stderr)
        return 2

    doc, traces = B.run_grid(
        backends, structures, key_ranges=ranges, mixes=mixes,
        n_ops=args.ops, seed=args.seed, team_size=args.team_size,
        shard_counts=shard_counts,
        collect_spans=args.trace_out is not None,
        distribution=args.distribution, zipf_s=args.zipf_s)
    errors = B.validate_bench(doc)
    if errors:
        for e in errors:
            print(f"bench: schema error: {e}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_path = out_dir / B.bench_filename()
    # Resolve the baseline before writing, so re-running on the same
    # date compares against the *previous* file, not the fresh one.
    baseline_path = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            print(f"bench: baseline {baseline_path} not found",
                  file=sys.stderr)
            return 2
    elif not args.no_compare:
        baseline_path = B.latest_bench(out_dir, exclude=out_path)
    comparison = None
    if baseline_path is not None:
        baseline = B.load_bench(baseline_path)
        try:
            B.require_schema(baseline, f"baseline {baseline_path}")
        except ValueError as e:
            print(f"bench: {e}", file=sys.stderr)
            return 2
        comparison = B.compare_bench(doc, baseline, threshold=args.threshold)

    B.write_bench(doc, out_path)
    if args.trace_out is not None:
        B.write_trace(traces, args.trace_out)
    md = B.render_markdown(
        doc, comparison,
        baseline_name=baseline_path.name if baseline_path else None,
        threshold=args.threshold)
    if args.markdown is not None:
        Path(args.markdown).write_text(md)
    print(md, end="")
    for w in B.shard_bound_warnings(doc):
        print(f"bench: warning: {w}", file=sys.stderr)
    print(f"wrote {out_path}")
    if comparison is not None and comparison["regressions"]:
        if args.warn_only:
            print("regressions found (warn-only mode)", file=sys.stderr)
        else:
            return 1
    return 0


def cmd_serve_bench(args) -> int:
    """Seeded serve campaign: overload + chaos through the frontend.

    Exit codes: 0 OK, 1 gate failure (hang / unresolved request /
    non-linearizable history / p99 bound exceeded), 2 usage error.
    """
    import json
    from pathlib import Path

    from .chaos import ServeChaosConfig
    from .metrics.bench import merge_rows
    from .serve import (LoadConfig, ServeCampaignConfig, latency_histogram,
                        run_serve_campaign, serve_bench_row)

    if len(args.mix) != 4 or sum(args.mix) != 100:
        print("serve-bench: --mix needs 4 percentages (put delete get "
              "range) summing to 100", file=sys.stderr)
        return 2
    load = LoadConfig(
        n_requests=args.requests, n_clients=args.clients,
        key_range=args.range, mix=tuple(args.mix), rate=args.rate,
        deadline_steps=args.deadline_steps,
        distribution=args.distribution, zipf_s=args.zipf_s,
        seed=args.seed)
    chaos = ServeChaosConfig(
        bursts=args.bursts, burst_size=args.burst_size,
        stalled_clients=args.stalled_clients,
        freeze_shard=args.freeze_shard, freeze_at=args.freeze_at,
        freeze_steps=args.freeze_steps,
        abort_migrations=args.abort_migrations, seed=args.seed)
    cfg = ServeCampaignConfig(
        structure=args.structure, team_size=args.team_size,
        backend=args.backend, load=load,
        chaos=chaos if chaos.any_faults else None,
        coalesce_size=args.coalesce_size,
        coalesce_steps=args.coalesce_steps,
        queue_depth=args.queue_depth,
        admit_rate=args.admit_rate if args.admit_rate > 0 else None,
        admit_burst=args.admit_burst,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_steps=args.breaker_reset_steps,
        adaptive=args.adaptive, target_p99=args.target_p99,
        control_interval=args.control_interval,
        min_window=args.min_window, max_window=args.max_window,
        elastic=args.elastic, partitioner=args.partitioner,
        headroom=args.headroom,
        reshard_max_migrations=args.max_migrations,
        snapshot_audit=args.snapshot_audit,
        retry_attempts=args.retries, check=not args.no_check)
    try:
        report = run_serve_campaign(cfg)
    except ValueError as e:          # misconfiguration, named by the cause
        print(f"serve-bench: {e}", file=sys.stderr)
        return 2
    print(report.summary())

    if args.hist_out is not None:
        hist = latency_histogram(report.stats)
        Path(args.hist_out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.hist_out, "w") as fh:
            json.dump(hist, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.hist_out}")
    if args.bench_out is not None:
        try:
            merge_rows(args.bench_out, [serve_bench_row(cfg, report)])
        except ValueError as e:
            print(f"serve-bench: {e}", file=sys.stderr)
            return 2
        print(f"wrote serve row into {args.bench_out}")
    if args.ctrl_out is not None:
        Path(args.ctrl_out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.ctrl_out, "w") as fh:
            json.dump({"seed": load.seed, "adaptive": cfg.adaptive,
                       "target_p99_us": cfg.target_p99,
                       "shard_rates": report.shard_rates,
                       "shard_windows": report.shard_windows,
                       "timeline": report.ctrl_timeline}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.ctrl_out}")
    if args.migration_out is not None:
        st = report.stats
        Path(args.migration_out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.migration_out, "w") as fh:
            json.dump({"seed": load.seed, "elastic": cfg.elastic,
                       "migrations": st.migrations,
                       "migration_aborts": st.migration_aborts,
                       "migration_retries": st.migration_retries,
                       "migrated_keys": st.migrated_keys,
                       "migration_reconciled": st.migration_reconciled,
                       "events": report.migration_events,
                       "routing_history": report.routing_history},
                      fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.migration_out}")

    if not report.ok:
        return 1
    st = report.stats
    if st.terminated != st.submitted:
        print(f"serve-bench: {st.submitted - st.terminated} of "
              f"{st.submitted} submitted requests never terminated",
              file=sys.stderr)
        return 1
    if args.max_p99 is not None and report.p99_us is not None \
            and report.p99_us > args.max_p99:
        print(f"serve-bench: p99 {report.p99_us:.0f}us exceeds the "
              f"--max-p99 bound of {args.max_p99:.0f}us", file=sys.stderr)
        return 1
    if args.max_healthy_p99 is not None \
            and report.healthy_p99_us is not None \
            and report.healthy_p99_us > args.max_healthy_p99:
        print(f"serve-bench: healthy-shard p99 "
              f"{report.healthy_p99_us:.0f}us exceeds the "
              f"--max-healthy-p99 bound of {args.max_healthy_p99:.0f}us",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Assemble the ``repro`` argument parser."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="GPU-Friendly Skiplist reproduction (PPoPP'17/PACT'17)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="one-minute API tour").set_defaults(
        func=cmd_demo)

    from .engine import available_backends, available_structures
    pp = sub.add_parser("point", help="run one benchmark data point")
    pp.add_argument("--structure", choices=available_structures(),
                    default="gfsl")
    pp.add_argument("--backend", choices=available_backends(),
                    default="interleaved",
                    help="batch-engine execution path (default: the "
                    "interleaved replay the figures use)")
    pp.add_argument("--range", type=int, default=1_000_000)
    pp.add_argument("--ops", type=int, default=1000)
    pp.add_argument("--inserts", type=int, default=10)
    pp.add_argument("--deletes", type=int, default=10)
    pp.add_argument("--team-size", type=int, default=32)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--shards", type=int, default=None,
                    help="partition the key space across this many "
                    "co-located instances (default: single instance)")
    pp.add_argument("--partitioner", choices=("range", "hash"),
                    default="range",
                    help="key-space split for --shards (default: range)")
    from .workloads.generator import DISTRIBUTIONS
    pp.add_argument("--distribution", choices=DISTRIBUTIONS,
                    default="uniform",
                    help="key distribution (default: uniform, the "
                    "paper's setting)")
    pp.add_argument("--zipf-s", type=float, default=1.0,
                    help="Zipf exponent for --distribution zipf")
    pp.set_defaults(func=cmd_point)

    pf = sub.add_parser("figure", help="regenerate a paper figure")
    pf.add_argument("name", help="5.1 / 5.2 / 5.3 / 5.4")
    _add_scale_arg(pf)
    pf.set_defaults(func=cmd_figure)

    pt = sub.add_parser("table", help="regenerate a paper table")
    pt.add_argument("name", help="5.1 / 5.2")
    _add_scale_arg(pt)
    pt.set_defaults(func=cmd_table)

    ps = sub.add_parser("stress", help="interleaved concurrency fuzzing")
    ps.add_argument("--range", type=int, default=2_000)
    ps.add_argument("--ops", type=int, default=800)
    ps.add_argument("--team-size", type=int, default=16)
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(func=cmd_stress)

    from .chaos.faults import FAULT_KINDS, PLANTED_BUGS
    pc = sub.add_parser(
        "chaos", help="seeded adversarial campaign with linearizability "
        "checking (exits non-zero on any violation)")
    pc.add_argument("--ops", type=int, default=2_000,
                    help="operations per campaign")
    pc.add_argument("--range", type=int, default=150,
                    help="key range (small = dense per-key histories)")
    pc.add_argument("--mix", type=int, nargs=3, default=[20, 20, 60],
                    metavar=("I", "D", "C"),
                    help="insert/delete/contains percentages")
    pc.add_argument("--team-size", type=int, default=8,
                    help="entries per chunk (tiny = split/merge pressure)")
    pc.add_argument("--p-chunk", type=float, default=1.0)
    pc.add_argument("--concurrency", type=int, default=16,
                    help="in-flight ops per wave")
    pc.add_argument("--seed", type=int, default=0,
                    help="workload + chaos seed of the first campaign")
    pc.add_argument("--campaigns", type=int, default=1,
                    help="consecutive seeds to run (ignored with --seconds)")
    pc.add_argument("--seconds", type=float, default=None,
                    help="run campaigns (seed, seed+1, ...) until this "
                    "time budget is spent")
    pc.add_argument("--intensity", type=float, default=1.0,
                    help="scale factor on the default fault rates")
    pc.add_argument("--disable", action="append", default=[],
                    choices=FAULT_KINDS, metavar="KIND",
                    help="disable one fault kind (repeatable)")
    pc.add_argument("--no-faults", action="store_true",
                    help="pure interleaving, no injected faults")
    pc.add_argument("--bug", choices=PLANTED_BUGS, default=None,
                    help="deliberately plant a known bug (checker demo)")
    pc.add_argument("--structure", default="gfsl",
                    help="structure registry name, e.g. gfsl or gfsl@4 "
                    "(a ShardedMap campaign validates per shard)")
    pc.add_argument("--snapshots", type=int, default=0,
                    help="frozen snapshot readers per wave; their "
                    "observations are judged for cut consistency by the "
                    "extended checker (DESIGN.md §13)")
    pc.add_argument("--no-shrink", dest="shrink", action="store_false",
                    help="skip seed shrinking on failure")
    pc.set_defaults(func=cmd_chaos, shrink=True)

    from .metrics.bench import (DEFAULT_OPS, DEFAULT_RANGES, DEFAULT_SEED,
                                DEFAULT_THRESHOLD)
    pb = sub.add_parser(
        "bench", help="pinned benchmark grid with regression gate "
        "(exits 1 on a regression beyond the threshold)")
    pb.add_argument("--backends",
                    default=",".join(available_backends()),
                    help="comma-separated backend names "
                    f"(default: all — {','.join(available_backends())})")
    pb.add_argument("--structures", default="gfsl,mc",
                    help="comma-separated structure kinds (default: gfsl,mc)")
    pb.add_argument("--ranges",
                    default=",".join(str(r) for r in DEFAULT_RANGES),
                    help="comma-separated key ranges")
    pb.add_argument("--mix", type=int, nargs=3, action="append",
                    default=None, metavar=("I", "D", "C"),
                    help="insert/delete/contains percentages (repeatable; "
                    "default 10 10 80)")
    pb.add_argument("--ops", type=int, default=DEFAULT_OPS,
                    help="operations per grid cell")
    pb.add_argument("--shards", default="1",
                    help="comma-separated shard counts; cells with S > 1 "
                    "run the repro.shard partitioned build (default: 1)")
    pb.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pb.add_argument("--team-size", type=int, default=32)
    pb.add_argument("--distribution", choices=DISTRIBUTIONS,
                    default="uniform",
                    help="key distribution for every grid cell "
                    "(default: uniform)")
    pb.add_argument("--zipf-s", type=float, default=1.0,
                    help="Zipf exponent for --distribution zipf")
    pb.add_argument("--out-dir", default="benchmarks/results",
                    help="directory for BENCH_<date>.json")
    pb.add_argument("--baseline", default=None,
                    help="explicit baseline BENCH file (default: newest "
                    "other BENCH_*.json in --out-dir)")
    pb.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                    help="fractional throughput-drop gate (default 0.20)")
    pb.add_argument("--no-compare", action="store_true",
                    help="skip the baseline comparison entirely")
    pb.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0")
    pb.add_argument("--trace-out", default=None,
                    help="also write a chrome://tracing span trace here")
    pb.add_argument("--markdown", default=None,
                    help="also write the markdown summary to this file")
    pb.set_defaults(func=cmd_bench)

    pv = sub.add_parser(
        "serve-bench", help="seeded overload campaign through the async "
        "serving frontend (exits 1 on a hung request, non-linearizable "
        "history, or busted p99 bound)")
    pv.add_argument("--structure", default="gfsl@4",
                    help="structure registry name (default: gfsl@4)")
    pv.add_argument("--backend", choices=available_backends(),
                    default="vectorized")
    pv.add_argument("--requests", type=int, default=4000,
                    help="base Poisson request count")
    pv.add_argument("--clients", type=int, default=32)
    pv.add_argument("--range", type=int, default=2048)
    pv.add_argument("--mix", type=int, nargs=4, default=[25, 10, 60, 5],
                    metavar=("PUT", "DEL", "GET", "RANGE"),
                    help="request-kind percentages (default 25 10 60 5)")
    pv.add_argument("--rate", type=float, default=2400.0,
                    help="offered arrival rate, requests per 1000 steps "
                    "(default 2400 — ~2.4x the sustainable gfsl@4 rate)")
    pv.add_argument("--deadline-steps", type=int, default=3000,
                    help="per-request deadline horizon in steps")
    pv.add_argument("--distribution", choices=DISTRIBUTIONS,
                    default="zipf",
                    help="key distribution (default: zipf — skewed, "
                    "the overload-relevant case)")
    pv.add_argument("--zipf-s", type=float, default=1.0)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--team-size", type=int, default=32)
    pv.add_argument("--coalesce-size", type=int, default=32,
                    help="flush a shard batch at this many requests")
    pv.add_argument("--coalesce-steps", type=int, default=150,
                    help="...or after this many steps, whichever first")
    pv.add_argument("--queue-depth", type=int, default=128)
    pv.add_argument("--admit-rate", type=float, default=600.0,
                    help="token-bucket admission rate per 1000 steps "
                    "(0 disables admission control)")
    pv.add_argument("--admit-burst", type=float, default=64.0)
    pv.add_argument("--breaker-threshold", type=int, default=3)
    pv.add_argument("--breaker-reset-steps", type=int, default=400)
    pv.add_argument("--adaptive", action="store_true",
                    help="enable the elasticity controller: per-shard "
                    "AIMD admission against --target-p99, load-adaptive "
                    "coalesce windows, idle-token rebalancing")
    pv.add_argument("--target-p99", type=float, default=150.0,
                    help="adaptive: per-shard p99 latency setpoint in "
                    "µs (default 150)")
    pv.add_argument("--control-interval", type=int, default=200,
                    help="adaptive: control period in steps")
    pv.add_argument("--min-window", type=int, default=None,
                    help="adaptive: idle coalesce window floor (steps; "
                    "default coalesce-steps/6)")
    pv.add_argument("--max-window", type=int, default=None,
                    help="adaptive: saturated coalesce window cap "
                    "(steps; default 4x coalesce-steps)")
    pv.add_argument("--elastic", action="store_true",
                    help="enable telemetry-driven resharding: the "
                    "reshard policy watches per-shard telemetry and "
                    "migrates hot key ranges online (needs --adaptive)")
    pv.add_argument("--partitioner",
                    choices=("auto", "range", "hash", "sampled"),
                    default="auto",
                    help="shard key partitioner (auto: sampled "
                    "quantile boundaries for skewed distributions, "
                    "range otherwise)")
    pv.add_argument("--headroom", type=float, default=1.0,
                    help="per-shard chunk-pool over-provisioning "
                    "factor (>1 leaves room for migrated-in ranges)")
    pv.add_argument("--max-migrations", type=int, default=4,
                    help="elastic: migration budget per campaign")
    pv.add_argument("--snapshot-audit", action="store_true",
                    help="feed every range read's snapshot into the "
                    "consistency checker (migration-window audit)")
    pv.add_argument("--retries", type=int, default=4,
                    help="max flush attempts per batch")
    pv.add_argument("--bursts", type=int, default=0,
                    help="chaos: request-burst waves")
    pv.add_argument("--burst-size", type=int, default=64)
    pv.add_argument("--stalled-clients", type=int, default=0,
                    help="chaos: clients that stop consuming mid-run")
    pv.add_argument("--freeze-shard", type=int, default=None,
                    help="chaos: freeze this shard for a window")
    pv.add_argument("--freeze-at", type=int, default=400)
    pv.add_argument("--freeze-steps", type=int, default=600)
    pv.add_argument("--abort-migrations", type=int, default=0,
                    help="chaos: inject this many copy-phase migration "
                    "aborts (each kills one attempt pre-mutation)")
    pv.add_argument("--max-p99", type=float, default=None,
                    help="gate: fail if admitted point-op p99 (µs) "
                    "exceeds this")
    pv.add_argument("--max-healthy-p99", type=float, default=None,
                    help="gate: fail if the non-frozen-shard p99 (µs) "
                    "exceeds this")
    pv.add_argument("--no-check", action="store_true",
                    help="skip the linearizability/invariant audit")
    pv.add_argument("--hist-out", default=None,
                    help="write the latency histogram JSON here")
    pv.add_argument("--bench-out", default=None,
                    help="write/merge a serve row into this "
                    "BENCH_*.json file")
    pv.add_argument("--ctrl-out", default=None,
                    help="write the controller rate/window/occupancy "
                    "time series JSON here (CI artifact)")
    pv.add_argument("--migration-out", default=None,
                    help="write the migration-event/routing-history "
                    "JSON here (CI artifact)")
    pv.set_defaults(func=cmd_serve_bench)
    return p


#: Typed-error exit codes (0/1/2 stay: OK / gate failure / usage).
TYPED_ERROR_EXITS = (
    ("repro.serve.errors", "Overloaded", 4),
    ("repro.core.locks", "LockTimeout", 5),
    ("repro.core.pool", "OutOfChunks", 6),
)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Typed operational errors escape commands as exceptions; they are
    reported here as one clean line on stderr with a distinct exit
    code (see ``TYPED_ERROR_EXITS``) instead of a traceback.
    """
    import importlib

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for module_name, class_name, code in TYPED_ERROR_EXITS:
            cls = getattr(importlib.import_module(module_name),
                          class_name)
            if isinstance(exc, cls):
                print(f"repro: {class_name}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
