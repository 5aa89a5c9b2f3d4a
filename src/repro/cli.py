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
    ``BENCH_<date>.json`` + a markdown summary and requiring every
    modeled field and counter to equal the previous BENCH file's (the
    standing performance gate; see DESIGN.md §10).
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
    p.add_argument("--scale", choices=("smoke", "paper"), default="paper",
                   help="experiment scale preset (default: paper)")


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
    try:
        if args.inserts + args.deletes > 100:
            raise ValueError(f"--inserts {args.inserts} plus --deletes "
                             f"{args.deletes} exceed 100%")
        mix = Mixture(args.inserts, args.deletes,
                      100 - args.inserts - args.deletes)
        w = generate(mix, key_range=args.range, n_ops=args.ops,
                     seed=args.seed, distribution=args.distribution,
                     zipf_s=args.zipf_s)
        r = run_workload(args.structure, w, team_size=args.team_size,
                         backend=args.backend, shards=args.shards,
                         partitioner=args.partitioner)
    except ValueError as e:          # misconfiguration, named by the cause
        print(f"point: {e}", file=sys.stderr)
        return 2
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
    from .experiments import SCALES, figures
    if args.name not in figures.FIGURES:
        print(f"unknown figure {args.name!r} (choose 5.1/5.2/5.3/5.4)",
              file=sys.stderr)
        return 2
    print(figures.render(args.name, SCALES[args.scale]))
    return 0


def cmd_table(args) -> int:
    """Regenerate Table 5.1 or 5.2."""
    from .experiments import SCALES, paper_data, tables
    scale = SCALES[args.scale]
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
    s = sl.metrics
    print(f"stress OK: {args.ops} interleaved ops over {args.range:,} keys "
          f"(seed {args.seed})")
    print(f"  splits={s.splits} merges={s.merges} "
          f"zombies_unlinked={s.zombies_unlinked} "
          f"restarts={s.contains_restarts} height={stats['height']}")
    return 0


def cmd_chaos(args) -> int:
    """Seeded adversarial campaigns with linearizability checking."""
    import time

    from .chaos import (CampaignConfig, ChaosConfig, repro_command,
                        run_campaign, shrink_campaign)

    if args.no_faults:
        faults = ChaosConfig(bug=args.bug)
    else:
        faults = ChaosConfig.adversarial(args.intensity, bug=args.bug)
        for kind in args.disable:
            faults = faults.without(kind)

    deadline = (time.monotonic() + args.seconds
                if args.seconds is not None else None)
    ran = 0
    seed = args.seed
    while True:
        try:
            cfg = CampaignConfig(
                n_ops=args.ops, key_range=args.range, mix=tuple(args.mix),
                team_size=args.team_size, p_chunk=args.p_chunk, seed=seed,
                concurrency=args.concurrency, faults=faults,
                structure=args.structure, snapshots=args.snapshots)
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

    Exit codes: 0 OK, 1 a modeled field or counter differs from the
    baseline (one line each in the summary), 2 schema/usage error.
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

    try:
        doc, traces = B.run_grid(
            backends, structures, key_ranges=ranges, mixes=mixes,
            n_ops=args.ops, seed=args.seed, team_size=args.team_size,
            shard_counts=shard_counts,
            collect_spans=args.trace_out is not None,
            distribution=args.distribution, zipf_s=args.zipf_s)
    except ValueError as e:          # misconfiguration, named by the cause
        print(f"bench: {e}", file=sys.stderr)
        return 2
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
        comparison = B.compare_bench(doc, baseline)

    B.write_bench(doc, out_path)
    if args.trace_out is not None:
        B.write_trace(traces, args.trace_out)
    md = B.render_markdown(
        doc, comparison,
        baseline_name=baseline_path.name if baseline_path else None)
    if args.markdown is not None:
        Path(args.markdown).write_text(md)
    print(md, end="")
    for w in B.shard_bound_warnings(doc):
        print(f"bench: warning: {w}", file=sys.stderr)
    print(f"wrote {out_path}")
    return 1 if comparison is not None and comparison["differences"] else 0


#: The load a bare ``serve-bench`` offers, as ``LoadConfig`` fields:
#: gfsl@4 at ~2.4x its sustainable rate on zipf keys.
SERVE_LOAD = dict(n_requests=4000, n_clients=32, key_range=2048,
                  mix=(25, 10, 60, 5), rate=2400.0, deadline_steps=3000,
                  distribution="zipf", zipf_s=1.0, seed=0)


def serve_campaign_config(args):
    """The :class:`~repro.serve.ServeCampaignConfig` a parsed
    ``serve-bench`` command line describes.

    Every ``serve-bench`` flag that describes the run stores into the
    config, load or chaos field of the same name (``--seed`` seeds both
    the load and the chaos; ``--admit-rate 0`` turns admission control
    off).  Raises ``ValueError`` naming the flag of a bad setting."""
    from dataclasses import fields

    from .chaos import ServeChaosConfig
    from .serve import LoadConfig, ServeCampaignConfig

    given = dict(vars(args), mix=tuple(args.mix),
                 admit_rate=args.admit_rate or None)

    def build(cls, **kw):
        return cls(**{f.name: given[f.name] for f in fields(cls)
                      if f.name in given}, **kw)

    chaos = build(ServeChaosConfig)
    return build(ServeCampaignConfig, load=build(LoadConfig),
                 chaos=chaos if chaos.any_faults else None)


def cmd_serve_bench(args) -> int:
    """Seeded serve campaign: overload + chaos through the frontend.

    Exit codes: 0 OK, 1 gate failure (hang / unresolved request /
    non-linearizable history / p99 bound exceeded), 2 usage error.
    """
    import json
    from pathlib import Path

    from .serve import run_serve_campaign, run_summary

    try:
        cfg = serve_campaign_config(args)
        report = run_serve_campaign(cfg)
    except ValueError as e:          # misconfiguration, named by the cause
        print(f"serve-bench: {e}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.run_out is not None:
        path = Path(args.run_out) / "summary.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(run_summary(report), indent=1) + "\n")
        print(f"wrote {path}")

    st = report.stats
    if not report.ok:
        return 1
    if st.terminated != st.submitted:
        print(f"serve-bench: {st.submitted - st.terminated} of "
              f"{st.submitted} submitted requests never terminated",
              file=sys.stderr)
        return 1
    for label, p99, bound, flag in (
            ("p99", report.p99_us, args.max_p99, "--max-p99"),
            ("healthy-shard p99", report.healthy_p99_us,
             args.max_healthy_p99, "--max-healthy-p99")):
        if bound is not None and p99 is not None and p99 > bound:
            print(f"serve-bench: {label} {p99:.0f}us exceeds the {flag} "
                  f"bound of {bound:.0f}us", file=sys.stderr)
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

    from .metrics.bench import DEFAULT_OPS, DEFAULT_RANGES, DEFAULT_SEED
    pb = sub.add_parser(
        "bench", help="pinned benchmark grid with regression gate "
        "(exits 1 when a modeled field or counter differs from the "
        "baseline)")
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
    pb.add_argument("--no-compare", action="store_true",
                    help="skip the baseline comparison entirely")
    pb.add_argument("--trace-out", default=None,
                    help="also write a chrome://tracing span trace here")
    pb.add_argument("--markdown", default=None,
                    help="also write the markdown summary to this file")
    pb.set_defaults(func=cmd_bench)

    pv = sub.add_parser(
        "serve-bench", help="seeded overload campaign through the async "
        "serving frontend (exits 1 on a hung request, non-linearizable "
        "history, or busted p99 bound)")
    from .chaos import ServeChaosConfig
    from .serve import ServeCampaignConfig
    defaults = {**vars(ServeChaosConfig()), **vars(ServeCampaignConfig()),
                **SERVE_LOAD}

    def serve_flag(flag, dest=None, **kw):
        """A flag storing into the config (or load, or chaos) field
        ``dest``, by default the flag's own name, and defaulting to that
        field's default."""
        dest = dest or flag[2:].replace("-", "_")
        pv.add_argument(flag, dest=dest, default=defaults[dest], **kw)

    serve_flag("--structure", help="structure registry name (default: "
               "%(default)s)")
    serve_flag("--backend", choices=available_backends())
    serve_flag("--requests", "n_requests", type=int,
               help="base Poisson request count")
    serve_flag("--clients", "n_clients", type=int)
    serve_flag("--range", "key_range", type=int)
    serve_flag("--mix", type=int, nargs=4,
               metavar=("PUT", "DEL", "GET", "RANGE"),
               help="request-kind percentages (default %(default)s)")
    serve_flag("--rate", type=float,
               help="offered arrival rate, requests per 1000 steps "
               "(default %(default)s — ~2.4x the sustainable gfsl@4 rate)")
    serve_flag("--deadline-steps", type=int,
               help="per-request deadline horizon in steps")
    serve_flag("--distribution", choices=DISTRIBUTIONS,
               help="key distribution (default: %(default)s — skewed, "
               "the overload-relevant case)")
    serve_flag("--zipf-s", type=float)
    serve_flag("--seed", type=int)
    serve_flag("--team-size", type=int)
    serve_flag("--coalesce-size", type=int,
               help="flush a shard batch at this many requests")
    serve_flag("--coalesce-steps", type=int,
               help="...or after this many steps, whichever first")
    serve_flag("--queue-depth", type=int)
    serve_flag("--admit-rate", type=float,
               help="token-bucket admission rate per 1000 steps "
               "(default %(default)s; 0 disables admission control)")
    serve_flag("--admit-burst", type=float)
    serve_flag("--breaker-threshold", type=int)
    serve_flag("--breaker-reset-steps", type=int)
    serve_flag("--adaptive", action="store_true",
               help="enable the elasticity controller: per-shard AIMD "
               "admission against --target-p99, load-adaptive coalesce "
               "windows, idle-token rebalancing")
    serve_flag("--target-p99", type=float, help="adaptive: per-shard p99 "
               "latency setpoint in µs (default %(default)s)")
    serve_flag("--control-interval", type=int,
               help="adaptive: control period in steps")
    serve_flag("--min-window", type=int, help="adaptive: idle coalesce "
               "window floor (steps; default coalesce-steps/6)")
    serve_flag("--max-window", type=int, help="adaptive: saturated "
               "coalesce window cap (steps; default 4x coalesce-steps)")
    serve_flag("--elastic", action="store_true",
               help="enable telemetry-driven resharding: the reshard "
               "policy watches per-shard telemetry and migrates hot key "
               "ranges online (needs --adaptive)")
    serve_flag("--partitioner", choices=("auto", "range", "hash", "sampled"),
               help="shard key partitioner (auto: sampled quantile "
               "boundaries for skewed distributions, range otherwise)")
    serve_flag("--headroom", type=float,
               help="per-shard chunk-pool over-provisioning factor (>1 "
               "leaves room for migrated-in ranges)")
    serve_flag("--max-migrations", "reshard_max_migrations", type=int,
               help="elastic: migration budget per campaign")
    serve_flag("--snapshot-audit", action="store_true",
               help="feed every range read's snapshot into the "
               "consistency checker (migration-window audit)")
    serve_flag("--retries", "retry_attempts", type=int,
               help="max flush attempts per batch")
    serve_flag("--bursts", type=int, help="chaos: request-burst waves")
    serve_flag("--burst-size", type=int)
    serve_flag("--stalled-clients", type=int,
               help="chaos: clients that stop consuming mid-run")
    serve_flag("--freeze-shard", type=int,
               help="chaos: freeze this shard for a window")
    serve_flag("--freeze-at", type=int)
    serve_flag("--freeze-steps", type=int)
    serve_flag("--abort-migrations", type=int,
               help="chaos: inject this many copy-phase migration "
               "aborts (each kills one attempt pre-mutation)")
    pv.add_argument("--max-p99", type=float, default=None,
                    help="gate: fail if admitted point-op p99 (µs) "
                    "exceeds this")
    pv.add_argument("--max-healthy-p99", type=float, default=None,
                    help="gate: fail if the non-frozen-shard p99 (µs) "
                    "exceeds this")
    serve_flag("--no-check", "check", action="store_false",
               help="skip the linearizability/invariant audit")
    pv.add_argument("--run-out", default=None, metavar="DIR",
                    help="write the run summary (config, verdict, "
                    "latency, counters, controller and migration "
                    "records) to DIR/summary.json")
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
