"""The four serve artifacts ``serve-bench`` wrote before the run summary.

``--hist-out`` wrote :func:`histogram`, ``--bench-out`` merged the
``source: "serve"`` BENCH row of :func:`bench_row`, ``--ctrl-out``
wrote :func:`controller_series` and ``--migration-out``
:func:`migration_log`.  Each body is the old writer's, reading the same
:class:`~repro.serve.ServeReport`; a static run's per-shard rates and
windows come from :func:`_static_controller`, the static branch the
old ``ServeFrontend.controller_snapshot`` made up for BENCH rows.  The
run-summary tests check every leaf of these documents against
``summary.json``.
"""


def _static_controller(cfg):
    rate = cfg.admit_rate
    return ([0.0 if rate is None else round(rate, 3)] * cfg.n_shards,
            [cfg.coalesce_steps] * cfg.n_shards)


def _rates_windows(report):
    if report.config.adaptive:
        return report.shard_rates, report.shard_windows
    return _static_controller(report.config)


def histogram(report) -> dict:
    """``--hist-out``: log2-bucketed point and range latencies."""
    def bucketize(samples):
        buckets: dict[str, int] = {}
        for v in samples:
            lo = 1
            while lo * 2 <= max(1, v):
                lo *= 2
            label = f"{lo}-{lo * 2 - 1}us"
            buckets[label] = buckets.get(label, 0) + 1
        return dict(sorted(buckets.items(),
                           key=lambda kv: int(kv[0].split("-")[0])))
    st = report.stats
    return {
        "point_us": bucketize(st.point_latencies),
        "range_us": bucketize(st.range_latencies),
        "point_samples": len(st.point_latencies),
        "range_samples": len(st.range_latencies),
    }


def bench_row(report) -> dict:
    """``--bench-out``: the ``source: "serve"`` BENCH row."""
    cfg, st = report.config, report.stats
    load = cfg.load
    model_seconds = report.total_steps * 1e-6     # 1 step = 1 µs
    mops = (st.completed / report.total_steps
            if report.total_steps > 0 else 0.0)   # ops/µs = M ops/s
    counters = st.counters()
    counters["seed"] = int(load.seed)
    if report.fault_counts:
        for kind, n in sorted(report.fault_counts.items()):
            counters[f"fault_{kind}"] = int(n)
    rates, windows = _rates_windows(report)
    return {
        "structure": cfg.structure,
        "backend": cfg.backend,
        "mixture": "[" + ",".join(str(m) for m in load.mix) + "]",
        "key_range": load.key_range,
        "n_ops": load.n_requests,
        "shards": cfg.n_shards,
        "distribution": load.distribution,
        "adaptive": bool(cfg.adaptive),
        "elastic": bool(cfg.elastic),
        "source": "serve",
        "gen_fraction": (st.gen_ops / st.flushed_ops
                         if st.flushed_ops else 0.0),
        "mops": mops,
        "model_seconds": model_seconds,
        "wall_seconds": report.wall_seconds,
        "transactions_per_op": (report.transactions
                                / max(1, st.completed)),
        "l2_hit_rate": report.l2_hit_rate,
        "p50_us": report.p50_us if report.p50_us is not None else 0.0,
        "p99_us": report.p99_us if report.p99_us is not None else 0.0,
        "rejected": st.rejected,
        "shed": st.shed,
        "retries": st.retries,
        "target_p99_us": float(cfg.target_p99),
        "healthy_p99_us": (report.healthy_p99_us
                           if report.healthy_p99_us is not None else 0.0),
        "shard_rates": list(rates),
        "shard_windows": list(windows),
        "migrations": int(st.migrations),
        "migration_aborts": int(st.migration_aborts),
        "migrated_keys": int(st.migrated_keys),
        "migration_events": list(report.migration_events),
        "counters": counters,
    }


def controller_series(report) -> dict:
    """``--ctrl-out``: the controller's final state and time series."""
    cfg = report.config
    rates, windows = _rates_windows(report)
    return {"seed": cfg.load.seed, "adaptive": cfg.adaptive,
            "target_p99_us": cfg.target_p99,
            "shard_rates": rates, "shard_windows": windows,
            "timeline": report.ctrl_timeline}


def migration_log(report) -> dict:
    """``--migration-out``: migration counters, events and routing."""
    cfg, st = report.config, report.stats
    return {"seed": cfg.load.seed, "elastic": cfg.elastic,
            "migrations": st.migrations,
            "migration_aborts": st.migration_aborts,
            "migration_retries": st.migration_retries,
            "migrated_keys": st.migrated_keys,
            "migration_reconciled": st.migration_reconciled,
            "events": report.migration_events,
            "routing_history": report.routing_history}


ARTIFACTS = {"hist": histogram, "bench_row": bench_row,
             "ctrl": controller_series, "migration": migration_log}
