"""Command-line interface: run simulations without writing Python.

Usage::

    python -m repro list
    python -m repro run --benchmark mcf --system attache
    python -m repro compare --benchmark STREAM --records 2000
    python -m repro functional --benchmark bc.kron --copr --mdcache

All runs are deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.analysis import format_table
from repro.core.controllers import DEFAULT_METADATA_BASE
from repro.core.metadata_cache import MetadataCache
from repro.fastpath.bench import PINS, result_digest
from repro.sim.functional import run_functional
from repro.sim.runner import (
    SYSTEMS,
    ExperimentScale,
    run_benchmark,
    run_comparison,
)
from repro.workloads.profiles import PROFILES, all_benchmark_names


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(
        name="cli",
        factor=args.scale_factor,
        cores=args.cores,
        records_per_core=args.records,
        warmup_per_core=args.warmup,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", default="mcf",
                        help="benchmark or mix name (see `list`)")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--records", type=int, default=2000,
                        help="timed memory operations per core")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warm-up records per core (default 2x records)")
    parser.add_argument("--scale-factor", type=int, default=32,
                        help="joint capacity/footprint scale divisor")


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in all_benchmark_names(include_mixes=False):
        profile = PROFILES[name]
        rows.append(
            [name, profile.suite, profile.pattern_kind,
             f"{100 * profile.data.compressible_fraction:.0f}%",
             f"{profile.footprint_bytes // 1024**2} MB"]
        )
    rows.append(["mix1 / mix2", "mix", "8-way mixes", "-", "-"])
    print(format_table(
        ["benchmark", "suite", "pattern", "compressible", "footprint/core"],
        rows, title="Available workloads",
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_benchmark(
        args.benchmark, args.system, scale=_scale_from_args(args),
        seed=args.seed,
    )
    rows = [
        ["runtime (core cycles)", f"{result.runtime_core_cycles:.0f}"],
        ["IPC", f"{result.ipc:.3f}"],
        ["LLC MPKI", f"{result.mpki:.1f}"],
        ["mean read latency (bus cycles)",
         f"{result.mean_read_latency_bus_cycles:.1f}"],
        ["bytes transferred", str(result.bytes_transferred)],
        ["energy (uJ)", f"{result.energy.total_nj / 1000:.1f}"],
    ]
    if result.copr_accuracy is not None:
        rows.append(["COPR accuracy", f"{100 * result.copr_accuracy:.1f}%"])
    if result.metadata_hit_rate is not None:
        rows.append(["metadata-cache hit rate",
                     f"{100 * result.metadata_hit_rate:.1f}%"])
    for kind, count in sorted(result.memory_requests_by_kind.items()):
        rows.append([f"requests: {kind}", str(count)])
    print(format_table(["metric", "value"], rows,
                       title=f"{args.benchmark} on {args.system}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    outcome = run_comparison(
        args.benchmark, systems=list(args.systems),
        scale=_scale_from_args(args), seed=args.seed,
    )
    rows = []
    for system in args.systems:
        result = outcome.results[system]
        rows.append(
            [system, outcome.speedup(system), outcome.energy_ratio(system),
             result.mean_read_latency_bus_cycles]
        )
    print(format_table(
        ["system", "speedup", "energy vs baseline", "read latency (cycles)"],
        rows, title=f"{args.benchmark}: system comparison",
    ))
    return 0


def _cmd_functional(args: argparse.Namespace) -> int:
    from repro.core.copr import CoprConfig

    cache = (
        MetadataCache(capacity_bytes=args.mdcache_kb * 1024,
                      metadata_base=DEFAULT_METADATA_BASE)
        if args.mdcache
        else None
    )
    copr_config = (
        CoprConfig(papr_entries=max(1024, 65536 // args.scale_factor),
                   lipr_entries=max(256, 16384 // args.scale_factor))
        if args.copr
        else None
    )
    run = run_functional(
        args.benchmark, cores=args.cores, records_per_core=args.records,
        seed=args.seed, footprint_scale=1.0 / args.scale_factor,
        llc_bytes=max(64 * 1024, 8 * 1024 * 1024 // args.scale_factor),
        metadata_cache=cache, copr_config=copr_config,
    )
    rows = [
        ["demand reads", str(run.demand_reads)],
        ["demand writes", str(run.demand_writes)],
        ["compressible reads", f"{100 * run.compressible_fraction:.1f}%"],
    ]
    if run.metadata_hit_rate is not None:
        rows.append(["metadata hit rate", f"{100 * run.metadata_hit_rate:.1f}%"])
        rows.append(["metadata traffic overhead",
                     f"{100 * run.metadata_traffic_overhead:.1f}%"])
    if run.copr_accuracy is not None:
        rows.append(["COPR accuracy", f"{100 * run.copr_accuracy:.1f}%"])
    print(format_table(["metric", "value"], rows,
                       title=f"{args.benchmark}: functional pass"))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate only the figure tables whose cached points changed."""
    import os
    import pathlib

    from repro.analysis.figures import figure_scale, plan, regenerate
    from repro.orchestrator import ResultCache

    cache_dir = args.cache_dir or os.environ.get(
        "REPRO_BENCH_CACHE_DIR", "benchmarks/cache"
    )
    cache = ResultCache(cache_dir)
    out_dir = pathlib.Path(args.out)
    scale = figure_scale(args.scale)
    only = args.only or None

    if args.list:
        rows = []
        for status in plan(cache, out_dir, scale, only=only):
            rows.append([
                status.spec.name,
                status.spec.title,
                "fresh" if status.fresh else "stale",
                f"{status.cached_points}/{status.total_points}",
            ])
        print(format_table(
            ["figure", "table", "state", "points cached"],
            rows, title=f"figure tables ({scale.name} scale)",
        ))
        return 0

    outcomes = regenerate(
        cache, out_dir, scale, only=only, force=args.force, progress=print,
    )
    rebuilt = sum(1 for __, action in outcomes if action == "rebuilt")
    print(f"{rebuilt} rebuilt, {len(outcomes) - rebuilt} fresh "
          f"(tables in {out_dir}, cache {cache_dir})")
    return 0


def _profile_functional(args: argparse.Namespace, profiler) -> int:
    """Time one functional pass; ``--vector off`` measures the scalar
    data plane."""
    import contextlib
    import pstats
    import time

    from repro import kernels

    override = (
        contextlib.nullcontext() if args.vector is None
        else kernels.overridden(args.vector != "off")
    )
    cache = MetadataCache(capacity_bytes=args.mdcache_kb * 1024,
                          metadata_base=DEFAULT_METADATA_BASE)
    with override:
        vector_on = kernels.enabled()
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        run = run_functional(
            args.benchmark, cores=args.cores,
            records_per_core=args.records, seed=args.seed,
            footprint_scale=1.0 / args.scale_factor,
            llc_bytes=max(64 * 1024, 8 * 1024 * 1024 // args.scale_factor),
            metadata_cache=cache,
        )
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - start

    events = args.cores * args.records
    print(format_table(
        ["metric", "value"],
        [
            ["vector kernels",
             "on" if vector_on
             else "disabled (scalar event loop; set REPRO_VECTOR=1 or "
                  "--vector on to enable)"],
            ["wall clock (s)", f"{wall:.3f}"],
            ["events (records)", str(events)],
            ["events/sec", f"{events / wall:.0f}"],
            ["result digest", result_digest(run)[:16]],
        ],
        title=f"profile: {args.benchmark} functional pass",
    ))
    if profiler is not None:
        stats = pstats.Stats(profiler)
        stats.sort_stats(args.sort)
        stats.print_stats(args.limit)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Time one run (optionally under cProfile) and print its fast-path
    cache telemetry; ``--fastpath off`` measures the reference path."""
    import contextlib
    import cProfile
    import pstats
    import time

    from repro import fastpath

    profiler = cProfile.Profile() if args.cprofile else None
    if args.functional:
        return _profile_functional(args, profiler)
    # No --fastpath flag means "whatever the environment says", so
    # REPRO_FASTPATH=0 is honoured instead of silently force-enabled.
    override = (
        contextlib.nullcontext() if args.fastpath is None
        else fastpath.overridden(args.fastpath != "off")
    )
    with override:
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        result = run_benchmark(
            args.benchmark, args.system, scale=_scale_from_args(args),
            seed=args.seed,
        )
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - start

    perf = result.perf or {}
    fastpath_on = bool(perf.get("fastpath"))
    rows = [
        ["fastpath",
         "on" if fastpath_on
         else "disabled (reference path; set REPRO_FASTPATH=1 or "
              "--fastpath on to enable)"],
        ["wall clock (s)", f"{wall:.3f}"],
        ["events (instructions)", str(result.instructions)],
        ["events/sec", f"{result.instructions / wall:.0f}"],
        ["result digest", result_digest(result)[:16]],
    ]
    # Cache telemetry only means something on the fast path — on the
    # reference path every counter is zero and the table used to print
    # a confusing block of empty caches.
    if fastpath_on:
        for name in ("classify", "keystream", "verified_reads"):
            counters = perf.get(name)
            if counters is not None:
                rows.append([
                    f"{name} cache",
                    f"{counters['hits']}/"
                    f"{counters['hits'] + counters['misses']}"
                    f" hits ({100 * counters['hit_rate']:.1f}%)",
                ])
        if "full_encodes" in perf:
            rows.append(["full encodes", str(perf["full_encodes"])])
        scheduler = perf.get("scheduler")
        if scheduler is not None:
            bucket = scheduler["bucket"]
            rows += [
                ["scheduler computes", str(scheduler["computes"])],
                ["scheduler bucket cache",
                 f"{bucket['hits']}/{bucket['hits'] + bucket['misses']}"
                 f" hits ({100 * bucket['hit_rate']:.1f}%)"],
                ["scheduler horizon skips", str(scheduler["horizon_skips"])],
                ["scheduler advances", str(scheduler["advances"])],
            ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"profile: {args.benchmark} on {args.system}",
    ))
    if profiler is not None:
        stats = pstats.Stats(profiler)
        stats.sort_stats(args.sort)
        stats.print_stats(args.limit)
    return 0


def _obs_config_from_args(args: argparse.Namespace, trace: bool):
    from repro.obs import ObsConfig

    return ObsConfig(
        epoch_cycles=args.obs_epoch,
        trace=trace,
        trace_sample_every=getattr(args, "trace_sample", 1),
        trace_capacity=getattr(args, "trace_capacity", 65536),
    )


def _trace_run_dir(args: argparse.Namespace) -> int:
    """Export a finished orchestrated run's span log as a Perfetto trace."""
    from repro.obs.fleet import load_span_records, write_fleet_trace

    if not load_span_records(args.run):
        print(f"no span records under {args.run}/spans.jsonl")
        print("record some by re-running the sweep with --spans "
              "(sweep / orchestrate / cluster sweep)")
        return 1
    path, trace = write_fleet_trace(args.run, output=args.output)
    events = trace.get("traceEvents", [])
    spans = sum(1 for e in events if e.get("ph") == "X")
    marks = sum(1 for e in events if e.get("ph") == "i")
    agents = trace.get("otherData", {}).get("agents", [])
    rows = [
        ["trace file", str(path)],
        ["span events", str(spans)],
        ["instant events", str(marks)],
        ["agents", ", ".join(agents) if agents else "(local pool only)"],
    ]
    for entry in trace.get("otherData", {}).get("clock_offsets", []):
        offset = entry.get("offset_s")
        if entry.get("agent") and offset is not None:
            rows.append([f"clock offset: {entry['agent']}",
                         f"{1000 * offset:+.3f} ms"])
    print(format_table(["metric", "value"], rows,
                       title=f"fleet trace: {args.run}"))
    print(f"open in Perfetto (https://ui.perfetto.dev) or "
          f"chrome://tracing: {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record sampled request lifecycles and write a Chrome trace."""
    from repro.obs import Observability

    if args.run is not None:
        return _trace_run_dir(args)

    hub = Observability(_obs_config_from_args(args, trace=True))
    result = run_benchmark(
        args.benchmark, args.system, scale=_scale_from_args(args),
        seed=args.seed, obs=hub,
    )
    tracer = hub.tracer
    output = args.output or f"{args.benchmark}.{args.system}.trace.json"
    tracer.write_json(output)

    obs = result.obs
    rows = [
        ["trace file", output],
        ["LLC misses seen", str(tracer.seen)],
        ["lifecycles traced", str(tracer.traced)],
        ["events recorded", str(len(tracer.events))],
        ["events dropped (ring full)", str(tracer.dropped)],
        ["epochs sampled", str(obs.num_epochs)],
    ]
    summary = obs.summary()
    if summary.get("copr_accuracy") is not None:
        rows.append(["COPR accuracy",
                     f"{100 * summary['copr_accuracy']:.1f}%"])
    rows.append(["bandwidth (B/bus-cycle)",
                 f"{summary['bandwidth_bytes_per_cycle']:.2f}"])
    print(format_table(["metric", "value"], rows,
                       title=f"trace: {args.benchmark} on {args.system}"))
    print(f"open in Perfetto (https://ui.perfetto.dev) or "
          f"chrome://tracing: {output}")
    return 0


def _metrics_list(args: argparse.Namespace) -> int:
    """Print the metric catalog (no simulation)."""
    from repro.obs import METRIC_CATALOG

    rows = [
        [spec.name, spec.kind, spec.unit, spec.description]
        for spec in METRIC_CATALOG
    ]
    print(format_table(
        ["metric", "kind", "unit", "description"], rows,
        title="Observable metrics (cumulative columns are stored as "
              "per-epoch deltas)",
    ))
    return 0


def _metrics_plot(args: argparse.Namespace, obs) -> int:
    """Render the observed run's time series to an image file."""
    from repro.obs.plot import PlotUnavailable, render_timeseries

    out = args.out or f"{args.benchmark}.{args.system}.metrics.png"
    try:
        path = render_timeseries(
            obs, out,
            title=f"{args.benchmark} on {args.system} "
                  f"(epoch = {args.obs_epoch:.0f} bus cycles)",
        )
    except PlotUnavailable as exc:
        print(f"plotting unavailable: {exc}")
        return 1
    print(f"wrote {obs.num_epochs} epochs across "
          f"{len(obs.columns) - 1} series to {path}")
    return 0


def _metrics_functional(args: argparse.Namespace) -> int:
    """Counter totals of one observed functional (timing-free) pass."""
    from repro.core.copr import CoprConfig
    from repro.obs import Observability
    from repro.obs.metrics import find_metric

    hub = Observability()
    cache = MetadataCache(capacity_bytes=args.mdcache_kb * 1024,
                          metadata_base=DEFAULT_METADATA_BASE)
    copr_config = CoprConfig(
        papr_entries=max(1024, 65536 // args.scale_factor),
        lipr_entries=max(256, 16384 // args.scale_factor),
    )
    run_functional(
        args.benchmark, cores=args.cores, records_per_core=args.records,
        seed=args.seed, footprint_scale=1.0 / args.scale_factor,
        llc_bytes=max(64 * 1024, 8 * 1024 * 1024 // args.scale_factor),
        metadata_cache=cache, copr_config=copr_config, obs=hub,
    )
    rows = []
    for name in hub.registry.names():
        counter = hub.registry.get(name)
        spec = find_metric(name)
        rows.append([
            name, f"{counter.value:.0f}",
            spec.description if spec is not None else "",
        ])
    print(format_table(
        ["counter", "total", "description"], rows,
        title=f"{args.benchmark}: functional-pass counters",
    ))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Dump the per-epoch time series of one observed run."""
    from repro.obs import Observability

    if args.action == "list":
        return _metrics_list(args)

    if args.functional:
        return _metrics_functional(args)

    hub = Observability(_obs_config_from_args(args, trace=False))
    result = run_benchmark(
        args.benchmark, args.system, scale=_scale_from_args(args),
        seed=args.seed, obs=hub,
    )
    obs = result.obs

    if args.plot:
        return _metrics_plot(args, obs)

    if args.csv:
        import csv as csv_module
        import io

        names = sorted(obs.columns)
        buffer = io.StringIO()
        writer = csv_module.writer(buffer, lineterminator="\n")
        writer.writerow(names)
        for row in zip(*(obs.columns[name] for name in names)):
            writer.writerow(row)
        if args.csv == "-":
            print(buffer.getvalue(), end="")
        else:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(buffer.getvalue())
            print(f"wrote {obs.num_epochs} epochs to {args.csv}")
        return 0

    accuracy = obs.rate("copr_correct", "copr_predictions")
    bandwidth = obs.per_cycle("bytes_transferred")
    misses = obs.series("llc_misses")
    hits = obs.series("llc_hits")
    miss_rate = [
        (m / (m + h) if (m + h) else 0.0) for m, h in zip(misses, hits)
    ]
    rows = []
    for index in range(obs.num_epochs):
        row = [str(index), f"{obs.series('cycle')[index]:.0f}",
               f"{bandwidth[index]:.2f}"]
        row.append(f"{100 * accuracy[index]:.1f}%" if accuracy else "-")
        row.append(f"{100 * miss_rate[index]:.1f}%" if miss_rate else "-")
        rows.append(row)
    print(format_table(
        ["epoch", "cycle", "BW (B/cyc)", "COPR acc", "LLC miss"],
        rows,
        title=f"metrics: {args.benchmark} on {args.system} "
              f"(epoch = {args.obs_epoch:.0f} bus cycles)",
    ))
    summary = obs.summary()
    print(f"overall: bandwidth {summary['bandwidth_bytes_per_cycle']:.2f} "
          f"B/cycle over {obs.num_epochs} epochs")
    latency = hub.registry.get("controller.read_latency_bus_cycles")
    if latency is not None and getattr(latency, "count", 0):
        print(f"read latency (bus cycles): "
              f"p50 {latency.quantile(0.50):.1f}, "
              f"p95 {latency.quantile(0.95):.1f}, "
              f"p99 {latency.quantile(0.99):.1f} "
              f"over {latency.count} reads (bucket estimates)")
    return 0


def _grid_obs(args: argparse.Namespace):
    """The grid's ObsConfig when ``--obs`` was passed, else None."""
    if not getattr(args, "obs", False):
        return None
    from repro.obs import ObsConfig

    # Grid points never keep a tracer handle to write out, so sweeps
    # collect only the time series.
    return ObsConfig(epoch_cycles=args.obs_epoch, trace=False)


def _grid_fleet(args: argparse.Namespace):
    """The grid's FleetConfig when fleet flags were passed, else None."""
    spans = bool(getattr(args, "spans", False))
    port = getattr(args, "status_port", None)
    if not spans and port is None:
        return None
    from repro.obs.fleet import FleetConfig

    return FleetConfig(spans=spans, status_port=port)


def _grid_chaos(args: argparse.Namespace):
    """The grid's ChaosPlan when ``--chaos`` was passed, else None.

    Lazy: the chaos package is only imported when a spec is present, so
    plain sweeps never pay for it (``REPRO_CHAOS`` is still honoured
    downstream by the orchestrator itself).
    """
    spec = getattr(args, "chaos", None)
    if not spec:
        return None
    from repro.chaos import ChaosSpecError, parse_chaos

    try:
        return parse_chaos(spec)
    except ChaosSpecError as exc:
        raise SystemExit(f"error: --chaos {spec!r}: {exc}") from None


def _run_grid(args: argparse.Namespace, run_dir=None):
    """Shared sweep/orchestrate execution path."""
    from repro.sim.sweep import run_sweep

    return run_sweep(
        benchmarks=list(args.benchmarks),
        systems=list(args.systems),
        seeds=list(args.seeds) if args.seeds else [args.seed],
        scale=_scale_from_args(args),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        run_dir=run_dir,
        timeout_s=args.timeout,
        retries=args.retries,
        progress=args.progress,
        obs=_grid_obs(args),
        pool=args.pool,
        recycle_after=args.recycle_after,
        fleet=_grid_fleet(args),
        chaos=_grid_chaos(args),
    )


def _report_failures(sweep) -> None:
    for outcome in sweep.failures:
        print(f"FAILED {outcome.spec.describe()} "
              f"after {outcome.attempts} attempt(s): {outcome.error}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = _run_grid(args, run_dir=args.run_dir)
    csv_text = sweep.to_csv(metrics=list(args.metrics))
    if args.output == "-":
        print(csv_text, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
        print(f"wrote {len(sweep.points)} rows to {args.output}")
    _report_failures(sweep)
    return 1 if sweep.failures else 0


def _orchestrate_replay(args: argparse.Namespace) -> int:
    """Re-run one failed grid point in-process from its crash dump."""
    from repro.obs.crashdump import (
        find_crash_dumps,
        load_crash_dump,
        replay_from_dump,
    )

    run_dir = args.run_dir or args.resume
    if run_dir is None:
        print("replay needs --run-dir <run-dir> (the failed run's directory)")
        return 1
    if args.key is None:
        dumps = find_crash_dumps(run_dir)
        if not dumps:
            print(f"no crash dumps under {run_dir}/crashes")
            return 1
        print(f"{len(dumps)} crash dump(s) under {run_dir}:")
        for path in dumps:
            dump = load_crash_dump(path)
            print(f"  {dump['key']} attempt {dump['attempt']}: "
                  f"{dump['error']}")
        print("replay one with: repro orchestrate replay <key-prefix> "
              f"--run-dir {run_dir}")
        return 1
    dumps = find_crash_dumps(run_dir, key_prefix=args.key)
    matched_keys = sorted({load_crash_dump(p)["key"] for p in dumps})
    if not dumps:
        print(f"no crash dump matching {args.key!r} under {run_dir}/crashes")
        return 1
    if len(matched_keys) > 1:
        print(f"{args.key!r} is ambiguous; matches:")
        for key in matched_keys:
            print(f"  {key}")
        return 1
    dump = load_crash_dump(dumps[-1])  # the key's latest attempt
    print(f"replaying {dump['key']} (attempt {dump['attempt']}) "
          f"from {dumps[-1]}")
    print(f"original failure: {dump['error']}")
    result = replay_from_dump(dump, use_pdb=args.pdb)
    if result is None:
        return 1  # --pdb post-mortem path: failure reproduced
    print("replay succeeded — the failure did not reproduce in-process")
    print(f"  runtime (core cycles): {result.runtime_core_cycles:.0f}")
    return 0


def _cmd_orchestrate(args: argparse.Namespace) -> int:
    """Durable, resumable grid runs: ``orchestrate`` / ``orchestrate --resume``."""
    import pathlib

    from repro.orchestrator.manifest import RunManifest
    from repro.sim.runner import ExperimentScale

    if args.action == "replay":
        return _orchestrate_replay(args)

    if args.resume:
        run_dir = pathlib.Path(args.resume)
        # Probe before RunManifest(): its constructor creates the run
        # directory, which would turn a typo'd path into an empty run.
        if not (run_dir / "run.json").exists():
            print(f"no run.json under {run_dir}; nothing to resume")
            return 1
        spec = RunManifest(run_dir).read_spec()
        args.benchmarks = spec["benchmarks"]
        args.systems = spec["systems"]
        args.seeds = spec["seeds"]
        scale = ExperimentScale.from_dict(spec["scale"])
        if args.cache_dir is None:
            args.cache_dir = spec.get("cache_dir")
        sweep = _run_grid_with_scale(args, scale, run_dir)
    else:
        if args.run_dir is None:
            print("orchestrate needs --run-dir (or --resume <run-dir>)")
            return 1
        run_dir = pathlib.Path(args.run_dir)
        sweep = _run_grid(args, run_dir=run_dir)

    csv_path = run_dir / "sweep.csv"
    csv_path.write_text(sweep.to_csv(metrics=list(args.metrics)),
                        encoding="utf-8")

    summary = _read_summary(run_dir)
    rows = [["grid points", str(len(sweep.points) + len(sweep.failures))],
            ["csv", str(csv_path)]]
    if summary:
        rows += [
            ["simulated", str(summary["done"])],
            ["cached", str(summary["cached"])],
            ["failed", str(summary["failed"])],
            ["cache hit rate", f"{100 * summary['cache_hit_rate']:.1f}%"],
            ["worker utilization",
             f"{100 * summary['worker_utilization']:.1f}%"],
            ["elapsed", f"{summary['elapsed_s']:.2f}s"],
        ]
    print(format_table(["metric", "value"], rows,
                       title=f"orchestrated run: {run_dir}"))
    _report_failures(sweep)
    return 1 if sweep.failures else 0


def _cluster_agent(args: argparse.Namespace) -> int:
    from repro.cluster.agent import AgentServer, parse_listen
    from repro.orchestrator.workers import DEFAULT_RECYCLE_AFTER

    host, port = parse_listen(args.listen)
    server = AgentServer(
        host=host, port=port, jobs=args.jobs, pool=args.pool,
        recycle_after=(args.recycle_after if args.recycle_after is not None
                       else DEFAULT_RECYCLE_AFTER),
        cache_dir=args.cache_dir, name=args.name, once=args.once,
    )
    server.bind()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cluster_sweep(args: argparse.Namespace) -> int:
    import os

    from repro.cluster import connect_cluster
    from repro.orchestrator import ResultCache
    from repro.sim.sweep import run_sweep

    chaos = _grid_chaos(args)
    if chaos is not None:
        # Agents this sweep launches inherit the environment, so one
        # --chaos spec arms transport/worker faults fleet-wide (dialed
        # agents keep their own REPRO_CHAOS setting).
        os.environ.setdefault("REPRO_CHAOS", args.chaos)
    backend = connect_cluster(
        args.hosts,
        agent_jobs=args.agent_jobs,
        agent_pool=args.pool,
        cache=(ResultCache(args.cache_dir)
               if args.cache_dir is not None else None),
    )
    sweep = run_sweep(
        benchmarks=list(args.benchmarks),
        systems=list(args.systems),
        seeds=list(args.seeds) if args.seeds else [args.seed],
        scale=_scale_from_args(args),
        jobs=max(1, backend.total_slots()),
        cache_dir=args.cache_dir,
        run_dir=args.run_dir,
        timeout_s=args.timeout,
        retries=args.retries,
        progress=args.progress,
        obs=_grid_obs(args),
        pool=backend,
        fleet=_grid_fleet(args),
        chaos=chaos,
    )
    csv_text = sweep.to_csv(metrics=list(args.metrics))
    if args.output == "-":
        print(csv_text, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
        print(f"wrote {len(sweep.points)} rows to {args.output}")
    rows = [
        [link.name, link.address, str(link.served)]
        for link in backend.agents()
    ]
    print(format_table(
        ["agent", "address", "jobs served"], rows,
        title=f"cluster: {len(rows)} agent(s), "
              f"{backend.redispatched} re-dispatched, "
              f"{backend.speculated} speculated",
    ))
    _report_failures(sweep)
    return 1 if sweep.failures else 0


def _cluster_status(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterError, agent_status, parse_hosts

    failures = 0
    rows = []
    for spec in parse_hosts(args.hosts):
        if spec.kind != "dial":
            print(f"status needs HOST:PORT entries, got {spec.describe()}")
            failures += 1
            continue
        try:
            reply = agent_status(spec.host, spec.port)
        except (OSError, ClusterError) as exc:
            rows.append([spec.describe(), "unreachable", "-", "-", "-"])
            print(f"{spec.describe()}: {exc}")
            failures += 1
            continue
        rows.append([
            reply.get("name", spec.describe()),
            "listening",
            str(reply.get("slots", "-")),
            str(reply.get("served", "-")),
            str(reply.get("cache_hits", "-")),
        ])
    print(format_table(
        ["agent", "state", "slots", "served", "cache hits"], rows,
        title=f"cluster status: {len(rows)} agent(s)",
    ))
    return 1 if failures else 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard for a running (or finished) grid run."""
    from repro.obs.top import run_top

    try:
        return run_top(args.target, interval_s=args.interval,
                       once=args.once)
    except KeyboardInterrupt:
        return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    handlers = {
        "agent": _cluster_agent,
        "sweep": _cluster_sweep,
        "status": _cluster_status,
    }
    return handlers[args.cluster_command](args)


def _run_grid_with_scale(args, scale, run_dir):
    from repro.sim.sweep import run_sweep

    return run_sweep(
        benchmarks=list(args.benchmarks),
        systems=list(args.systems),
        seeds=list(args.seeds),
        scale=scale,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        run_dir=run_dir,
        timeout_s=args.timeout,
        retries=args.retries,
        progress=args.progress,
        obs=_grid_obs(args),
        pool=args.pool,
        recycle_after=args.recycle_after,
        fleet=_grid_fleet(args),
        chaos=_grid_chaos(args),
    )


def _read_summary(run_dir):
    import json

    path = run_dir / "telemetry.jsonl"
    summary = None
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("event") == "summary":
                summary = record
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Attaché (MICRO 2018) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available workloads")

    run_parser = commands.add_parser("run", help="simulate one system")
    _add_common(run_parser)
    run_parser.add_argument("--system", choices=SYSTEMS, default="attache")

    compare_parser = commands.add_parser(
        "compare", help="simulate several systems on one workload"
    )
    _add_common(compare_parser)
    compare_parser.add_argument(
        "--systems", nargs="+", choices=SYSTEMS, default=list(SYSTEMS)
    )

    functional_parser = commands.add_parser(
        "functional", help="timing-free predictor / metadata-cache study"
    )
    _add_common(functional_parser)
    functional_parser.add_argument("--mdcache", action="store_true",
                                   help="measure a metadata cache")
    functional_parser.add_argument("--mdcache-kb", type=int, default=32)
    functional_parser.add_argument("--copr", action="store_true",
                                   help="measure the COPR predictor")

    figures_parser = commands.add_parser(
        "figures",
        help="regenerate figure tables incrementally from cached points",
    )
    figures_parser.add_argument(
        "--scale", choices=("tiny", "fast", "full"), default="tiny",
        help="simulation scale per point (matches REPRO_BENCH_SCALE "
             "presets, so bench runs share the cache)",
    )
    figures_parser.add_argument(
        "--out", default="benchmarks/out",
        help="directory for rendered tables and the freshness state",
    )
    figures_parser.add_argument(
        "--cache-dir", default=None,
        help="result cache root (default $REPRO_BENCH_CACHE_DIR or "
             "benchmarks/cache)",
    )
    figures_parser.add_argument(
        "--only", nargs="+", default=None, metavar="FIGURE",
        help="restrict to the named figure(s)",
    )
    figures_parser.add_argument(
        "--force", action="store_true",
        help="rebuild even when the point-key set is unchanged",
    )
    figures_parser.add_argument(
        "--list", action="store_true",
        help="show each figure's freshness without simulating",
    )

    profile_parser = commands.add_parser(
        "profile",
        help="time one run and print fast-path cache telemetry",
    )
    _add_common(profile_parser)
    # Defaults are the single-run pin, so `repro profile` times exactly
    # what the perf gate measures; any other point stays reachable
    # through the common flags.
    pin = PINS["single_run"].config
    scale = pin["scale"]
    profile_parser.set_defaults(
        benchmark=pin["benchmark"], seed=pin["seed"], cores=scale["cores"],
        records=scale["records_per_core"], warmup=scale["warmup_per_core"],
        scale_factor=scale["factor"],
    )
    profile_parser.add_argument("--system", choices=SYSTEMS,
                                default=pin["system"])
    profile_parser.add_argument(
        "--fastpath", choices=("on", "off"), default=None,
        help="'off' measures the reference (slow) path; omitted, the "
             "REPRO_FASTPATH environment setting applies",
    )
    profile_parser.add_argument(
        "--functional", action="store_true",
        help="time the functional (timing-free) pass instead of the "
             "cycle-level simulator",
    )
    profile_parser.add_argument(
        "--vector", choices=("on", "off"), default=None,
        help="'off' times the scalar data plane; omitted, the "
             "REPRO_VECTOR environment setting applies "
             "(used with --functional)",
    )
    profile_parser.add_argument(
        "--mdcache-kb", type=int, default=32,
        help="metadata-cache capacity for --functional",
    )
    profile_parser.add_argument("--cprofile", action="store_true",
                                help="run under cProfile and print hotspots")
    profile_parser.add_argument("--sort", default="cumulative",
                                help="cProfile sort column")
    profile_parser.add_argument("--limit", type=int, default=25,
                                help="cProfile rows to print")

    trace_parser = commands.add_parser(
        "trace",
        help="record sampled request lifecycles as Chrome trace JSON",
    )
    _add_common(trace_parser)
    trace_parser.add_argument("--system", choices=SYSTEMS, default="attache")
    trace_parser.add_argument(
        "--output", default=None,
        help="trace path (default <benchmark>.<system>.trace.json)",
    )
    trace_parser.add_argument(
        "--run", metavar="RUN_DIR", default=None,
        help="instead of simulating, merge RUN_DIR/spans.jsonl (recorded "
             "by sweep/orchestrate/cluster sweep --spans) into one "
             "Perfetto trace of the whole distributed run",
    )
    _add_obs(trace_parser)
    trace_parser.add_argument(
        "--trace-sample", type=_positive_int, default=1,
        help="trace every Nth LLC miss (1 = all)",
    )
    trace_parser.add_argument(
        "--trace-capacity", type=_positive_int, default=65536,
        help="ring-buffer cap on stored trace events",
    )

    metrics_parser = commands.add_parser(
        "metrics", help="dump the per-epoch observability time series"
    )
    _add_common(metrics_parser)
    metrics_parser.add_argument(
        "action", nargs="?", choices=("list",), default=None,
        help="'list' prints the metric catalog (names, kinds, units) "
             "without simulating",
    )
    metrics_parser.add_argument("--system", choices=SYSTEMS,
                                default="attache")
    metrics_parser.add_argument(
        "--functional", action="store_true",
        help="observe a timing-free functional pass (metadata cache + "
             "COPR) and print its counter totals instead of a timing "
             "run's time series",
    )
    metrics_parser.add_argument(
        "--mdcache-kb", type=int, default=32,
        help="metadata-cache capacity for --functional",
    )
    metrics_parser.add_argument(
        "--csv", default=None,
        help="write all columns as CSV to this path ('-' for stdout) "
             "instead of the rendered table",
    )
    metrics_parser.add_argument(
        "--plot", action="store_true",
        help="render the time series as an image (needs matplotlib; "
             "falls back to the Agg backend on headless machines)",
    )
    metrics_parser.add_argument(
        "--out", default=None,
        help="image path for --plot "
             "(default <benchmark>.<system>.metrics.png)",
    )
    _add_obs(metrics_parser)

    sweep_parser = commands.add_parser(
        "sweep", help="run a benchmark x system grid, export CSV"
    )
    _add_common(sweep_parser)
    _add_grid(sweep_parser)
    sweep_parser.add_argument("--output", default="-",
                              help="CSV path, or '-' for stdout")

    orchestrate_parser = commands.add_parser(
        "orchestrate",
        help="durable parallel grid run (manifest + telemetry + resume)",
    )
    _add_common(orchestrate_parser)
    _add_grid(orchestrate_parser)
    orchestrate_parser.add_argument(
        "action", nargs="?", choices=("replay",), default=None,
        help="'replay' re-runs one failed grid point from its crash dump",
    )
    orchestrate_parser.add_argument(
        "key", nargs="?", default=None,
        help="crash-dump job key (or unambiguous prefix) to replay",
    )
    orchestrate_parser.add_argument(
        "--pdb", action="store_true",
        help="drop into pdb post-mortem when the replay fails again",
    )
    orchestrate_parser.add_argument(
        "--resume", metavar="RUN_DIR", default=None,
        help="resume an interrupted/failed run from its run directory "
             "(grid and scale come from its run.json)",
    )

    cluster_parser = commands.add_parser(
        "cluster",
        help="distributed sweeps over remote worker agents",
    )
    cluster_commands = cluster_parser.add_subparsers(
        dest="cluster_command", required=True
    )

    agent_parser = cluster_commands.add_parser(
        "agent", help="serve jobs for a remote coordinator"
    )
    agent_parser.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="bind address (port 0 lets the OS choose; the agent "
             "announces the resolved port on stdout)",
    )
    agent_parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="local worker slots this agent offers",
    )
    agent_parser.add_argument(
        "--pool", choices=["warm", "spawn"], default="warm",
        help="local execution backend behind the agent",
    )
    agent_parser.add_argument(
        "--recycle-after", type=_positive_int, default=None,
        help="jobs a warm worker serves before being replaced",
    )
    agent_parser.add_argument(
        "--cache-dir", default=None,
        help="agent-local result cache (enables cache federation)",
    )
    agent_parser.add_argument("--name", default=None,
                              help="agent name in manifests/telemetry "
                                   "(default hostname:port)")
    agent_parser.add_argument(
        "--once", action="store_true",
        help="exit after serving one coordinator session",
    )

    cluster_sweep_parser = cluster_commands.add_parser(
        "sweep", help="run a sweep grid across remote agents"
    )
    _add_common(cluster_sweep_parser)
    _add_grid(cluster_sweep_parser)
    cluster_sweep_parser.add_argument(
        "--hosts", nargs="+", required=True, metavar="HOST",
        help="agents: HOST:PORT (already running), 'local' (launch a "
             "loopback agent) or ssh://user@host (launch over SSH)",
    )
    cluster_sweep_parser.add_argument(
        "--agent-jobs", type=_positive_int, default=1,
        help="worker slots per agent this sweep launches (dialed "
             "agents keep their own --jobs)",
    )
    cluster_sweep_parser.add_argument(
        "--output", default="-", help="CSV path, or '-' for stdout"
    )

    cluster_status_parser = cluster_commands.add_parser(
        "status", help="query running agents"
    )
    cluster_status_parser.add_argument(
        "--hosts", nargs="+", required=True, metavar="HOST:PORT",
        help="agents to query (HOST:PORT only)",
    )

    top_parser = commands.add_parser(
        "top",
        help="live dashboard for a grid run (status URL or run dir)",
    )
    top_parser.add_argument(
        "target", metavar="URL|RUN_DIR",
        help="a --status-port URL (http://host:port) for a live view, or "
             "a run directory for a post-hoc snapshot from its "
             "telemetry.jsonl",
    )
    top_parser.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes (live view)",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit",
    )
    return parser


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-epoch", type=float, default=2048.0,
        help="time-series epoch length in memory-bus cycles",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _jobs_arg(text: str):
    """``--jobs`` parser: a positive integer, or ``auto``."""
    if text == "auto":
        return "auto"
    try:
        return _positive_int(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be a positive integer or 'auto', got {text!r}"
        ) from None


def _add_grid(parser: argparse.ArgumentParser) -> None:
    """Axes + orchestration flags shared by ``sweep`` and ``orchestrate``."""
    parser.add_argument("--benchmarks", nargs="+", default=["STREAM"])
    parser.add_argument(
        "--systems", nargs="+", choices=SYSTEMS, default=["baseline", "attache"]
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=None,
                        help="seed axis (defaults to the single --seed)")
    parser.add_argument(
        "--metrics", nargs="+",
        default=["runtime_core_cycles", "ipc", "energy_nj"],
    )
    parser.add_argument("--jobs", type=_jobs_arg, default="auto",
                        help="parallel worker processes, or 'auto' (the "
                             "default) to size from CPUs, memory and "
                             "prior run telemetry")
    parser.add_argument("--pool", choices=["warm", "spawn"], default="warm",
                        help="worker strategy: persistent warm pool with "
                             "a shared workload bank (default) or one "
                             "fresh process per attempt")
    parser.add_argument("--recycle-after", type=_positive_int, default=None,
                        help="jobs a warm worker serves before being "
                             "replaced by a fresh process")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory")
    parser.add_argument("--run-dir", default=None,
                        help="durable run directory (manifest/telemetry)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point wall-clock timeout in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per grid point after a failure")
    parser.add_argument("--progress", action="store_true",
                        help="render a live progress line on stderr")
    parser.add_argument("--obs", action="store_true",
                        help="attach per-epoch time series to every "
                             "grid point's result")
    parser.add_argument("--spans", action="store_true",
                        help="record orchestration spans (queued/dispatch/"
                             "run/cache/retry per attempt) to "
                             "<run-dir>/spans.jsonl for repro trace --run")
    parser.add_argument("--status-port", type=int, default=None,
                        metavar="PORT",
                        help="serve live /status.json + Prometheus "
                             "/metrics on this port while the grid runs "
                             "(0 = OS-chosen; the URL is announced)")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="deterministic fault injection: PROFILE"
                             "[,site=rate...][@seed], e.g. "
                             "'default@2018' or 'off,worker.crash=0.2'; "
                             "results stay byte-identical to a "
                             "fault-free run (see docs/ROBUSTNESS.md)")
    _add_obs(parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "functional": _cmd_functional,
        "figures": _cmd_figures,
        "profile": _cmd_profile,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "sweep": _cmd_sweep,
        "orchestrate": _cmd_orchestrate,
        "cluster": _cmd_cluster,
        "top": _cmd_top,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
