"""The orchestrator: a fault-tolerant scheduling loop over job specs.

Attempts execute through one of two backends
(:mod:`repro.orchestrator.workers`): ``spawn`` starts a fresh process
per attempt (maximal isolation, fixed fork + teardown tax per job) and
``warm`` keeps a persistent pool of worker processes that serve many
jobs each over a request/response pipe, sharing imports, pure memo
caches and zero-copy workload-bank traces between jobs.  Either way a
crash (segfault, OOM-kill, unhandled exception) takes down one attempt,
never the sweep: the parent observes the dead worker, retries with
exponential backoff up to ``retries`` times, and finally marks the
point ``failed`` in the run manifest while every other point proceeds.
Per-job wall timeouts are enforced by terminating the worker (in warm
mode: that one worker — in-flight siblings are untouched and a
replacement spawns lazily).

Results cross the process boundary as ``SimulationResult.to_dict()``
payloads over a pipe, the same lossless encoding the result cache and
run manifests store, so a simulated point, a cached point, a resumed
point and a pooled point are bit-identical.

Jobs launch in input order (retries rejoin the back of the queue), and
report order is always input order.

``jobs="auto"`` sizes the worker count from the machine
(:func:`auto_jobs`): CPU count less one for the parent, capped by
available memory against a per-job estimate and by the number of
pending jobs.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.obs.crashdump import write_crash_dump
from repro.obs.fleet import FleetConfig, NULL_SPAN_LOG, SpanLog
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.jobs import JobSpec, execute_job
from repro.orchestrator.manifest import RunManifest
from repro.orchestrator.telemetry import RunTelemetry
from repro.orchestrator.workers import (
    DEFAULT_RECYCLE_AFTER,
    POOL_MODES,
    SpawnBackend,
    WarmPoolBackend,
    WorkerStartupError,
)
from repro.sim.simulator import SimulationResult

#: Flat per-worker interpreter + bounded-cache overhead (content, class,
#: keystream and scheduler caches are all capacity-bounded), used by the
#: ``jobs="auto"`` memory cap.
_WORKER_BASE_BYTES = 128 * 1024 * 1024
#: Marginal bytes per simulated trace record (trace arrays, LLC state,
#: per-line bookkeeping) for the same estimate.
_PER_RECORD_BYTES = 64


@dataclass
class JobOutcome:
    """Terminal state of one grid point after orchestration."""

    spec: JobSpec
    key: str
    status: str  #: "done" | "failed" | "cached"
    attempts: int = 0
    wall_s: float = 0.0  #: total worker seconds across attempts
    error: Optional[str] = None
    result: Optional[SimulationResult] = None
    source: str = "run"  #: "run" | "cache" | "manifest" | "agent-cache"
    #: True when every attempt killed its worker: the job itself is
    #: poison (not flaky) and was quarantined after the retry budget.
    poisoned: bool = False
    #: Path of the final attempt's crash dump (failed jobs in durable
    #: runs only) — the input to ``repro orchestrate replay``.
    crash_dump: Optional[str] = None
    #: Cluster agent that executed the point (None for local backends).
    agent: Optional[str] = None


@dataclass
class OrchestrationReport:
    """Everything ``Orchestrator.run`` learned, in input order."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    @property
    def results(self) -> List[Optional[SimulationResult]]:
        return [outcome.result for outcome in self.outcomes]

    @property
    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def cached(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.status == "cached"]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class _Pending:
    index: int
    attempt: int  #: next attempt number (1-based)
    ready_at: float  #: monotonic time before which we must not launch
    queued_at: float = 0.0  #: monotonic time the attempt entered the queue


class _FleetRuntime:
    """Mutable fleet-observability state shared across one run's threads.

    Holds the span log plus references to the scheduling loop's live
    structures so the status-plane sampler can read queue depth and the
    straggler watermark without the loop pushing updates anywhere.
    """

    def __init__(self, spans=NULL_SPAN_LOG) -> None:
        self.spans = spans
        self.running: List["_Running"] = []
        self.pending = ()


@dataclass
class _Running:
    index: int
    attempt: int
    process: object
    conn: object
    started: float
    deadline: float  #: monotonic give-up time (inf when no timeout)
    worker: object = None  #: warm-pool worker handle (None in spawn mode)
    #: The backend that launched this attempt.  After a mid-run
    #: degradation the loop drives two backends at once (draining
    #: cluster slots while local ones start), and every retire/kill
    #: must go back to the slot's own backend.
    backend: object = None


def _available_memory_bytes() -> Optional[int]:
    """Best-effort available RAM (Linux ``MemAvailable``), else None."""
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def estimate_job_memory(specs: List[JobSpec]) -> int:
    """Rough peak resident bytes of the largest job in *specs*.

    A heuristic, not a measurement: a flat interpreter + bounded-cache
    base plus a marginal cost per simulated record.  It only needs to be
    right within a small factor — it caps ``jobs="auto"`` so a sweep of
    big points cannot land the machine in swap.
    """
    worst = 0
    for spec in specs:
        scale = spec.scale
        records = (scale.records_per_core + scale.effective_warmup) * scale.cores
        worst = max(worst, records)
    return _WORKER_BASE_BYTES + worst * _PER_RECORD_BYTES


def auto_jobs(
    pending: Optional[int] = None,
    memory_per_job_bytes: Optional[int] = None,
) -> int:
    """Auto-sized worker count from the machine and the queue.

    Starts from ``os.cpu_count()`` (less one core for the orchestrator
    parent on bigger machines), then clamps by:

    * available memory divided by the per-job estimate;
    * the number of pending jobs.
    """
    cpus = os.cpu_count() or 1
    jobs = cpus if cpus <= 2 else cpus - 1
    if memory_per_job_bytes:
        available = _available_memory_bytes()
        if available:
            jobs = min(jobs, max(1, available // memory_per_job_bytes))
    if pending is not None:
        jobs = min(jobs, max(1, pending))
    return max(1, int(jobs))


class Orchestrator:
    """Executes job specs through a pool of isolated worker processes.

    Args:
        jobs: worker processes to keep busy (1 = serial, still
            isolated), or ``"auto"`` to size from the machine and the
            grid (:func:`auto_jobs`).
        cache: optional :class:`ResultCache`; hits skip the worker
            entirely and misses are populated after a successful run.
        timeout_s: per-*attempt* wall-clock limit (None = unlimited).
        retries: extra attempts after the first, per job.
        backoff_s: base of the exponential retry backoff
            (``backoff_s * 2**(attempt-1)`` before attempt N+1).
        runner: the function executed inside the worker; defaults to
            :func:`repro.orchestrator.jobs.execute_job`.  Must be
            importable at module level (it crosses the process boundary).
        pool: a local pool mode from ``POOL_MODES`` — ``"warm"``
            (persistent workers + shared workload bank, the default) or
            ``"spawn"`` (fresh process per attempt) — or an
            already-constructed backend instance (e.g. a
            :class:`repro.cluster.ClusterBackend`), which the
            orchestrator drives through the same launch/poll/retire
            contract and shuts down at the end of the run.
        recycle_after: jobs one warm worker serves before being
            replaced by a fresh process (leak backstop).
        bank_dir: workload-bank directory for warm workers; defaults to
            ``<run-dir>/bank`` for durable runs, else a temp directory
            cleaned up after the run.
        chaos: optional :class:`repro.chaos.ChaosPlan` for deterministic
            fault injection (``REPRO_CHAOS`` is consulted at run time
            when unset; ``None``/unset keeps every hook inert and the
            chaos package unimported).
    """

    def __init__(
        self,
        jobs: Union[int, str] = 1,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        backoff_s: float = 0.25,
        runner: Callable[[JobSpec], SimulationResult] = execute_job,
        pool: Union[str, object] = "warm",
        recycle_after: int = DEFAULT_RECYCLE_AFTER,
        bank_dir=None,
        chaos=None,
    ) -> None:
        if jobs != "auto" and (not isinstance(jobs, int) or jobs < 1):
            raise ValueError('jobs must be >= 1 or "auto"')
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if isinstance(pool, str) and pool not in POOL_MODES:
            raise ValueError(
                f"pool must be one of {POOL_MODES} or a backend "
                f"instance, got {pool!r}"
            )
        self.jobs = jobs
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.runner = runner
        self.pool = pool
        self.recycle_after = recycle_after
        self.bank_dir = bank_dir
        #: Optional :class:`repro.chaos.ChaosPlan` (or None).  Falls back
        #: to ``REPRO_CHAOS`` at run time; ``None``/unset keeps every
        #: chaos hook inert and the chaos package unimported.
        self.chaos = chaos
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # ------------------------------------------------------------------

    def run(
        self,
        specs: List[JobSpec],
        run_dir=None,
        run_spec: Optional[Dict[str, object]] = None,
        telemetry_path=None,
        progress: bool = False,
        fleet: Optional[FleetConfig] = None,
    ) -> OrchestrationReport:
        """Execute *specs*, reusing the cache and any prior run state.

        When *run_dir* is given the run is durable and resumable:
        completed points recorded in its manifest are loaded instead of
        re-simulated, and every terminal event is appended to the
        manifest as it happens.  Jobs launch and report in input order.
        """
        manifest = RunManifest(run_dir) if run_dir is not None else None
        if manifest is not None and run_spec is not None:
            manifest.write_spec(run_spec)
        if manifest is not None and telemetry_path is None:
            telemetry_path = manifest.run_dir / "telemetry.jsonl"
        if manifest is not None:
            # A prior run killed mid-append leaves a torn trailing line;
            # truncate back to the last complete record before replay.
            manifest.recover()

        plan = self.chaos
        if plan is None and os.environ.get("REPRO_CHAOS"):
            from repro.chaos import chaos_from_env

            plan = chaos_from_env()
        if plan is not None:
            if self.cache is not None:
                self.cache.chaos = plan
            if manifest is not None:
                manifest.chaos = plan

        jobs = self.jobs
        if jobs == "auto":
            jobs = auto_jobs(
                pending=len(specs),
                memory_per_job_bytes=estimate_job_memory(specs),
            )
        #: This run's resolved worker count; ``self.jobs`` keeps what the
        #: caller asked for, so a reused ``"auto"`` instance re-sizes.
        self._workers = jobs

        backend_kind = (
            self.pool if isinstance(self.pool, str)
            else getattr(self.pool, "name", type(self.pool).__name__)
        )
        telemetry = RunTelemetry(
            path=telemetry_path, progress=progress, workers=jobs,
            backend=backend_kind, jobs_requested=self.jobs,
        )
        keys = [spec.key() for spec in specs]
        outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
        telemetry.begin(len(specs))

        fleet = fleet if fleet is not None else FleetConfig()
        spans = NULL_SPAN_LOG
        if fleet.spans:
            spans_path = fleet.spans_path
            if spans_path is None and manifest is not None:
                spans_path = manifest.run_dir / "spans.jsonl"
            spans = SpanLog(spans_path)
        #: Consulted by the local backend factories: workers report
        #: bank-attach/run phase timestamps only when spans are on.
        self.fleet_timing = bool(fleet.spans)
        fleet_rt = _FleetRuntime(spans)
        if plan is not None:
            plan.bind_spans(spans)
            if spans.enabled:
                spans.meta("chaos", spec=plan.spec, seed=plan.seed)

        pending: "deque[_Pending]" = deque()
        completed_before = manifest.completed_keys() if manifest else {}
        for index, (spec, key) in enumerate(zip(specs, keys)):
            probe_t0 = spans.now() if spans.enabled else 0.0
            outcome = self._reuse(spec, key, completed_before, manifest)
            if spans.enabled:
                spans.span("cache_probe", probe_t0, spans.now(), key=key,
                           job=spec.describe(), index=index)
            if outcome is not None:
                if spans.enabled:
                    spans.mark("cached", key=key, job=spec.describe(),
                               index=index, source=outcome.source)
                outcomes[index] = outcome
                self._finalise(outcome, index, manifest, telemetry,
                               was_running=False)
            else:
                pending.append(_Pending(index=index, attempt=1, ready_at=0.0,
                                        queued_at=time.monotonic()))

        fleet_rt.pending = pending
        self._plan = plan
        backend, cleanup = self._make_backend(manifest)
        self._degraded = False
        self._fallback = None  #: (backend, cleanup) after degradation
        if plan is not None:
            attach_chaos = getattr(backend, "attach_chaos", None)
            if attach_chaos is not None:
                # Cluster backends arm the transport/agent chaos sites.
                attach_chaos(plan)
        attach = getattr(backend, "attach_fleet", None)
        if attach is not None and spans.enabled:
            # Cluster backends forward the span log to their agents
            # (observe message) and annotate it with clock offsets.
            attach(spans)
        plane = None
        if fleet.status_port is not None:
            from repro.obs.statusplane import StatusPlane

            plane = StatusPlane(
                self._status_provider(telemetry, backend, outcomes, fleet_rt),
                host=fleet.status_host, port=fleet.status_port,
                interval_s=fleet.sample_interval_s,
            )
            url = plane.start()
            if fleet.announce is not None:
                fleet.announce(url)
            else:
                print(f"[fleet] status plane at {url}", file=sys.stderr)
        def add_recovery_notes() -> None:
            if manifest is not None and manifest.recovered_bytes:
                telemetry.note(
                    "manifest: recovered torn trailing append "
                    f"({manifest.recovered_bytes} bytes dropped)"
                )
            if plan is not None:
                injected = plan.summary()["injections"]
                telemetry.note(
                    f"chaos: {injected} injections under {plan.spec}"
                )

        try:
            try:
                self._drive(specs, keys, outcomes, pending, manifest,
                            telemetry, backend, fleet_rt)
            except BaseException:
                # Any teardown — Ctrl-C, or a fatal worker-startup error
                # from the warm pool — must not leave the telemetry
                # stream truncated mid-run: flush a terminal summary
                # marked aborted, then let the failure propagate.
                add_recovery_notes()
                telemetry.summary(aborted=True)
                raise
        finally:
            if plane is not None:
                plane.stop()
            backend.shutdown()
            if self._fallback is not None:
                fallback, fallback_cleanup = self._fallback
                fallback.shutdown()
                if fallback_cleanup is not None:
                    fallback_cleanup()
            if cleanup is not None:
                cleanup()

        report = OrchestrationReport(outcomes=[o for o in outcomes])
        add_recovery_notes()
        report.summary = telemetry.summary()
        if self.cache is not None:
            report.summary["cache_stats"] = {
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "stores": self.cache.stats.stores,
                "corrupt_entries": self.cache.stats.corrupt_entries,
                "put_errors": self.cache.stats.put_errors,
            }
        if plan is not None:
            report.summary["chaos"] = plan.summary()
        return report

    # ------------------------------------------------------------------

    def _local_backend(self, mode: str, manifest):
        """A ``spawn`` or ``warm`` pool; returns ``(backend, cleanup)``.

        ``cleanup`` is a zero-argument callable or None.  Under a chaos
        plan the pool is wrapped to inject the ``worker.*`` sites;
        cluster backends are armed through ``attach_chaos`` instead.
        """
        cleanup = None
        if mode == "spawn":
            backend = SpawnBackend(self._ctx, self.runner,
                                   timing=self.fleet_timing)
        else:
            bank_root = self.bank_dir
            if bank_root is None and manifest is not None:
                # Durable runs keep their bank: entry keys fold in the
                # code fingerprint, so resumes reuse still-valid blobs.
                bank_root = manifest.run_dir / "bank"
            elif bank_root is None:
                bank_root = tempfile.mkdtemp(prefix="repro-bank-")
                cleanup = lambda: shutil.rmtree(bank_root, ignore_errors=True)
            backend = WarmPoolBackend(
                self._ctx, self.runner, bank_root=bank_root,
                recycle_after=self.recycle_after, timing=self.fleet_timing,
            )
        if self._plan is not None:
            from repro.chaos import ChaosBackend

            backend = ChaosBackend(backend, self._plan)
        return backend, cleanup

    def _make_backend(self, manifest):
        """Build the execution backend; returns ``(backend, cleanup)``."""
        if not isinstance(self.pool, str):
            # A pre-built backend instance (e.g. ClusterBackend).  The
            # orchestrator still owns its shutdown, but not its cleanup.
            return self.pool, None
        return self._local_backend(self.pool, manifest)

    def _degrade_to_local(self, manifest, telemetry, spans, reason: str):
        """All cluster agents are gone: fall back to the local warm pool.

        Builds a fresh local backend mid-run, records a
        ``degraded_to_local`` telemetry event plus a span mark, and lets
        the sweep finish — results stay byte-identical because the jobs
        themselves are deterministic wherever they run.
        """
        self._degraded = True
        backend, cleanup = self._local_backend("warm", manifest)
        self._fallback = (backend, cleanup)
        telemetry.degraded("warm", reason)
        spans.mark("degraded_to_local", reason=reason)
        return backend

    def _status_provider(self, telemetry, backend, outcomes, fleet_rt):
        """The closure the status-plane sampler calls per snapshot.

        Reads the live counters and scheduling structures without locks:
        every field is a single attribute read or a copy of a list the
        loop only appends to, so a torn sample can at worst be one job
        stale — fine for a dashboard.
        """
        from repro.obs.statusplane import read_rss_bytes

        backend_kind = getattr(backend, "name", type(backend).__name__)

        def provider() -> Dict[str, object]:
            now = time.monotonic()
            counters = telemetry.counters
            elapsed = telemetry.elapsed()
            straggler = max(
                (now - slot.started for slot in list(fleet_rt.running)),
                default=0.0,
            )
            sources: Dict[str, int] = {}
            for outcome in list(outcomes):
                if outcome is not None and outcome.source != "run":
                    sources[outcome.source] = (
                        sources.get(outcome.source, 0) + 1
                    )
            agents = []
            agents_fn = getattr(backend, "agents", None)
            if callable(agents_fn):
                for link in agents_fn():
                    agents.append({
                        "name": link.name,
                        "alive": bool(link.alive),
                        "slots": link.slots,
                        "inflight": len(link.inflight),
                        "served": link.served,
                        "clock_offset_s": getattr(link, "clock_offset",
                                                  None),
                        "clock_rtt_s": getattr(link, "clock_rtt", None),
                    })
            finished = counters.finished
            return {
                "elapsed_s": round(elapsed, 3),
                "workers": self._workers,
                "backend": backend_kind,
                "counters": {
                    "total": counters.total,
                    "running": counters.running,
                    "done": counters.done,
                    "failed": counters.failed,
                    "cached": counters.cached,
                    "finished": finished,
                    "queued": counters.queued,
                    "busy_seconds": round(counters.busy_seconds, 3),
                },
                "throughput_jobs_s": (
                    round(finished / elapsed, 4) if elapsed > 0 else 0.0
                ),
                "utilization": round(
                    counters.utilization(elapsed, self._workers), 4
                ),
                "cache_hit_rate": round(counters.cache_hit_rate, 4),
                "straggler_s": round(straggler, 3),
                "rss_bytes": read_rss_bytes(),
                "cache_sources": sources,
                "agents": agents,
                "point_wall_s": list(counters.wall_seconds_per_point),
            }

        return provider

    def _reuse(self, spec, key, completed_before, manifest):
        """A cached/resumed outcome for this job, or None to run it."""
        if manifest is not None and key in completed_before:
            result = manifest.load_result(key)
            if result is not None:
                return JobOutcome(spec=spec, key=key, status="cached",
                                  result=result, source="manifest")
        if self.cache is not None:
            result = self.cache.get(key)
            if result is not None:
                return JobOutcome(spec=spec, key=key, status="cached",
                                  result=result, source="cache")
        return None

    def _finalise(self, outcome, index, manifest, telemetry, was_running,
                  busy_wall: Optional[float] = None):
        """Record one terminal outcome in manifest, cache and telemetry.

        ``busy_wall`` is the final attempt's duration (what telemetry
        adds to busy worker seconds — earlier attempts were already
        counted by ``job_retried``); ``outcome.wall_s`` stays the total
        across attempts for the manifest.
        """
        if outcome.status == "done":
            if self.cache is not None:
                self.cache.put(outcome.key, outcome.result,
                               meta={"job": outcome.spec.describe()})
        if manifest is not None:
            if outcome.result is not None and outcome.source != "manifest":
                manifest.store_result(outcome.key, outcome.result)
            entry = {
                "ts": time.time(),
                "index": index,
                "key": outcome.key,
                "job": outcome.spec.describe(),
                "status": outcome.status,
                "attempts": outcome.attempts,
                "wall_s": round(outcome.wall_s, 6),
                "source": outcome.source,
            }
            if outcome.error:
                entry["error"] = outcome.error
            if outcome.poisoned:
                entry["poisoned"] = True
            if outcome.crash_dump:
                entry["crash_dump"] = outcome.crash_dump
            if outcome.agent:
                entry["agent"] = outcome.agent
            if (outcome.result is not None
                    and outcome.result.obs is not None):
                entry["obs"] = outcome.result.obs.summary()
            manifest.record(entry)
        obs_summary = (
            outcome.result.obs.summary()
            if outcome.result is not None and outcome.result.obs is not None
            else None
        )
        telemetry.job_finished(
            key=outcome.key, label=outcome.spec.describe(),
            status=outcome.status, attempts=outcome.attempts,
            wall_s=outcome.wall_s if busy_wall is None else busy_wall,
            was_running=was_running, error=outcome.error,
            obs=obs_summary, agent=outcome.agent,
        )

    # ------------------------------------------------------------------

    def _launch(self, backend, spec: JobSpec, item: _Pending,
                now: float) -> _Running:
        process, conn, worker = backend.launch(spec.to_dict())
        deadline = now + self.timeout_s if self.timeout_s else float("inf")
        return _Running(index=item.index, attempt=item.attempt,
                        process=process, conn=conn,
                        started=now, deadline=deadline, worker=worker,
                        backend=backend)

    def _drive(self, specs, keys, outcomes, pending, manifest, telemetry,
               backend, fleet_rt: Optional[_FleetRuntime] = None):
        """The scheduling loop: launch, poll, retry, finalise."""
        fleet_rt = fleet_rt if fleet_rt is not None else _FleetRuntime()
        spans = fleet_rt.spans
        running: List[_Running] = []
        fleet_rt.running = running
        attempt_wall: Dict[int, float] = {}  # index -> wall over attempts
        crashes: Dict[int, int] = {}  # index -> attempts that killed a worker

        def settle(slot: _Running, failure: Optional[str],
                   payload: Optional[dict] = None,
                   crashed: bool = False) -> float:
            """Retire one attempt; retry or finalise its job.

            Returns the attempt's wall-clock duration.  Failed attempts
            in durable runs each leave a replayable crash dump under
            ``<run-dir>/crashes/`` carrying whatever diagnostic payload
            (traceback, RNG state) the worker managed to ship.
            """
            index = slot.index
            settled_at = time.monotonic()
            wall = settled_at - slot.started
            attempt_wall[index] = attempt_wall.get(index, 0.0) + wall
            spec, key = specs[index], keys[index]
            if spans.enabled:
                agent = (payload or {}).get("agent")
                spans.span("run", slot.started, settled_at, key=key,
                           job=spec.describe(), index=index,
                           attempt=slot.attempt, agent=agent)
                phases = ((payload or {}).get("timing") or {}).get("phases")
                if phases:
                    # Worker/agent-side timestamps.  Local workers share
                    # the coordinator's CLOCK_MONOTONIC and cluster
                    # results arrive already mapped by the coordinator's
                    # clock-offset estimate, so the offset here is 0.
                    spans.remote_phases(phases, 0.0, key=key,
                                        job=spec.describe(), index=index,
                                        attempt=slot.attempt, agent=agent)
            if failure is None:
                spans.mark("result", settled_at, key=key, index=index,
                           attempt=slot.attempt,
                           agent=(payload or {}).get("agent"))
                return wall  # success handled by caller
            if crashed:
                crashes[index] = crashes.get(index, 0) + 1
            dump_path: Optional[str] = None
            if manifest is not None:
                try:
                    dump_path = str(write_crash_dump(
                        manifest.run_dir, key, slot.attempt,
                        job=spec.to_dict(), error=failure,
                        traceback_text=(payload or {}).get("traceback"),
                        rng=(payload or {}).get("rng"),
                        fastpath_enabled=(payload or {}).get("fastpath"),
                    ))
                except OSError:
                    dump_path = None  # diagnostics must never fail the run
            if slot.attempt <= self.retries:
                delay = self.backoff_s * (2 ** (slot.attempt - 1))
                pending.append(_Pending(
                    index=index, attempt=slot.attempt + 1,
                    ready_at=time.monotonic() + delay,
                    queued_at=settled_at,
                ))
                telemetry.job_retried(key, spec.describe(), slot.attempt,
                                      failure, wall)
                spans.mark("retry", settled_at, key=key, index=index,
                           attempt=slot.attempt, error=failure)
            else:
                # Poison-job quarantine: a job whose *every* attempt
                # killed its worker is poison — the input, not the
                # infrastructure, is lethal.  It is marked distinctly so
                # operators stop retrying it, and the sweep continues.
                poisoned = crashes.get(index, 0) >= slot.attempt
                outcome = JobOutcome(
                    spec=spec, key=key, status="failed",
                    attempts=slot.attempt, wall_s=attempt_wall[index],
                    error=(f"poisoned: {failure}" if poisoned else failure),
                    crash_dump=dump_path, poisoned=poisoned,
                    agent=(payload or {}).get("agent"),
                )
                outcomes[index] = outcome
                self._finalise(outcome, index, manifest, telemetry,
                               was_running=True, busy_wall=wall)
                fail_args = {"error": failure}
                if poisoned:
                    fail_args["poisoned"] = True
                if dump_path:
                    fail_args["crash_dump"] = dump_path
                spans.mark("failed", settled_at, key=key, index=index,
                           attempt=slot.attempt, **fail_args)
            return wall

        cell = [backend]
        try:
            self._drive_loop(specs, pending, running, telemetry, settle,
                             outcomes, keys, attempt_wall, cell, manifest,
                             spans, fleet_rt)
        except BaseException:
            # Interrupted mid-run (or the pool failed fatally): reap
            # every in-flight worker so nothing is left orphaned.
            cell[0].abort(running)
            if cell[0] is not backend:
                backend.abort([])
            raise

    def _drive_loop(self, specs, pending, running, telemetry, settle,
                    outcomes, keys, attempt_wall, backend_cell, manifest,
                    spans=NULL_SPAN_LOG, fleet_rt=None):
        while pending or running:
            backend = backend_cell[0]
            now = time.monotonic()

            # Launch every ready job while worker slots are free.
            if len(running) < self._workers and pending:
                held = []
                while pending and len(running) < self._workers:
                    item = pending.popleft()
                    if item.ready_at > now:
                        held.append(item)
                        continue
                    try:
                        slot = self._launch(backend, specs[item.index],
                                            item, now)
                    except WorkerStartupError as exc:
                        if self._degraded or not getattr(
                                exc, "degradable", False):
                            raise
                        # Every cluster agent is dead: degrade to the
                        # local warm pool instead of aborting the sweep.
                        backend = self._degrade_to_local(
                            manifest, telemetry, spans, str(exc)
                        )
                        backend_cell[0] = backend
                        pending.appendleft(item)
                        continue
                    running.append(slot)
                    telemetry.job_started()
                    if spans.enabled:
                        launched = time.monotonic()
                        key = keys[item.index]
                        label = specs[item.index].describe()
                        spans.span("queued", item.queued_at or now, now,
                                   key=key, job=label, index=item.index,
                                   attempt=item.attempt)
                        spans.span("dispatch", now, launched, key=key,
                                   job=label, index=item.index,
                                   attempt=item.attempt)
                pending.extend(held)

            if not running:
                # Everything left is backing off; sleep to the earliest.
                wake = min(item.ready_at for item in pending)
                time.sleep(max(0.0, min(wake - now, 0.05)))
                continue

            progressed = False
            for slot in list(running):
                # After a degradation the loop drains slots of the old
                # backend alongside fresh local ones: always retire a
                # slot against the backend that launched it.
                slot_backend = slot.backend if slot.backend is not None \
                    else backend
                payload = None
                delivered = False
                if slot.conn.poll():
                    try:
                        payload = slot.conn.recv()
                        delivered = payload is not None
                    except (EOFError, OSError):
                        payload = None
                elif slot.process.exitcode is not None:
                    # Worker died; drain any message that raced the exit.
                    if slot.conn.poll():
                        try:
                            payload = slot.conn.recv()
                        except (EOFError, OSError):
                            payload = None
                    if payload is None:
                        running.remove(slot)
                        exitcode = slot.process.exitcode
                        slot_backend.retire_dead(slot)
                        settle(slot, f"worker crashed (exit code {exitcode})",
                               crashed=True)
                        progressed = True
                        continue
                elif now > slot.deadline:
                    running.remove(slot)
                    slot_backend.kill(slot)
                    settle(slot, f"timeout after {self.timeout_s}s")
                    progressed = True
                    continue
                else:
                    continue  # still working

                running.remove(slot)
                progressed = True
                if payload is not None and payload.get("requeue"):
                    # Infrastructure (not the job) lost this attempt: its
                    # cluster agent died.  Put the same attempt back in
                    # the queue without burning retry budget; its next
                    # launch goes to a live agent, or degrades the run
                    # to the local pool (above) when none is left.
                    slot_backend.retire_ok(slot)
                    requeued_at = time.monotonic()
                    wall = requeued_at - slot.started
                    attempt_wall[slot.index] = (
                        attempt_wall.get(slot.index, 0.0) + wall
                    )
                    reason = payload.get("error", "agent lost")
                    telemetry.job_requeued(
                        keys[slot.index], specs[slot.index].describe(),
                        slot.attempt, reason, wall,
                    )
                    spans.mark("requeued", requeued_at,
                               key=keys[slot.index], index=slot.index,
                               attempt=slot.attempt, error=reason)
                    pending.append(_Pending(
                        index=slot.index, attempt=slot.attempt,
                        ready_at=requeued_at, queued_at=requeued_at,
                    ))
                    continue
                if payload is None or payload.get("status") != "ok":
                    # A delivered error payload came from a worker that
                    # caught the job's exception and (in warm mode) keeps
                    # serving; a broken channel means the worker is gone.
                    if delivered:
                        slot_backend.retire_ok(slot)
                    else:
                        slot_backend.retire_dead(slot)
                    error = (payload or {}).get("error", "worker crashed")
                    settle(slot, error, payload, crashed=not delivered)
                    continue
                slot_backend.retire_ok(slot)
                last_wall = settle(slot, None, payload)
                index = slot.index
                result = SimulationResult.from_dict(payload["result"])
                outcome = JobOutcome(
                    spec=specs[index], key=keys[index], status="done",
                    attempts=slot.attempt, wall_s=attempt_wall[index],
                    result=result, agent=payload.get("agent"),
                    source=("agent-cache" if payload.get("cached")
                            else "run"),
                )
                outcomes[index] = outcome
                self._finalise(outcome, index, manifest, telemetry,
                               was_running=True, busy_wall=last_wall)

            if not progressed:
                # Block until some worker ships a payload (or dies — a
                # dead child's pipe end becomes readable too) instead of
                # sleeping a fixed poll interval: small jobs settle the
                # moment they finish.  The timeout keeps deadline and
                # backoff bookkeeping responsive.  Waiting is delegated
                # to the backend: local pools use the pipes' file
                # descriptors, the cluster backend a condition variable.
                wait_s = 0.05
                nearest = min(slot.deadline for slot in running)
                if nearest != float("inf"):
                    wait_s = min(wait_s, max(0.0, nearest - now))
                conns = [
                    slot.conn for slot in running
                    if slot.backend is None or slot.backend is backend
                ]
                if conns:
                    backend.wait(conns, timeout=wait_s)
                else:
                    # Only stale slots of a replaced backend remain;
                    # their mailboxes settle without a waitable FD.
                    time.sleep(min(wait_s, 0.01))


__all__ = [
    "JobOutcome",
    "OrchestrationReport",
    "Orchestrator",
    "auto_jobs",
    "estimate_job_memory",
]
