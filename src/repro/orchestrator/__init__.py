"""Parallel, cached, fault-tolerant experiment orchestration.

The execution layer for sweep grids: job specs hashed into
content-addressed cache keys (:mod:`repro.orchestrator.jobs`), an
on-disk result cache (:mod:`repro.orchestrator.cache`), resumable run
manifests (:mod:`repro.orchestrator.manifest`), structured telemetry
(:mod:`repro.orchestrator.telemetry`) and the worker pool that ties
them together (:mod:`repro.orchestrator.pool`).

See docs/ORCHESTRATOR.md for the cache-key contract, manifest format
and telemetry schema.
"""

from repro.orchestrator.cache import CacheStats, ResultCache
from repro.orchestrator.jobs import (
    JOB_SCHEMA_VERSION,
    JobSpec,
    canonical,
    code_fingerprint,
    execute_job,
    rehydrate,
    stable_key,
)
from repro.orchestrator.manifest import RunManifest
from repro.orchestrator.pool import (
    JobOutcome,
    OrchestrationReport,
    Orchestrator,
    auto_jobs,
)
from repro.orchestrator.telemetry import RunCounters, RunTelemetry
from repro.orchestrator.workers import (
    DEFAULT_RECYCLE_AFTER,
    POOL_MODES,
    WorkerStartupError,
)

__all__ = [
    "DEFAULT_RECYCLE_AFTER",
    "JOB_SCHEMA_VERSION",
    "POOL_MODES",
    "CacheStats",
    "JobOutcome",
    "JobSpec",
    "OrchestrationReport",
    "Orchestrator",
    "ResultCache",
    "RunCounters",
    "RunManifest",
    "RunTelemetry",
    "WorkerStartupError",
    "auto_jobs",
    "canonical",
    "code_fingerprint",
    "execute_job",
    "rehydrate",
    "stable_key",
]
