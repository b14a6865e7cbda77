"""Chaos wrapper around a local execution backend.

:class:`ChaosBackend` sits between the orchestrator's scheduling loop
and a ``spawn``/``warm`` backend and injects the ``worker.*`` sites:
right after an attempt launches it may SIGKILL the worker
(``worker.crash``), SIGTERM it (``worker.oom``) or stall
(``worker.slow``).  The orchestrator then exercises its *real* recovery
machinery — dead-worker detection, crash dumps, exponential backoff,
retries, poison-job quarantine — against a real dead process, not a
mock.

Decision tokens are ``label:n`` where *n* counts launches of that grid
point (attempt order is sequential per job, so the n-th launch is the
n-th attempt): deterministic across runs, distinct across retries, so a
killed attempt's retry usually survives.

Cluster backends are never wrapped: their workers live on remote
agents, so the coordinator draws each dispatch's ``worker.*`` faults
itself (token ``<key>:<n>``) and ships them on the job frame, and the
agent applies them with :func:`apply_worker_fault`.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.chaos.plan import ChaosPlan
from repro.orchestrator.jobs import JobSpec


def apply_worker_fault(process, fault: dict) -> None:
    """Inflict the ``worker.*`` sites of *fault* on a launched worker."""
    if fault.get("worker.slow"):
        time.sleep(fault["worker.slow"])
    if fault.get("worker.crash"):
        process.kill()
    elif fault.get("worker.oom"):
        process.terminate()


class ChaosBackend:
    """Delegating backend proxy that injects ``worker.*`` faults."""

    def __init__(self, inner, plan: ChaosPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._launches: Dict[str, int] = {}
        self.name = f"chaos({getattr(inner, 'name', type(inner).__name__)})"

    def launch(self, job_payload: dict):
        label = JobSpec.from_dict(job_payload).describe()
        count = self._launches.get(label, 0) + 1
        self._launches[label] = count
        process, conn, worker = self._inner.launch(job_payload)
        apply_worker_fault(process,
                           self._plan.faults("worker", f"{label}:{count}"))
        return process, conn, worker

    def __getattr__(self, attribute):
        # Everything else (retire_ok, kill, wait, shutdown, attach_fleet,
        # ...) is the wrapped backend's, so the orchestrator sees exactly
        # its surface.
        return getattr(self._inner, attribute)


__all__ = ["ChaosBackend", "apply_worker_fault"]
