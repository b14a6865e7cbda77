"""Structured per-run telemetry: JSONL records plus a live progress line.

Two audiences, one source of truth:

* machines read ``telemetry.jsonl`` — one ``job`` record per terminal
  job event and one final ``summary`` record (schema in
  docs/ORCHESTRATOR.md);
* humans watch a single self-overwriting progress line on a TTY (plain
  newline-separated lines when piped, so CI logs stay readable).

Clocks: every duration (``elapsed``, ``busy_seconds``, per-record ``t``)
is measured on ``time.monotonic()``, so NTP steps or a suspended laptop
can't skew utilization math or the progress line.  The ``begin`` and
``summary`` records additionally carry an epoch ``ts`` (``time.time()``)
so readers can place the run on the calendar; nothing is computed from
those wall-clock stamps.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RunCounters:
    """Live job-state counts for one orchestrated run."""

    total: int = 0
    running: int = 0
    done: int = 0
    failed: int = 0
    cached: int = 0
    #: Seconds of worker time actually spent simulating (sum over
    #: attempts), the numerator of worker utilization.
    busy_seconds: float = 0.0
    wall_seconds_per_point: List[float] = field(default_factory=list)

    @property
    def finished(self) -> int:
        return self.done + self.failed + self.cached

    @property
    def queued(self) -> int:
        return max(0, self.total - self.finished - self.running)

    @property
    def cache_hit_rate(self) -> float:
        if not self.finished:
            return 0.0
        return self.cached / self.finished

    def utilization(self, elapsed_s: float, workers: int) -> float:
        if elapsed_s <= 0 or workers <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed_s * workers))


class RunTelemetry:
    """Accumulates counters, writes JSONL, renders the progress line."""

    def __init__(
        self,
        path=None,
        progress: bool = False,
        workers: int = 1,
        clock=time.monotonic,
        backend: Optional[str] = None,
        jobs_requested=None,
    ) -> None:
        self._path = path
        self._progress = progress
        self._stream = sys.stderr
        self._workers = workers
        self._backend = backend
        #: The caller's pre-resolution worker request (e.g. ``"auto"``);
        #: ``workers`` is the resolved count.
        self._jobs_requested = jobs_requested
        self._clock = clock
        self._start = clock()
        self.counters = RunCounters()
        self._used_cr = False
        self._notes: List[str] = []
        self._degraded_to: Optional[str] = None
        if path is not None:
            # Truncate per orchestrator invocation: a resume's telemetry
            # describes that resume, the manifest holds full history.
            open(path, "w", encoding="utf-8").close()

    # -- lifecycle ------------------------------------------------------

    def begin(self, total_jobs: int) -> None:
        self.counters.total = total_jobs
        self._emit({
            "event": "begin",
            "total": total_jobs,
            "ts": round(time.time(), 6),
        })
        self._render_progress()

    def job_started(self) -> None:
        self.counters.running += 1
        self._render_progress()

    def job_retried(self, key: str, label: str, attempt: int,
                    error: str, wall_s: float) -> None:
        """One attempt failed and the job went back to the queue."""
        self.counters.running -= 1
        self.counters.busy_seconds += wall_s
        self._emit({
            "event": "attempt",
            "t": round(self.elapsed(), 6),
            "key": key,
            "job": label,
            "attempt": attempt,
            "error": error,
            "wall_s": round(wall_s, 6),
        })
        self._render_progress()

    def job_finished(
        self,
        key: str,
        label: str,
        status: str,
        attempts: int,
        wall_s: float,
        was_running: bool,
        error: Optional[str] = None,
        obs: Optional[Dict[str, object]] = None,
        agent: Optional[str] = None,
    ) -> None:
        """Record one terminal job event (done / failed / cached).

        ``obs`` is the job's :meth:`repro.obs.ObsRecord.summary` when the
        run was observed; it rides along in the JSONL record untouched.
        ``agent`` names the cluster agent that executed the point; local
        backends leave it None and the record unchanged.
        """
        if was_running:
            self.counters.running -= 1
        if status == "done":
            self.counters.done += 1
        elif status == "failed":
            self.counters.failed += 1
        else:
            self.counters.cached += 1
        self.counters.busy_seconds += wall_s
        if status == "done":
            self.counters.wall_seconds_per_point.append(wall_s)
        record = {
            "event": "job",
            "t": round(self.elapsed(), 6),
            "key": key,
            "job": label,
            "status": status,
            "attempts": attempts,
            "wall_s": round(wall_s, 6),
        }
        if error:
            record["error"] = error
        if obs is not None:
            record["obs"] = obs
        if agent is not None:
            record["agent"] = agent
        self._emit(record)
        self._render_progress()

    def note(self, text: str) -> None:
        """Attach one recovery/warning note to the final summary record."""
        self._notes.append(text)

    def job_requeued(self, key: str, label: str, attempt: int,
                     reason: str, wall_s: float) -> None:
        """One attempt was lost to infrastructure (not the job) and went
        back to the queue without consuming its retry budget."""
        self.counters.running -= 1
        self.counters.busy_seconds += wall_s
        self._emit({
            "event": "attempt",
            "t": round(self.elapsed(), 6),
            "key": key,
            "job": label,
            "attempt": attempt,
            "requeued": True,
            "error": reason,
            "wall_s": round(wall_s, 6),
        })
        self._render_progress()

    def degraded(self, to_backend: str, reason: str) -> None:
        """The run fell back to *to_backend* mid-sweep (and continued).

        Emits a ``degraded_to_local`` event record immediately and flags
        the final summary — a completed-but-degraded sweep must be
        distinguishable from a healthy one.
        """
        self._degraded_to = to_backend
        self._emit({
            "event": "degraded_to_local",
            "t": round(self.elapsed(), 6),
            "to": to_backend,
            "reason": reason,
        })
        self.note(f"degraded to {to_backend} backend: {reason}")

    def summary(self, aborted: bool = False) -> Dict[str, object]:
        """Emit and return the final run summary record.

        ``aborted=True`` marks a summary flushed on the way out of an
        interrupted run (KeyboardInterrupt, SIGTERM-raised exception):
        the counters then describe how far the run got, not a completed
        sweep, and readers of ``telemetry.jsonl`` can tell the two apart.
        """
        from repro import fastpath, kernels

        counters = self.counters
        elapsed = self.elapsed()
        walls = counters.wall_seconds_per_point
        record: Dict[str, object] = {
            "event": "summary",
            "ts": round(time.time(), 6),
            "aborted": aborted,
            # Effective acceleration flags (REPRO_FASTPATH/REPRO_VECTOR)
            # at summary time — results are bit-identical either way,
            # but wall clocks and throughput numbers are only comparable
            # between runs that agree on these.
            "fastpath": fastpath.enabled(),
            "vector": kernels.enabled(),
            "total": counters.total,
            "done": counters.done,
            "failed": counters.failed,
            "cached": counters.cached,
            "elapsed_s": round(elapsed, 6),
            "cache_hit_rate": round(counters.cache_hit_rate, 6),
            "worker_utilization": round(
                counters.utilization(elapsed, self._workers), 6
            ),
            "workers": self._workers,
            "mean_point_wall_s": (
                round(sum(walls) / len(walls), 6) if walls else 0.0
            ),
            "max_point_wall_s": round(max(walls), 6) if walls else 0.0,
        }
        if self._backend is not None:
            record["backend"] = self._backend
        if self._jobs_requested is not None:
            record["jobs_requested"] = self._jobs_requested
        if self._degraded_to is not None:
            record["degraded_to_local"] = True
            record["degraded_to"] = self._degraded_to
        if self._notes:
            record["notes"] = list(self._notes)
        self._emit(record)
        if self._progress and self._used_cr:
            self._stream.write("\n")
            self._stream.flush()
        return record

    def elapsed(self) -> float:
        return self._clock() - self._start

    # -- output ---------------------------------------------------------

    def _emit(self, record: Dict[str, object]) -> None:
        if self._path is None:
            return
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def _render_progress(self) -> None:
        if not self._progress:
            return
        c = self.counters
        line = (
            f"[orchestrator] {c.finished}/{c.total} finished "
            f"({c.done} run, {c.cached} cached, {c.failed} failed) "
            f"| {c.running} running, {c.queued} queued "
            f"| {self.elapsed():.1f}s"
        )
        if self._stream.isatty():
            self._stream.write("\r\x1b[2K" + line)
            self._used_cr = True
        else:
            self._stream.write(line + "\n")
        self._stream.flush()


__all__ = ["RunCounters", "RunTelemetry"]
