"""Execution backends: spawn-per-job processes and the warm worker pool.

The orchestrator's scheduling loop (:mod:`repro.orchestrator.pool`) is
backend-agnostic: it launches attempts, polls their pipes, enforces
deadlines and settles outcomes.  *How* an attempt gets a process is this
module's job, in two flavours:

* ``spawn`` — the original contract: every attempt runs in a fresh
  process, maximally isolated, paying a fork + teardown per job.
* ``warm`` — a persistent pool: processes start once, serve many jobs
  over a duplex pipe, and keep their interpreter, imports, pure memo
  caches and attached workload-bank blobs hot between jobs.  A job
  failure is reported and the worker keeps serving; a timeout or crash
  kills *that* worker only, and a replacement is spawned lazily.  Each
  worker retires after ``recycle_after`` jobs as a leak backstop.

Both backends ship identical wire payloads (``SimulationResult.to_dict``
on success; error + traceback + RNG snapshot + fastpath flag on
failure), so crash dumps, retries, manifests and telemetry behave the
same and results are bit-identical across modes.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import List, Optional

from repro import fastpath
from repro.obs.crashdump import rng_snapshot

#: Pool modes accepted by the orchestrator and the CLI.
POOL_MODES = ("warm", "spawn")

#: Default jobs one warm worker serves before being recycled.
DEFAULT_RECYCLE_AFTER = 32


class WorkerStartupError(RuntimeError):
    """The pool could not start a worker process (fatal for the run)."""


def _error_payload(exc: BaseException) -> dict:
    return {
        "status": "error",
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
        "rng": rng_snapshot(),
        "fastpath": fastpath.enabled(),
    }


# ----------------------------------------------------------------------
# Worker entry points (children of the orchestrator process)
# ----------------------------------------------------------------------

def _spawn_worker_entry(conn, runner, job_payload, timing: bool = False) -> None:
    """Spawn mode: run one job, ship the outcome, exit.

    Failures ship the worker's RNG state and fast-path flag alongside
    the traceback so the parent can write a replayable crash dump.
    With *timing* on (fleet spans), success payloads additionally carry
    ``{"timing": {"phases": {...}}}`` — ``time.monotonic()`` pairs in
    the parent's clock domain (CLOCK_MONOTONIC is system-wide).
    """
    gc.freeze()  # see _warm_worker_main
    from repro.orchestrator.jobs import JobSpec

    try:
        run_t0 = time.monotonic()
        result = runner(JobSpec.from_dict(job_payload))
        payload = {"status": "ok", "result": result.to_dict()}
        if timing:
            payload["timing"] = {
                "phases": {"worker_run": [run_t0, time.monotonic()]},
            }
        conn.send(payload)
    except BaseException as exc:  # isolate *everything*, incl. KeyboardInterrupt
        conn.send(_error_payload(exc))
    finally:
        conn.close()


def _warm_worker_main(conn, parent_end, runner, bank_root,
                      timing: bool = False) -> None:
    """Warm mode: serve jobs from the request pipe until told to exit.

    A job exception is reported like spawn mode's and the worker keeps
    serving — worker lifetime is the parent's decision (recycling,
    timeout kills), not the job's.  Interpreter-fatal signals
    (KeyboardInterrupt, SystemExit) still end the worker after
    reporting, and the parent replaces it.  The one-off workload-bank
    attach is timed when *timing* is on and reported with the worker's
    first job (the only job that ever waited on it).

    *parent_end* is the parent's end of the same pipe, inherited across
    fork: while this process holds it, ``conn.recv()`` never sees EOF,
    so the worker would outlive a parent that dies without saying exit.
    """
    # Objects inherited from the parent go to the permanent generation:
    # the worker's first full collection then neither scans them nor
    # dirties (copies) their shared pages.  The parent is untouched.
    gc.freeze()
    parent_end.close()
    attach_span = None
    if bank_root is not None:
        from repro.workloads import bank

        attach_t0 = time.monotonic()
        bank.install(bank_root)
        if timing:
            attach_span = [attach_t0, time.monotonic()]
    # Compression results, keystreams, BLEM images and their decodes,
    # and DRAM coordinates are pure functions of their keys, so a warm
    # worker shares those memos across all its jobs (a sweep touches the
    # same workload's lines over and over, once per grid point).
    fastpath.share_memos(True)
    from repro.orchestrator.jobs import JobSpec

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, dict) or message.get("cmd") == "exit":
                break
            try:
                run_t0 = time.monotonic()
                result = runner(JobSpec.from_dict(message["job"]))
                payload = {"status": "ok", "result": result.to_dict()}
                if timing:
                    phases = {"worker_run": [run_t0, time.monotonic()]}
                    if attach_span is not None:
                        phases["bank_attach"] = attach_span
                        attach_span = None
                    payload["timing"] = {"phases": phases}
                conn.send(payload)
            except Exception as exc:
                conn.send(_error_payload(exc))
            except BaseException as exc:
                conn.send(_error_payload(exc))
                break
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent-side backends
# ----------------------------------------------------------------------

@dataclass
class _WarmWorker:
    """Parent-side handle on one pooled worker process."""

    process: object
    conn: object
    jobs_done: int = 0


class SpawnBackend:
    """One fresh process per attempt (the original orchestrator mode)."""

    name = "spawn"

    def __init__(self, ctx, runner, timing: bool = False) -> None:
        self._ctx = ctx
        self._runner = runner
        self.timing = timing

    def set_timing(self, timing: bool) -> None:
        """Flip phase-timestamp reporting for workers launched later."""
        self.timing = bool(timing)

    def launch(self, job_payload):
        """Start one attempt; returns ``(process, conn, worker=None)``."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_spawn_worker_entry,
            args=(child_conn, self._runner, job_payload, self.timing),
            daemon=True,
        )
        try:
            process.start()
        except OSError as exc:
            parent_conn.close()
            child_conn.close()
            raise WorkerStartupError(f"could not start worker: {exc}") from exc
        child_conn.close()  # parent keeps only the read end
        return process, parent_conn, None

    def retire_ok(self, slot) -> None:
        """The attempt delivered a payload; the process is exiting."""
        slot.process.join()
        slot.conn.close()

    def retire_dead(self, slot) -> None:
        """The process died (payload already drained by the caller)."""
        slot.process.join()
        slot.conn.close()

    def kill(self, slot) -> None:
        """Deadline passed: force the attempt's process down."""
        _terminate(slot.process)
        slot.conn.close()

    def abort(self, running) -> None:
        """Interrupted mid-run: reap every in-flight worker."""
        for slot in running:
            if slot.process.is_alive():
                slot.process.terminate()
        for slot in running:
            _join_or_kill(slot.process)
            slot.conn.close()

    def shutdown(self) -> None:
        """Nothing persistent to tear down in spawn mode."""

    @staticmethod
    def wait(conns, timeout: Optional[float]) -> List[object]:
        """Block until a pipe is readable (or *timeout* elapses)."""
        return mp_connection.wait(conns, timeout=timeout)


class WarmPoolBackend:
    """Persistent warm workers serving jobs over duplex pipes."""

    name = "warm"

    def __init__(self, ctx, runner, bank_root=None,
                 recycle_after: int = DEFAULT_RECYCLE_AFTER,
                 timing: bool = False) -> None:
        if recycle_after < 1:
            raise ValueError("recycle_after must be >= 1")
        self._ctx = ctx
        self._runner = runner
        self._bank_root = str(bank_root) if bank_root is not None else None
        self._recycle_after = recycle_after
        self.timing = timing
        self._idle: List[_WarmWorker] = []
        #: every live worker, busy or idle (abort() must reach them all).
        self._workers: List[_WarmWorker] = []
        self.spawned = 0
        self.recycled = 0

    def set_timing(self, timing: bool) -> None:
        """Flip phase-timestamp reporting for workers spawned later."""
        self.timing = bool(timing)

    # -- pool plumbing --------------------------------------------------

    def _spawn_worker(self) -> _WarmWorker:
        if self._ctx.get_start_method() == "fork":
            # Workers inherit the parent's modules: import what jobs
            # would otherwise import in every fresh worker.  Deferred to
            # the first spawn, so a run served from the cache imports
            # none of it; later calls find every module loaded.
            from repro.orchestrator.jobs import preload_job_imports

            preload_job_imports()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_warm_worker_main,
            args=(child_conn, parent_conn, self._runner, self._bank_root,
                  self.timing),
            daemon=True,
        )
        try:
            process.start()
        except OSError as exc:
            parent_conn.close()
            child_conn.close()
            raise WorkerStartupError(
                f"could not start warm worker: {exc}"
            ) from exc
        child_conn.close()
        worker = _WarmWorker(process=process, conn=parent_conn)
        self._workers.append(worker)
        self.spawned += 1
        return worker

    def _discard(self, worker: _WarmWorker) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)

    def _retire_gracefully(self, worker: _WarmWorker) -> None:
        self._discard(worker)
        try:
            worker.conn.send({"cmd": "exit"})
        except (BrokenPipeError, OSError):
            pass
        worker.conn.close()
        _join_or_kill(worker.process, grace_s=2.0)

    # -- backend interface ---------------------------------------------

    def launch(self, job_payload):
        """Hand the job to an idle worker (spawning one if none wait)."""
        while self._idle:
            worker = self._idle.pop()
            if worker.process.is_alive():
                break
            self._discard(worker)  # died while idle; replace below
            worker.conn.close()
        else:
            worker = self._spawn_worker()
        try:
            worker.conn.send({"job": job_payload})
        except (BrokenPipeError, OSError):
            # The worker died between jobs; replace it once.
            self._discard(worker)
            worker.conn.close()
            _join_or_kill(worker.process, grace_s=2.0)
            worker = self._spawn_worker()
            try:
                worker.conn.send({"job": job_payload})
            except (BrokenPipeError, OSError) as exc:
                raise WorkerStartupError(
                    f"fresh warm worker unreachable: {exc}"
                ) from exc
        return worker.process, worker.conn, worker

    def retire_ok(self, slot) -> None:
        """Job done: the worker goes back to the idle pool (or retires)."""
        worker = slot.worker
        worker.jobs_done += 1
        if worker.jobs_done >= self._recycle_after:
            # Leak backstop: retire the veteran; a fresh worker will be
            # spawned lazily if the queue still needs the slot.
            self._retire_gracefully(worker)
            self.recycled += 1
        else:
            self._idle.append(worker)

    def retire_dead(self, slot) -> None:
        """The worker crashed mid-job; drop it (replacement is lazy)."""
        self._discard(slot.worker)
        slot.process.join()
        slot.conn.close()

    def kill(self, slot) -> None:
        """Deadline passed: kill *this* worker; siblings are untouched."""
        self._discard(slot.worker)
        _terminate(slot.process)
        slot.conn.close()

    def abort(self, running) -> None:
        """Interrupted mid-run: take down every worker, busy or idle."""
        for worker in list(self._workers):
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in list(self._workers):
            _join_or_kill(worker.process)
            worker.conn.close()
        self._workers.clear()
        self._idle.clear()

    def shutdown(self) -> None:
        """Normal end of run: ask every idle worker to exit, then reap."""
        for worker in list(self._workers):
            self._retire_gracefully(worker)

    @staticmethod
    def wait(conns, timeout: Optional[float]) -> List[object]:
        """Block until a pipe is readable (or *timeout* elapses)."""
        return mp_connection.wait(conns, timeout=timeout)


def _terminate(process) -> None:
    process.terminate()
    _join_or_kill(process, grace_s=5.0)


def _join_or_kill(process, grace_s: float = 5.0) -> None:
    process.join(grace_s)
    if process.is_alive():
        process.kill()
        process.join()


__all__ = [
    "DEFAULT_RECYCLE_AFTER",
    "POOL_MODES",
    "SpawnBackend",
    "WarmPoolBackend",
    "WorkerStartupError",
]
