"""The cluster agent: a remote worker process serving dispatched jobs.

One agent = one machine's worth of simulation capacity.  It listens on
TCP, pairs with one coordinator at a time (handshake: protocol version
+ code fingerprint), and serves ``job`` messages by running them through
the same local execution backends the single-machine orchestrator uses
(:mod:`repro.orchestrator.workers` — a warm pool by default, so agents
keep memo caches and workload-bank traces hot across grid points).

Fault model, from the agent's side:

* a *job* failure (exception in the simulator) ships an ``error``
  message with the traceback and RNG snapshot — the coordinator's
  retry/crash-dump machinery treats it exactly like a local failure;
* a *worker* death (segfault, OOM-kill) ships an ``error`` naming the
  exit code; the local pool replaces the worker lazily;
* a *coordinator* death (socket EOF, or silence past the session
  timeout) aborts in-flight work and returns the agent to listening —
  a resumed coordinator pairs with it again and the run's manifest
  resume machinery skips whatever already completed.

An agent holds no chaos plan: it inflicts only the faults a job frame's
``chaos`` directive names, which the coordinator's plan drew.

Start one with ``repro cluster agent --listen HOST:PORT``; the agent
announces ``repro-agent listening on HOST:PORT`` on stdout so SSH and
loopback launchers can scrape the bound port (``--listen host:0``).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket as socket_module
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import util as mp_util
from typing import Dict, Optional

from repro.cluster import protocol
from repro.cluster.transport import (
    ConnectionClosed,
    FrameChannel,
    TransportError,
    listen,
)
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.jobs import code_fingerprint, execute_job
from repro.orchestrator.workers import (
    DEFAULT_RECYCLE_AFTER,
    SpawnBackend,
    WarmPoolBackend,
    WorkerStartupError,
)
from repro.sim.simulator import SimulationResult

#: Seconds of total coordinator silence (no jobs, no pings) after which
#: the agent declares the coordinator dead and recycles the session.
DEFAULT_SESSION_TIMEOUT_S = 60.0

#: How long an ``agent.hang`` chaos directive wedges the serve loop —
#: long enough to trip a test-tightened heartbeat timeout, short enough
#: not to stall a default-config smoke run forever.
CHAOS_HANG_S = 2.0


@dataclass
class _LocalJob:
    """One dispatched job running in a local worker process."""

    job_id: str
    key: str
    process: object
    conn: object
    worker: object
    started: float
    label: str = ""
    #: Agent-monotonic fleet-span timestamps (zeros when not observed).
    received: float = 0.0  #: job frame arrival
    probe: tuple = ()      #: (t0, t1) around the agent-cache lookup
    fault: Optional[dict] = None  #: the job's chaos directive, if any


@dataclass
class AgentStats:
    """Lifetime counters reported by ``repro cluster status``."""

    served: int = 0
    cache_hits: int = 0
    sessions: int = 0


class AgentServer:
    """Listens for a coordinator and serves its jobs until told to stop."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        pool: str = "warm",
        recycle_after: int = DEFAULT_RECYCLE_AFTER,
        cache_dir=None,
        name: Optional[str] = None,
        once: bool = False,
        announce=None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.pool = pool
        self.recycle_after = recycle_after
        #: Optional local result cache: a dispatched key it holds is
        #: answered without simulating, and every freshly simulated
        #: result is stored here as well as shipped to the coordinator.
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.name = name
        self.once = once
        self.stats = AgentStats()
        self._announce = announce if announce is not None else print
        self._listener = None
        self._session_channel = None
        self._stopping = False
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        # Forked worker children inherit the listener and the session
        # socket.  If they kept those FDs, a SIGKILLed agent would never
        # EOF its coordinator (the workers still hold the connection
        # open) and dead-agent detection would degrade to the heartbeat
        # timeout.  Drop the duplicates the moment a worker forks.
        mp_util.register_after_fork(self, AgentServer._drop_fds_in_child)

    @staticmethod
    def _drop_fds_in_child(server: "AgentServer") -> None:
        """Runs in freshly forked worker processes, never the agent."""
        if server._listener is not None:
            try:
                server._listener.close()
            except OSError:
                pass
        if server._session_channel is not None:
            server._session_channel.drop_fd()

    # -- lifecycle ------------------------------------------------------

    def bind(self):
        """Bind the listening socket and announce the resolved address."""
        self._listener, (host, port) = listen(self.host, self.port)
        self.port = port
        if self.name is None:
            self.name = f"{socket_module.gethostname()}:{port}"
        # Launchers (ssh.py) scrape this exact line for the bound port.
        self._announce(f"repro-agent listening on {host}:{port}", flush=True)
        return host, port

    def serve_forever(self) -> None:
        """Accept coordinator sessions until shut down."""
        if self._listener is None:
            self.bind()
        try:
            while not self._stopping:
                try:
                    sock, _addr = self._listener.accept()
                except OSError:
                    break  # listener closed under us
                channel = FrameChannel(sock)
                self._session_channel = channel
                try:
                    self._handle_session(channel)
                except (ConnectionClosed, TransportError):
                    pass  # peer vanished mid-handshake; keep listening
                finally:
                    self._session_channel = None
                    channel.close()
                if self.once and self.stats.sessions:
                    break
        finally:
            self.close()

    def close(self) -> None:
        self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    # -- sessions -------------------------------------------------------

    def _handle_session(self, channel: FrameChannel) -> None:
        opening = channel.recv(timeout=10.0)
        if opening.get("role") == "status":
            channel.send(protocol.status_reply(
                name=self.name, slots=self.jobs, inflight=0,
                served=self.stats.served, cache_hits=self.stats.cache_hits,
                pid=os.getpid(),
            ))
            return
        reason = protocol.mismatch_reason(opening, code_fingerprint())
        if reason is not None:
            channel.send(protocol.reject(reason))
            return
        channel.send(protocol.welcome(
            code=code_fingerprint(), name=self.name, slots=self.jobs,
            pid=os.getpid(), clock=time.monotonic(),
        ))
        self.stats.sessions += 1
        # One line per accepted session recording the effective
        # acceleration flags: results are identical either way, but a
        # fleet mixing REPRO_FASTPATH/REPRO_VECTOR settings produces
        # incomparable per-agent wall clocks, and this is the only
        # place the coordinator's operator can see each agent's mode.
        from repro import fastpath, kernels

        self._announce(
            "repro-agent session accepted "
            f"(fastpath={'on' if fastpath.enabled() else 'off'}, "
            f"vector={'on' if kernels.enabled() else 'off'})",
            flush=True,
        )
        self._serve_jobs(channel)

    def _make_backend(self):
        """A per-session local execution backend (warm pool by default)."""
        if self.pool == "spawn":
            return SpawnBackend(self._ctx, execute_job), None
        bank_root = tempfile.mkdtemp(prefix="repro-agent-bank-")
        cleanup = lambda: shutil.rmtree(bank_root, ignore_errors=True)
        backend = WarmPoolBackend(
            self._ctx, execute_job, bank_root=bank_root,
            recycle_after=self.recycle_after,
        )
        return backend, cleanup

    def _serve_jobs(self, channel: FrameChannel) -> None:
        backend, cleanup = self._make_backend()
        inflight: Dict[str, _LocalJob] = {}
        last_heard = time.monotonic()
        try:
            while True:
                waitables = [channel] + [job.conn for job in inflight.values()]
                ready = mp_connection.wait(waitables, timeout=0.25)
                now = time.monotonic()
                if channel in ready:
                    last_heard = now
                    try:
                        message = channel.recv(timeout=5.0)
                    except ConnectionClosed:
                        break  # coordinator is gone; recycle the session
                    if not self._dispatch(message, channel, backend,
                                          inflight):
                        break
                for job in list(inflight.values()):
                    if job.conn in ready:
                        self._complete(job, channel, backend, inflight)
                if (not inflight
                        and now - last_heard > DEFAULT_SESSION_TIMEOUT_S):
                    break  # silent coordinator: assume it died
        except ConnectionClosed:
            pass
        finally:
            # Whatever ended the session, no local worker may survive it
            # orphaned — the coordinator requeues in-flight work.
            try:
                backend.abort(list(inflight.values()))
            except Exception:
                pass
            backend.shutdown()
            if cleanup is not None:
                cleanup()

    # -- message handling ----------------------------------------------

    def _dispatch(self, message: dict, channel, backend, inflight) -> bool:
        """Handle one coordinator message; False ends the session."""
        kind = message.get("kind")
        if kind == "ping":
            # The clock echo is the coordinator's offset-sample source:
            # it timestamps send/receive around this round trip and maps
            # our monotonic domain onto its own (Cristian's algorithm).
            channel.send(protocol.pong(message.get("seq", 0),
                                       clock=time.monotonic()))
            return True
        if kind == "observe":
            # Fleet spans: start reporting agent-side phase timestamps.
            set_timing = getattr(backend, "set_timing", None)
            if set_timing is not None:
                set_timing(bool(message.get("spans")))
            return True
        if kind == "cancel":
            job = inflight.pop(message.get("id"), None)
            if job is not None:
                backend.kill(job)
            return True
        if kind == "job":
            if message.get("chaos", {}).get("agent.hang"):
                # A wedged agent: go silent (no pong, no result) long
                # enough for the coordinator's heartbeat to declare us
                # dead and requeue our in-flight work.
                time.sleep(CHAOS_HANG_S)
            self._start_job(message, channel, backend, inflight)
            return True
        if kind == "bye":
            return False
        if kind == "shutdown":
            self._stopping = True
            return False
        # Unknown kinds are ignored, not fatal: a newer coordinator may
        # send advisory messages an older agent can safely skip (the
        # handshake already guarantees the *core* vocabulary matches).
        return True

    def _start_job(self, message, channel, backend, inflight) -> None:
        """Launch one job; its chaos directive, if any, hits the worker
        (``worker.*``) and the outcome frame (``transport.*``)."""
        job_id = message["id"]
        key = message["key"]
        payload = message["job"]
        fault = message.get("chaos")
        observed = bool(getattr(backend, "timing", False))
        received = time.monotonic() if observed else 0.0
        probe_t0 = time.monotonic() if observed else 0.0
        cached_result = (self.cache.get(key) if self.cache is not None
                         else None)
        probe = (probe_t0, time.monotonic()) if observed else ()
        if cached_result is not None:
            self.stats.served += 1
            self.stats.cache_hits += 1
            channel.send(protocol.result(
                job_id, key, cached_result.to_dict(), agent=self.name,
                wall_s=0.0, cached=True,
                timing=({"phases": {"cache_probe": list(probe)},
                         "remote": True} if observed else None),
            ), fault)
            return
        try:
            process, conn, worker = backend.launch(payload)
        except WorkerStartupError as exc:
            channel.send(protocol.error(
                job_id, key, self.name, f"agent could not start worker: {exc}"
            ), fault)
            return
        if fault:
            # Imported only here: a calm agent never loads repro.chaos.
            from repro.chaos.backend import apply_worker_fault

            apply_worker_fault(process, fault)
        inflight[job_id] = _LocalJob(
            job_id=job_id, key=key, process=process, conn=conn,
            worker=worker, started=time.monotonic(),
            label=str(payload.get("benchmark", "")),
            received=received, probe=probe, fault=fault,
        )

    def _complete(self, job: _LocalJob, channel, backend, inflight) -> None:
        """One local worker's pipe is readable: ship its outcome."""
        payload = None
        try:
            if job.conn.poll():
                payload = job.conn.recv()
        except (EOFError, OSError):
            payload = None
        if payload is None and job.process.exitcode is None:
            return  # spurious wakeup; the worker is still going
        inflight.pop(job.job_id, None)
        finished = time.monotonic()
        wall = finished - job.started
        timing = None
        if getattr(backend, "timing", False):
            # All agent-monotonic; the coordinator maps these onto its
            # own timeline with the link's clock-offset estimate.
            phases = {
                "agent_queue": [job.received or job.started, job.started],
                "agent_run": [job.started, finished],
            }
            if job.probe:
                phases["cache_probe"] = list(job.probe)
            worker_phases = ((payload or {}).get("timing") or {}).get("phases")
            if worker_phases:
                phases.update(worker_phases)
            timing = {"phases": phases, "remote": True}
        if payload is None:
            exitcode = job.process.exitcode
            backend.retire_dead(job)
            channel.send(protocol.error(
                job.job_id, job.key, self.name,
                f"worker crashed (exit code {exitcode})",
                timing=timing,
            ), job.fault)
            return
        if payload.get("status") == "ok":
            backend.retire_ok(job)
            self.stats.served += 1
            if self.cache is not None:
                # Best-effort: ``put`` swallows a full disk.
                self.cache.put(
                    job.key, SimulationResult.from_dict(payload["result"]),
                    meta={"job": job.label, "via": "agent"},
                )
            channel.send(protocol.result(
                job.job_id, job.key, payload["result"], agent=self.name,
                wall_s=wall, cached=False, timing=timing,
            ), job.fault)
        else:
            backend.retire_ok(job)  # the worker survived the exception
            channel.send(protocol.error(
                job.job_id, job.key, self.name,
                payload.get("error", "worker error"),
                traceback_text=payload.get("traceback"),
                rng=payload.get("rng"),
                fastpath=payload.get("fastpath"),
                timing=timing,
            ), job.fault)


def parse_listen(text: str):
    """``HOST:PORT`` (port may be 0 to let the OS choose)."""
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"--listen expects HOST:PORT, got {text!r}")
    return host, int(port_text)


__all__ = [
    "CHAOS_HANG_S",
    "DEFAULT_SESSION_TIMEOUT_S",
    "AgentServer",
    "AgentStats",
    "parse_listen",
]
