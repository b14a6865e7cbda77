"""The cluster coordinator: a pool backend made of remote agents.

:class:`ClusterBackend` implements the same execution-backend interface
as ``SpawnBackend``/``WarmPoolBackend`` (launch / retire / kill / abort
/ shutdown / wait), so it slots directly behind ``Orchestrator.run`` —
manifests, telemetry, result caching, crash dumps, ``--resume``,
per-job timeouts and retries all behave identically whether a job ran
in a local process or on a machine across the network.

What the backend adds on top of the local ones is dead-agent
detection: a reader thread per agent notices EOF or a corrupt frame
(and a heartbeat thread notices silence).  Every unsettled job of the
dead agent settles with a ``requeue`` marker, so the orchestrator
re-pends it without spending a retry; its next launch goes to a live
agent, or degrades the run to the local warm pool when none is left.

Each job runs as exactly one copy at a time, on one agent.  A dead
agent serves no more jobs in this run; an agent we dialed keeps
listening and pairs again on the next run.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import protocol
from repro.obs.fleet import (
    NULL_SPAN_LOG,
    ClockSample,
    estimate_clock_offset,
    map_remote_time,
)
from repro.cluster.transport import (
    ConnectionClosed,
    FrameChannel,
    TransportError,
)
from repro.cluster.transport import connect as transport_connect
from repro.orchestrator.jobs import JobSpec, code_fingerprint
from repro.orchestrator.workers import WorkerStartupError

#: Default seconds between heartbeat pings.
DEFAULT_HEARTBEAT_S = 2.0
#: Default silence (no pong, result or any other traffic) after which an
#: agent is declared dead.  Generous relative to the ping interval: a
#: hard-killed process closes its socket and is caught by EOF long
#: before this fires — the timeout only catches hung hosts/partitions.
DEFAULT_HEARTBEAT_TIMEOUT_S = 15.0
#: Seconds to wait for an agent's dial and its ``welcome``.
PAIR_TIMEOUT_S = 15.0


class NoAgentsError(WorkerStartupError):
    """Every cluster agent is dead.

    The orchestrator catches this to degrade gracefully onto the local
    warm pool instead of aborting the sweep.
    """

    #: Consulted by the orchestrator's launch loop without importing
    #: this module (the cluster plane stays off the local hot path).
    degradable = True


class AgentLink:
    """Coordinator-side handle on one paired agent."""

    def __init__(self, channel: FrameChannel, name: str, slots: int,
                 address: str, process=None) -> None:
        self.channel = channel
        self.name = name
        self.slots = slots
        self.address = address
        #: Popen of an auto-launched agent (None when we just dialed in).
        self.process = process
        self.alive = True
        self.last_seen = time.monotonic()
        self.inflight: set = set()
        self.served = 0
        self.reader: Optional[threading.Thread] = None
        #: Agent monotonic-clock offset estimate (``local = remote -
        #: offset``) and the RTT of the sample that produced it.  Seeded
        #: by the handshake round trip, refined by every ping/pong.
        self.clock_offset: Optional[float] = None
        self.clock_rtt: Optional[float] = None

    def observe_clock(self, sent: float, received: float,
                      remote: float) -> None:
        """Fold one round-trip clock sample into the offset estimate.

        Keeps the minimum-RTT sample seen so far — the tightest error
        bound (Cristian's algorithm: the true offset is within RTT/2).
        """
        sample = ClockSample(sent=sent, received=received, remote=remote)
        if self.clock_rtt is None or sample.rtt < self.clock_rtt:
            self.clock_offset, self.clock_rtt = estimate_clock_offset(
                [sample]
            )

    @property
    def free_slots(self) -> int:
        return self.slots - len(self.inflight)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<AgentLink {self.name} {state} {len(self.inflight)} inflight>"


class _ClusterJob:
    """One dispatched grid point; doubles as the pool's process+conn."""

    def __init__(self, job_id: str, key: str, payload: dict) -> None:
        self.job_id = job_id
        self.key = key
        self.payload = payload
        self.link: Optional[AgentLink] = None  #: agent running the job
        self.mailbox: Optional[dict] = None
        self.settled = False

    # -- the pool's "conn" interface -----------------------------------

    def poll(self) -> bool:
        return self.mailbox is not None

    def recv(self) -> dict:
        if self.mailbox is None:
            raise EOFError("no payload settled for this job yet")
        return self.mailbox

    def close(self) -> None:
        pass

    # -- the pool's "process" interface --------------------------------

    @property
    def exitcode(self):
        # Transport-level failures settle an error payload instead of
        # faking a process death, so the scheduling loop only ever sees
        # "still running" here.
        return None


class ClusterBackend:
    """Dispatches orchestrator jobs to remote agents over TCP."""

    name = "cluster"

    def __init__(
        self,
        links: Sequence[AgentLink],
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
    ) -> None:
        if not links:
            raise WorkerStartupError("a cluster needs at least one agent")
        self._links = list(links)
        self._heartbeat_s = heartbeat_s
        self._heartbeat_timeout_s = heartbeat_timeout_s
        self._cond = threading.Condition(threading.RLock())
        self._jobs: Dict[str, _ClusterJob] = {}
        self._counter = itertools.count(1)
        #: Dispatches per job key: the n of every chaos token.
        self._dispatches: Dict[str, int] = {}
        self._ping_seq = itertools.count(1)
        self._ping_sent: Dict[int, float] = {}  # seq -> send monotonic
        self._spans = NULL_SPAN_LOG
        self._chaos = None
        self._closing = False
        #: Jobs handed back to the orchestrator because their agent died.
        self.redispatched = 0
        for link in self._links:
            link.reader = threading.Thread(
                target=self._reader, args=(link,),
                name=f"cluster-reader-{link.name}", daemon=True,
            )
            link.reader.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="cluster-heartbeat",
            daemon=True,
        )
        self._heartbeat_thread.start()

    # -- capacity -------------------------------------------------------

    def total_slots(self) -> int:
        """Live worker slots across surviving agents (>= 1 for sizing)."""
        with self._cond:
            return sum(link.slots for link in self._links if link.alive)

    def agents(self) -> List[AgentLink]:
        return list(self._links)

    # -- fleet observability --------------------------------------------

    def attach_fleet(self, spans) -> None:
        """Orchestrator hook: record spans for this run into *spans*.

        Asks every agent to start timestamping job phases (``observe``
        advisory) and annotates the span log with the current per-agent
        clock-offset estimates; the heartbeat keeps refining them.
        """
        self._spans = spans
        with self._cond:
            links = [l for l in self._links if l.alive]
        message = protocol.observe(True)
        for link in links:
            try:
                link.channel.send(message)
            except ConnectionClosed:
                self._mark_dead(link)
                continue
            if link.clock_offset is not None:
                spans.meta("agent_clock", agent=link.name,
                           offset=round(link.clock_offset, 6),
                           rtt=round(link.clock_rtt, 6))

    def attach_chaos(self, plan) -> None:
        """Orchestrator hook: *plan* decides every fault of each dispatch.

        Agents hold no plan: :meth:`_dispatch` draws their faults too and
        ships them on the job frame, so *plan* records every injection.
        """
        self._chaos = plan

    # -- backend interface (what the pool's scheduling loop calls) ------

    def launch(self, job_payload: dict) -> Tuple[object, object, object]:
        key = JobSpec.from_dict(job_payload).key()
        with self._cond:
            job = _ClusterJob(f"j{next(self._counter)}", key, job_payload)
            self._jobs[job.job_id] = job
            try:
                self._dispatch(job)
            except WorkerStartupError:
                # No surviving agent: the job never started anywhere, so
                # it must not linger in the job table.
                del self._jobs[job.job_id]
                raise
        return job, job, None

    def retire_ok(self, slot) -> None:
        with self._cond:
            self._jobs.pop(slot.conn.job_id, None)

    def retire_dead(self, slot) -> None:
        # Unreachable in practice (exitcode is always None) but kept for
        # interface completeness.
        self.retire_ok(slot)

    def kill(self, slot) -> None:
        """Per-job timeout: cancel the job on its agent."""
        job = slot.conn
        with self._cond:
            job.settled = True  # a late result is dropped, not delivered
            self._jobs.pop(job.job_id, None)
            link, job.link = job.link, None
        if link is None:
            return
        link.inflight.discard(job.job_id)
        if link.alive:
            try:
                link.channel.send(protocol.cancel(job.job_id))
            except ConnectionClosed:
                self._mark_dead(link)

    def abort(self, running) -> None:
        """Interrupted mid-run: drop every job and tear the links down."""
        with self._cond:
            for job in self._jobs.values():
                job.settled = True
        self.shutdown()

    def shutdown(self) -> None:
        """End of run: close sessions; stop agents we auto-launched."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            links = list(self._links)
            self._cond.notify_all()
        for link in links:
            told = False
            if link.alive:
                try:
                    # Owned agents exit entirely; dialed agents just end
                    # the session and keep listening for the next run.
                    link.channel.send(
                        protocol.shutdown() if link.process is not None
                        else protocol.bye()
                    )
                    told = True
                except ConnectionClosed:
                    pass
            if not told and link.process is not None:
                # An owned agent whose session died went back to
                # listening and never hears ``shutdown``: stop it here
                # rather than wait out the exit timeout below.
                link.process.terminate()
            link.channel.close()
        for link in links:
            if link.reader is not None:
                link.reader.join(timeout=5.0)
            if link.process is not None:
                try:
                    link.process.wait(timeout=10.0)
                except Exception:
                    link.process.kill()
                    link.process.wait()
        self._heartbeat_thread.join(timeout=self._heartbeat_s + 5.0)

    def wait(self, conns, timeout: Optional[float]) -> list:
        """Block until some dispatched job settles (or *timeout*)."""
        with self._cond:
            ready = [conn for conn in conns if conn.poll()]
            if ready or self._closing:
                return ready
            self._cond.wait(timeout)
            return [conn for conn in conns if conn.poll()]

    # -- dispatch and routing ------------------------------------------

    def _pick_link(self) -> AgentLink:
        with self._cond:
            candidates = [l for l in self._links if l.alive]
            if not candidates:
                raise NoAgentsError("no surviving cluster agents")
            idle = [l for l in candidates if l.free_slots > 0]
            # Prefer idle capacity; oversubscribe the least-loaded agent
            # when a death shrank the cluster below the pool size.
            pool = idle or candidates
            return max(pool, key=lambda l: (l.free_slots, -len(l.inflight)))

    def _dispatch(self, job: _ClusterJob) -> None:
        """Send *job* to the best surviving agent."""
        while True:
            link = self._pick_link()
            sends = self._dispatches.get(job.key, 0) + 1
            self._dispatches[job.key] = sends
            fault, drop, directive = self._draw_faults(f"{job.key}:{sends}")
            try:
                link.channel.send(protocol.job(
                    job.job_id, job.key, job.payload, chaos=directive
                ), fault)
            except ConnectionClosed:
                self._mark_dead(link)  # not alive: the next pick skips it
                continue
            link.inflight.add(job.job_id)
            job.link = link
            if drop:
                # Sever the connection right after the dispatch landed:
                # the reader sees EOF and marks the link dead, which
                # hands every job on it back to the orchestrator.
                link.channel.close()
            return

    def _draw_faults(self, token: str):
        """``(job-frame fault, drop, directive)`` for one dispatch.

        *token* is ``<key>:<n>``: a re-sent job draws afresh, whatever
        agent it goes to.  The agent-side sites are drawn only for a job
        frame that goes out intact and undropped, and ride it.
        """
        plan = self._chaos
        if plan is None:
            return None, False, None
        fault = plan.faults("transport", f"job:{token}")
        drop = plan.should("agent.drop", token)
        if drop or fault.keys() & {"transport.corrupt",
                                   "transport.truncate"}:
            return fault, drop, None
        return fault, drop, {
            **plan.faults("agent", token),
            **plan.faults("transport", f"outcome:{token}"),
        }

    def _mapped_timing(self, link: AgentLink,
                       message: dict) -> Optional[dict]:
        """Agent-side phase timestamps on the coordinator's timeline.

        Timing only ships when the run is observed; if no clock-offset
        estimate exists yet (cannot happen after a completed handshake,
        but stay safe) the phases are dropped rather than misplaced.
        """
        timing = message.get("timing")
        if not timing or link.clock_offset is None:
            return None
        offset = link.clock_offset
        phases = {}
        for name, pair in (timing.get("phases") or {}).items():
            try:
                phases[name] = [map_remote_time(float(pair[0]), offset),
                                map_remote_time(float(pair[1]), offset)]
            except (TypeError, ValueError, IndexError):
                continue
        return {"phases": phases} if phases else None

    def _payload_from(self, link: AgentLink, message: dict) -> dict:
        kind = message["kind"]
        timing = self._mapped_timing(link, message)
        if kind == "result":
            out = {
                "status": "ok",
                "result": message["result"],
                "agent": message.get("agent", link.name),
                "cached": bool(message.get("cached")),
            }
            if timing is not None:
                out["timing"] = timing
            return out
        payload = {
            "status": "error",
            "error": message.get("error", "agent error"),
            "agent": message.get("agent", link.name),
        }
        for field in ("traceback", "rng", "fastpath"):
            if field in message:
                payload[field] = message[field]
        if timing is not None:
            payload["timing"] = timing
        return payload

    def _on_outcome(self, link: AgentLink, message: dict) -> None:
        job_id = message.get("id")
        with self._cond:
            link.last_seen = time.monotonic()
            link.inflight.discard(job_id)
            link.served += 1
            job = self._jobs.get(job_id)
            if job is None or job.settled:
                return  # a cancelled job finished anyway; drop it
            job.settled = True
            job.mailbox = self._payload_from(link, message)
            job.link = None
            self._cond.notify_all()

    # -- failure handling ----------------------------------------------

    def _mark_dead(self, link: AgentLink) -> None:
        """Retire *link* and hand each of its unsettled jobs back.

        The ``requeue`` marker tells the scheduling loop this attempt
        was lost to the transport, not failed by the job: it re-pends
        the job without spending a retry, and the job's next launch goes
        to a live agent (or degrades the run to the local pool when
        none is left).
        """
        with self._cond:
            if not link.alive:
                return
            link.alive = False
            link.inflight.clear()
            link.channel.close()
            if self._closing:
                return
            for job in self._jobs.values():
                if job.settled or job.link is not link:
                    continue
                job.link = None
                job.settled = True
                job.mailbox = {
                    "status": "error",
                    "requeue": True,
                    "error": f"agent {link.name} died before the job "
                             "settled",
                    "agent": link.name,
                }
                self.redispatched += 1
            self._cond.notify_all()

    def _reader(self, link: AgentLink) -> None:
        """Per-agent receive loop (runs until the link's channel dies)."""
        while True:
            try:
                message = link.channel.recv()
            except (ConnectionClosed, TransportError, OSError):
                # A corrupt frame disqualifies the path, not just the frame.
                break
            kind = message.get("kind")
            if kind == "pong":
                received = time.monotonic()
                link.last_seen = received
                sent = self._ping_sent.pop(message.get("seq"), None)
                clock = message.get("clock")
                if sent is not None and isinstance(clock, (int, float)):
                    previous = link.clock_offset
                    link.observe_clock(sent, received, float(clock))
                    if (self._spans.enabled
                            and link.clock_offset != previous):
                        self._spans.meta(
                            "agent_clock", agent=link.name,
                            offset=round(link.clock_offset, 6),
                            rtt=round(link.clock_rtt, 6),
                        )
            elif kind in ("result", "error"):
                self._on_outcome(link, message)
            # anything else from an agent is advisory; ignore
        self._mark_dead(link)

    def _heartbeat_loop(self) -> None:
        while True:
            with self._cond:
                # Wakes early when shutdown sets ``_closing``.
                if self._cond.wait_for(lambda: self._closing,
                                       timeout=self._heartbeat_s):
                    return
                links = [l for l in self._links if l.alive]
            now = time.monotonic()
            for link in links:
                if now - link.last_seen > self._heartbeat_timeout_s:
                    self._mark_dead(link)
                    continue
                sequence = next(self._ping_seq)
                if len(self._ping_sent) > 64:
                    # Unanswered pings from dead links; drop the oldest.
                    self._ping_sent.pop(next(iter(self._ping_sent)))
                self._ping_sent[sequence] = time.monotonic()
                try:
                    link.channel.send(protocol.ping(sequence))
                except ConnectionClosed:
                    self._mark_dead(link)


# ----------------------------------------------------------------------
# Pairing
# ----------------------------------------------------------------------

def pair_agent(host: str, port: int, process=None) -> AgentLink:
    """Dial one agent, run the handshake, return the live link."""
    channel = transport_connect(host, port, timeout=PAIR_TIMEOUT_S)
    code = code_fingerprint()
    try:
        hello_sent = time.monotonic()
        channel.send(protocol.hello(code))
        greeting = channel.recv(timeout=PAIR_TIMEOUT_S)
        welcome_received = time.monotonic()
        protocol.check_peer(greeting, "welcome", code)
    except (ConnectionClosed, TransportError, OSError) as exc:
        channel.close()
        raise protocol.ClusterError(
            f"agent {host}:{port} unreachable during handshake: {exc}"
        ) from exc
    except protocol.HandshakeError:
        channel.close()
        raise
    link = AgentLink(
        channel=channel, name=greeting.get("name", f"{host}:{port}"),
        slots=int(greeting.get("slots", 1)), address=f"{host}:{port}",
        process=process,
    )
    clock = greeting.get("clock")
    if isinstance(clock, (int, float)):
        # The handshake round trip doubles as the first clock-offset
        # sample, so spans are mappable before the first heartbeat.
        link.observe_clock(hello_sent, welcome_received, float(clock))
    return link


def agent_status(host: str, port: int, timeout: float = 10.0) -> dict:
    """One agent's ``status_reply`` (for ``repro cluster status``)."""
    channel = transport_connect(host, port, timeout=timeout)
    try:
        channel.send(protocol.status_request())
        reply = channel.recv(timeout=timeout)
    finally:
        channel.close()
    if reply.get("kind") != "status_reply":
        raise protocol.ClusterError(
            f"unexpected status answer from {host}:{port}: "
            f"{reply.get('kind')!r}"
        )
    return reply


__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
    "AgentLink",
    "ClusterBackend",
    "NoAgentsError",
    "agent_status",
    "pair_agent",
]
