"""Tests for the cluster subsystem: transport, handshake, agent caches,
scheduling, and end-to-end digest equality against local execution.

The contract under test: a sweep run over remote agents must produce a
grid digest byte-identical to the same sweep run through the local warm
pool — including when an agent is killed mid-run and the orchestrator
requeues its jobs onto the survivor.
"""

import json
import queue
import socket
import struct
import threading
import time
import types
import zlib

import pytest

from repro.chaos import ChaosPlan, parse_chaos
from repro.cluster import connect_cluster, protocol
from repro.cluster.agent import AgentServer, parse_listen
from repro.cluster.coordinator import AgentLink, ClusterBackend, NoAgentsError
from repro.cluster.ssh import parse_host
from repro.cluster.transport import (
    ChecksumError,
    ConnectionClosed,
    FrameChannel,
    TransportError,
)
from repro.energy import EnergyReport
from repro.fastpath.bench import grid_digest, pinned_sweep_specs
from repro.obs.fleet import FleetConfig
from repro.orchestrator import JobSpec, Orchestrator
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.jobs import code_fingerprint
from repro.sim.runner import ExperimentScale
from repro.sim.simulator import SimulationResult

SCALE = ExperimentScale(name="cluster-test", factor=64, cores=2,
                        records_per_core=80, warmup_per_core=20)


def _spec(benchmark="STREAM", system="baseline", seed=1):
    return JobSpec(benchmark=benchmark, system=system, seed=seed,
                   scale=SCALE)


def _synthetic_result(marker=1.0):
    return SimulationResult(
        system="baseline", workload="STREAM",
        runtime_core_cycles=marker, runtime_bus_cycles=1.0,
        instructions=1, llc_misses=0, llc_accesses=1,
        memory_requests_by_kind={}, forwarded_reads=0, bytes_transferred=0,
        mean_read_latency_bus_cycles=0.0,
        energy=EnergyReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        row_buffer_outcomes={},
    )


def _channel_pair():
    left, right = socket.socketpair()
    return FrameChannel(left), FrameChannel(right)


# ----------------------------------------------------------------------
# Transport framing
# ----------------------------------------------------------------------

class TestTransport:
    def test_round_trip(self):
        a, b = _channel_pair()
        message = {"kind": "job", "id": "j1", "nested": {"x": [1, 2, 3]},
                   "text": "métadonnées"}
        a.send(message)
        assert b.recv(timeout=5.0) == message
        a.close()
        b.close()

    def test_frames_queue_in_order(self):
        a, b = _channel_pair()
        for index in range(5):
            a.send({"seq": index})
        assert [b.recv(timeout=5.0)["seq"] for _ in range(5)] == [
            0, 1, 2, 3, 4
        ]
        a.close()
        b.close()

    def test_eof_raises_connection_closed(self):
        a, b = _channel_pair()
        a.close()
        with pytest.raises(ConnectionClosed):
            b.recv(timeout=5.0)
        b.close()

    def test_oversized_incoming_frame_rejected(self):
        from repro.cluster.transport import MAX_FRAME_BYTES

        left, right = socket.socketpair()
        channel = FrameChannel(right)
        left.sendall(struct.pack(">II", MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(TransportError, match="exceeds cap"):
            channel.recv(timeout=5.0)
        left.close()
        channel.close()

    def test_oversized_outgoing_frame_rejected(self, monkeypatch):
        import repro.cluster.transport as transport

        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 16)
        a, b = _channel_pair()
        with pytest.raises(TransportError, match="exceeds cap"):
            a.send({"kind": "way too big for sixteen bytes"})
        a.close()
        b.close()

    def test_non_object_frame_rejected(self):
        left, right = socket.socketpair()
        channel = FrameChannel(right)
        body = b"[1, 2]"
        left.sendall(struct.pack(">II", len(body), zlib.crc32(body)) + body)
        with pytest.raises(TransportError, match="object"):
            channel.recv(timeout=5.0)
        left.close()
        channel.close()

    def test_crc_mismatch_raises_checksum_error(self):
        left, right = socket.socketpair()
        channel = FrameChannel(right)
        body = b'{"kind": "result"}'
        wrong = (zlib.crc32(body) ^ 0xDEADBEEF) & 0xFFFFFFFF
        left.sendall(struct.pack(">II", len(body), wrong) + body)
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            channel.recv(timeout=5.0)
        left.close()
        channel.close()

    def test_partial_recv_reassembly(self):
        """A frame dribbled one byte at a time still arrives whole."""
        left, right = socket.socketpair()
        channel = FrameChannel(right)
        body = b'{"kind": "pong", "seq": 42}'
        frame = struct.pack(">II", len(body), zlib.crc32(body)) + body

        def dribble():
            for i in range(len(frame)):
                left.sendall(frame[i:i + 1])
                time.sleep(0.001)

        thread = threading.Thread(target=dribble, daemon=True)
        thread.start()
        assert channel.recv(timeout=10.0) == {"kind": "pong", "seq": 42}
        thread.join(timeout=5.0)
        left.close()
        channel.close()

    def test_eof_mid_frame_raises_connection_closed(self):
        """A peer dying mid-frame is a hangup, not a protocol error."""
        left, right = socket.socketpair()
        channel = FrameChannel(right)
        body = b'{"kind": "result"}'
        frame = struct.pack(">II", len(body), zlib.crc32(body)) + body
        left.sendall(frame[: len(frame) - 5])
        left.close()
        with pytest.raises(ConnectionClosed):
            channel.recv(timeout=5.0)
        channel.close()

    def test_chaos_corrupt_injection_caught_by_crc(self):
        a, b = _channel_pair()
        a.send({"kind": "result", "id": "j1", "key": "k" * 64},
               {"transport.corrupt": True})
        with pytest.raises(ChecksumError):
            b.recv(timeout=5.0)
        a.close()
        b.close()

    def test_chaos_truncate_injection_severs_connection(self):
        a, b = _channel_pair()
        a.send({"kind": "result", "id": "j1", "key": "k" * 64},
               {"transport.truncate": True})
        with pytest.raises(ConnectionClosed):
            b.recv(timeout=5.0)
        assert a.closed
        b.close()

    def test_control_frames_never_injected(self):
        """Only a handed fault damages a frame: sends without one, keyed
        or not, and a delay-only fault arrive intact and in order."""
        a, b = _channel_pair()
        for sequence in range(3):
            a.send({"kind": "ping", "seq": sequence})
        a.send({"kind": "result", "id": "j1", "key": "k" * 64})
        a.send({"kind": "ping", "seq": 3}, {"transport.delay": 0.001})
        assert [b.recv(timeout=5.0).get("seq") for _ in range(5)] == [
            0, 1, 2, None, 3
        ]
        assert not a.closed
        a.close()
        b.close()


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------

class TestHandshake:
    def _session(self, opening):
        """Run one agent session over a socketpair; return the reply."""
        server = AgentServer(once=True)
        agent_side, coordinator_side = _channel_pair()
        thread = threading.Thread(
            target=server._handle_session, args=(agent_side,), daemon=True
        )
        thread.start()
        coordinator_side.send(opening)
        reply = coordinator_side.recv(timeout=5.0)
        return reply, coordinator_side, thread

    def test_fingerprint_mismatch_rejected(self):
        reply, channel, thread = self._session(
            protocol.hello(code="not-the-local-tree")
        )
        assert reply["kind"] == "reject"
        assert "fingerprint" in reply["reason"]
        with pytest.raises(protocol.HandshakeError, match="fingerprint"):
            protocol.check_peer(reply, "welcome", code_fingerprint())
        channel.close()
        thread.join(timeout=5.0)

    def test_protocol_3_peer_rejected(self):
        """v4 moved chaos decisions into job frames: a v3 peer would arm
        its own plan from the environment, so it must not pair."""
        assert protocol.PROTOCOL_VERSION == 4
        stale = protocol.hello(code=code_fingerprint())
        stale["protocol"] = 3
        reply, channel, thread = self._session(stale)
        assert reply["kind"] == "reject"
        assert "version" in reply["reason"]
        channel.close()
        thread.join(timeout=5.0)

    def test_protocol_version_mismatch_rejected(self):
        stale = protocol.hello(code=code_fingerprint())
        stale["protocol"] = protocol.PROTOCOL_VERSION + 1
        reply, channel, thread = self._session(stale)
        assert reply["kind"] == "reject"
        assert "version" in reply["reason"]
        channel.close()
        thread.join(timeout=5.0)

    def test_matching_hello_welcomed(self):
        reply, channel, thread = self._session(
            protocol.hello(code=code_fingerprint())
        )
        assert reply["kind"] == "welcome"
        assert reply["slots"] == 1
        # check_peer accepts the same greeting pair_agent would see.
        protocol.check_peer(reply, "welcome", code_fingerprint())
        channel.send(protocol.bye())
        thread.join(timeout=5.0)

    def test_status_probe_needs_no_fingerprint(self):
        reply, channel, thread = self._session(protocol.status_request())
        assert reply["kind"] == "status_reply"
        assert reply["served"] == 0
        channel.close()
        thread.join(timeout=5.0)

    def test_check_peer_surfaces_reject_reason(self):
        with pytest.raises(protocol.HandshakeError, match="because"):
            protocol.check_peer(protocol.reject("because"), "welcome", "c")


# ----------------------------------------------------------------------
# Agent-local result caches
# ----------------------------------------------------------------------

class TestFederation:
    def test_agent_session_answers_from_cache(self, tmp_path):
        """A local hit ships the full result, marked cached."""
        key = _spec(seed=2).key()
        ResultCache(tmp_path).put(key, _synthetic_result(2.0))

        server = AgentServer(once=True, cache_dir=tmp_path)
        agent_side, coordinator_side = _channel_pair()
        thread = threading.Thread(
            target=server._handle_session, args=(agent_side,), daemon=True
        )
        thread.start()
        coordinator_side.send(protocol.hello(code=code_fingerprint()))
        assert coordinator_side.recv(timeout=5.0)["kind"] == "welcome"

        coordinator_side.send(protocol.job("j1", key, _spec(seed=2).to_dict()))
        reply = coordinator_side.recv(timeout=10.0)
        assert reply["kind"] == "result"
        assert (reply["id"], reply["key"]) == ("j1", key)
        assert reply["cached"] is True
        assert reply["result"]["runtime_core_cycles"] == 2.0

        coordinator_side.send(protocol.bye())
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert server.stats.cache_hits == 1


# ----------------------------------------------------------------------
# Coordinator scheduling (deterministic, over fake in-memory links)
# ----------------------------------------------------------------------

class _FakeChannel:
    """An in-memory stand-in for FrameChannel: records sends, scripted
    receives.  ``hang_up`` makes the reader thread see EOF — the exact
    signal a dead agent's closed socket produces."""

    def __init__(self):
        self.sent = []
        self.faults = []
        self._incoming = queue.Queue()

    def send(self, message, fault=None):
        self.sent.append(message)
        self.faults.append(fault)

    def recv(self, timeout=None):
        item = self._incoming.get()
        if item is None:
            raise ConnectionClosed("fake peer hung up")
        if isinstance(item, Exception):
            raise item
        return item

    def feed(self, message):
        self._incoming.put(message)

    def hang_up(self):
        self._incoming.put(None)

    def close(self):
        self._incoming.put(None)  # wake the reader so it can exit

    def sent_of(self, kind):
        return [m for m in self.sent if m.get("kind") == kind]


class _AnsweringChannel(_FakeChannel):
    """Answers every dispatched job with a synthetic result."""

    def __init__(self, agent):
        super().__init__()
        self.agent = agent

    def send(self, message, fault=None):
        super().send(message, fault)
        if message.get("kind") == "job":
            self.feed(protocol.result(
                message["id"], message["key"],
                _synthetic_result(3.0).to_dict(),
                agent=self.agent, wall_s=0.0, cached=False,
            ))


class _HangUpChannel(_FakeChannel):
    """Hangs up the moment a job arrives, as a dying agent's socket."""

    def send(self, message, fault=None):
        super().send(message, fault)
        if message.get("kind") == "job":
            self.hang_up()


def _fake_link(name, slots=1):
    return AgentLink(channel=_FakeChannel(), name=name, slots=slots,
                     address=f"fake:{name}")


def _wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestCoordinatorScheduling:
    def _backend(self, links, **kwargs):
        kwargs.setdefault("heartbeat_s", 0.05)
        kwargs.setdefault("heartbeat_timeout_s", 60.0)
        return ClusterBackend(links, **kwargs)

    def test_dead_agent_jobs_redispatch_to_survivors(self):
        """A job lost with its agent reruns on the survivor through the
        orchestrator's requeue path, without spending a retry."""
        hung_up = _HangUpChannel()
        link_a = AgentLink(channel=hung_up, name="a", slots=1,
                           address="fake:a")
        link_b = AgentLink(channel=_AnsweringChannel("b"), name="b", slots=1,
                           address="fake:b")
        backend = self._backend([link_a, link_b])
        report = Orchestrator(jobs=2, pool=backend, retries=0).run(
            [_spec(seed=1), _spec(seed=2)]
        )

        assert report.ok
        assert not link_a.alive
        assert len(hung_up.sent_of("job")) == 1
        assert [o.agent for o in report.outcomes] == ["b", "b"]
        assert [o.attempts for o in report.outcomes] == [1, 1]
        assert backend.redispatched == 1

    def test_last_agent_death_settles_an_error(self):
        """The last agent's death settles its job with an error that
        names the agent, and the next launch finds no agent to run on."""
        link_a = _fake_link("a")
        backend = self._backend([link_a])
        try:
            job, _, _ = backend.launch(_spec(seed=1).to_dict())
            link_a.channel.hang_up()
            assert _wait_until(job.poll)
            payload = job.recv()
            assert payload["status"] == "error"
            assert "agent a died" in payload["error"]
            assert payload["agent"] == "a"
            backend.retire_ok(types.SimpleNamespace(conn=job))
            with pytest.raises(NoAgentsError):
                backend.launch(_spec(seed=2).to_dict())
            assert backend._jobs == {}
        finally:
            backend.shutdown()

    def test_last_agent_death_requeues_not_retries(self):
        """A dead link's in-flight job settles the requeue marker, not a
        failure: the orchestrator re-pends it without spending a retry."""
        link_a = _fake_link("a")
        backend = self._backend([link_a])
        try:
            job, _, _ = backend.launch(_spec(seed=1).to_dict())
            link_a.channel.hang_up()
            assert _wait_until(job.poll)
            payload = job.recv()
            assert payload["status"] == "error"
            assert payload["requeue"] is True
            assert backend.redispatched == 1
        finally:
            backend.shutdown()

    def test_timeout_kill_cancels_the_job_on_its_agent(self):
        link_a = _fake_link("a")
        backend = self._backend([link_a])
        try:
            job, conn, _ = backend.launch(_spec(seed=1).to_dict())
            backend.kill(types.SimpleNamespace(conn=conn))
            assert [m["id"] for m in link_a.channel.sent_of("cancel")] == [
                job.job_id
            ]
            assert not link_a.inflight
            # A result that raced the cancel is dropped, not delivered.
            link_a.channel.feed(protocol.result(
                job.job_id, job.key, _synthetic_result().to_dict(),
                agent="a", wall_s=0.01, cached=False,
            ))
            assert _wait_until(lambda: link_a.served == 1)
            assert not job.poll()
        finally:
            backend.shutdown()

    def test_cached_keys_are_never_dispatched(self, tmp_path):
        """The orchestrator answers its cache's keys before any dispatch,
        so an agent only ever receives keys the coordinator lacks."""
        held, cold = _spec(seed=1), _spec(seed=2)
        cache = ResultCache(tmp_path)
        cache.put(held.key(), _synthetic_result(7.0))
        link = AgentLink(channel=_AnsweringChannel("a"), name="a", slots=1,
                         address="fake:a")
        report = Orchestrator(
            jobs=1, cache=cache, pool=self._backend([link]), retries=0,
        ).run([held, cold])

        assert report.ok
        assert [m["key"] for m in link.channel.sent_of("job")] == [cold.key()]
        assert [o.source for o in report.outcomes] == ["cache", "run"]
        assert report.outcomes[0].result.runtime_core_cycles == 7.0

    def test_corrupt_frame_ends_the_link_and_requeues(self):
        link_a, link_b = _fake_link("a"), _fake_link("b")
        backend = self._backend([link_a, link_b])
        try:
            job, _, _ = backend.launch(_spec(seed=1).to_dict())
            first = job.link
            survivor = link_b if first is link_a else link_a
            first.channel.feed(ChecksumError("bit flip in flight"))
            assert _wait_until(job.poll)
            assert not first.alive
            assert job.recv()["requeue"] is True
            assert backend.redispatched == 1
            # The coordinator re-sends nothing itself: the requeued job's
            # next launch is the orchestrator's.
            assert survivor.alive
            assert survivor.channel.sent_of("job") == []
        finally:
            backend.shutdown()

    def test_agent_drop_draws_per_dispatch_not_per_port(self):
        """``agent.drop`` tokens count a key's dispatches, so a re-sent
        job draws afresh and no draw depends on an agent's name."""
        link_a, link_b = _fake_link("a"), _fake_link("b")
        backend = self._backend([link_a, link_b])
        plan = parse_chaos("off,agent.drop=1.0@1")
        backend.attach_chaos(plan)
        spec = _spec(seed=1)
        key = spec.key()
        try:
            job, conn, _ = backend.launch(spec.to_dict())
            assert [m["key"] for m in link_a.channel.sent_of("job")] == [key]
            assert _wait_until(job.poll)
            assert job.recv()["requeue"] is True
            backend.retire_ok(types.SimpleNamespace(conn=conn))

            relaunched, _, _ = backend.launch(spec.to_dict())
            assert [m["key"] for m in link_b.channel.sent_of("job")] == [key]
            assert _wait_until(relaunched.poll)
            assert plan.injections == [
                ("agent.drop", f"{key}:1"), ("agent.drop", f"{key}:2"),
            ]
        finally:
            backend.shutdown()

    def test_job_frame_fault_draws_per_dispatch(self):
        """A job re-sent to a second agent draws ``job:<key>:2``: the
        coordinator hands each send its own fault, and a damaged job
        frame carries no directive."""
        hung_up = _HangUpChannel()
        link_a = AgentLink(channel=hung_up, name="a", slots=1,
                           address="fake:a")
        link_b = _fake_link("b")
        backend = self._backend([link_a, link_b])
        plan = parse_chaos("off,transport.corrupt=1.0@1")
        backend.attach_chaos(plan)
        spec = _spec(seed=1)
        key = spec.key()
        try:
            job, conn, _ = backend.launch(spec.to_dict())
            assert _wait_until(job.poll)
            assert job.recv()["requeue"] is True
            backend.retire_ok(types.SimpleNamespace(conn=conn))
            backend.launch(spec.to_dict())
            sent = hung_up.sent_of("job") + link_b.channel.sent_of("job")
            assert [m["key"] for m in sent] == [key, key]
            assert all("chaos" not in m for m in sent)
            assert hung_up.faults[-1] == link_b.channel.faults[-1] == {
                "transport.corrupt": True
            }
            assert plan.injections == [
                ("transport.corrupt", f"job:{key}:1"),
                ("transport.corrupt", f"job:{key}:2"),
            ]
        finally:
            backend.shutdown()


# ----------------------------------------------------------------------
# Host grammar
# ----------------------------------------------------------------------

class TestHostGrammar:
    def test_parse_listen(self):
        assert parse_listen("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_listen("0.0.0.0:9100") == ("0.0.0.0", 9100)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_listen("nope")

    def test_parse_host_kinds(self):
        assert parse_host("local").kind == "local"
        dialed = parse_host("10.0.0.7:9100")
        assert (dialed.kind, dialed.host, dialed.port) == (
            "dial", "10.0.0.7", 9100
        )
        ssh = parse_host("ssh://user@box")
        assert (ssh.kind, ssh.ssh_target) == ("ssh", "user@box")
        with pytest.raises(ValueError, match="host spec"):
            parse_host("garbage spec")


# ----------------------------------------------------------------------
# End to end: loopback agents vs the local warm pool
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def local_digest():
    """The pinned 36-point grid's digest under the local warm pool."""
    report = Orchestrator(jobs=2, pool="warm").run(pinned_sweep_specs())
    return grid_digest(report.results)


class _OutcomeFramesOnly(ChaosPlan):
    """A plan that fires only on outcome-frame tokens."""

    def should(self, site, token):
        return token.startswith("outcome:") and super().should(site, token)


def _run_sweep_pin(backend):
    report = Orchestrator(
        jobs=max(1, backend.total_slots()), pool=backend, retries=0
    ).run(pinned_sweep_specs())
    return report, grid_digest(report.results)


class TestLoopbackCluster:
    def test_two_agents_match_the_local_digest(self, local_digest):
        backend = connect_cluster(["local", "local"], agent_jobs=2)
        report, digest = _run_sweep_pin(backend)
        assert report.ok
        assert digest == local_digest
        assert backend.redispatched == 0
        # Neither agent has a cache: every point was simulated.
        assert {o.source for o in report.outcomes} == {"run"}
        served = {link.name: link.served for link in backend.agents()}
        assert sum(served.values()) >= 36  # both agents actually worked
        assert all(count > 0 for count in served.values())

    def test_killed_agent_does_not_change_the_digest(self, local_digest):
        backend = connect_cluster(["local", "local"], agent_jobs=2)
        victim = backend.agents()[0]
        timer = threading.Timer(0.4, victim.process.kill)
        timer.start()
        try:
            report, digest = _run_sweep_pin(backend)
        finally:
            timer.cancel()
        assert report.ok  # the death cost no retry
        assert digest == local_digest
        assert not victim.alive
        assert backend.redispatched >= 1

    def test_shutdown_after_a_dropped_session_is_prompt(self):
        """An owned agent whose session died is stopped, not waited on:
        it went back to listening and never hears ``shutdown``."""
        backend = connect_cluster(["local"], agent_jobs=1)
        link = backend.agents()[0]
        try:
            link.channel.close()  # simulate a severed connection
            assert _wait_until(lambda: not link.alive)
        finally:
            started = time.monotonic()
            backend.shutdown()
            elapsed = time.monotonic() - started
        assert elapsed < 5.0
        assert link.process.poll() is not None

    def test_agent_ignores_repro_chaos_in_its_environment(self, monkeypatch):
        """Only the run that reads ``REPRO_CHAOS`` is armed: an agent
        launched under it injects nothing into a calm run."""
        monkeypatch.setenv("REPRO_CHAOS", "off,worker.crash=1.0@1")
        backend = connect_cluster(["local"], agent_jobs=1)
        monkeypatch.delenv("REPRO_CHAOS")
        report = Orchestrator(jobs=1, pool=backend, retries=0).run(
            [_spec(seed=1)]
        )
        assert report.ok, [o.error for o in report.failures]
        assert report.outcomes[0].agent == backend.agents()[0].name
        assert "chaos" not in report.summary

    def test_coordinator_plan_crashes_the_agents_worker(self, tmp_path):
        """The coordinator draws ``worker.crash`` for the agent and
        records it once, in the summary and as a span mark."""
        plan = parse_chaos("off,worker.crash=1.0@1")
        backend = connect_cluster(["local"], agent_jobs=1)
        spans_path = tmp_path / "spans.jsonl"
        report = Orchestrator(
            jobs=1, pool=backend, retries=0, chaos=plan,
        ).run([_spec(seed=1)],
              fleet=FleetConfig(spans=True, spans_path=spans_path))
        outcome, = report.outcomes
        assert outcome.status == "failed"
        assert "worker crashed" in outcome.error
        assert outcome.agent == backend.agents()[0].name
        token = f"{_spec(seed=1).key()}:1"
        assert plan.injections == [("worker.crash", token)]
        assert report.summary["chaos"]["by_site"] == {"worker.crash": 1}
        marks = [
            (r["args"]["site"], r["args"]["token"])
            for r in map(json.loads, spans_path.read_text().splitlines())
            if r.get("event") == "mark" and r.get("phase") == "chaos"
        ]
        assert marks == [("worker.crash", token)]

    def test_outcome_frame_directive_fails_the_crc(self, monkeypatch):
        """An outcome-frame ``transport.corrupt`` directive damages the
        agent's result frame: the coordinator's CRC check catches it,
        the link ends and the job requeues."""
        caught = []
        recv = FrameChannel.recv

        def recording_recv(channel, timeout=None):
            try:
                return recv(channel, timeout)
            except TransportError as exc:
                caught.append(exc)
                raise
        monkeypatch.setattr(FrameChannel, "recv", recording_recv)
        plan = _OutcomeFramesOnly({"transport.corrupt": 1.0}, seed=1)
        backend = connect_cluster(["local"], agent_jobs=1)
        backend.attach_chaos(plan)
        link, = backend.agents()
        spec = _spec(seed=1)
        try:
            job, _, _ = backend.launch(spec.to_dict())
            assert _wait_until(job.poll, timeout_s=60.0)
            assert job.recv()["requeue"] is True
            assert not link.alive
            assert [type(exc) for exc in caught] == [ChecksumError]
            assert plan.injections == [
                ("transport.corrupt", f"outcome:{spec.key()}:1"),
            ]
        finally:
            backend.shutdown()

    def test_hang_directive_trips_the_heartbeat(self):
        """``agent.hang``, drawn by the coordinator, wedges the agent:
        the heartbeat declares it dead and the job requeues."""
        plan = parse_chaos("off,agent.hang=1.0@1")
        # A timeout well under the agent's 2 s hang (CHAOS_HANG_S).
        backend = connect_cluster(["local"], agent_jobs=1, heartbeat_s=0.1,
                                  heartbeat_timeout_s=1.0)
        backend.attach_chaos(plan)
        link, = backend.agents()
        spec = _spec(seed=1)
        try:
            job, _, _ = backend.launch(spec.to_dict())
            assert _wait_until(job.poll, timeout_s=30.0)
            assert job.recv()["requeue"] is True
            assert not link.alive
            assert plan.injections == [("agent.hang", f"{spec.key()}:1")]
        finally:
            backend.shutdown()

    def test_fleet_loss_degrades_to_local_same_digest(
        self, local_digest, tmp_path
    ):
        backend = connect_cluster(["local", "local"], agent_jobs=2)

        def _kill_fleet():
            for link in backend.agents():
                link.process.kill()
        timer = threading.Timer(0.4, _kill_fleet)
        timer.start()
        telemetry_path = tmp_path / "telemetry.jsonl"
        try:
            report = Orchestrator(jobs=4, pool=backend, retries=0).run(
                pinned_sweep_specs(), telemetry_path=telemetry_path
            )
        finally:
            timer.cancel()
            backend.shutdown()
        assert report.ok  # the sweep finished on the local fallback
        assert grid_digest(report.results) == local_digest
        assert report.summary.get("degraded_to_local") is True
        events = [
            json.loads(line)
            for line in telemetry_path.read_text().splitlines()
        ]
        assert any(e.get("event") == "degraded_to_local" for e in events)
