"""Tests for the cluster subsystem: transport, handshake, federation,
scheduling, and end-to-end digest equality against local execution.

The contract under test is the ISSUE's acceptance bar: a sweep run over
remote agents must produce a grid digest byte-identical to the same
sweep run through the local warm pool — including when an agent is
killed mid-run and its jobs are transparently re-dispatched.
"""

import json
import queue
import socket
import struct
import threading
import time
import zlib

import pytest

from repro.cluster import connect_cluster, protocol
from repro.cluster.agent import AgentServer, parse_listen
from repro.cluster.coordinator import AgentLink, ClusterBackend
from repro.cluster.federation import (
    HIT_FULL,
    HIT_SEEDED,
    MISS,
    AgentCache,
    known_keys,
)
from repro.cluster.ssh import parse_host
from repro.cluster.transport import (
    ChecksumError,
    ConnectionClosed,
    FrameChannel,
    TransportError,
)
from repro.energy import EnergyReport
from repro.fastpath.bench import grid_digest, pinned_sweep_specs
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
        from repro.chaos import parse_chaos

        a, b = _channel_pair()
        a.chaos = parse_chaos("off,transport.corrupt=1.0@1")
        a.send({"kind": "result", "id": "j1", "key": "k" * 64})
        with pytest.raises(ChecksumError):
            b.recv(timeout=5.0)
        assert a.chaos.counts.get("transport.corrupt") == 1
        a.close()
        b.close()

    def test_chaos_truncate_injection_severs_connection(self):
        from repro.chaos import parse_chaos

        a, b = _channel_pair()
        a.chaos = parse_chaos("off,transport.truncate=1.0@1")
        a.send({"kind": "result", "id": "j1", "key": "k" * 64})
        with pytest.raises(ConnectionClosed):
            b.recv(timeout=5.0)
        assert a.closed
        b.close()

    def test_control_frames_never_injected(self):
        """Keyless traffic (pings, handshakes) bypasses chaos entirely."""
        from repro.chaos import parse_chaos

        a, b = _channel_pair()
        a.chaos = parse_chaos("heavy,transport.delay=0@9")
        for sequence in range(5):
            a.send({"kind": "ping", "seq": sequence})
        assert [b.recv(timeout=5.0)["seq"] for _ in range(5)] == [
            0, 1, 2, 3, 4
        ]
        assert a.chaos.injections == []
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
# Cache federation
# ----------------------------------------------------------------------

class TestFederation:
    def test_disabled_cache_always_misses(self):
        agent_cache = AgentCache(None)
        assert not agent_cache.enabled
        assert agent_cache.lookup("anything") == (MISS, None)
        agent_cache.store("anything", _synthetic_result())  # no-op, no raise

    def test_hit_full_vs_hit_seeded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _spec().key()
        cache.put(key, _synthetic_result())
        agent_cache = AgentCache(cache)

        status, result = agent_cache.lookup(key)
        assert status == HIT_FULL
        assert result is not None

        agent_cache.seed([key])
        status, result = agent_cache.lookup(key)
        assert status == HIT_SEEDED  # coordinator holds it; ship the key

        assert agent_cache.lookup("absent-key") == (MISS, None)
        assert agent_cache.hits == 2

    def test_known_keys_is_the_cached_subset(self, tmp_path):
        cache = ResultCache(tmp_path)
        held = _spec(seed=1).key()
        cold = _spec(seed=2).key()
        cache.put(held, _synthetic_result())
        assert known_keys(cache, [held, cold]) == [held]
        assert known_keys(None, [held, cold]) == []

    def test_agent_session_answers_from_cache(self, tmp_path):
        """Seeded keys return a result_ref; unseeded hits ship the payload."""
        seeded_key = _spec(seed=1).key()
        full_key = _spec(seed=2).key()
        shared = ResultCache(tmp_path)
        shared.put(seeded_key, _synthetic_result(1.0))
        shared.put(full_key, _synthetic_result(2.0))

        server = AgentServer(once=True, cache_dir=tmp_path)
        agent_side, coordinator_side = _channel_pair()
        thread = threading.Thread(
            target=server._handle_session, args=(agent_side,), daemon=True
        )
        thread.start()
        coordinator_side.send(protocol.hello(code=code_fingerprint()))
        assert coordinator_side.recv(timeout=5.0)["kind"] == "welcome"

        coordinator_side.send(protocol.seed([seeded_key]))
        coordinator_side.send(protocol.job(
            "j1", seeded_key, _spec(seed=1).to_dict()
        ))
        reply = coordinator_side.recv(timeout=10.0)
        assert reply["kind"] == "result_ref"
        assert reply["key"] == seeded_key

        coordinator_side.send(protocol.job(
            "j2", full_key, _spec(seed=2).to_dict()
        ))
        reply = coordinator_side.recv(timeout=10.0)
        assert reply["kind"] == "result"
        assert reply["cached"] is True
        assert reply["result"]["runtime_core_cycles"] == 2.0

        coordinator_side.send(protocol.bye())
        thread.join(timeout=10.0)
        assert server.stats.cache_hits == 2


# ----------------------------------------------------------------------
# Coordinator scheduling (deterministic, over fake in-memory links)
# ----------------------------------------------------------------------

class _FakeChannel:
    """An in-memory stand-in for FrameChannel: records sends, scripted
    receives.  ``hang_up`` makes the reader thread see EOF — the exact
    signal a dead agent's closed socket produces."""

    def __init__(self):
        self.sent = []
        self._incoming = queue.Queue()
        self.chaos = None

    def send(self, message):
        self.sent.append(message)

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
        kwargs.setdefault("speculate", 0)
        return ClusterBackend(links, **kwargs)

    def test_dead_agent_jobs_redispatch_to_survivors(self):
        link_a, link_b = _fake_link("a"), _fake_link("b")
        backend = self._backend([link_a, link_b])
        try:
            job1, _, _ = backend.launch(_spec(seed=1).to_dict())
            job2, _, _ = backend.launch(_spec(seed=2).to_dict())
            # One job landed on each single-slot agent.
            assert len(link_a.channel.sent_of("job")) == 1
            assert len(link_b.channel.sent_of("job")) == 1

            orphan = (job1 if link_a in job1.links else job2)
            link_a.channel.hang_up()
            assert _wait_until(lambda: backend.redispatched == 1)
            assert not link_a.alive
            # The orphan now runs (oversubscribed) on the survivor.
            redispatched_ids = [
                m["id"] for m in link_b.channel.sent_of("job")
            ]
            assert orphan.job_id in redispatched_ids

            for job in (job1, job2):
                link_b.channel.feed(protocol.result(
                    job.job_id, job.key, _synthetic_result().to_dict(),
                    agent="b", wall_s=0.01, cached=False,
                ))
            assert _wait_until(lambda: job1.poll() and job2.poll())
            for job in (job1, job2):
                payload = job.recv()
                assert payload["status"] == "ok"
                assert payload["agent"] == "b"
        finally:
            backend.shutdown()

    def test_last_agent_death_settles_an_error(self):
        link_a = _fake_link("a")
        backend = self._backend([link_a])
        try:
            job, _, _ = backend.launch(_spec(seed=1).to_dict())
            link_a.channel.hang_up()
            assert _wait_until(job.poll)
            payload = job.recv()
            assert payload["status"] == "error"
            assert "no agent survives" in payload["error"]
            assert backend.redispatched == 0
        finally:
            backend.shutdown()

    def test_tail_jobs_speculate_and_loser_is_cancelled(self):
        link_a, link_b = _fake_link("a"), _fake_link("b")
        backend = self._backend(
            [link_a, link_b], speculate=2, speculate_after_s=0.0
        )
        try:
            job, _, _ = backend.launch(_spec(seed=1).to_dict())
            # The tail is 1 unsettled job; the idle agent gets a copy.
            assert _wait_until(lambda: backend.speculated >= 1)
            first, second = (
                (link_a, link_b) if link_a in job.links else (link_b, link_a)
            )
            assert len(job.links) == 2
            second.channel.feed(protocol.result(
                job.job_id, job.key, _synthetic_result().to_dict(),
                agent=second.name, wall_s=0.01, cached=False,
            ))
            assert _wait_until(job.poll)
            assert job.recv()["agent"] == second.name
            # The slower copy was cancelled, not left running.
            assert _wait_until(
                lambda: any(m["id"] == job.job_id
                            for m in first.channel.sent_of("cancel"))
            )
        finally:
            backend.shutdown()

    def test_result_ref_rehydrates_from_coordinator_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        link_a = _fake_link("a")
        backend = self._backend([link_a], cache=cache)
        try:
            spec = _spec(seed=1)
            cache.put(spec.key(), _synthetic_result(7.0))
            backend.prepare([spec.key()])  # the orchestrator pre-run hook
            assert [m["keys"] for m in link_a.channel.sent_of("seed")] == [
                [spec.key()]
            ]
            job, _, _ = backend.launch(spec.to_dict())
            link_a.channel.feed(protocol.result_ref(
                job.job_id, spec.key(), agent="a"
            ))
            assert _wait_until(job.poll)
            payload = job.recv()
            assert payload["status"] == "ok"
            assert payload["cached"] is True
            assert payload["result"]["runtime_core_cycles"] == 7.0
        finally:
            backend.shutdown()

    def test_corrupt_frame_quarantines_and_redispatches(self):
        link_a, link_b = _fake_link("a"), _fake_link("b")
        backend = self._backend([link_a, link_b])
        try:
            job, _, _ = backend.launch(_spec(seed=1).to_dict())
            first = next(iter(job.links))
            survivor = link_b if first is link_a else link_a
            first.channel.feed(ChecksumError("bit flip in flight"))
            assert _wait_until(lambda: first.quarantined)
            assert not first.alive
            assert backend.quarantined_agents == 1
            # The orphaned job moved to the surviving agent.
            assert _wait_until(
                lambda: any(m["id"] == job.job_id
                            for m in survivor.channel.sent_of("job"))
            )
            assert backend.redispatched == 1
        finally:
            backend.shutdown()

    def test_last_agent_death_requeues_not_retries(self):
        """The no-survivor mailbox is a requeue marker, not a failure."""
        link_a = _fake_link("a")
        backend = self._backend([link_a])
        try:
            job, _, _ = backend.launch(_spec(seed=1).to_dict())
            link_a.channel.hang_up()
            assert _wait_until(job.poll)
            payload = job.recv()
            assert payload["status"] == "error"
            assert payload["requeue"] is True
        finally:
            backend.shutdown()

    def test_breaker_opens_after_reconnect_strikes(self):
        # A dialable-but-refusing address: every probe strikes out.
        link = AgentLink(channel=_FakeChannel(), name="a", slots=1,
                         address="127.0.0.1:1")
        backend = self._backend(
            [link], backoff_base_s=0.01, backoff_cap_s=0.02,
            half_open_s=0.05, breaker_threshold=2,
        )
        try:
            link.channel.hang_up()
            assert _wait_until(lambda: link.quarantined, timeout_s=20.0)
            assert backend.quarantined_agents == 1
            assert backend.backoff_retries >= 2
            strikes_at_open = link.strikes
            # Half-open probes keep testing the quarantined agent.
            assert _wait_until(lambda: link.strikes > strikes_at_open,
                               timeout_s=20.0)
            assert not link.alive
        finally:
            backend.shutdown()

    def test_unparseable_address_is_never_probed(self):
        link = _fake_link("a")  # address "fake:a" cannot be dialed
        backend = self._backend([link], backoff_base_s=0.01)
        try:
            link.channel.hang_up()
            assert _wait_until(lambda: not link.alive)
            time.sleep(0.3)  # several heartbeat ticks
            assert backend.backoff_retries == 0
            assert link.next_probe is None
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
        assert report.ok  # the orchestrator never saw the death
        assert digest == local_digest
        assert not victim.alive
        assert backend.redispatched >= 1

    def test_dropped_session_is_revived_by_a_probe(self):
        # The agent process keeps listening after a session drop; the
        # coordinator's backoff probes must re-pair it transparently.
        backend = connect_cluster(
            ["local"], agent_jobs=1,
            heartbeat_s=0.05, backoff_base_s=0.05, backoff_cap_s=0.2,
        )
        try:
            link = backend.agents()[0]
            link.channel.close()  # simulate a severed connection
            assert _wait_until(lambda: backend.revived >= 1 and link.alive,
                               timeout_s=20.0)
            assert link.strikes == 0 and not link.quarantined
            # The revived session still runs jobs end to end.
            job, _, _ = backend.launch(_spec(seed=3).to_dict())
            assert _wait_until(job.poll, timeout_s=30.0)
            assert job.recv()["status"] == "ok"
        finally:
            backend.shutdown()

    def test_fleet_loss_degrades_to_local_same_digest(
        self, local_digest, tmp_path
    ):
        backend = connect_cluster(
            ["local", "local"], agent_jobs=2, revive=False
        )
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
