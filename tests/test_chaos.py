"""Tests for repro.chaos: the spec grammar, decision determinism, and
the hardening each injection site exercises — checksum-verified cache
reads, manifest torn-tail self-healing, poison-job quarantine — plus the
deliverable invariant: a sweep under ``--chaos default@seed`` converges
to the byte-identical grid digest of a calm run, and the calm path never
imports the chaos package at all.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.chaos import (
    MAX_DELAY_S,
    PROFILES,
    SITES,
    ChaosPlan,
    ChaosSpecError,
    chaos_from_env,
    parse_chaos,
)
from repro.energy import EnergyReport
from repro.orchestrator import JobSpec, Orchestrator, ResultCache, RunManifest
from repro.sim.runner import ExperimentScale
from repro.sim.simulator import SimulationResult

SCALE = ExperimentScale(name="chaos-test", factor=64, cores=2,
                        records_per_core=80, warmup_per_core=20)


def _spec(benchmark="STREAM", system="baseline", seed=1):
    return JobSpec(benchmark=benchmark, system=system, seed=seed,
                   scale=SCALE)


# -- injected runner (module-level: it crosses the process boundary) ----

def fake_run(spec: JobSpec) -> SimulationResult:
    return SimulationResult(
        system=spec.system, workload=spec.benchmark,
        runtime_core_cycles=1000.0 + spec.seed,
        runtime_bus_cycles=500.0 + spec.seed,
        instructions=10_000, llc_misses=100, llc_accesses=1_000,
        memory_requests_by_kind={"read": 7},
        forwarded_reads=0, bytes_transferred=64_000,
        mean_read_latency_bus_cycles=40.0,
        energy=EnergyReport(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        row_buffer_outcomes={"hit": 1, "miss": 2, "empty": 0},
    )


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------

class TestSpecGrammar:
    def test_off_and_empty_are_no_plan(self):
        assert parse_chaos("off") is None
        assert parse_chaos("") is None
        assert parse_chaos("off@7") is None

    def test_profile_with_seed(self):
        plan = parse_chaos("default@7")
        assert plan.seed == 7
        assert plan.rates == PROFILES["default"]
        assert plan.active

    def test_single_site_override(self):
        plan = parse_chaos("off,transport.corrupt=1.0@3")
        assert plan.rates == {"transport.corrupt": 1.0}
        assert plan.seed == 3

    def test_zero_override_removes_a_site(self):
        plan = parse_chaos("default,worker.crash=0@1")
        assert "worker.crash" not in plan.rates
        assert plan.rates["worker.oom"] == PROFILES["default"]["worker.oom"]

    def test_heavy_rates_dominate_default(self):
        heavy, default = PROFILES["heavy"], PROFILES["default"]
        assert set(heavy) == set(default)
        assert all(heavy[s] >= default[s] for s in default)

    @pytest.mark.parametrize("bad", [
        "nosuchprofile@1",            # unknown profile
        "worker.crash=1.0",           # override without a profile
        "default,worker.crash",       # override without a rate
        "default,worker.crash=lots",  # non-numeric rate
        "default,nosuch.site=0.5",    # unknown site
        "default,worker.crash=1.5",   # rate out of range
        "default@soon",               # non-integer seed
        ",",                          # empty after split
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ChaosSpecError):
            parse_chaos(bad)

    def test_describe_round_trips(self):
        plan = parse_chaos("default,agent.hang=0.5@9")
        again = parse_chaos(plan.describe())
        assert again.rates == plan.rates
        assert again.seed == plan.seed

    def test_chaos_from_env(self):
        assert chaos_from_env({}) is None
        assert chaos_from_env({"REPRO_CHAOS": "off"}) is None
        plan = chaos_from_env({"REPRO_CHAOS": "default@4"})
        assert plan.seed == 4

    def test_profiles_cover_only_known_sites(self):
        for profile, rates in PROFILES.items():
            assert set(rates) <= set(SITES), profile


# ----------------------------------------------------------------------
# Decision determinism
# ----------------------------------------------------------------------

class TestDecisions:
    def test_same_seed_same_verdicts(self):
        tokens = [f"STREAM/baseline/s{i}:1" for i in range(64)]
        a, b = parse_chaos("default@11"), parse_chaos("default@11")
        for site in SITES:
            for token in tokens:
                assert a.should(site, token) == b.should(site, token)
        assert a.injections == b.injections
        assert a.counts == b.counts

    def test_different_seed_differs_somewhere(self):
        tokens = [f"job{i}" for i in range(256)]
        a, b = parse_chaos("default@1"), parse_chaos("default@2")
        verdicts_a = [a.should(s, t) for s in SITES for t in tokens]
        verdicts_b = [b.should(s, t) for s in SITES for t in tokens]
        assert verdicts_a != verdicts_b

    def test_rate_bounds(self):
        always = ChaosPlan({"worker.crash": 1.0}, seed=5)
        never = ChaosPlan({"worker.crash": 1.0}, seed=5)
        for index in range(32):
            assert always.should("worker.crash", f"t{index}")
            assert not never.should("worker.slow", f"t{index}")
        assert always.counts == {"worker.crash": 32}

    def test_rate_is_approximately_honoured(self):
        plan = ChaosPlan({"worker.slow": 0.1}, seed=3)
        hits = sum(plan.should("worker.slow", f"tok{i}")
                   for i in range(2000))
        assert 120 <= hits <= 280  # 0.1 +- a wide deterministic margin

    def test_delay_is_bounded_and_deterministic(self):
        plan = parse_chaos("default@8")
        delays = [plan.delay_s("worker.slow", f"t{i}") for i in range(64)]
        assert all(0.0 < d <= MAX_DELAY_S for d in delays)
        again = parse_chaos("default@8")
        assert delays == [again.delay_s("worker.slow", f"t{i}")
                          for i in range(64)]

    def test_summary_shape(self):
        plan = parse_chaos("off,worker.crash=1.0@2")
        plan.should("worker.crash", "a")
        plan.should("worker.crash", "b")
        summary = plan.summary()
        assert summary["spec"] == "off,worker.crash=1.0@2"
        assert summary["seed"] == 2
        assert summary["injections"] == 2
        assert summary["by_site"] == {"worker.crash": 2}


# ----------------------------------------------------------------------
# Cache hardening
# ----------------------------------------------------------------------

class TestCacheHardening:
    def _cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec(seed=1)
        key = spec.key(include_code=False)
        assert cache.put(key, fake_run(spec)) is not None
        return cache, key

    def test_truncated_entry_is_a_miss_and_unlinked(self, tmp_path):
        cache, key = self._cached(tmp_path)
        path = cache.path(key)
        path.write_bytes(path.read_bytes()[:40])
        assert cache.get(key) is None
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.misses == 1
        assert not path.exists()  # cannot keep masquerading as a hit

    def test_checksum_mismatch_is_a_miss(self, tmp_path):
        cache, key = self._cached(tmp_path)
        path = cache.path(key)
        payload = json.loads(path.read_text())
        payload["result"]["runtime_core_cycles"] = 123456.0  # bit rot
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert cache.stats.corrupt_entries == 1
        assert not path.exists()

    def test_legacy_entry_without_checksum_still_hits(self, tmp_path):
        cache, key = self._cached(tmp_path)
        path = cache.path(key)
        payload = json.loads(path.read_text())
        del payload["sha256"]  # entry written before checksums existed
        path.write_text(json.dumps(payload))
        result = cache.get(key)
        assert result == fake_run(_spec(seed=1))
        assert cache.stats.hits == 1
        assert cache.stats.corrupt_entries == 0

    def test_torn_read_chaos_recovers_as_a_miss(self, tmp_path):
        cache, key = self._cached(tmp_path)
        cache.chaos = parse_chaos("off,cache.torn_read=1.0@1")
        assert cache.get(key) is None
        assert cache.stats.corrupt_entries == 1
        assert cache.chaos.counts == {"cache.torn_read": 1}
        # The torn entry was unlinked; a re-put makes it whole again.
        cache.chaos = None
        assert cache.put(key, fake_run(_spec(seed=1))) is not None
        assert cache.get(key) == fake_run(_spec(seed=1))

    def test_disk_full_chaos_degrades_put_to_a_counted_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.chaos = parse_chaos("off,cache.disk_full=1.0@1")
        key = _spec(seed=2).key(include_code=False)
        assert cache.put(key, fake_run(_spec(seed=2))) is None
        assert cache.stats.put_errors == 1
        assert cache.stats.stores == 0
        assert key not in cache


# ----------------------------------------------------------------------
# Manifest self-healing
# ----------------------------------------------------------------------

class TestManifestHealing:
    def test_recover_truncates_a_torn_tail(self, tmp_path):
        manifest = RunManifest(tmp_path / "run")
        manifest.record({"key": "k1", "status": "done"})
        manifest.record({"key": "k2", "status": "done"})
        log = tmp_path / "run" / "manifest.jsonl"
        with open(log, "a") as handle:
            handle.write('{"key": "k3", "stat')  # killed mid-append
        dropped = manifest.recover()
        assert dropped == len('{"key": "k3", "stat')
        assert manifest.recovered_bytes == dropped
        assert manifest.job_statuses() == {"k1": "done", "k2": "done"}
        assert manifest.recover() == 0  # already clean

    def test_record_self_heals_before_appending(self, tmp_path):
        manifest = RunManifest(tmp_path / "run")
        manifest.record({"key": "k1", "status": "done"})
        log = tmp_path / "run" / "manifest.jsonl"
        with open(log, "a") as handle:
            handle.write('{"torn": tr')  # fragment from a killed run
        manifest.record({"key": "k2", "status": "done"})
        lines = log.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == ["k1", "k2"]

    def test_torn_append_chaos_is_healed_on_resume(self, tmp_path):
        manifest = RunManifest(tmp_path / "run")
        manifest.chaos = parse_chaos("off,manifest.torn_append=1.0@1")
        manifest.record({"key": "k1", "status": "done"})
        manifest.record({"key": "k2", "status": "done"})
        log = tmp_path / "run" / "manifest.jsonl"
        assert not log.read_text().endswith("\n")  # the torn fragment
        # A resume constructs a fresh manifest and recovers the log.
        resumed = RunManifest(tmp_path / "run")
        assert resumed.recover() > 0
        assert resumed.job_statuses() == {"k1": "done", "k2": "done"}

    def test_empty_and_absent_logs_recover_to_zero(self, tmp_path):
        manifest = RunManifest(tmp_path / "run")
        assert manifest.recover() == 0  # absent
        (tmp_path / "run" / "manifest.jsonl").write_text("")
        assert manifest.recover() == 0  # empty


# ----------------------------------------------------------------------
# Poison-job quarantine
# ----------------------------------------------------------------------

class TestPoisonQuarantine:
    def test_every_attempt_crashing_marks_the_job_poisoned(self, tmp_path):
        report = Orchestrator(
            jobs=1, runner=fake_run, retries=1, backoff_s=0.01,
            chaos=parse_chaos("off,worker.crash=1.0@1"),
        ).run([_spec(seed=1)], run_dir=tmp_path / "run")
        outcome, = report.outcomes
        assert outcome.status == "failed"
        assert outcome.poisoned is True
        assert outcome.error.startswith("poisoned: ")
        assert outcome.attempts == 2
        entries = [
            json.loads(line) for line in
            (tmp_path / "run" / "manifest.jsonl").read_text().splitlines()
        ]
        terminal = [e for e in entries if e.get("status") == "failed"]
        assert terminal and terminal[-1]["poisoned"] is True
        assert report.summary["chaos"]["by_site"] == {"worker.crash": 2}

    def test_one_crash_then_success_is_not_poison(self, tmp_path):
        # Seed 7 is pinned so attempt 1's token draws an injection and
        # attempt 2's does not: the retry machinery absorbs a transient
        # crash without marking the job poison.
        plan = parse_chaos("off,worker.crash=0.5@7")
        label = _spec(seed=1).describe()
        assert plan.should("worker.crash", f"{label}:1")
        assert not plan.should("worker.crash", f"{label}:2")
        report = Orchestrator(
            jobs=1, runner=fake_run, retries=2, backoff_s=0.01,
            chaos=parse_chaos("off,worker.crash=0.5@7"),
        ).run([_spec(seed=1)])
        outcome, = report.outcomes
        assert outcome.status == "done"
        assert outcome.poisoned is False
        assert outcome.result == fake_run(_spec(seed=1))


# ----------------------------------------------------------------------
# The deliverable invariant: chaos never changes the answer
# ----------------------------------------------------------------------

def _result_digests(report):
    return [
        hashlib.sha256(
            json.dumps(o.result.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        for o in report.outcomes
    ]


class TestDigestInvariant:
    SPECS = [
        _spec(benchmark=b, system=s, seed=seed)
        for b in ("STREAM",) for s in ("baseline", "ideal")
        for seed in (1, 2)
    ]

    def test_chaotic_run_matches_calm_run(self):
        calm = Orchestrator(jobs=2, runner=fake_run).run(self.SPECS)
        chaotic = Orchestrator(
            jobs=2, runner=fake_run, retries=3, backoff_s=0.01,
            chaos=parse_chaos("default,transport.delay=0@7"),
        ).run(self.SPECS)
        assert calm.ok and chaotic.ok
        assert _result_digests(chaotic) == _result_digests(calm)
        assert chaotic.summary["chaos"]["spec"] == \
            "default,transport.delay=0@7"
        assert "chaos" not in calm.summary

    def test_identical_chaotic_runs_inject_identically(self):
        def run_once():
            plan = parse_chaos("default@7")
            Orchestrator(
                jobs=2, runner=fake_run, retries=3, backoff_s=0.01,
                chaos=plan,
            ).run(self.SPECS)
            return plan.summary()
        first, second = run_once(), run_once()
        assert first == second

    def test_env_var_arms_the_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "off,worker.slow=1.0@3")
        report = Orchestrator(jobs=1, runner=fake_run).run(
            [_spec(seed=1)]
        )
        assert report.ok
        assert report.summary["chaos"]["by_site"] == {"worker.slow": 1}

    def test_calm_path_never_imports_chaos(self):
        """Zero cost when off: a plain sweep must not load repro.chaos."""
        snippet = (
            "import sys\n"
            "from repro.sim.runner import ExperimentScale\n"
            "from repro.sim.sweep import run_sweep\n"
            "scale = ExperimentScale(name='z', factor=64, cores=1,\n"
            "    records_per_core=40, warmup_per_core=0)\n"
            "sweep = run_sweep(benchmarks=['STREAM'],\n"
            "    systems=['baseline'], seeds=(1,), scale=scale, jobs=2)\n"
            "assert len(sweep.points) == 1\n"
            "assert 'repro.chaos' not in sys.modules, 'chaos was imported'\n"
            "print('calm')\n"
        )
        repo = pathlib.Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CHAOS"}
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.run(
            [sys.executable, "-c", snippet], env=env, cwd=str(repo),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "calm"

    def test_calm_agent_imports_chaos_only_for_a_directive(self):
        """An agent holds no plan: it loads repro.chaos only when a job
        frame carries a chaos directive, never for a calm job."""
        snippet = (
            "import socket, sys, threading\n"
            "from repro.cluster import protocol\n"
            "from repro.cluster.agent import AgentServer\n"
            "from repro.cluster.transport import FrameChannel\n"
            "from repro.orchestrator.jobs import JobSpec, code_fingerprint\n"
            "from repro.sim.runner import ExperimentScale\n"
            "left, right = socket.socketpair()\n"
            "coordinator = FrameChannel(right)\n"
            "server = AgentServer(once=True, announce=lambda *a, **k: None)\n"
            "thread = threading.Thread(target=server._handle_session,\n"
            "    args=(FrameChannel(left),), daemon=True)\n"
            "thread.start()\n"
            "coordinator.send(protocol.hello(code_fingerprint()))\n"
            "assert coordinator.recv(timeout=30)['kind'] == 'welcome'\n"
            "scale = ExperimentScale(name='z', factor=64, cores=1,\n"
            "    records_per_core=40, warmup_per_core=0)\n"
            "for n, directive in enumerate([None, {'worker.slow': 0.001}]):\n"
            "    spec = JobSpec(benchmark='STREAM', system='baseline',\n"
            "                   seed=n + 1, scale=scale)\n"
            "    coordinator.send(protocol.job(f'j{n}', spec.key(),\n"
            "        spec.to_dict(), chaos=directive))\n"
            "    assert coordinator.recv(timeout=60)['kind'] == 'result'\n"
            "    print('repro.chaos' in sys.modules)\n"
            "coordinator.send(protocol.bye())\n"
            "thread.join(timeout=30)\n"
        )
        repo = pathlib.Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CHAOS"}
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.run(
            [sys.executable, "-c", snippet], env=env, cwd=str(repo),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]
