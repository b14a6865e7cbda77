"""Tests for the warm worker pool: golden equality and fault paths.

The pool's contract is strict: results must be byte-identical to
spawn-per-job mode (the memo caches warm workers share hold only pure
functions), and every fault behaviour of the original orchestrator —
per-job timeouts, retries, crash dumps, aborted-summary flushes — must
survive the move to persistent workers.
"""

import contextlib
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.energy import EnergyReport
from repro.orchestrator import (
    JobSpec,
    Orchestrator,
    WorkerStartupError,
)
from repro.orchestrator.workers import WarmPoolBackend
from repro.obs.crashdump import load_crash_dump, replay_from_dump
from repro.sim.runner import ExperimentScale
from repro.sim.simulator import SimulationResult
from repro.sim.sweep import run_sweep

SCALE = ExperimentScale(name="warm-test", factor=64, cores=2,
                        records_per_core=80, warmup_per_core=20)
SYSTEMS = ["baseline", "metadata_cache", "attache", "ideal"]


def _spec(benchmark="STREAM", system="baseline", seed=1, **parameters):
    return JobSpec(benchmark=benchmark, system=system, seed=seed,
                   scale=SCALE, parameters=parameters)


def _digests(results):
    return [
        hashlib.sha256(
            json.dumps(r.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()
        for r in results
    ]


# -- injected runners (module-level: they cross process bounds) ----------

def pid_run(spec: JobSpec) -> SimulationResult:
    """Synthetic result that records which worker process ran the job."""
    return SimulationResult(
        system=spec.system, workload=spec.benchmark,
        runtime_core_cycles=float(os.getpid()),
        runtime_bus_cycles=1.0,
        instructions=1, llc_misses=0, llc_accesses=1,
        memory_requests_by_kind={}, forwarded_reads=0, bytes_transferred=0,
        mean_read_latency_bus_cycles=0.0,
        energy=EnergyReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        row_buffer_outcomes={},
    )


def boom_on_ideal(spec: JobSpec) -> SimulationResult:
    if spec.system == "ideal":
        raise RuntimeError("ideal exploded")
    return pid_run(spec)


def sleepy_on_ideal(spec: JobSpec) -> SimulationResult:
    if spec.system == "ideal":
        time.sleep(60.0)
    return pid_run(spec)


def _is_live_worker(pid):
    """True while *pid* runs the orphan test's snippet (a zombie's
    cmdline is empty, and a reused PID runs something else)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"WarmPoolBackend" in handle.read()
    except OSError:
        return False


def _worker_pids(report):
    return [int(o.result.runtime_core_cycles) for o in report.outcomes
            if o.result is not None]


# ----------------------------------------------------------------------
# Golden equality: pooled results are bit-identical to spawn-per-job
# ----------------------------------------------------------------------

class TestGoldenEquality:
    GRID = dict(benchmarks=["mix1"], systems=SYSTEMS, seeds=[7, 8],
                scale=SCALE)

    def test_warm_matches_spawn(self):
        spawn = run_sweep(jobs=1, pool="spawn", cache_dir=None, **self.GRID)
        warm = run_sweep(jobs=1, pool="warm", cache_dir=None, **self.GRID)
        assert not spawn.failures and not warm.failures
        assert _digests([p.result for p in warm.points]) == _digests(
            [p.result for p in spawn.points]
        )
        assert warm.to_csv() == spawn.to_csv()

    def test_warm_matches_spawn_with_obs(self):
        from repro.obs import ObsConfig

        obs = ObsConfig(epoch_cycles=512.0, trace=False)
        spawn = run_sweep(jobs=1, pool="spawn", obs=obs, **self.GRID)
        warm = run_sweep(jobs=1, pool="warm", obs=obs, **self.GRID)
        assert not spawn.failures and not warm.failures
        assert _digests([p.result for p in warm.points]) == _digests(
            [p.result for p in spawn.points]
        )
        # The obs channel actually carried data (schema v2 payloads).
        assert all(p.result.obs is not None for p in warm.points)


# ----------------------------------------------------------------------
# Pool mechanics
# ----------------------------------------------------------------------

class TestPoolMechanics:
    def test_workers_are_reused_across_jobs(self):
        specs = [_spec(seed=s) for s in range(1, 5)]
        report = Orchestrator(jobs=1, pool="warm", runner=pid_run).run(specs)
        assert report.ok
        assert len(set(_worker_pids(report))) == 1

    def test_recycle_after_replaces_the_worker(self):
        specs = [_spec(seed=s) for s in range(1, 4)]
        report = Orchestrator(jobs=1, pool="warm", runner=pid_run,
                              recycle_after=1).run(specs)
        assert report.ok
        pids = _worker_pids(report)
        assert len(set(pids)) == len(pids)

    def test_recycle_boundary_lands_exactly_on_the_threshold(self):
        """With recycle_after=2 and five jobs on one slot, the worker is
        replaced after its second and fourth job — never mid-budget."""
        specs = [_spec(seed=s) for s in range(1, 6)]
        report = Orchestrator(jobs=1, pool="warm", runner=pid_run,
                              recycle_after=2).run(specs)
        assert report.ok
        pids = _worker_pids(report)
        assert pids[0] == pids[1]  # first worker serves its full budget
        assert pids[1] != pids[2]  # recycled exactly at the threshold
        assert pids[2] == pids[3]
        assert pids[3] != pids[4]
        assert len(set(pids)) == 3

    def test_spawn_mode_uses_fresh_processes(self):
        specs = [_spec(seed=s) for s in range(1, 4)]
        report = Orchestrator(jobs=1, pool="spawn", runner=pid_run).run(specs)
        pids = _worker_pids(report)
        assert len(set(pids)) == len(pids)

    def test_job_error_does_not_kill_the_worker(self):
        """A job exception is reported and the same worker keeps serving."""
        specs = [_spec(seed=1), _spec(seed=2, system="ideal"),
                 _spec(seed=3)]
        report = Orchestrator(jobs=1, pool="warm", runner=boom_on_ideal,
                              retries=0).run(specs)
        statuses = [o.status for o in report.outcomes]
        assert statuses == ["done", "failed", "done"]
        assert "ideal exploded" in report.outcomes[1].error
        # Both successful jobs ran in the one surviving worker.
        assert len(set(_worker_pids(report))) == 1

    def test_invalid_pool_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            Orchestrator(pool="lukewarm")

    def test_invalid_recycle_rejected(self):
        with pytest.raises(ValueError, match="recycle_after"):
            WarmPoolBackend(None, pid_run, recycle_after=0)


# ----------------------------------------------------------------------
# Fault paths
# ----------------------------------------------------------------------

class TestFaultPaths:
    def test_timeout_kills_one_worker_not_the_siblings(self):
        """The hung job's worker dies; in-flight siblings finish and new
        jobs keep being served by replacement workers."""
        specs = [_spec(seed=1), _spec(seed=2, system="ideal"),
                 _spec(seed=3), _spec(seed=4)]
        report = Orchestrator(jobs=2, pool="warm", runner=sleepy_on_ideal,
                              timeout_s=1.0, retries=0).run(specs)
        by_seed = {o.spec.seed: o for o in report.outcomes}
        assert by_seed[2].status == "failed"
        assert "timeout" in by_seed[2].error
        assert all(by_seed[s].status == "done" for s in (1, 3, 4))

    def test_pooled_failure_leaves_a_replayable_crash_dump(self, tmp_path):
        run_dir = tmp_path / "run"
        specs = [_spec(seed=1), _spec(seed=2, system="ideal")]
        report = Orchestrator(jobs=1, pool="warm", runner=boom_on_ideal,
                              retries=0).run(specs, run_dir=run_dir)
        failed = report.outcomes[1]
        assert failed.status == "failed"
        assert failed.crash_dump is not None
        dump = load_crash_dump(failed.crash_dump)
        assert "ideal exploded" in dump["error"]
        # The replay harness re-runs the real job in-process (the
        # injected runner was what exploded, not the simulation).
        result = replay_from_dump(dump)
        assert isinstance(result, SimulationResult)
        assert result.system == "ideal"

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """A SIGKILLed parent never sends exit; its warm workers must see
        EOF on their pipes and exit instead of lingering as orphans."""
        snippet = (
            "import multiprocessing, os, signal\n"
            "from repro.orchestrator.workers import WarmPoolBackend\n"
            "ctx = multiprocessing.get_context('fork')\n"
            "backend = WarmPoolBackend(ctx, runner=None)\n"
            "for _ in range(2):\n"
            "    print(backend._spawn_worker().process.pid, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        repo = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        out = tmp_path / "pids.txt"
        with open(out, "w") as stdout:
            proc = subprocess.run([sys.executable, "-c", snippet], env=env,
                                  stdout=stdout, timeout=60)
        pids = [int(line) for line in out.read_text().split()]
        try:
            assert proc.returncode == -signal.SIGKILL
            assert len(pids) == 2
            deadline = time.monotonic() + 10.0
            while (any(_is_live_worker(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            survivors = [pid for pid in pids if _is_live_worker(pid)]
            assert not survivors, f"workers {survivors} outlived the parent"
        finally:
            for pid in filter(_is_live_worker, pids):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    def test_worker_startup_error_flushes_aborted_summary(
        self, tmp_path, monkeypatch
    ):
        def refuse(self):
            raise WorkerStartupError("no more processes")

        monkeypatch.setattr(WarmPoolBackend, "_spawn_worker", refuse)
        telemetry_path = tmp_path / "telemetry.jsonl"
        with pytest.raises(WorkerStartupError):
            Orchestrator(jobs=1, pool="warm", runner=pid_run).run(
                [_spec()], telemetry_path=telemetry_path
            )
        records = [
            json.loads(line)
            for line in telemetry_path.read_text("utf-8").splitlines()
        ]
        assert records[-1]["event"] == "summary"
        assert records[-1]["aborted"] is True

    def test_crashed_idle_worker_is_replaced_on_next_launch(self):
        specs = [_spec(seed=s) for s in range(1, 4)]
        orchestrator = Orchestrator(jobs=1, pool="warm", runner=pid_run)
        report = orchestrator.run(specs)
        assert report.ok  # baseline: pool survives a full run

    def test_auto_jobs_resolves_to_integer(self):
        orchestrator = Orchestrator(jobs="auto", pool="warm", runner=pid_run)
        report = orchestrator.run([_spec(seed=s) for s in (1, 2)])
        assert report.ok
        assert isinstance(orchestrator.jobs, int)
        assert orchestrator.jobs >= 1

    def test_summary_records_backend_and_requested_jobs(self, tmp_path):
        """`--jobs auto` telemetry keeps what was asked for (auto), what
        it resolved to (workers) and which backend kind executed."""
        telemetry_path = tmp_path / "telemetry.jsonl"
        orchestrator = Orchestrator(jobs="auto", pool="warm", runner=pid_run)
        report = orchestrator.run(
            [_spec(seed=s) for s in (1, 2)], telemetry_path=telemetry_path
        )
        assert report.ok
        records = [
            json.loads(line)
            for line in telemetry_path.read_text("utf-8").splitlines()
        ]
        summary = records[-1]
        assert summary["event"] == "summary"
        assert summary["backend"] == "warm"
        assert summary["jobs_requested"] == "auto"
        assert summary["workers"] == orchestrator.jobs
