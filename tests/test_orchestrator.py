"""Tests for repro.orchestrator: keys, cache, pool, manifest, telemetry.

Failure-path coverage uses injected runners (module-level so they cross
the worker-process boundary): a crashing runner must yield a ``failed``
manifest entry while the sweep completes, a hanging runner must be
retried then given up on, and a cache hit must return a bit-identical
result without ever spawning a worker.
"""

import json
import time

import pytest

from repro.core.copr import CoprConfig
from repro.energy import EnergyReport
from repro.orchestrator import (
    JobSpec,
    Orchestrator,
    ResultCache,
    RunManifest,
    execute_job,
)
from repro.sim.runner import ExperimentScale
from repro.sim.simulator import SimulationResult
from repro.sim.sweep import run_sweep

SCALE = ExperimentScale(name="orch-test", factor=64, cores=2,
                        records_per_core=200, warmup_per_core=0)


def _spec(benchmark="STREAM", system="baseline", seed=1, **parameters):
    return JobSpec(benchmark=benchmark, system=system, seed=seed,
                   scale=SCALE, parameters=parameters)


# -- injected runners (must be importable: they cross process bounds) ----

def fake_run(spec: JobSpec) -> SimulationResult:
    """Deterministic synthetic result — no simulation, just data."""
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


def boom_run(spec: JobSpec) -> SimulationResult:
    raise RuntimeError(f"boom on {spec.benchmark}")


def boom_on_ideal(spec: JobSpec) -> SimulationResult:
    if spec.system == "ideal":
        raise RuntimeError("ideal exploded")
    return fake_run(spec)


def sleepy_run(spec: JobSpec) -> SimulationResult:
    time.sleep(60.0)
    return fake_run(spec)


class TestJobKeys:
    def test_same_spec_same_key(self):
        assert _spec().key() == _spec().key()

    def test_axes_change_the_key(self):
        base = _spec().key()
        assert _spec(seed=2).key() != base
        assert _spec(system="ideal").key() != base
        assert _spec(benchmark="mcf").key() != base
        assert _spec(metadata_policy="drrip").key() != base
        other_scale = JobSpec(benchmark="STREAM", system="baseline", seed=1,
                              scale=ExperimentScale(name="orch-test", factor=32,
                                                    cores=2,
                                                    records_per_core=200,
                                                    warmup_per_core=0))
        assert other_scale.key() != base

    def test_config_dataclasses_participate(self):
        a = _spec(copr_config=CoprConfig(papr_entries=1024, lipr_entries=256))
        b = _spec(copr_config=CoprConfig(papr_entries=2048, lipr_entries=256))
        assert a.key() != b.key()

    def test_spec_round_trips_with_config_params(self):
        spec = _spec(copr_config=CoprConfig(papr_entries=1024,
                                            lipr_entries=256),
                     metadata_policy="lru")
        payload = json.loads(json.dumps(spec.to_dict()))
        assert JobSpec.from_dict(payload) == spec

    def test_unhashable_parameter_rejected(self):
        with pytest.raises(TypeError):
            _spec(weird=object()).key()


class TestPool:
    def test_parallel_run_completes_all(self, tmp_path):
        specs = [_spec(seed=s, system=sys_)
                 for s in (1, 2) for sys_ in ("baseline", "ideal")]
        report = Orchestrator(jobs=4, runner=fake_run).run(specs)
        assert [o.status for o in report.outcomes] == ["done"] * 4
        assert report.ok
        # Results come back in input order, bit-identical to the runner's.
        for spec, outcome in zip(specs, report.outcomes):
            assert outcome.result == fake_run(spec)

    def test_worker_exception_fails_point_sweep_completes(self, tmp_path):
        specs = [_spec(system="baseline"), _spec(system="ideal"),
                 _spec(system="metadata_cache")]
        report = Orchestrator(
            jobs=2, runner=boom_on_ideal, retries=1, backoff_s=0.01,
        ).run(specs, run_dir=tmp_path / "run")
        statuses = {o.spec.system: o.status for o in report.outcomes}
        assert statuses == {"baseline": "done", "ideal": "failed",
                            "metadata_cache": "done"}
        failed = report.failures[0]
        assert failed.attempts == 2  # first try + 1 retry
        assert "ideal exploded" in failed.error
        # The manifest records the failure durably.
        manifest_statuses = RunManifest(tmp_path / "run").job_statuses()
        assert manifest_statuses[failed.key] == "failed"
        assert sorted(manifest_statuses.values()) == ["done", "done", "failed"]

    def test_timeout_retries_then_gives_up(self):
        report = Orchestrator(
            jobs=1, runner=sleepy_run, timeout_s=0.3, retries=1,
            backoff_s=0.01,
        ).run([_spec()])
        outcome, = report.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "timeout" in outcome.error

    def test_summary_counts(self, tmp_path):
        specs = [_spec(seed=s) for s in (1, 2, 3)]
        report = Orchestrator(jobs=2, runner=fake_run).run(specs)
        assert report.summary["done"] == 3
        assert report.summary["failed"] == 0
        assert report.summary["cached"] == 0
        assert report.summary["total"] == 3


class TestCache:
    def test_hit_skips_worker_and_is_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = Orchestrator(jobs=2, cache=cache, runner=fake_run).run(
            [_spec(seed=1), _spec(seed=2)]
        )
        assert all(o.status == "done" for o in first.outcomes)

        # Second run: a boom runner proves no worker is ever spawned.
        again = Orchestrator(jobs=2, cache=cache, runner=boom_run).run(
            [_spec(seed=1), _spec(seed=2)]
        )
        assert all(o.status == "cached" for o in again.outcomes)
        for before, after in zip(first.outcomes, again.outcomes):
            assert after.result.to_dict() == before.result.to_dict()
        assert again.summary["cache_hit_rate"] == 1.0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _spec().key()
        cache.put(key, fake_run(_spec()))
        cache.path(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_failed_jobs_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        Orchestrator(jobs=1, cache=cache, runner=boom_run, retries=0,
                     backoff_s=0.01).run([_spec()])
        assert _spec().key() not in cache


class TestResume:
    def test_resume_skips_done_and_retries_failed(self, tmp_path):
        run_dir = tmp_path / "run"
        specs = [_spec(system="baseline"), _spec(system="ideal")]
        first = Orchestrator(jobs=2, runner=boom_on_ideal, retries=0,
                             backoff_s=0.01).run(specs, run_dir=run_dir)
        assert {o.status for o in first.outcomes} == {"done", "failed"}

        resumed = Orchestrator(jobs=2, runner=fake_run).run(
            specs, run_dir=run_dir
        )
        by_system = {o.spec.system: o for o in resumed.outcomes}
        assert by_system["baseline"].status == "cached"
        assert by_system["baseline"].source == "manifest"
        assert by_system["ideal"].status == "done"
        assert by_system["baseline"].result == fake_run(specs[0])

    def test_run_spec_persisted_once(self, tmp_path):
        run_dir = tmp_path / "run"
        manifest = RunManifest(run_dir)
        manifest.write_spec({"kind": "sweep", "benchmarks": ["STREAM"]})
        manifest.write_spec({"kind": "other"})  # resume must not clobber
        assert manifest.read_spec()["kind"] == "sweep"


class TestTelemetry:
    def test_jsonl_records_and_summary(self, tmp_path):
        run_dir = tmp_path / "run"
        Orchestrator(jobs=2, runner=boom_on_ideal, retries=0,
                     backoff_s=0.01).run(
            [_spec(system="baseline"), _spec(system="ideal")],
            run_dir=run_dir,
        )
        records = [json.loads(line) for line in
                   (run_dir / "telemetry.jsonl").read_text().splitlines()]
        events = [r["event"] for r in records]
        assert events[0] == "begin"
        assert events[-1] == "summary"
        job_records = [r for r in records if r["event"] == "job"]
        assert sorted(r["status"] for r in job_records) == ["done", "failed"]
        summary = records[-1]
        assert summary["done"] == 1
        assert summary["failed"] == 1
        assert summary["workers"] == 2
        # begin/summary carry epoch stamps so readers can place the run
        # on the calendar; durations stay monotonic-clock based.
        assert records[0]["ts"] > 1.6e9
        assert summary["ts"] >= records[0]["ts"]

    def test_durations_use_the_injected_monotonic_clock(self, tmp_path):
        from repro.orchestrator.telemetry import RunTelemetry

        ticks = iter([100.0, 100.5, 103.0, 103.0])
        telemetry = RunTelemetry(path=tmp_path / "t.jsonl", workers=2,
                                 clock=lambda: next(ticks))
        telemetry.begin(1)
        telemetry.job_finished("k", "job", "done", attempts=1, wall_s=2.0,
                               was_running=False)
        summary = telemetry.summary()
        # elapsed is clock deltas (103.0 - 100.0), never wall-clock time,
        # so an NTP step cannot skew the utilization denominator.
        assert summary["elapsed_s"] == pytest.approx(3.0)
        assert summary["worker_utilization"] == pytest.approx(
            2.0 / (3.0 * 2)
        )


class TestSweepIntegration:
    """End-to-end through real simulations (tiny grid, tiny scale)."""

    def test_parallel_matches_serial_and_caches(self, tmp_path):
        kwargs = dict(benchmarks=["STREAM"], systems=["baseline", "ideal"],
                      seeds=[1], scale=SCALE)
        serial = run_sweep(**kwargs)
        parallel = run_sweep(**kwargs, jobs=2, cache_dir=tmp_path / "cache")
        assert parallel.to_csv() == serial.to_csv()

        rerun = run_sweep(**kwargs, jobs=2, cache_dir=tmp_path / "cache",
                          run_dir=tmp_path / "run")
        assert rerun.to_csv() == serial.to_csv()
        manifest = RunManifest(tmp_path / "run")
        assert set(manifest.job_statuses().values()) == {"cached"}

    def test_default_runner_is_execute_job(self):
        assert Orchestrator().runner is execute_job
