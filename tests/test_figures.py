"""The Fig. 12/13/14 pipeline (:mod:`repro.analysis.figures`) at a micro
scale: one point key, one orchestrator run, one table writer."""

import dataclasses

import pytest

from repro.analysis import figures
from repro.analysis.figures import (
    FIGURES,
    build,
    figure_point,
    plan,
    regenerate,
    simulate,
)
from repro.orchestrator import JobSpec, Orchestrator, ResultCache
from repro.sim.runner import ExperimentScale

MICRO = ExperimentScale(name="micro", factor=64, cores=2,
                        records_per_core=40, warmup_per_core=0)


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A cache an orchestrator sweep filled with the figures' points."""
    cache = ResultCache(tmp_path_factory.mktemp("cache"))
    report = Orchestrator(jobs="auto", cache=cache).run(
        FIGURES["fig12_speedup"].points(MICRO)
    )
    assert report.ok
    return cache


def _tables(out_dir):
    return {name: (out_dir / f"{name}.txt").read_text(encoding="utf-8")
            for name in FIGURES}


class _NoOrchestrator:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a fresh figure must launch no job")


def test_a_sweep_filled_cache_serves_every_point(filled_cache, tmp_path):
    statuses = plan(filled_cache, tmp_path, MICRO)
    assert [(s.spec.name, s.cached_points, s.total_points)
            for s in statuses] == [
        ("fig12_speedup", 80, 80),
        ("fig13_energy", 80, 80),
        ("fig14_bandwidth_latency", 40, 40),
    ]
    assert not any(status.fresh for status in statuses)


def test_cold_regenerate_runs_shared_points_once(filled_cache, tmp_path,
                                                 monkeypatch):
    batches = []

    class Recording(Orchestrator):
        def run(self, specs, **kwargs):
            batches.append(len(specs))
            return super().run(specs, **kwargs)

    monkeypatch.setattr(figures, "Orchestrator", Recording)
    cache = ResultCache(tmp_path / "cache")
    outcome = regenerate(cache, tmp_path / "cold", MICRO)
    assert [action for __, action in outcome] == ["rebuilt"] * 3
    assert batches == [80]
    assert len(cache) == 80
    # Simulated afresh or read from a sweep's cache: the same tables.
    regenerate(filled_cache, tmp_path / "warm", MICRO)
    assert _tables(tmp_path / "cold") == _tables(tmp_path / "warm")


def test_second_regenerate_is_fresh_and_launches_nothing(
        filled_cache, tmp_path, monkeypatch):
    first = regenerate(filled_cache, tmp_path, MICRO)
    assert [action for __, action in first] == ["rebuilt"] * 3
    tables = _tables(tmp_path)
    monkeypatch.setattr(figures, "Orchestrator", _NoOrchestrator)
    second = regenerate(filled_cache, tmp_path, MICRO)
    assert [action for __, action in second] == ["fresh"] * 3
    assert _tables(tmp_path) == tables


def test_a_table_written_at_another_scale_reads_stale(filled_cache,
                                                      tmp_path):
    regenerate(filled_cache, tmp_path, MICRO)
    name = "fig14_bandwidth_latency"
    micro_table = (tmp_path / f"{name}.txt").read_text(encoding="utf-8")
    # A bench run at another scale rewrites the table.
    other = dataclasses.replace(MICRO, records_per_core=30)
    build([FIGURES[name]], filled_cache, tmp_path, other)
    assert (tmp_path / f"{name}.txt").read_text(encoding="utf-8") \
        != micro_table
    fresh = {s.spec.name: s.fresh
             for s in plan(filled_cache, tmp_path, MICRO)}
    assert fresh == {"fig12_speedup": True, "fig13_energy": True,
                     name: False}
    actions = {status.spec.name: action
               for status, action in regenerate(filled_cache, tmp_path,
                                                MICRO)}
    assert actions == {"fig12_speedup": "fresh", "fig13_energy": "fresh",
                       name: "rebuilt"}
    assert (tmp_path / f"{name}.txt").read_text(encoding="utf-8") \
        == micro_table


def test_each_distinct_point_is_keyed_once(filled_cache, tmp_path,
                                          monkeypatch):
    calls = []
    key = JobSpec.key

    def counting_key(self, *args, **kwargs):
        calls.append(self.describe())
        return key(self, *args, **kwargs)

    monkeypatch.setattr(JobSpec, "key", counting_key)
    plan(filled_cache, tmp_path, MICRO)
    # Figs. 12-14 list 200 points, of which 80 are distinct.
    assert len(calls) == len(set(calls)) == 80
    calls.clear()
    regenerate(filled_cache, tmp_path, MICRO, force=True)
    # Once in plan, once in build and once in the orchestrator's run.
    assert len(calls) <= 3 * 80


def test_a_failed_point_raises(tmp_path):
    with pytest.raises(RuntimeError, match="doom"):
        simulate([figure_point("doom", "baseline", MICRO)],
                 ResultCache(tmp_path))


def test_points_carry_only_the_parameters_set():
    fig12 = {point.key() for point in FIGURES["fig12_speedup"].points(MICRO)}
    assert figure_point("mcf", "baseline", MICRO).parameters == {}
    assert figure_point("mcf", "baseline", MICRO).key() in fig12
    ablation = figure_point("mcf", "attache", MICRO,
                            copr_config=MICRO.copr_config())
    assert ablation.key() not in fig12


def test_unknown_figure_names_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="fig12_speedup"):
        plan(ResultCache(tmp_path), tmp_path, MICRO, only=["fig99"])
